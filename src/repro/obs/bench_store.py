"""Machine-readable benchmark results: the ``BENCH_<suite>.json`` store.

The benchmark modules print paper-style tables for humans; this module
makes the same numbers durable and comparable.  A :class:`BenchStore`
collects *points* — one named measurement each, carrying the machine
configuration, the measured cost counters (exact, deterministic), the
Theorem 2/3 predicted envelopes and any wall-clock timings (fuzzy, this
machine's) — and writes them as one schema-versioned JSON document with an
environment fingerprint.  :func:`compare` is the regression gate: I/O
counts are deterministic simulation outputs and must match within
``io_rtol`` (default exact); timings are provenance and never gate
(``benchmarks/e2e`` owns time).

Document layout (``SCHEMA_VERSION`` 1)::

    {
      "schema_version": 1,
      "suite": "fig3_vm_vs_em",
      "created_unix": 1770000000.0,
      "env": {"python": "...", "platform": "...", "numpy": "..."},
      "points": [
        {
          "name": "sort/N=65536",
          "machine": {"N": ..., "v": ..., "p": ..., "D": ..., "B": ..., "M": ...},
          "measured": {"parallel_ios": 812, "blocks_total": 1624, ...},
          "predicted": {"parallel_ios": 768.0, "io_lo": 96.0, "io_hi": 6144.0},
          "timings": {"wall_s": 0.13}
        }, ...
      ]
    }
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.bus import _jsonable

SCHEMA_VERSION = 1

#: measured keys gated exactly (deterministic counters); everything else in
#: ``measured`` is still gated with ``io_rtol`` — these are just the usual
#: names produced by :func:`measured_from_report`.
_REQUIRED_POINT_KEYS = ("name", "measured")
_REQUIRED_DOC_KEYS = ("schema_version", "suite", "env", "points")


def env_fingerprint() -> dict[str, str]:
    """Where these numbers came from (for artifact provenance, not gating)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "argv0": sys.argv[0] if sys.argv else "",
    }


def measured_from_report(report) -> dict[str, Any]:
    """The deterministic cost counters of a :class:`CostReport`."""
    return {
        "engine": report.engine,
        "rounds": report.rounds,
        "supersteps": report.supersteps,
        "parallel_ios": report.io.parallel_ios,
        "parallel_ios_max_proc": report.io_max.parallel_ios,
        "blocks_total": report.io.blocks_total,
        "comm_items": report.comm_items,
        "cross_items": report.cross_items,
        "context_blocks_io": report.context_blocks_io,
        "message_blocks_io": report.message_blocks_io,
        "overflow_blocks": report.overflow_blocks,
        "page_faults": report.page_faults,
        "peak_memory_items": report.peak_memory_items,
    }


def predicted_from(cfg, rounds: int, balanced: bool = False) -> dict[str, Any]:
    """Theorem 2/3 envelope for a run of *rounds* CGM rounds on *cfg*."""
    from repro.obs.costcheck import (
        DEFAULT_ENVELOPE,
        theorem3_io_envelope,
        theorem3_predicted_ios,
    )

    pred = theorem3_predicted_ios(cfg, rounds, balanced)
    lo, hi = theorem3_io_envelope(cfg, rounds, balanced=balanced)
    return {
        "parallel_ios_per_proc": pred,
        "io_lo": lo,
        "io_hi": hi,
        "envelope_c": DEFAULT_ENVELOPE,
        "rounds": rounds,
        "balanced": balanced,
    }


def machine_dict(cfg) -> dict[str, Any]:
    return {
        "N": cfg.N,
        "v": cfg.v,
        "p": cfg.p,
        "D": cfg.D,
        "B": cfg.B,
        "M": cfg.M,
        "g": cfg.g,
        "G": cfg.G,
        "L": cfg.L,
        "seed": cfg.seed,
    }


class BenchStore:
    """Accumulates benchmark points for one suite and writes the JSON."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.points: list[dict[str, Any]] = []

    def record(
        self,
        name: str,
        cfg=None,
        report=None,
        measured: dict[str, Any] | None = None,
        predicted: dict[str, Any] | None = None,
        timings: dict[str, float] | None = None,
        balanced: bool = False,
        **extra: Any,
    ) -> dict[str, Any]:
        """Add one point.  *cfg* fills ``machine``; *report* fills the
        measured counters and (with *cfg*) the predicted envelope; explicit
        dicts override/extend both."""
        point: dict[str, Any] = {"name": str(name)}
        if cfg is not None:
            point["machine"] = machine_dict(cfg)
        m: dict[str, Any] = measured_from_report(report) if report is not None else {}
        if measured:
            m.update(measured)
        point["measured"] = m
        p: dict[str, Any] = (
            predicted_from(cfg, report.rounds, balanced)
            if (cfg is not None and report is not None and report.io.parallel_ios)
            else {}
        )
        if predicted:
            p.update(predicted)
        if p:
            point["predicted"] = p
        if timings:
            point["timings"] = {k: float(v) for k, v in timings.items()}
        if extra:
            point["extra"] = extra
        self.points.append(point)
        return point

    def document(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "created_unix": time.time(),
            "env": env_fingerprint(),
            "points": self.points,
        }

    def write(self, directory: str = ".") -> str:
        """Write ``<directory>/BENCH_<suite>.json``; returns the path."""
        import os

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"BENCH_{self.suite}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(), fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")
        return path


# ------------------------------------------------------------------ validation


def validate_document(doc: Any) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key in _REQUIRED_DOC_KEYS:
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc['schema_version']!r} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(doc["suite"], str) or not doc["suite"]:
        errors.append("suite must be a non-empty string")
    if not isinstance(doc["env"], dict):
        errors.append("env must be an object")
    if not isinstance(doc["points"], list):
        errors.append("points must be an array")
        return errors
    names: set[str] = set()
    for i, point in enumerate(doc["points"]):
        where = f"points[{i}]"
        if not isinstance(point, dict):
            errors.append(f"{where} must be an object")
            continue
        for key in _REQUIRED_POINT_KEYS:
            if key not in point:
                errors.append(f"{where} missing key {key!r}")
        name = point.get("name")
        if isinstance(name, str):
            if name in names:
                errors.append(f"{where} duplicate point name {name!r}")
            names.add(name)
        if not isinstance(point.get("measured", {}), dict):
            errors.append(f"{where}.measured must be an object")
        for opt in ("machine", "predicted", "timings", "extra"):
            if opt in point and not isinstance(point[opt], dict):
                errors.append(f"{where}.{opt} must be an object")
    return errors


def load(path: str) -> dict[str, Any]:
    """Load and validate a ``BENCH_*.json`` document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_document(doc)
    if errors:
        raise ValueError(f"{path}: invalid benchmark document:\n  " + "\n  ".join(errors))
    return doc


# ------------------------------------------------------------------ comparison


@dataclass(frozen=True)
class Mismatch:
    """One gated value that moved outside its tolerance."""

    point: str
    key: str
    old: float
    new: float
    rtol: float
    kind: str  # "measured" | "missing"

    def describe(self) -> str:
        if self.kind == "missing":
            return f"[{self.point}] {self.key}"
        delta = (self.new - self.old) / self.old if self.old else float("inf")
        return (
            f"[{self.point}] {self.kind} {self.key}: {self.old:g} -> {self.new:g} "
            f"({delta:+.1%}, tolerance {self.rtol:.1%})"
        )


@dataclass
class CompareResult:
    """Outcome of gating *new* against the *old* baseline."""

    suite: str
    regressions: list[Mismatch] = field(default_factory=list)
    compared_values: int = 0
    compared_points: int = 0
    env_changed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        head = (
            f"bench compare [{self.suite}]: "
            + (
                f"OK — {self.compared_values} values across "
                f"{self.compared_points} points within tolerance"
                if self.ok
                else f"{len(self.regressions)} REGRESSION(S)"
            )
        )
        lines = [head]
        lines.extend("  " + r.describe() for r in self.regressions)
        if self.env_changed:
            lines.append(
                "  note: environment changed (" + ", ".join(self.env_changed) + ")"
            )
        return "\n".join(lines)


def _within(old: float, new: float, rtol: float) -> bool:
    if old == new:
        return True
    return abs(new - old) <= rtol * max(abs(old), 1e-12)


def compare(
    old: dict[str, Any], new: dict[str, Any], io_rtol: float = 0.0
) -> CompareResult:
    """Gate *new* against baseline *old*.

    Every numeric key in each point's ``measured`` dict must agree within
    ``io_rtol`` (relative; 0.0 = exact — the simulation is deterministic).
    ``timings`` are not compared.  Points present in the baseline but
    absent from the new run are regressions (coverage must not silently
    shrink); new extra points are fine.
    """
    for doc in (old, new):
        errors = validate_document(doc)
        if errors:
            raise ValueError("invalid benchmark document:\n  " + "\n  ".join(errors))
    out = CompareResult(suite=new.get("suite", "?"))
    out.env_changed = [
        k
        for k in sorted(set(old.get("env", {})) | set(new.get("env", {})))
        if k != "argv0" and old.get("env", {}).get(k) != new.get("env", {}).get(k)
    ]
    new_points = {p["name"]: p for p in new["points"]}
    for old_point in old["points"]:
        name = old_point["name"]
        new_point = new_points.get(name)
        if new_point is None:
            out.regressions.append(
                Mismatch(name, "point missing from new run", 0, 0, 0, "missing")
            )
            continue
        out.compared_points += 1
        for key, old_val in old_point.get("measured", {}).items():
            new_val = new_point.get("measured", {}).get(key)
            if not isinstance(old_val, (int, float)) or isinstance(old_val, bool):
                continue  # engine names etc.: provenance, not gated
            if new_val is None or not isinstance(new_val, (int, float)):
                out.regressions.append(
                    Mismatch(name, f"measured {key} missing", 0, 0, 0, "missing")
                )
                continue
            out.compared_values += 1
            if not _within(float(old_val), float(new_val), io_rtol):
                out.regressions.append(
                    Mismatch(name, key, float(old_val), float(new_val), io_rtol, "measured")
                )
    return out
