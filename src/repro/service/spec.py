"""Validated run specifications and their cache fingerprints.

A :class:`JobSpec` is everything a tenant may say about a run: the
operation, problem size and seed, the simulated machine shape, the
backend, and a small allow-listed subset of the ``repro.tune`` knobs.
Parsing is strict, error-list style (mirroring
:func:`repro.tune.profile.validate_profile`): every problem in the
document is reported at once, as one :class:`ConfigurationError`, never
a traceback.

The **cache fingerprint** reuses the tuned-profile machinery
(:func:`repro.tune.profile.profile_fingerprint` over a canonical
workload document plus the stable host fingerprint) and deliberately
excludes everything that cannot change the result:

* ``tenant`` and ``priority`` — scheduling identity, not workload;
* ``workers`` — the multi-process backend is bit-identical to the
  in-process one by construction (the same reason
  ``repro.faults``' checkpoint metadata omits it);
* ``config`` knobs — arena and spill quota only change *how*
  bytes are stored, never the logical outputs or IOStats.

What remains (op, n, seed, machine shape, resolved engine, balanced
routing, fault plan) is exactly the set of inputs that determine the
result document bit for bit, so two tenants submitting the same
workload share one execution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.cgm.config import MachineConfig
from repro.em.runner import OPS, default_engine
from repro.faults.plan import FaultPlan
from repro.tune.knobs import KNOB_BY_NAME, KnobError
from repro.tune.profile import profile_fingerprint, stable_env_fingerprint
from repro.tune.tuner import WorkloadSpec
from repro.util.items import ITEM_FORMAT_VERSION
from repro.util.validation import ConfigurationError

#: operations a spec may request: the rows of the op table
SPEC_OPS = tuple(OPS)

#: engines a spec may request (checkpoint-capable EM backends only;
#: ``None`` resolves through :func:`repro.em.runner.default_engine`)
SPEC_ENGINES = ("seq", "par")

#: per-job problem-size ceiling — one tenant must not OOM the server
MAX_N = 1 << 24

#: per-job worker-process ceiling
MAX_WORKERS = 8

PRIORITY_RANGE = (0, 9)

#: knobs a spec's ``config`` section may set.  Everything here is
#: physical-only (bit-identical logical results by the repo's core
#: invariant).  Deliberately excluded: ``workers`` (top-level field),
#: ``trace`` (the server owns the tracer), ``profile`` and ``spill_dir``
#: (host paths are not tenant-controllable).  A fault plan is no knob:
#: it is the spec's ``faults`` section.
CONFIG_KNOBS = frozenset({"arena", "spill_quota"})

_TOP_KEYS = frozenset(
    {
        "op", "n", "seed", "machine", "engine", "balanced", "workers",
        "config", "faults", "tenant", "priority",
    }
)
_MACHINE_KEYS = frozenset({"v", "p", "D", "B", "M"})

#: tenants become metric label values and checkpoint path components
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

DEFAULT_TENANT = "default"


def _as_int(doc: dict[str, Any], key: str, errors: list[str]) -> int | None:
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, int):
        errors.append(f"{key} must be an integer, got {val!r}")
        return None
    return val


def validate_spec(doc: Any) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"job spec must be a JSON object, got {type(doc).__name__}"]
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown field(s): {', '.join(sorted(unknown))}")
    if doc.get("op") not in SPEC_OPS:
        errors.append(f"op must be one of {list(SPEC_OPS)}, got {doc.get('op')!r}")
    if "n" not in doc:
        errors.append("n is required")
    else:
        n = _as_int(doc, "n", errors)
        if n is not None and not 1 <= n <= MAX_N:
            errors.append(f"n must be in [1, {MAX_N}], got {n}")
    if "seed" in doc:
        _as_int(doc, "seed", errors)
    machine = doc.get("machine", {})
    if not isinstance(machine, dict):
        errors.append(f"machine must be an object, got {type(machine).__name__}")
    else:
        bad = set(machine) - _MACHINE_KEYS
        if bad:
            errors.append(f"unknown machine field(s): {', '.join(sorted(bad))}")
        for key in sorted(set(machine) & _MACHINE_KEYS):
            val = machine[key]
            if isinstance(val, bool) or not isinstance(val, int) or val < 1:
                errors.append(f"machine.{key} must be a positive integer, got {val!r}")
    engine = doc.get("engine")
    if engine is not None and engine not in SPEC_ENGINES:
        errors.append(f"engine must be one of {list(SPEC_ENGINES)}, got {engine!r}")
    if "balanced" in doc and not isinstance(doc["balanced"], bool):
        errors.append(f"balanced must be a boolean, got {doc['balanced']!r}")
    if "workers" in doc:
        workers = _as_int(doc, "workers", errors)
        if workers is not None and not 0 <= workers <= MAX_WORKERS:
            errors.append(f"workers must be in [0, {MAX_WORKERS}], got {workers}")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        errors.append(f"config must be an object, got {type(config).__name__}")
    else:
        for name in sorted(config):
            spec = KNOB_BY_NAME.get(name)
            if spec is None or name not in CONFIG_KNOBS:
                errors.append(
                    f"config.{name} is not a settable knob "
                    f"(allowed: {', '.join(sorted(CONFIG_KNOBS))})"
                )
                continue
            try:
                spec.coerce(str(config[name]))
            except KnobError as exc:
                errors.append(f"config.{name}: {exc}")
    faults = doc.get("faults")
    if faults is not None:
        try:
            FaultPlan.from_dict(faults)
        except ConfigurationError as exc:
            errors.append(f"faults: {exc}")
    tenant = doc.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        errors.append(
            f"tenant must match {_TENANT_RE.pattern} "
            f"(it becomes a metric label), got {tenant!r}"
        )
    if "priority" in doc:
        prio = _as_int(doc, "priority", errors)
        lo, hi = PRIORITY_RANGE
        if prio is not None and not lo <= prio <= hi:
            errors.append(f"priority must be in [{lo}, {hi}], got {prio}")
    return errors


@dataclass(frozen=True)
class JobSpec:
    """One tenant's validated run request."""

    op: str
    n: int
    seed: int = 0
    v: int = 8
    p: int = 1
    D: int = 2
    B: int = 256
    M: int | None = None
    engine: str | None = None
    balanced: bool = False
    workers: int = 0
    config: dict[str, Any] = field(default_factory=dict)
    faults: dict[str, Any] | None = None
    tenant: str = DEFAULT_TENANT
    priority: int = 0

    @classmethod
    def from_dict(cls, doc: Any) -> "JobSpec":
        """Parse and validate; raises one error listing every problem."""
        errors = validate_spec(doc)
        if errors:
            raise ConfigurationError("invalid job spec: " + "; ".join(errors))
        machine = doc.get("machine", {})
        config = {
            name: KNOB_BY_NAME[name].coerce(str(val))
            for name, val in doc.get("config", {}).items()
        }
        spec = cls(
            op=doc["op"],
            n=doc["n"],
            seed=doc.get("seed", 0),
            v=machine.get("v", 8),
            p=machine.get("p", 1),
            D=machine.get("D", 2),
            B=machine.get("B", 256),
            M=machine.get("M"),
            engine=doc.get("engine"),
            balanced=doc.get("balanced", False),
            workers=doc.get("workers", 0),
            config=config,
            faults=doc.get("faults"),
            tenant=doc.get("tenant", DEFAULT_TENANT),
            priority=doc.get("priority", 0),
        )
        # MachineConfig's own invariants (p | v, M >= D*B, ...) are the
        # authority on shape validity — surface them as spec errors too
        try:
            spec.machine_config()
        except ConfigurationError as exc:
            raise ConfigurationError(f"invalid job spec: machine: {exc}") from None
        return spec

    # -- derived views -------------------------------------------------------

    def resolved_engine(self) -> str:
        """The backend that will actually run."""
        return self.engine if self.engine is not None else default_engine(self.p)

    def machine_config(self) -> MachineConfig:
        return MachineConfig(
            N=self.n, v=self.v, p=self.p, D=self.D, B=self.B, M=self.M,
            seed=self.seed,
        )

    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(op=self.op, n=self.n, seed=self.seed, p=self.p)

    def fault_plan(self) -> FaultPlan | None:
        return None if self.faults is None else FaultPlan.from_dict(self.faults)

    # -- identity ------------------------------------------------------------

    def cache_doc(self) -> dict[str, Any]:
        """The canonical workload identity (see the module docstring for
        what is excluded and why)."""
        return {
            "kind": "repro-service-job",
            # counters depend on serialized lengths: results cached under
            # another item format must miss, not be served
            "item_format": ITEM_FORMAT_VERSION,
            "op": self.op,
            "n": self.n,
            "seed": self.seed,
            "machine": {"v": self.v, "p": self.p, "D": self.D, "B": self.B,
                        "M": self.M},
            "engine": self.resolved_engine(),
            "balanced": self.balanced,
            "faults": self.faults,
        }

    def fingerprint(self) -> str:
        """sha256 identity for the result cache and checkpoint metadata."""
        return profile_fingerprint(self.cache_doc(), stable_env_fingerprint())

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable document (``from_dict(to_dict())`` is identity)."""
        doc: dict[str, Any] = {
            "op": self.op,
            "n": self.n,
            "seed": self.seed,
            "machine": {"v": self.v, "p": self.p, "D": self.D, "B": self.B},
            "balanced": self.balanced,
            "workers": self.workers,
            "tenant": self.tenant,
            "priority": self.priority,
        }
        if self.M is not None:
            doc["machine"]["M"] = self.M
        if self.engine is not None:
            doc["engine"] = self.engine
        if self.config:
            doc["config"] = dict(self.config)
        if self.faults is not None:
            doc["faults"] = self.faults
        return doc
