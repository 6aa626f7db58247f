"""Persisted tuned profiles: schema-versioned, fingerprinted JSON.

A tuned profile is the durable output of ``repro tune``: the machine
shape (v, B, D) and knob values the tuner chose for one workload on one
host, plus the per-decision rationale.  The document is deterministic —
no timestamps, environment fingerprint stripped of per-invocation noise,
keys sorted — so the same workload + hardware + seed always serializes
to byte-identical JSON (a property test pins this).

Layout (``SCHEMA_VERSION`` 4; versions 1, 2 and 3 carried the retired
fast-path, prefetch and shared-memory threshold knobs in ``config`` and
are refused by the version check)::

    {
      "schema_version": 4,
      "kind": "repro-tuned-profile",
      "workload": {"op": "sort", "n": 65536, "p": 4, "seed": 7},
      "machine": {"v": 8, "B": 256, "D": 2},
      "config": {"workers": 0, "arena": "ram", ...},
      "rationale": ["analytic: pruned 21/27 candidates ...", ...],
      "search": {"candidates": 27, "pruned": 21, "probes": 6, ...},
      "env": {"python": "...", "platform": "...", ...},
      "fingerprint": "sha256 of workload+env"
    }
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.bench_store import env_fingerprint
from repro.tune.knobs import KNOB_BY_NAME
from repro.util.validation import ConfigurationError

SCHEMA_VERSION = 4
KIND = "repro-tuned-profile"

_REQUIRED_DOC_KEYS = (
    "schema_version",
    "kind",
    "workload",
    "machine",
    "config",
    "rationale",
    "env",
    "fingerprint",
)
_MACHINE_KEYS = ("v", "B", "D")


def stable_env_fingerprint() -> dict[str, str]:
    """The bench-store fingerprint minus per-invocation noise (argv0)."""
    env = env_fingerprint()
    env.pop("argv0", None)
    return env


def profile_fingerprint(
    workload: Mapping[str, Any], env: Mapping[str, str]
) -> str:
    """sha256 over the canonical workload + hardware identity."""
    canon = json.dumps(
        {"workload": dict(workload), "env": dict(env)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class TunedProfile:
    """One tuning decision, ready to serialize."""

    workload: dict[str, Any]
    machine: dict[str, int]
    config: dict[str, Any]
    rationale: list[str] = field(default_factory=list)
    search: dict[str, Any] = field(default_factory=dict)
    env: dict[str, str] = field(default_factory=stable_env_fingerprint)

    def document(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND,
            "workload": self.workload,
            "machine": self.machine,
            "config": self.config,
            "rationale": self.rationale,
            "search": self.search,
            "env": self.env,
            "fingerprint": profile_fingerprint(self.workload, self.env),
        }

    def dumps(self) -> str:
        return json.dumps(self.document(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> str:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
        return path


def validate_profile(doc: Any) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"profile must be an object, got {type(doc).__name__}"]
    for key in _REQUIRED_DOC_KEYS:
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc['schema_version']!r} != supported {SCHEMA_VERSION}"
        )
    if doc["kind"] != KIND:
        errors.append(f"kind {doc['kind']!r} != {KIND!r}")
    for key in ("workload", "machine", "config", "env"):
        if not isinstance(doc[key], dict):
            errors.append(f"{key} must be an object")
    if not isinstance(doc["rationale"], list):
        errors.append("rationale must be an array")
    if errors:
        return errors
    for key in _MACHINE_KEYS:
        val = doc["machine"].get(key)
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            errors.append(f"machine.{key} must be a positive integer")
    for name, val in doc["config"].items():
        spec = KNOB_BY_NAME.get(name)
        if spec is None:
            errors.append(f"config.{name} is not a registered knob")
            continue
        if val is None:
            continue
        try:
            spec.coerce(str(val))
        except ConfigurationError as exc:
            errors.append(f"config.{name}: {exc}")
    expect = profile_fingerprint(doc["workload"], doc["env"])
    if doc["fingerprint"] != expect:
        errors.append(
            "fingerprint does not match workload+env "
            f"(expected {expect[:12]}..., got {str(doc['fingerprint'])[:12]}...)"
        )
    return errors


def load_profile(path: str) -> dict[str, Any]:
    """Load and validate a tuned-profile document.

    Raises :class:`~repro.util.validation.ConfigurationError` (CLI exit
    code 3, like a bad fault plan) when the file is missing or invalid.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read tuned profile {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"tuned profile {path} is not valid JSON: {exc}"
        ) from None
    errors = validate_profile(doc)
    if errors:
        raise ConfigurationError(
            f"invalid tuned profile {path}:\n  " + "\n  ".join(errors)
        )
    return doc


def config_from_profile(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The knob mapping to feed ``RuntimeConfig.resolve(profile=...)``."""
    return dict(doc["config"])
