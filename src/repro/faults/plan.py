"""Deterministic fault plans for the simulated disk layer.

A :class:`FaultPlan` describes *which* physical mishaps the parallel-disk
layer should suffer during a run — transient read/write failures, torn
(partial) writes, and whole-disk deaths — plus the :class:`RetryPolicy`
used to recover from transients.  Plans are deterministic by construction:

* probabilistic faults draw from a seeded RNG that is derived **per real
  processor** (``SeedSequence([seed, real])``), so the fault sequence a
  given disk array experiences does not depend on how the real processors
  are partitioned over worker processes;
* scheduled faults name an exact ``(real, op, disk)`` coordinate, where
  ``op`` is the per-array parallel-I/O index;
* disk deaths name ``(real, disk, after_op)``.

Plans round-trip through JSON (``--faults PLAN.json`` on the CLI,
``make_engine(faults=...)`` in the library).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any

from repro.util.validation import ConfigurationError

#: fault kinds a schedule entry may request.
FAULT_KINDS = ("transient_read", "transient_write", "torn_write")


def _integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class RetryPolicy:
    """How the disk layer recovers from transient faults.

    ``backoff_s`` is *modeled* time per retry (multiplied by the attempt
    number, i.e. linear backoff); it is accounted in the fault statistics
    rather than slept, so fault-injected runs stay fast and deterministic.
    """

    max_retries: int = 3
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if not _integer(self.max_retries) or self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be an integer >= 0, got {self.max_retries!r}"
            )
        if not _real(self.backoff_s) or self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be a number >= 0, got {self.backoff_s!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"max_retries": self.max_retries, "backoff_s": self.backoff_s}


@dataclass(frozen=True)
class ScheduledFault:
    """One explicit fault: parallel I/O number *op* on *disk* of *real*."""

    real: int
    op: int
    disk: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.real < 0 or self.op < 0 or self.disk < 0:
            raise ConfigurationError(
                f"scheduled fault coordinates must be >= 0, got {self}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"real": self.real, "op": self.op, "disk": self.disk, "kind": self.kind}


@dataclass(frozen=True)
class DiskDeath:
    """Disk *disk* of real processor *real* dies permanently once that
    array has issued *after_op* parallel I/Os (stuck-at failure)."""

    real: int
    disk: int
    after_op: int

    def __post_init__(self) -> None:
        if self.real < 0 or self.disk < 0 or self.after_op < 0:
            raise ConfigurationError(f"disk death coordinates must be >= 0, got {self}")

    def to_dict(self) -> dict[str, Any]:
        return {"real": self.real, "disk": self.disk, "after_op": self.after_op}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seedable description of the faults to inject.

    Probabilities apply independently to every single-track access
    (including retry attempts, so a retry can itself fail).  All faults are
    applied per real processor by :meth:`injector_for`, which the EM
    engines call once per :class:`~repro.pdm.disk_array.DiskArray`.
    """

    seed: int = 0
    p_transient_read: float = 0.0
    p_transient_write: float = 0.0
    p_torn_write: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    schedule: tuple[ScheduledFault, ...] = ()
    dead_disks: tuple[DiskDeath, ...] = ()

    def __post_init__(self) -> None:
        if not _integer(self.seed) or self.seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        for name in ("p_transient_read", "p_transient_write", "p_torn_write"):
            prob = getattr(self, name)
            if not _real(prob) or not 0.0 <= prob <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {prob!r}")
            object.__setattr__(self, name, float(prob))

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {type(doc).__name__}"
            )
        known = {
            "seed",
            "p_transient_read",
            "p_transient_write",
            "p_torn_write",
            "retry",
            "schedule",
            "dead_disks",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan field(s): {', '.join(sorted(unknown))}"
            )
        try:
            retry = RetryPolicy(**doc.get("retry", {}))
            schedule = tuple(ScheduledFault(**s) for s in doc.get("schedule", []))
            dead = tuple(DiskDeath(**d) for d in doc.get("dead_disks", []))
        except TypeError as exc:
            raise ConfigurationError(f"malformed fault plan: {exc}") from None
        return cls(
            seed=doc.get("seed", 0),
            p_transient_read=doc.get("p_transient_read", 0.0),
            p_transient_write=doc.get("p_transient_write", 0.0),
            p_torn_write=doc.get("p_torn_write", 0.0),
            retry=retry,
            schedule=schedule,
            dead_disks=dead,
        )

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan {path!r}: {exc}"
            ) from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan {path!r} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(doc)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "p_transient_read": self.p_transient_read,
            "p_transient_write": self.p_transient_write,
            "p_torn_write": self.p_torn_write,
            "retry": self.retry.to_dict(),
            "schedule": [s.to_dict() for s in self.schedule],
            "dead_disks": [d.to_dict() for d in self.dead_disks],
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- derived views -------------------------------------------------------

    @property
    def probabilistic(self) -> bool:
        return bool(
            self.p_transient_read or self.p_transient_write or self.p_torn_write
        )

    def injector_for(self, real: int):
        """The per-real-processor injector this plan prescribes.

        Deterministic in *real* alone: worker partitioning, engine kind and
        execution order of the other reals never change the fault sequence
        one array sees.
        """
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, real)
