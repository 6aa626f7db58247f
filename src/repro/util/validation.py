"""Error types and the `require` helper used across the library."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """An engine detected an internal inconsistency while simulating."""


class ConfigurationError(ValueError):
    """A machine/algorithm configuration is malformed (e.g. v not divisible
    by p, non-positive block size)."""


class PreemptedError(SimulationError):
    """A run was preempted at a round boundary after checkpointing.

    Raised by :meth:`repro.cgm.engine.Engine.run` when its ``preempt``
    callable returns true at a checkpoint boundary — the on-disk snapshot
    written immediately before is complete, so re-running with
    ``resume=True`` continues bit-identically.  The job server uses this
    to evict a running job in favor of a higher-priority tenant without
    losing its finished rounds.
    """


class ConstraintViolation(ValueError):
    """A paper-mandated parameter constraint does not hold.

    The paper's theorems only apply inside a parameter region (e.g.
    ``N = Omega(v*D*B)``, ``N >= v^2*B + v^2(v-1)/2``).  Raised by
    ``MachineConfig.validate(strict=True)``.
    """


def require(cond: bool, message: str, exc: type[Exception] = ConfigurationError) -> None:
    """Raise *exc* with *message* unless *cond* holds."""
    if not cond:
        raise exc(message)
