"""Per-run resolved snapshots of every runtime knob.

A :class:`RuntimeConfig` is frozen: engines resolve one at the top of
``run()`` and consult only the snapshot for the rest of the run, so
flipping an environment variable mid-process affects the *next* run but
never half-applies to one in flight (historically one knob followed a
flip while the arena choice, cached at import time, did not).

Precedence, lowest to highest: registry default < tuned-profile entry <
environment variable < explicit override (CLI flag / API argument).
Resolution only ever reads the environment: an override is an argument
(``make_engine(overrides=...)``), and worker processes get the
coordinator's snapshot shipped to them, not an edited environ.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping

from repro.tune.knobs import KNOB_BY_NAME, KNOBS, KnobError


@dataclass(frozen=True)
class RuntimeConfig:
    """One fully-resolved, immutable set of knob values.

    Field names match :data:`repro.tune.knobs.KNOBS` entries one-to-one;
    the dataclass is picklable so the process-parallel coordinator ships
    its snapshot to workers instead of trusting their inherited environ.
    """

    workers: int = 0
    arena: str = "ram"
    transport: str = "memory"
    nodes: "str | None" = None
    spill_quota: "int | None" = None
    spill_dir: "str | None" = None
    trace: "str | None" = None
    faults: "str | None" = None
    profile: "str | None" = None

    def replace(self, **changes: Any) -> "RuntimeConfig":
        return dataclasses.replace(self, **changes)

    def knob_values(self) -> dict[str, Any]:
        """Field-name → value for every registered knob."""
        return {spec.name: getattr(self, spec.name) for spec in KNOBS}

    def with_overrides(
        self, overrides: "Mapping[str, Any] | None"
    ) -> "RuntimeConfig":
        """This snapshot with explicit (CLI/API) values applied on top.

        ``None`` entries are ignored so callers can pass optional flags
        straight through; every other value goes through the knob's
        parser, as environment input does, so a malformed one (``-1``
        workers, say) raises a :class:`KnobError` naming the variable.
        """
        changes: dict[str, Any] = {}
        for name, val in (overrides or {}).items():
            spec = KNOB_BY_NAME.get(name)
            if spec is None:
                raise KnobError(f"unknown knob override {name!r}")
            if val is not None:
                changes[name] = spec.coerce(str(val))
        return self.replace(**changes) if changes else self

    @classmethod
    def resolve(
        cls,
        overrides: "Mapping[str, Any] | None" = None,
        profile: "Mapping[str, Any] | None" = None,
        environ: "Mapping[str, str] | None" = None,
    ) -> "RuntimeConfig":
        """Resolve one snapshot with full precedence.

        *profile* maps knob field names to values as found in a tuned
        profile's ``config`` section; entries are validated through the
        same parsers as environment input.  *overrides* are explicit
        (CLI/API) values applied last (:meth:`with_overrides`).
        """
        env = os.environ if environ is None else environ
        values: dict[str, Any] = {s.name: s.default for s in KNOBS}
        if profile:
            for name, val in profile.items():
                spec = KNOB_BY_NAME.get(name)
                if spec is None:
                    raise KnobError(f"unknown knob {name!r} in tuned profile")
                if val is None:
                    values[name] = None
                else:
                    values[name] = spec.coerce(str(val))
        for spec in KNOBS:
            raw = env.get(spec.env)
            if raw is not None and raw.strip():
                values[spec.name] = spec.coerce(raw)
        return cls(**values).with_overrides(overrides)

    @classmethod
    def from_env(
        cls, environ: "Mapping[str, str] | None" = None
    ) -> "RuntimeConfig":
        return cls.resolve(environ=environ)


def current() -> RuntimeConfig:
    """The knob snapshot the current environment resolves to.

    Deliberately uncached — engines capture the result once per run, so
    callers without a snapshot always see fresh environment state.
    """
    return RuntimeConfig.from_env()

