"""The single registry of every ``REPRO_*`` runtime knob.

Each knob is one :class:`KnobSpec`: its environment variable, value type,
default, owning subsystem, and a hardened parser.  All environment reads
of ``REPRO_*`` variables live in this package — consumers call
:func:`repro.tune.runtime.current` (or hold a per-run
:class:`~repro.tune.runtime.RuntimeConfig` snapshot) instead of touching
``os.environ``, and a lint test greps the rest of the tree to keep it
that way.  Nothing under ``src/repro`` writes the environment: a CLI flag
or API argument reaches a run as ``make_engine(overrides=...)``.

Malformed values never escape as raw ``ValueError`` tracebacks: every
parser failure becomes a :class:`KnobError` naming the variable, the
offending value, and the accepted spellings.  ``KnobError`` subclasses
:class:`~repro.util.validation.ConfigurationError` so library callers
keep working, while the CLI maps it to exit code 2 (a usage problem)
instead of 3 (a runtime failure).

The README's knob table is generated from this registry by
:func:`render_knob_table`, so documentation cannot drift from the code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.util.validation import ConfigurationError


class KnobError(ConfigurationError):
    """A ``REPRO_*`` knob (env var, CLI flag, or profile entry) is malformed."""


_FALSE = frozenset({"0", "false", "no", "off"})

#: Default payload size (bytes) above which worker packets travel through
#: shared memory.  Small packets stay inline in their frame: one pickle of
#: a few KB is cheaper than creating and mapping a segment.
DEFAULT_SHM_THRESHOLD = 1 << 16

#: storage backends the track arena can use (see repro.pdm.mmap_arena).
ARENA_KINDS = ("ram", "mmap")

#: worker-exchange transports (see repro.core.transport).
TRANSPORT_KINDS = ("memory", "shm", "tcp")


def _parse_workers(raw: str) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise ValueError("not an integer") from None
    if val < 0:
        raise ValueError("must be >= 0 (0 = single-process simulation)")
    return val


def _parse_arena(raw: str) -> str:
    tok = raw.lower()
    if tok not in ARENA_KINDS:
        raise ValueError(f"choose from {ARENA_KINDS}")
    return tok


def _parse_transport(raw: str) -> str:
    tok = raw.lower()
    if tok not in TRANSPORT_KINDS:
        raise ValueError(f"choose from {TRANSPORT_KINDS}")
    return tok


def _parse_nodes(raw: str) -> str:
    # canonicalized so equal node lists compare equal in RuntimeConfig
    from repro.core.transport.base import parse_nodes, render_nodes

    return render_nodes(parse_nodes(raw))


def _parse_shm_bytes(raw: str) -> "int | None":
    try:
        val = int(raw)
    except ValueError:
        raise ValueError("not an integer byte count (<= 0 disables)") from None
    return val if val > 0 else None


def _parse_spill_quota(raw: str) -> "int | None":
    try:
        val = int(raw)
    except ValueError:
        raise ValueError("not an integer byte count (<= 0 disables)") from None
    return val if val > 0 else None


def _parse_trace(raw: str) -> "str | None":
    # false tokens disable tracing; a true token records in memory; any
    # other value is a sink path the trace streams to as JSON lines
    return None if raw.lower() in _FALSE else raw


def _parse_path(raw: str) -> str:
    return raw


@dataclass(frozen=True)
class KnobSpec:
    """Declaration of one runtime knob."""

    name: str                      #: RuntimeConfig field name
    env: str                       #: environment variable
    kind: str                      #: human-readable value type (for docs)
    default: Any
    parse: Callable[[str], Any]    #: raises ValueError on malformed input
    subsystem: str                 #: owning module (for docs)
    help: str
    #: a malformed spelling, or None when every string is valid — used by
    #: the error-coverage tests and nowhere else
    invalid_example: "str | None" = None

    def coerce(self, raw: "str | None") -> Any:
        """Parse one raw value; unset/empty means the default.

        Raises :class:`KnobError` naming the variable on malformed input.
        """
        if raw is None:
            return self.default
        raw = raw.strip()
        if not raw:
            return self.default
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise KnobError(
                f"invalid {self.env}={raw!r}: {exc}"
            ) from None

    def read(self, environ: "Mapping[str, str] | None" = None) -> Any:
        env = os.environ if environ is None else environ
        return self.coerce(env.get(self.env))


KNOBS: tuple[KnobSpec, ...] = (
    KnobSpec(
        "workers", "REPRO_WORKERS", "int >= 0", 0, _parse_workers,
        "core.workers",
        "OS processes for the par backend's real processors "
        "(0 = single-process simulation; capped at p)",
        invalid_example="two",
    ),
    KnobSpec(
        "arena", "REPRO_ARENA", "ram|mmap", "ram", _parse_arena,
        "pdm.mmap_arena",
        "track-arena storage: preallocated host memory or memory-mapped "
        "spill files for out-of-core runs",
        invalid_example="tape",
    ),
    KnobSpec(
        "transport", "REPRO_TRANSPORT", "memory|shm|tcp", "shm",
        _parse_transport, "core.transport",
        "worker-exchange transport: forked workers on socketpairs, the same "
        "+ shared-memory bulk segments, or `repro node` daemons over TCP",
        invalid_example="carrier-pigeon",
    ),
    KnobSpec(
        "nodes", "REPRO_NODES", "host:port,...", None, _parse_nodes,
        "core.transport",
        "node daemons the tcp transport dials, one per worker "
        "(comma-separated host:port list)",
        invalid_example="localhost:notaport",
    ),
    KnobSpec(
        "shm_bytes", "REPRO_SHM_BYTES", "int bytes (<= 0 disables)",
        DEFAULT_SHM_THRESHOLD, _parse_shm_bytes, "core.workers",
        "payload size above which worker packets use shared memory "
        "instead of being pickled into their frame",
        invalid_example="nonsense",
    ),
    KnobSpec(
        "spill_quota", "REPRO_SPILL_QUOTA", "int bytes (<= 0 disables)",
        None, _parse_spill_quota, "pdm.mmap_arena",
        "per-arena cap on total mapped spill bytes (mmap arena only)",
        invalid_example="lots",
    ),
    KnobSpec(
        "spill_dir", "REPRO_SPILL_DIR", "path", None, _parse_path,
        "pdm.mmap_arena",
        "base directory for the mmap arena's run-scoped spill files "
        "(default: the system temp dir)",
    ),
    KnobSpec(
        "trace", "REPRO_TRACE", "bool or path", None, _parse_trace,
        "obs.bus",
        "telemetry bus: a true token records in memory, a path streams "
        "JSON lines there, false/unset keeps the zero-cost null recorder",
    ),
    KnobSpec(
        "faults", "REPRO_FAULTS", "path to fault-plan JSON", None,
        _parse_path, "faults",
        "apply this fault plan to every fault-capable engine "
        "(the CI whole-suite injection lane)",
    ),
    KnobSpec(
        "profile", "REPRO_PROFILE", "path to tuned-profile JSON", None,
        _parse_path, "tune",
        "tuned profile applied automatically by em_run/the CLI "
        "(explicit env vars and CLI flags still win)",
    ),
)

KNOB_BY_NAME: dict[str, KnobSpec] = {s.name: s for s in KNOBS}
KNOB_BY_ENV: dict[str, KnobSpec] = {s.env: s for s in KNOBS}


def read_knob(name: str, environ: "Mapping[str, str] | None" = None) -> Any:
    """Parsed value of the knob called *name* (field name or env var)."""
    spec = KNOB_BY_NAME.get(name) or KNOB_BY_ENV.get(name)
    if spec is None:
        raise KnobError(f"unknown knob {name!r}")
    return spec.read(environ)


def _fmt_default(val: Any) -> str:
    return "unset" if val is None else str(val)


def render_knob_table() -> str:
    """The README's ``REPRO_*`` reference, generated from :data:`KNOBS`.

    A doc test asserts the committed README section equals this output
    byte for byte, so the table cannot drift from the registry.
    """
    header = (
        "| Variable | Type | Default | Subsystem | Purpose |",
        "|---|---|---|---|---|",
    )
    rows = [
        f"| `{s.env}` | {s.kind.replace('|', chr(92) + '|')} "
        f"| `{_fmt_default(s.default)}` | `repro.{s.subsystem}` | {s.help} |"
        for s in KNOBS
    ]
    return "\n".join(header + tuple(rows))
