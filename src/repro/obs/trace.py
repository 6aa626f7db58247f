"""Structured trace recording for engine runs.

A recorder receives flat event dicts from the engines via :meth:`emit`.
Event kinds and their tags (all optional except ``kind``):

================== ======================================================
kind               tags
================== ======================================================
``run_begin``      engine, N, v, p, D, B, M, workers, balanced
``superstep_begin`` superstep (real-machine index), round (CGM round)
``superstep_end``  superstep, round, parallel_ios, blocks (deltas)
``compute_round``  pid, real, round, wall_s, done
``context_read``   pid, real, blocks, layout
``context_write``  pid, real, blocks, layout
``message_write``  src, dest, real, blocks, layout, parity
``message_read``   pid, real, blocks, layout, sources
``network_transfer`` src, dest, src_real, dest_real, items
``run_end``        engine, rounds, supersteps, parallel_ios
``io_fault``       real, disk, track, op, fault, attempt
``disk_dead``      real, disk, op, migrated_blocks, survivors
``checkpoint``     round, finished, path
``resume``         round, finished, path
``worker_redispatch`` round, dead_workers, restart, from_round
``span_begin``     name, free-form tags (see :meth:`TraceRecorder.span`)
``span_end``       name
``arena_grow``     real, disk, tracks, nbytes, resident_nbytes,
                   spill_nbytes, backend
``model_drift``    round, superstep, parallel_ios, predicted_ios, budget,
                   envelope_c
================== ======================================================

``layout`` is the disk format the blocks moved through: ``"consecutive"``
(contexts, overflow runs), ``"staggered"`` (the Figure 2 message matrix)
or ``"paged"`` (the VM baseline's 4 KB pager).  Events recorded inside a
worker process of the multi-core backend are replayed on the coordinator's
recorder with an extra ``worker`` tag (see :func:`replay_events`).

``arena_grow`` is a *physical* event: it describes how the disk layer
serviced the logical I/O (storage growth), so its presence depends on
``REPRO_ARENA`` — like ``io_fault``, it is excluded from cross-backend
trace-identity comparisons.  ``span_*`` and ``model_drift``
are produced by the live telemetry bus (:mod:`repro.obs.bus`), which
additionally threads hierarchical ``span``/``parent`` ids through every
``*_begin``/``*_end`` pair it sees.

The ``io_fault`` .. ``worker_redispatch`` kinds come from the resilience subsystem
(:mod:`repro.faults`): ``io_fault`` marks one injected single-track
failure (``fault`` is the injected kind, ``attempt`` the retry ordinal),
``disk_dead`` a permanent disk loss and its block migration,
``checkpoint``/``resume`` the round-boundary snapshot protocol, and
``worker_redispatch`` a coordinator recovery after a worker process died.

Engines guard every emission on :attr:`TraceRecorder.enabled`, so a run
with the :data:`NULL_RECORDER` never builds an event dict — the disabled
path costs one attribute read per call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Iterator, TextIO


class TraceRecorder:
    """Interface: engines call :meth:`emit`; exporters read :attr:`events`."""

    #: call sites skip event construction entirely when False.
    enabled: bool = True

    def emit(self, kind: str, **tags: Any) -> None:
        raise NotImplementedError

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[None]:
        """Emit a ``span_begin``/``span_end`` pair around a code region.

        Disabled recorders skip both emissions, so instrumentation can
        wrap hot paths without its own ``enabled`` guard (the context
        manager itself still allocates — guard manually in the hottest
        loops).  The :class:`~repro.obs.bus.EventBus` threads hierarchical
        span ids through the pair; plain recorders just record the events.
        """
        if not self.enabled:
            yield
            return
        self.emit("span_begin", name=name, **tags)
        try:
            yield
        finally:
            self.emit("span_end", name=name)

    def close(self) -> None:  # pragma: no cover - trivial default
        """Flush any buffered output (no-op for in-memory recorders)."""


class NullRecorder(TraceRecorder):
    """The disabled recorder: records nothing, costs nothing.

    Engines check ``tracer.enabled`` before building event payloads, so
    with this recorder installed no event dict is ever allocated.
    """

    enabled = False

    def emit(self, kind: str, **tags: Any) -> None:
        pass


#: shared disabled recorder — engines default to this singleton.
NULL_RECORDER = NullRecorder()


class JsonlRecorder(TraceRecorder):
    """In-memory recorder with JSON-lines and Chrome-trace export.

    Every event gets a monotonically increasing ``seq`` and a ``ts``
    (seconds since the recorder was created, ``time.perf_counter`` base),
    so traces are totally ordered even when wall-clock resolution is
    coarse.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self._seq = 0

    def emit(self, kind: str, **tags: Any) -> None:
        ev: dict[str, Any] = {
            "seq": self._seq,
            "ts": time.perf_counter() - self._t0,
            "kind": kind,
        }
        ev.update(tags)
        self._seq += 1
        self.events.append(ev)

    # -- export -------------------------------------------------------------

    def write_jsonl(self, path_or_file: str | TextIO) -> int:
        """Write one JSON object per line; returns the event count."""
        if hasattr(path_or_file, "write"):
            self._dump_jsonl(path_or_file)  # type: ignore[arg-type]
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                self._dump_jsonl(fh)
        return len(self.events)

    def _dump_jsonl(self, fh: TextIO) -> None:
        for ev in self.events:
            fh.write(json.dumps(ev, default=_jsonable) + "\n")

    def write_chrome(self, path_or_file: str | TextIO) -> int:
        """Write the Chrome trace-event JSON array; returns event count."""
        from repro.obs.chrome import write_chrome_trace

        return write_chrome_trace(self.events, path_or_file)

    def counts(self) -> dict[str, int]:
        """Number of recorded events per kind (handy in tests/CLI)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev["kind"]] = out.get(ev["kind"], 0) + 1
        return out

    def drain(self) -> list[dict[str, Any]]:
        """Return and clear the buffered events.

        Worker processes of the multi-core backend drain their recorder
        after every round and ship the events to the coordinator, which
        re-emits them via :func:`replay_events`.
        """
        out = self.events
        self.events = []
        return out


def _jsonable(obj: Any) -> Any:
    """JSON fallback for numpy scalars and other simple objects."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def replay_events(
    recorder: TraceRecorder, events: list[dict[str, Any]], **extra_tags: Any
) -> None:
    """Re-emit *events* (drained from another recorder) on *recorder*.

    The source recorder's ``seq``/``ts`` bookkeeping is stripped — the
    receiving recorder assigns its own ordering — and *extra_tags* (e.g.
    ``worker=3``) are attached to every event.
    """
    if not recorder.enabled:
        return
    for ev in events:
        tags = {k: v for k, v in ev.items() if k not in ("seq", "ts", "kind")}
        tags.update(extra_tags)
        recorder.emit(ev["kind"], **tags)


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a trace written by :meth:`JsonlRecorder.write_jsonl`."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
