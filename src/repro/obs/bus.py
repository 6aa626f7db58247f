"""The engines' event recorder: one live telemetry bus, one disabled path.

Engines emit flat event dicts via ``tracer.emit(kind, **tags)``.  Event
kinds and their tags (all optional except ``kind``):

================== ======================================================
kind               tags
================== ======================================================
``run_begin``      engine, program, N, v, p, D, B, M, workers, balanced
``superstep_begin`` superstep (real-machine index), round (CGM round)
``superstep_end``  superstep, round, h_in, h_out, parallel_ios, blocks,
                   comm_items, cross_items (deltas), width_hist, wall_s;
                   a worker fleet adds transport (kind, packets: node ->
                   sent/recv, bytes: node -> packet-frame bytes received)
``compute_round``  pid, real, round, wall_s, done
``context_read``   pid, real, blocks, layout
``context_write``  pid, real, blocks, layout
``message_write``  src, dest, real, blocks, layout, parity
``message_read``   pid, real, blocks, layout, sources
``network_transfer`` src, dest, src_real, dest_real, items
``run_end``        engine, rounds, supersteps, parallel_ios, cross_items,
                   peak_memory_items, context_blocks, message_blocks,
                   overflow_blocks, page_faults (+ page_items: the VM)
``fault_stats``    the run's ``FaultStats`` fields, before ``run_end``,
                   when a fault plan injected anything
``io_fault``       real, disk, track, op, fault, attempt
``disk_dead``      real, disk, op, migrated_blocks, survivors
``checkpoint``     round, finished, path
``resume``         round, finished, path
``worker_redispatch`` round, dead_workers, restart, from_round
``span_begin``     name, free-form tags (see :meth:`EventBus.span`)
``span_end``       name
``arena_grow``     real, disk, tracks, nbytes, resident_nbytes,
                   spill_nbytes, backend
``model_drift``    round, superstep, parallel_ios, predicted_ios, budget,
                   envelope_c
``preempt``        round, resumable
``tuned_config``   config, machine, rationale, fingerprint (before
                   ``run_begin``, when a tuned profile was applied)
``transport_connect`` transport, nodes (a tcp fleet, at start)
``tune_begin``     workload, candidates, probed, probe_n
``tune_probe``     candidate, wall_s, predicted_ios
``tune_end``       chosen, config, machine
``job_state``      job, state, attempts, preemptions (a served job's bus)
================== ======================================================

A :class:`~repro.obs.metrics.MetricsRegistry` is a fold over these events
(:meth:`~repro.obs.metrics.MetricsRegistry.attach`), not a second sink.
``superstep_end`` and ``run_end`` carry counters that are equal across a
kill and resume (``wall_s`` aside); fault statistics, which a resumed
session cannot reproduce, ride on ``fault_stats``.

``layout`` is the disk format the blocks moved through: ``"consecutive"``
(contexts, overflow runs), ``"staggered"`` (the Figure 2 message matrix)
or ``"paged"`` (the VM baseline's 4 KB pager).  ``arena_grow`` is a
*physical* event (how the disk layer serviced the logical I/O), so its
presence depends on ``REPRO_ARENA`` — like ``io_fault``, it is excluded
from cross-backend trace-identity comparisons.  The ``fault_stats`` ..
``worker_redispatch`` kinds come from the resilience subsystem
(:mod:`repro.faults`); ``model_drift`` from the bus's own
:class:`~repro.obs.analyze.TraceAnalysis` (``monitor=True``), the one fold
over this stream that ``repro analyze`` and ``repro top`` read too.

:class:`EventBus` records every event with a monotonically increasing
``seq`` and a ``ts`` (seconds since the bus was created), exports the
record as JSON lines or a Chrome trace, and is a live instrument too:

* **hierarchical spans** — every ``*_begin``/``*_end`` pair the bus sees
  (``run``, ``superstep``, explicit :meth:`EventBus.span` regions) is
  threaded with a deterministic ``span`` id and its ``parent``, and every
  other event is tagged with the span it happened inside.  Worker events
  replayed by the coordinator (:func:`replay_events`) arrive between the
  round's ``superstep_begin``/``superstep_end`` and are parented into the
  round's span, merging the per-worker streams into one causally-ordered
  timeline;
* **subscribers with bounded-queue backpressure** — :meth:`EventBus.subscribe`
  returns a :class:`Subscription`: a bounded queue that drops its
  *oldest* event (and counts the drop) rather than blocking the engine,
  read a batch at a time (:meth:`Subscription.take`).  The per-job SSE
  stream of ``repro serve`` is a subscriber;
* **synchronous listeners** — :meth:`EventBus.add_listener` callbacks run
  in-stream on the emitting thread; the bus's
  :class:`~repro.obs.analyze.TraceAnalysis` (attached by default) uses
  this to emit ``model_drift`` the moment a superstep exceeds its
  Theorem 2/3 parallel-I/O budget;
* **optional streaming sink** — ``sink=<path or file>`` writes (and
  flushes) each event as a JSON line the moment it is emitted, so
  ``repro top --follow`` can tail a live run.

The disabled path is not a bus at all: engines default to
:data:`NULL_RECORDER`, which allocates no queues, no span stack and no
events, and guard every call site on ``tracer.enabled`` — a run with it
never builds an event dict.  The ``REPRO_TRACE`` knob installs a bus in
:func:`repro.em.runner.make_engine` (a true token records in memory, any
other value is a sink path).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, Callable, Iterator, TextIO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.analyze import TraceAnalysis

#: event kinds that open / close a hierarchical span.
_OPENERS = frozenset({"run_begin", "superstep_begin", "span_begin"})
_CLOSERS = frozenset({"run_end", "superstep_end", "span_end"})


class NullRecorder:
    """The disabled recorder: records nothing, costs nothing.

    Engines check ``tracer.enabled`` before building event payloads, so
    with this recorder installed no event dict is ever allocated.
    """

    enabled = False

    def emit(self, kind: str, **tags: Any) -> None:
        pass

    def span(self, name: str, **tags: Any) -> "nullcontext[None]":
        return nullcontext()


#: shared disabled recorder — engines default to this singleton.
NULL_RECORDER = NullRecorder()


class Subscription:
    """A bounded event queue fed by an :class:`EventBus`.

    Backpressure policy: the queue never blocks the emitting engine —
    when full, the *oldest* buffered event is dropped and
    :attr:`dropped` incremented, so a slow consumer sees a gap (it can
    detect one via the ``seq`` tags) instead of stalling the simulation.

    The consumer reads in batches (:meth:`take`): the emitting thread
    wakes it for the first event of a batch and then only if the queue
    reaches half of *maxlen*, so a burst costs one wake-up, not one per
    event.
    """

    def __init__(
        self,
        bus: "EventBus | None",
        maxlen: int = 1024,
        kinds: "frozenset[str] | None" = None,
    ) -> None:
        if maxlen < 1:
            raise ValueError(f"subscription maxlen must be >= 1, got {maxlen}")
        self._bus = bus
        self.maxlen = maxlen
        self.kinds = kinds
        self.dropped = 0
        self._q: deque[dict[str, Any]] = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: _put notifies once the queue holds this many events: 1 while the
        #: consumer waits for a batch's first event, half of maxlen while it
        #: lingers, never (maxlen + 1) while nobody waits
        self._wake_len = maxlen + 1

    # -- bus side ----------------------------------------------------------

    def _put(self, ev: dict[str, Any]) -> None:
        if self.kinds is not None and ev.get("kind") not in self.kinds:
            return
        with self._cond:
            if self._closed:
                return
            if len(self._q) >= self.maxlen:
                self._q.popleft()
                self.dropped += 1
            self._q.append(ev)
            if len(self._q) >= self._wake_len:
                self._cond.notify()

    # -- consumer side -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def qsize(self) -> int:
        with self._cond:
            return len(self._q)

    def take(self, timeout: float, linger: float = 0.0) -> list[dict[str, Any]]:
        """Every queued event, in ``seq`` order, as one batch.

        Blocks up to *timeout* seconds for a first event, then lets more
        accumulate unwoken for up to *linger* seconds — cut short when the
        queue reaches half of *maxlen* or the subscription closes.  Returns
        ``[]`` on timeout, or once the subscription is closed and drained.
        """
        with self._cond:
            try:
                self._wake_len = 1
                if not self._cond.wait_for(lambda: self._q or self._closed, timeout):
                    return []
                if linger > 0.0 and not self._closed:
                    self._wake_len = max(1, self.maxlen // 2)
                    self._cond.wait_for(
                        lambda: self._closed or len(self._q) >= self._wake_len,
                        linger,
                    )
                batch = list(self._q)
                self._q.clear()
                return batch
            finally:
                self._wake_len = self.maxlen + 1

    def close(self) -> None:
        """Detach from the bus and wake a blocked :meth:`take` at once
        (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        bus, self._bus = self._bus, None
        if bus is not None:
            bus._unsubscribe(self)


class EventBus:
    """The event recorder and live telemetry bus — see the module docstring.

    Parameters:

    * *sink* — optional path or file object; every event is written (and
      flushed) as a JSON line the moment it is emitted.  A path is opened
      for appending, so the runs of one multi-run call share the file.
    * *monitor* — fold every event into a
      :class:`~repro.obs.analyze.TraceAnalysis` (:attr:`monitor`) that
      raises ``model_drift`` on this bus (default on; a worker process's
      bus and a served job's run without it).
    * *envelope_c* — the monitor's Theorem 2/3 envelope constant
      (default :data:`repro.obs.costcheck.DEFAULT_ENVELOPE`).
    """

    #: call sites skip event construction entirely when False.
    enabled = True

    def __init__(
        self,
        sink: "str | TextIO | None" = None,
        monitor: bool = True,
        envelope_c: "float | None" = None,
    ) -> None:
        self.events: list[dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self._seq = 0
        self._listeners: list[Callable[[dict[str, Any]], None]] = []
        self._subs: tuple[Subscription, ...] = ()
        self._subs_lock = threading.Lock()
        self._span_stack: list[int] = []
        self._next_span = 0
        self.listener_errors = 0
        self._closed = False
        self._sink: "TextIO | None" = None
        self._own_sink = False
        if sink is not None:
            if hasattr(sink, "write"):
                self._sink = sink  # type: ignore[assignment]
            else:
                self._sink = open(sink, "a", encoding="utf-8")  # type: ignore[arg-type]
                self._own_sink = True
        self.monitor: "TraceAnalysis | None" = None
        if monitor:
            from repro.obs.analyze import TraceAnalysis
            from repro.obs.costcheck import DEFAULT_ENVELOPE

            c = DEFAULT_ENVELOPE if envelope_c is None else envelope_c
            self.monitor = TraceAnalysis(envelope_c=float(c), drift_bus=self)
            self._listeners.append(self.monitor.feed)

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, **tags: Any) -> None:
        ev: dict[str, Any] = {
            "seq": self._seq,
            "ts": time.perf_counter() - self._t0,
            "kind": kind,
        }
        ev.update(tags)
        self._seq += 1
        stack = self._span_stack
        if kind in _OPENERS:
            sid = self._next_span
            self._next_span += 1
            ev["span"] = sid
            if stack:
                ev["parent"] = stack[-1]
            stack.append(sid)
        elif kind in _CLOSERS:
            if stack:
                ev["span"] = stack.pop()
                if stack:
                    ev["parent"] = stack[-1]
        elif stack:
            ev["span"] = stack[-1]
        self.events.append(ev)
        sink = self._sink
        if sink is not None:
            sink.write(json.dumps(ev, default=_jsonable) + "\n")
            sink.flush()
        for sub in self._subs:
            sub._put(ev)
        # listeners last: a listener that emits (the monitor's model_drift) produces events sequenced *after* the one it reacts
        # to, for recorders and subscribers alike
        for cb in tuple(self._listeners):
            try:
                cb(ev)
            except Exception:
                self.listener_errors += 1

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[None]:
        """Emit a ``span_begin``/``span_end`` pair around a code region;
        events emitted inside it are parented into the span."""
        self.emit("span_begin", name=name, **tags)
        try:
            yield
        finally:
            self.emit("span_end", name=name)

    # -- export ------------------------------------------------------------

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
        """Return and clear the recorded events.

        Worker processes of the multi-core backend drain their bus after
        every round and ship the events to the coordinator, which
        re-emits them via :func:`replay_events`.
        """
        out = self.events
        self.events = []
        return out

    # -- subscribers and listeners ----------------------------------------

    def subscribe(
        self, maxlen: int = 1024, kinds: "frozenset[str] | set[str] | None" = None
    ) -> Subscription:
        """Attach a bounded queue receiving every subsequent event."""
        sub = Subscription(
            self, maxlen=maxlen, kinds=frozenset(kinds) if kinds else None
        )
        with self._subs_lock:
            self._subs = self._subs + (sub,)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._subs_lock:
            self._subs = tuple(s for s in self._subs if s is not sub)

    @property
    def subscriptions(self) -> int:
        return len(self._subs)

    def add_listener(self, cb: Callable[[dict[str, Any]], None]) -> None:
        """Attach a synchronous callback run in-stream for every event."""
        self._listeners.append(cb)

    def remove_listener(self, cb: Callable[[dict[str, Any]], None]) -> None:
        self._listeners = [f for f in self._listeners if f is not cb]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every subscription and the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._subs_lock:
            subs = self._subs
        for sub in subs:
            sub.close()
        sink = self._sink
        if sink is not None and self._own_sink:
            self._sink = None
            sink.close()


def _jsonable(obj: Any) -> Any:
    """JSON fallback for numpy scalars and other simple objects."""
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def replay_events(
    recorder: "EventBus | NullRecorder",
    events: list[dict[str, Any]],
    **extra_tags: Any,
) -> None:
    """Re-emit *events* (drained from another bus) on *recorder*.

    The source bus's ``seq``/``ts`` bookkeeping is stripped — the
    receiving recorder assigns its own ordering — and *extra_tags* (e.g.
    ``worker=3``) are attached to every event.
    """
    if not recorder.enabled:
        return
    for ev in events:
        tags = {k: v for k, v in ev.items() if k not in ("seq", "ts", "kind")}
        tags.update(extra_tags)
        recorder.emit(ev["kind"], **tags)
