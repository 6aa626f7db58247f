"""Live telemetry: an in-process structured event bus with spans.

:class:`EventBus` is a drop-in :class:`~repro.obs.trace.TraceRecorder`
(it subclasses :class:`~repro.obs.trace.JsonlRecorder`, so every export
path — ``--trace`` jsonl/chrome files, ``repro analyze``, the worker
replay protocol — keeps working), upgraded from a flight recorder into a
live instrument:

* **hierarchical spans** — every ``*_begin``/``*_end`` pair the bus sees
  (``run``, ``superstep``, explicit :meth:`~repro.obs.trace.TraceRecorder.span`
  regions) is threaded with a deterministic ``span`` id and its
  ``parent``, and every other event is tagged with the span it happened
  inside.  Worker events replayed by the coordinator (see
  :func:`repro.obs.trace.replay_events`) arrive between the round's
  ``superstep_begin``/``superstep_end`` and are parented into the round's
  span, merging the per-worker streams into one causally-ordered
  timeline.
* **subscribers with bounded-queue backpressure** — :meth:`EventBus.subscribe`
  returns a :class:`Subscription`: a bounded queue that drops its
  *oldest* event (and counts the drop) rather than blocking the engine.
  The SSE endpoint of :mod:`repro.obs.server` and ``repro top`` are
  subscribers.
* **synchronous listeners** — :meth:`EventBus.add_listener` callbacks run
  in-stream on the emitting thread; the streaming
  :class:`~repro.obs.conformance.ConformanceMonitor` (attached by
  default) uses this to emit ``model_drift`` the moment a superstep
  exceeds its Theorem 2/3 parallel-I/O budget, deterministically before
  the run ends.
* **optional streaming sink** — pass ``sink=<path or file>`` to write
  (and flush) each event as a JSON line the moment it is emitted, so
  ``repro top --follow`` can tail a live run.

The disabled path is not a bus at all: engines default to
:data:`~repro.obs.trace.NULL_RECORDER`, which allocates no queues, no
span stack and no events, and guard every call site on
``tracer.enabled``; :func:`bus_from_env` returns ``None`` when off.

The ``REPRO_TRACE`` environment variable turns the bus on without code
changes: any truthy value installs an :class:`EventBus` as the default
tracer of :func:`repro.em.runner.make_engine`; a value that is not a bare
boolean token is treated as a sink path (``REPRO_TRACE=/tmp/run.jsonl``
streams the trace there live).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterator, TextIO

from repro.obs.trace import JsonlRecorder, _jsonable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.conformance import ConformanceMonitor

#: event kinds that open / close a hierarchical span.
_OPENERS = frozenset({"run_begin", "superstep_begin", "span_begin"})
_CLOSERS = frozenset({"run_end", "superstep_end", "span_end"})

_TRUE = frozenset({"1", "true", "yes", "on"})


class Subscription:
    """A bounded event queue fed by an :class:`EventBus`.

    Backpressure policy: the queue never blocks the emitting engine —
    when full, the *oldest* buffered event is dropped and
    :attr:`dropped` incremented, so a slow consumer sees a gap (it can
    detect one via the ``seq`` tags) instead of stalling the simulation.
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
            self._cond.notify()

    # -- consumer side -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def qsize(self) -> int:
        with self._cond:
            return len(self._q)

    def get(self, timeout: "float | None" = None) -> "dict[str, Any] | None":
        """Next event, blocking up to *timeout* seconds (``None`` = forever).

        Returns ``None`` on timeout or once the subscription is closed
        and drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._q and not self._closed:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        return None
                    self._cond.wait(remaining)
            if self._q:
                return self._q.popleft()
            return None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield events until the subscription is closed and drained."""
        while True:
            ev = self.get()
            if ev is None:
                return
            yield ev

    def close(self) -> None:
        """Detach from the bus and wake any blocked :meth:`get` (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        bus, self._bus = self._bus, None
        if bus is not None:
            bus._unsubscribe(self)


class EventBus(JsonlRecorder):
    """The live telemetry bus — see the module docstring.

    Parameters:

    * *sink* — optional path or file object; every event is written (and
      flushed) as a JSON line the moment it is emitted.
    * *monitor* — attach the streaming
      :class:`~repro.obs.conformance.ConformanceMonitor` (default on).
    * *envelope_c* — the monitor's Theorem 2/3 envelope constant
      (default :data:`repro.obs.costcheck.DEFAULT_ENVELOPE`).
    * *record* — keep events in :attr:`events` for post-run export
      (default on; turn off for unbounded streaming-only runs).
    """

    def __init__(
        self,
        sink: "str | TextIO | None" = None,
        monitor: bool = True,
        envelope_c: "float | None" = None,
        record: bool = True,
    ) -> None:
        super().__init__()
        self._record = record
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
                self._sink = open(sink, "w", encoding="utf-8")  # type: ignore[arg-type]
                self._own_sink = True
        self.monitor: "ConformanceMonitor | None" = None
        if monitor:
            from repro.obs.conformance import ConformanceMonitor

            self.monitor = ConformanceMonitor(self, envelope_c=envelope_c)
            self._listeners.append(self.monitor.on_event)

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
        if self._record:
            self.events.append(ev)
        sink = self._sink
        if sink is not None:
            sink.write(json.dumps(ev, default=_jsonable) + "\n")
            sink.flush()
        for sub in self._subs:
            sub._put(ev)
        # listeners last: a listener that emits (the conformance monitor's
        # model_drift) produces events sequenced *after* the one it reacts
        # to, for recorders and subscribers alike
        for cb in tuple(self._listeners):
            try:
                cb(ev)
            except Exception:
                self.listener_errors += 1

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


def trace_env_spec() -> "str | None":
    """The ``REPRO_TRACE`` setting, or ``None`` when tracing is off.

    Off (the default) when unset or a false token (``0/false/no/off``);
    any other value enables the bus.  Read through the centralized knob
    layer (:mod:`repro.tune.knobs`).
    """
    from repro.tune.runtime import current

    return current().trace


def bus_from_env() -> "EventBus | None":
    """An :class:`EventBus` per ``REPRO_TRACE``, or ``None`` when off.

    A bare boolean token (``1/true/yes/on``) records in memory; anything
    else is a sink path the trace streams to as JSON lines.
    """
    spec = trace_env_spec()
    if spec is None:
        return None
    sink = None if spec.lower() in _TRUE else spec
    return EventBus(sink=sink)
