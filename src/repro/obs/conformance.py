"""Streaming model conformance: Theorem 2/3 envelopes checked *during* a run.

``repro analyze`` holds a finished trace to the Theorem 2/3 per-superstep
I/O envelope after the fact.  For long out-of-core runs that is too late:
a mis-scheduled layout or a degenerate parameter choice can burn hours of
I/O before anyone reads the trace.  :class:`ConformanceMonitor` is a
synchronous :class:`~repro.obs.bus.EventBus` listener that recomputes the
same budget from the ``run_begin`` header and compares every
``superstep_end``'s ``parallel_ios`` counter against it in-stream,
emitting a ``model_drift`` event the moment a superstep exceeds its
predicted parallel-I/O budget — before the run ends, visible to every
subscriber (``repro top``, the SSE endpoint) and recorded in the trace.

Determinism: the check consumes only the deterministic logical counters
(`parallel_ios` is bit-identical across the seq / in-process par /
multi-process backends), so a drifting run drifts identically everywhere.
Only the upper edge of the envelope is monitored live — a run using
*fewer* I/Os than predicted is not a failure mode worth interrupting;
``repro analyze`` still reports two-sided envelope violations post-hoc.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import EventBus

#: engines whose I/O counters are meaningful PDM costs (matches analyze).
_EM_ENGINES = ("seq-em", "par-em")


class ConformanceMonitor:
    """Per-run streaming budget check; attach via ``bus.add_listener``.

    The budget is :func:`~repro.obs.costcheck.superstep_io_budget` of the
    run header — the Theorem 2/3 per-round prediction summed over the
    ``p`` real processors — times ``envelope_c``, the same
    constant-factor envelope ``repro analyze`` uses.
    """

    def __init__(
        self, bus: "EventBus", envelope_c: "float | None" = None
    ) -> None:
        from repro.obs.costcheck import DEFAULT_ENVELOPE

        self.bus = bus
        self.envelope_c = float(
            DEFAULT_ENVELOPE if envelope_c is None else envelope_c
        )
        self.predicted_ios: "float | None" = None
        self.budget: "float | None" = None
        self.supersteps_checked = 0
        self.drift_events = 0

    def on_event(self, ev: dict[str, Any]) -> None:
        kind = ev.get("kind")
        if kind == "run_begin":
            self._configure(ev)
        elif kind == "superstep_end" and self.budget is not None:
            ios = int(ev.get("parallel_ios", 0) or 0)
            self.supersteps_checked += 1
            if ios > self.budget:
                self.drift_events += 1
                self.bus.emit(
                    "model_drift",
                    round=ev.get("round"),
                    superstep=ev.get("superstep"),
                    parallel_ios=ios,
                    predicted_ios=self.predicted_ios,
                    budget=self.budget,
                    envelope_c=self.envelope_c,
                )

    def _configure(self, ev: dict[str, Any]) -> None:
        """Derive the per-superstep budget from the run header (or disarm)."""
        self.predicted_ios = None
        self.budget = None
        self.supersteps_checked = 0
        self.drift_events = 0
        if str(ev.get("engine")) not in _EM_ENGINES:
            return
        from repro.obs.costcheck import superstep_io_budget

        self.predicted_ios = superstep_io_budget(ev, bool(ev.get("balanced", False)))
        if self.predicted_ios is not None:
            self.budget = self.predicted_ios * self.envelope_c
