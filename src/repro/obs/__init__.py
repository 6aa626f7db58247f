"""Superstep-level observability for the EM-CGM simulation.

The paper's argument is quantitative — Theorem 1's message-size bounds,
Theorems 2/3's ``(v/p) * G * O(lambda*mu/(D*B))`` I/O accounting, Figure
2's fully D-parallel staggered writes — but aggregate counters cannot show
*where* I/Os happen or whether the predicted costs hold per superstep.
This package makes those claims observable:

* :mod:`repro.obs.bus` — the one event recorder, :class:`EventBus`.
  Engines emit events (superstep begin/end, context read/write, message
  read/write, compute round, network transfer) tagged with real/virtual
  processor, superstep index, layout format and block counts; the bus
  exports them as JSON lines or a Chrome trace, threads hierarchical
  span ids through them, feeds bounded-queue subscribers and synchronous
  listeners, and can stream every event to a JSON-lines sink as it
  happens (``REPRO_TRACE`` installs one as the default engine tracer).
  The :data:`~repro.obs.bus.NULL_RECORDER` is a disabled no-op and every
  engine call site is guarded on ``tracer.enabled``, so tracing is
  zero-cost when off.
* :mod:`repro.obs.chrome` — exports a recorded trace as a Chrome
  trace-event JSON array (load in ``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.histograms` — per-disk utilization and parallel-I/O
  width histograms computed from :class:`repro.pdm.io_stats.IOStats`,
  making Observation 2's full-D-parallelism measurable.
* :mod:`repro.obs.costcheck` — cross-checks a measured
  :class:`repro.cgm.metrics.CostReport` against the Theorem 2/3 cost
  predictions derived from the :class:`repro.cgm.config.MachineConfig`.
* :mod:`repro.obs.metrics` — a labeled metrics registry (counters,
  gauges, timers, high-water marks).  It is a fold over the bus, not a
  second sink: :meth:`~repro.obs.metrics.MetricsRegistry.attach` adds one
  listener that turns each run's ``superstep_end``, ``fault_stats`` and
  ``run_end`` events into series; exports Prometheus text and JSON
  snapshots.  Engines take
  no registry.
* :mod:`repro.obs.analyze` — :class:`TraceAnalysis`, the one fold over
  the event stream: per-superstep aggregation (context vs. message
  blocks, width distribution, compute/I/O/network split, critical-path
  processor) with each round held to its own run's Theorem 2/3 I/O
  envelope.  ``repro analyze``, ``repro top`` and the bus's in-stream
  drift check (``model_drift``) all read it.
* :mod:`repro.obs.bench_store` — the ``BENCH_<suite>.json`` benchmark
  result store (schema-versioned, env-fingerprinted) and the
  :func:`~repro.obs.bench_store.compare` regression gate.
* :mod:`repro.obs.live` — the event sources of ``repro top``: a trace
  file (optionally tailed) or the per-job SSE stream of ``repro serve``;
  its :func:`~repro.obs.live.iter_jsonl` is the one JSON-lines reader
  ``repro analyze`` reads through too.

The one HTTP surface is the job server (:mod:`repro.service.server`):
Prometheus ``/metrics``, per-job SSE ``/jobs/<id>/events`` and
``/healthz``.
"""

from repro.obs.bus import NULL_RECORDER, EventBus, NullRecorder, Subscription
from repro.obs.chrome import to_chrome_events, write_chrome_trace
from repro.obs.metrics import MetricsRegistry

# costcheck/histograms/analyze/bench_store pull in the engine
# stack; the engines import repro.obs.bus — import these
# lazily to keep the package cycle-free.  live is lazy to keep the http.client
# machinery out of engine runs that never read a stream.
_LAZY = {
    "CostCheck": "repro.obs.costcheck",
    "CostCrossCheck": "repro.obs.costcheck",
    "crosscheck_report": "repro.obs.costcheck",
    "DiskHistograms": "repro.obs.histograms",
    "TraceAnalysis": "repro.obs.analyze",
    "analyze_events": "repro.obs.analyze",
    "analyze_file": "repro.obs.analyze",
    "BenchStore": "repro.obs.bench_store",
    "compare": "repro.obs.bench_store",
    "load": "repro.obs.bench_store",
    "iter_jsonl": "repro.obs.live",
    "iter_sse": "repro.obs.live",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)

__all__ = [
    "EventBus",
    "Subscription",
    "NullRecorder",
    "NULL_RECORDER",
    "MetricsRegistry",
    "to_chrome_events",
    "write_chrome_trace",
    "DiskHistograms",
    "CostCheck",
    "CostCrossCheck",
    "crosscheck_report",
    "TraceAnalysis",
    "analyze_events",
    "analyze_file",
    "BenchStore",
    "compare",
    "load",
    "iter_jsonl",
    "iter_sse",
]
