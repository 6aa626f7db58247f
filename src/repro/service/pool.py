"""Spec execution and the preemptible worker pool.

:func:`execute_spec` is the one place a :class:`~repro.service.spec.JobSpec`
becomes an engine run: it generates the spec's input once from the
operation's row of :data:`repro.em.runner.OPS`, resolves the spec's
knobs into a frozen per-run :class:`~repro.tune.runtime.RuntimeConfig`,
runs the selected EM backend on the row's split of that input, verifies
the row's assembly of the outputs against the row's NumPy reference,
and folds everything into a small JSON-able **result document** — counters,
output hash, verification verdict, wall time.  The CI service lane
compares this document byte for byte against a direct in-process run of
the same spec; nothing backend- or schedule-dependent may appear in it.

:class:`WorkerPool` runs jobs from a :class:`~repro.service.queue.JobQueue`
on plain threads (each job's engine may itself fan out to worker
*processes* via the spec's ``workers`` field).  Preemption rides the
engine's checkpoint machinery: the pool installs a per-job probe as
``Engine.preempt`` (the only place that attribute is assigned), the
engine polls it at every round boundary and writes that boundary's
snapshot only when it fires, and the resulting
:class:`~repro.util.validation.PreemptedError` sends the job back to
the queue with ``resume=True`` — its next attempt restores the snapshot
and continues bit-identically.  A job that is never preempted never
creates its checkpoint directory; a job that was loses it on reaching a
terminal state (:meth:`Job.set_state`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from repro.em.runner import OPS, make_engine, output_sha256
from repro.faults.checkpoint import CheckpointManager
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PREEMPTED,
    QUEUED,
    RUNNING,
    Job,
)
from repro.service.queue import JobQueue
from repro.service.spec import JobSpec
from repro.tune.runtime import RuntimeConfig
from repro.util.rng import make_rng
from repro.util.validation import PreemptedError

#: how long an idle worker blocks on the queue before re-checking stop
_POP_TIMEOUT_S = 0.1


def _counters(report: Any) -> dict[str, Any]:
    """The schedule-independent cost counters of one run."""
    doc: dict[str, Any] = {
        "io": report.io.as_dict(),
        "io_max": report.io_max.as_dict(),
        "rounds": report.rounds,
        "supersteps": report.supersteps,
        "comm": report.comm_items,
        "cross": report.cross_items,
        "ctx_io": report.context_blocks_io,
        "msg_io": report.message_blocks_io,
        "ovf": report.overflow_blocks,
        "peak": report.peak_memory_items,
    }
    if report.fault_stats is not None:
        doc["fault_stats"] = report.fault_stats.as_dict()
    return doc


def execute_spec(
    spec: JobSpec,
    tracer: EventBus | None = None,
    checkpoint: CheckpointManager | str | None = None,
    resume: bool = False,
    preempt: Callable[[], bool] | None = None,
) -> dict[str, Any]:
    """Run *spec* once and return its result document.

    Raises :class:`~repro.util.validation.PreemptedError` when *preempt*
    fires at a round boundary (that boundary's snapshot, if *checkpoint*
    is given, is on disk by then — the only one a run with a probe
    writes) — callers decide whether that means requeue or shutdown.
    """
    cfg = spec.machine_config()
    op = OPS[spec.op]
    raw = op.generate(make_rng(spec.seed), spec.n)
    # a spec's workers of 0 leaves the count to the server's environment
    overrides = {**spec.config, "workers": spec.workers or None}
    runtime = RuntimeConfig.resolve(overrides=overrides)
    engine = make_engine(
        cfg,
        spec.resolved_engine(),
        spec.balanced,
        tracer=tracer,
        faults=spec.fault_plan(),
        checkpoint=checkpoint,
        resume=resume,
        runtime=runtime,
    )
    engine.preempt = preempt
    t0 = time.perf_counter()
    res = engine.run(op.program(), op.split(*raw, cfg.v))
    elapsed = time.perf_counter() - t0
    values = op.assemble(res.outputs, *raw)
    return {
        "ok": bool(np.array_equal(values, op.reference(*raw))),
        "output_sha256": output_sha256(values),
        "counters": _counters(res.report),
        "engine": res.report.engine,
        "elapsed_s": elapsed,
        "fingerprint": spec.fingerprint(),
    }


class WorkerPool:
    """N dispatcher threads draining a :class:`JobQueue`; see module docs."""

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        registry: MetricsRegistry,
        size: int = 2,
    ) -> None:
        if size < 0:
            raise ValueError(f"pool size must be >= 0, got {size}")
        self.queue = queue
        self.cache = cache
        self.registry = registry
        self.size = size
        #: called once per job reaching a terminal state (the core's
        #: bookkeeping hook: tenant release, service metrics)
        self.on_terminal: Callable[[Job], None] | None = None
        self._threads: list[threading.Thread] = []
        self._running: dict[str, Job] = {}
        self._rlock = threading.Lock()
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._threads:
            return self
        for i in range(self.size):
            t = threading.Thread(
                target=self._loop, name=f"repro-serve-w{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        """Begin shutdown: running jobs are preempted (they checkpoint at
        the next round boundary and stay ``preempted`` for persistence),
        idle workers wake and exit."""
        self._stop.set()
        with self._rlock:
            running = list(self._running.values())
        for job in running:
            job.request_preempt()
        self.queue.wake_all()

    def join(self, timeout: float | None = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            t.join(remaining)
        self._threads = [t for t in self._threads if t.is_alive()]

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def running_jobs(self) -> list[Job]:
        with self._rlock:
            return list(self._running.values())

    # -- preemption policy ----------------------------------------------------

    def maybe_preempt(self, incoming: Job) -> Job | None:
        """Evict the lowest-priority running job if *incoming* outranks it
        and no worker is idle.  Returns the victim, if any."""
        with self._rlock:
            if self._stop.is_set() or len(self._running) < self.size:
                return None
            candidates = [
                j for j in self._running.values() if not j.preempt_requested
            ]
            if not candidates:
                return None
            victim = min(
                candidates, key=lambda j: (j.spec.priority, -j.enqueue_seq)
            )
            if victim.spec.priority >= incoming.spec.priority:
                return None
            victim.request_preempt()
            return victim

    # -- the worker loop -------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=_POP_TIMEOUT_S)
            if job is None:
                continue
            with self._rlock:
                self._running[job.id] = job
            try:
                self._run(job)
            finally:
                with self._rlock:
                    self._running.pop(job.id, None)

    def _terminal(self, job: Job) -> None:
        if self.on_terminal is not None:
            self.on_terminal(job)

    def _run(self, job: Job) -> None:
        if job.cancel_requested:
            job.set_state(CANCELLED)
            self._terminal(job)
            return
        if job.state == QUEUED:
            # a duplicate spec may have completed while this job waited
            cached = self.cache.get(job.fingerprint)
            if cached is not None:
                job.result = cached
                job.cache = "hit"
                self.registry.counter(
                    "repro_service_cache_hits_total",
                    "jobs served from the result cache",
                ).labels(tenant=job.spec.tenant).inc()
                job.set_state(DONE)
                self._terminal(job)
                return
        job.set_state(RUNNING)
        job.attempts += 1
        # a requeued job keeps its bus, and the attach its one listener
        self.registry.attach(job.bus, tenant=job.spec.tenant, job=job.id)
        manager = CheckpointManager(job.ckpt_dir, keep=2)
        stop = self._stop

        def probe() -> bool:
            return job.preempt_requested or stop.is_set()

        try:
            doc = execute_spec(
                job.spec,
                tracer=job.bus,
                checkpoint=manager,
                resume=job.resume,
                preempt=probe,
            )
        except PreemptedError:
            job.resume = True
            if job.cancel_requested:
                job.set_state(CANCELLED)
                self._terminal(job)
            elif self._stop.is_set():
                # drain: leave the job preempted; the core persists it so
                # a restarted server resumes from the checkpoint
                job.preemptions += 1
                job.set_state(PREEMPTED)
            else:
                job.preemptions += 1
                job.clear_preempt()
                job.set_state(PREEMPTED)
                self.queue.requeue(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = f"{type(exc).__name__}: {exc}"
            job.set_state(FAILED)
            self._terminal(job)
        else:
            job.result = doc
            self.cache.put(job.fingerprint, doc)
            job.set_state(DONE)
            self._terminal(job)
