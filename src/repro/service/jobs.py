"""The job lifecycle state machine and its per-job event bus.

States (see DESIGN.md §11 for the full diagram)::

    queued ----> running ----> done | failed
      |  \\         |  \\
      |   `> done  |   `> preempted --> running (resumed)
      |  (cache)   |          |
      `----------> cancelled <'

``done``, ``failed`` and ``cancelled`` are terminal: the job's checkpoint
directory is removed, its :class:`~repro.obs.bus.EventBus` is closed
(ending any SSE streams) and :attr:`Job.finished` is set.  ``preempted``
is *not* terminal — the checkpoint written at the preempting round
boundary (the only one a served job writes) makes the next ``running``
attempt a bit-identical continuation, so its directory stays.

Every transition is emitted on the job's bus as a ``job_state`` event,
so an SSE client sees the lifecycle interleaved with the engine's own
trace events.
"""

from __future__ import annotations

import shutil
import threading
import time
from typing import Any

from repro.faults.checkpoint import CheckpointManager
from repro.obs.bus import EventBus
from repro.service.spec import JobSpec
from repro.util.validation import SimulationError

QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, PREEMPTED, DONE, FAILED, CANCELLED)
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: legal transitions; queued -> done is the cache-hit short circuit
_ALLOWED: dict[str, frozenset[str]] = {
    QUEUED: frozenset({RUNNING, DONE, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, PREEMPTED, CANCELLED}),
    PREEMPTED: frozenset({RUNNING, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class ServiceError(SimulationError):
    """The job server detected an internal inconsistency."""


class InvalidTransition(ServiceError):
    """A lifecycle transition the state machine forbids."""


class Job:
    """One submitted run: spec + lifecycle + telemetry + result."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        ckpt_dir: str,
        fingerprint: str | None = None,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.ckpt_dir = ckpt_dir
        self.fingerprint = (
            fingerprint if fingerprint is not None else spec.fingerprint()
        )
        #: per-job telemetry: the engine's tracer plus lifecycle events;
        #: the in-stream drift check stays with the one-shot CLI paths
        self.bus = EventBus(monitor=False)
        self.state: str = QUEUED
        self.attempts = 0
        self.preemptions = 0
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        self.cache: str = "miss"
        self.submitted_s = time.time()
        self.finished_s: float | None = None
        #: dispatch order, assigned by the queue (-1 = never enqueued)
        self.enqueue_seq = -1
        #: restore from the newest checkpoint on the next dispatch
        self.resume = False
        self.finished = threading.Event()
        self._preempt = threading.Event()
        self._cancel = threading.Event()
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    def set_state(self, new: str) -> None:
        """Transition to *new*, emit ``job_state``, close the bus if terminal."""
        with self._lock:
            if new not in _ALLOWED.get(self.state, frozenset()):
                raise InvalidTransition(
                    f"job {self.id}: illegal transition {self.state} -> {new}"
                )
            self.state = new
            if self.bus.enabled:
                self.bus.emit(
                    "job_state",
                    job=self.id,
                    state=new,
                    attempts=self.attempts,
                    preemptions=self.preemptions,
                )
            if new in TERMINAL:
                self.finished_s = time.time()
                shutil.rmtree(self.ckpt_dir, ignore_errors=True)
                self.bus.close()
                self.finished.set()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    # -- control flags -------------------------------------------------------

    def request_preempt(self) -> None:
        """Ask the engine to stop at its next checkpointed round boundary."""
        self._preempt.set()

    def clear_preempt(self) -> None:
        self._preempt.clear()

    @property
    def preempt_requested(self) -> bool:
        return self._preempt.is_set()

    def request_cancel(self) -> None:
        """Cancel: a queued job dies in the queue; a running one is
        preempted at the next boundary and then discarded."""
        self._cancel.set()
        self._preempt.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    # -- documents -----------------------------------------------------------

    def to_summary(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.spec.tenant,
            "op": self.spec.op,
            "n": self.spec.n,
            "priority": self.spec.priority,
            "state": self.state,
            "cache": self.cache,
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            "submitted_s": self.submitted_s,
        }

    def to_doc(self) -> dict[str, Any]:
        doc = self.to_summary()
        doc["spec"] = self.spec.to_dict()
        doc["fingerprint"] = self.fingerprint
        doc["events_url"] = f"/jobs/{self.id}/events"
        doc["finished_s"] = self.finished_s
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def persist_doc(self) -> dict[str, Any]:
        """What the drain path writes so a restart can re-enqueue this job."""
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "attempts": self.attempts,
            "preemptions": self.preemptions,
            # from the disk, not from the history: only a preempted
            # attempt leaves a snapshot, and only a snapshot can resume
            "resume": CheckpointManager(self.ckpt_dir).has_checkpoint,
            "ckpt_dir": self.ckpt_dir,
        }
