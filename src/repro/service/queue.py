"""Bounded priority FIFO with per-tenant quotas and backpressure.

Admission control happens here, not in the HTTP layer: a full queue or
an over-quota tenant raises :class:`BackpressureError` carrying the
``Retry-After`` hint the handler turns into a 429.  Dispatch order is
highest priority first, FIFO within a priority class; a preempted job
re-enters with its *original* sequence number, so after the preempting
tenant drains it resumes ahead of anything submitted after it.

Tenant accounting counts a job from admission until it reaches a
terminal state (``release``), so a tenant's quota covers queued *and*
running work — a tenant cannot hold every worker and a full queue at
once.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from typing import Any

from repro.service.jobs import Job, ServiceError


class BackpressureError(ServiceError):
    """Queue full or tenant over quota — retry later (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: int) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JobQueue:
    """The pending-job set; see the module docstring."""

    def __init__(self, capacity: int = 64, tenant_quota: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if tenant_quota < 1:
            raise ValueError(f"tenant quota must be >= 1, got {tenant_quota}")
        self.capacity = capacity
        self.tenant_quota = tenant_quota
        self._pending: list[Job] = []
        self._active: dict[str, int] = {}
        self._seq = itertools.count()
        self._cond = threading.Condition()

    # -- admission -----------------------------------------------------------

    def _retry_after(self) -> int:
        return min(30, 1 + len(self._pending))

    def submit(self, job: Job) -> None:
        """Admit *job* or raise :class:`BackpressureError`."""
        tenant = job.spec.tenant
        with self._cond:
            if len(self._pending) >= self.capacity:
                raise BackpressureError(
                    f"queue full ({self.capacity} jobs pending)",
                    self._retry_after(),
                )
            if self._active.get(tenant, 0) >= self.tenant_quota:
                raise BackpressureError(
                    f"tenant {tenant!r} at quota "
                    f"({self.tenant_quota} active jobs)",
                    self._retry_after(),
                )
            self._active[tenant] = self._active.get(tenant, 0) + 1
            job.enqueue_seq = next(self._seq)
            self._pending.append(job)
            self._cond.notify()

    def requeue(self, job: Job) -> None:
        """Re-enter a preempted job.  No capacity/quota check — the job
        was already admitted and is still counted against its tenant —
        and its original sequence number keeps its FIFO position."""
        with self._cond:
            self._pending.append(job)
            self._cond.notify()

    # -- dispatch ------------------------------------------------------------

    def pop(self, timeout: float | None = None) -> Job | None:
        """The best pending job (max priority, then FIFO), or ``None``."""
        with self._cond:
            if not self._pending:
                self._cond.wait(timeout)
            if not self._pending:
                return None
            best = min(
                self._pending, key=lambda j: (-j.spec.priority, j.enqueue_seq)
            )
            self._pending.remove(best)
            return best

    def remove(self, job: Job) -> bool:
        """Withdraw a pending job (cancellation); False if not pending."""
        with self._cond:
            try:
                self._pending.remove(job)
                return True
            except ValueError:
                return False

    def release(self, job: Job) -> None:
        """Drop *job*'s tenant hold (call exactly once, at terminal state)."""
        tenant = job.spec.tenant
        with self._cond:
            count = self._active.get(tenant, 0) - 1
            if count > 0:
                self._active[tenant] = count
            else:
                self._active.pop(tenant, None)

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def pending(self) -> list[Job]:
        with self._cond:
            return sorted(
                self._pending, key=lambda j: (-j.spec.priority, j.enqueue_seq)
            )

    def wake_all(self) -> None:
        """Wake every blocked :meth:`pop` (pool shutdown)."""
        with self._cond:
            self._cond.notify_all()

    # -- persistence (SIGTERM drain) ------------------------------------------

    def persist(self, path: str, extra: tuple[Job, ...] | list[Job] = ()) -> int:
        """Write pending + *extra* (preempted in-flight) jobs as JSON;
        returns how many were saved."""
        seen: dict[str, Job] = {}
        for job in self.pending() + list(extra):
            seen.setdefault(job.id, job)
        docs = [job.persist_doc() for job in seen.values()]
        tmp = path + ".tmp"
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "jobs": docs}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return len(docs)

    @staticmethod
    def load_persisted(path: str) -> list[dict[str, Any]]:
        """The persisted job documents (empty when no state file)."""
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        jobs = doc.get("jobs", [])
        if not isinstance(jobs, list):
            raise ServiceError(f"malformed queue state file {path!r}")
        return jobs
