"""Multi-tenant simulation-as-a-service: the ``repro serve`` job server.

The paper's premise — one machine with D disks *simulating* a
v-processor coarse-grained parallel algorithm — means one box can serve
workloads that look parallel from the outside.  This package makes that
literal: a stdlib-only HTTP daemon that accepts run specs, queues them
per tenant with backpressure, executes them on the existing EM engines
through a small worker pool, preempts long jobs at checkpoint
boundaries for higher-priority tenants (the victim resumes
bit-identically), and serves duplicate specs straight from a
fingerprint-keyed result cache.

Layering (everything below the HTTP handler is importable on its own):

* :mod:`repro.service.spec` — :class:`JobSpec`: a validated,
  fingerprintable run specification;
* :mod:`repro.service.jobs` — :class:`Job`: the lifecycle state machine
  plus its per-job :class:`~repro.obs.bus.EventBus`;
* :mod:`repro.service.queue` — bounded priority FIFO with per-tenant
  quotas and 429-style backpressure;
* :mod:`repro.service.cache` — the fingerprint-keyed result cache;
* :mod:`repro.service.pool` — :func:`execute_spec` (spec → result
  document) and the preemptible :class:`WorkerPool`;
* :mod:`repro.service.server` — :class:`ServiceCore` (submit / cancel /
  drain, no HTTP) and :class:`JobServer` (the ThreadingHTTPServer);
* :mod:`repro.service.client` — client helpers backing ``repro submit``,
  the CI service lane and the soak: one kept-alive connection per server
  per thread.
"""

from repro.service.jobs import Job, ServiceError
from repro.service.queue import BackpressureError
from repro.service.server import DrainingError, JobServer, ServiceCore
from repro.service.spec import JobSpec

__all__ = [
    "BackpressureError",
    "DrainingError",
    "Job",
    "JobServer",
    "JobSpec",
    "ServiceCore",
    "ServiceError",
]
