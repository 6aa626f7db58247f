"""Client helpers for the job server (stdlib only).

Backs the ``repro submit`` subcommand, the CI service lane and the soak
script.  Every request of a thread rides its one kept-alive connection
per server (:func:`repro.obs.live.request_json`), and is sent once.
:func:`run_spec_local` executes the same spec in-process through the
exact executor the server uses, so callers can assert that a served
result is bit-identical to a direct run (the service-lane acceptance
check) without shipping output arrays over HTTP.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.obs.live import ServiceClientError, iter_sse, request_json
from repro.service.jobs import TERMINAL
from repro.service.pool import execute_spec
from repro.service.spec import JobSpec

DEFAULT_TIMEOUT_S = 10.0


def submit_job(
    base_url: str, doc: Any, timeout_s: float = DEFAULT_TIMEOUT_S
) -> tuple[int, dict[str, str], Any]:
    """POST the spec; returns ``(status, headers, job_doc_or_error)``."""
    return request_json("POST", base_url.rstrip("/") + "/jobs", doc, timeout_s)


def get_job(
    base_url: str, job_id: str, timeout_s: float = DEFAULT_TIMEOUT_S
) -> dict[str, Any]:
    status, _, doc = request_json(
        "GET", f"{base_url.rstrip('/')}/jobs/{job_id}", timeout_s=timeout_s
    )
    if status != 200:
        raise ServiceClientError(
            f"GET /jobs/{job_id} -> {status}: {doc.get('error', doc)}", status
        )
    return doc


def wait_job(
    base_url: str,
    job_id: str,
    timeout_s: float = 300.0,
    poll_s: float = 0.2,
) -> dict[str, Any]:
    """Follow the job's event stream to its end, then return its document.

    The stream ends when the job reaches a terminal state, so one GET
    follows it.  Only a stream that ends on a job still open (a draining
    server) falls back to polling every *poll_s*.  *timeout_s* is checked
    at every event and every poll.
    """
    deadline = time.monotonic() + timeout_s
    try:
        for _ in stream_job(base_url, job_id, timeout_s=timeout_s):
            if time.monotonic() >= deadline:
                break
    except ServiceClientError:
        pass  # no stream (unknown job, server gone): the GET says why
    while True:
        doc = get_job(base_url, job_id, min(timeout_s, DEFAULT_TIMEOUT_S))
        if doc.get("state") in TERMINAL:
            return doc
        if time.monotonic() >= deadline:
            raise ServiceClientError(
                f"job {job_id} still {doc.get('state')!r} after {timeout_s}s"
            )
        time.sleep(poll_s)


def stream_job(
    base_url: str, job_id: str, timeout_s: float = 300.0
) -> Iterator[dict[str, Any]]:
    """Yield the job's SSE events until its ``end`` frame."""
    return iter_sse(
        f"{base_url.rstrip('/')}/jobs/{job_id}/events", timeout_s=timeout_s
    )


def run_spec_local(doc: Any) -> dict[str, Any]:
    """Run a spec in-process through the server's executor.

    The returned document mirrors ``GET /jobs/<id>`` closely enough for
    bit-identity assertions: ``result`` is the same result document a
    worker would produce for this spec (counters, output hash, verdict).
    """
    spec = JobSpec.from_dict(doc)
    return {
        "state": "done",
        "cache": "local",
        "spec": spec.to_dict(),
        "fingerprint": spec.fingerprint(),
        "result": execute_spec(spec),
    }
