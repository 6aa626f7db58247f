"""`repro serve`: the multi-tenant job server.

Split in two so everything interesting is testable without sockets:

* :class:`ServiceCore` — submit / status / cancel / drain over the
  queue, pool, cache and metrics (no HTTP anywhere);
* :class:`JobServer` — a stdlib :class:`ThreadingHTTPServer` on a daemon
  thread translating HTTP to core calls; the repo's one HTTP surface.

Endpoints::

    POST /jobs               submit a spec      202 queued | 200 cached
                             (X-Repro-Cache: hit|miss on both)
                             400 invalid | 429 + Retry-After | 503 draining
    GET  /jobs               queue + job summaries
    GET  /jobs/<id>          full job document (result when done)
    GET  /jobs/<id>/events   per-job SSE stream (engine trace + lifecycle):
                             buffered events replayed, then live ones;
                             "id:" is the event seq, ": keepalive" when
                             idle, "event: end" at a terminal state
    POST /jobs/<id>/cancel   cancel (queued dies now, running at boundary)
    GET  /metrics            Prometheus text, per-tenant labels, engine
                             counters updated every round
    GET  /healthz            liveness + depth + drain flag

SIGTERM drain (the CLI wires the signal): stop admitting (503), preempt
in-flight jobs so they checkpoint at the next round boundary, persist
the pending + preempted set to ``<state_dir>/queue.json``, and exit 0.
A server restarted on the same state dir re-enqueues those jobs with
``resume=True`` — they continue from their snapshots bit-identically.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import urlparse

from repro.faults.checkpoint import write_durably
from repro.obs.bus import EventBus, Subscription, _jsonable
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.jobs import CANCELLED, DONE, PREEMPTED, QUEUED, Job, ServiceError
from repro.service.pool import WorkerPool
from repro.service.queue import BackpressureError, JobQueue
from repro.service.spec import JobSpec
from repro.util.validation import ConfigurationError

#: submissions beyond this many retained finished jobs evict the oldest
_MAX_FINISHED = 1024

QUEUE_STATE_FILE = "queue.json"
CACHE_STATE_FILE = "result_cache.json"

#: seconds an idle SSE stream waits between keepalive checks; short so
#: close() is observed promptly even without traffic.
_SSE_POLL_S = 0.5
#: seconds a stream lets events pile up after the first of a batch before
#: writing them all; the engine wakes it once per batch, not once per event
_SSE_LINGER_S = 0.005
#: one keepalive comment roughly every this many idle polls.
_SSE_KEEPALIVE_POLLS = 10
#: one encoder for every frame: the bytes of ``json.dumps(ev, default=_jsonable)``
_ENCODER = json.JSONEncoder(default=_jsonable)


class DrainingError(ServiceError):
    """The server is shutting down and refuses new submissions (503)."""


class UnknownJobError(ServiceError):
    """No job with that id (404)."""


class ServiceCore:
    """The job server minus HTTP; every endpoint is one method here."""

    def __init__(
        self,
        state_dir: str,
        registry: MetricsRegistry | None = None,
        pool_size: int = 2,
        queue_capacity: int = 64,
        tenant_quota: int = 16,
        cache_capacity: int = 256,
        start: bool = True,
    ) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.queue = JobQueue(capacity=queue_capacity, tenant_quota=tenant_quota)
        self.cache = ResultCache(capacity=cache_capacity)
        self.pool = WorkerPool(self.queue, self.cache, self.registry, size=pool_size)
        self.pool.on_terminal = self._on_terminal
        self.jobs: dict[str, Job] = {}
        #: ids of the retained finished jobs, oldest finish first
        self._finished: collections.deque[str] = collections.deque()
        self._jobs_lock = threading.Lock()
        self._seq = itertools.count(1)
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._restore_state()
        if start:
            self.start()

    def start(self) -> "ServiceCore":
        self.pool.start()
        return self

    # -- metrics helpers -----------------------------------------------------

    def _counter(self, name: str, help: str, **labels: Any) -> None:
        self.registry.counter(name, help).labels(**labels).inc()

    def _refresh_gauges(self) -> None:
        self.registry.gauge(
            "repro_service_queue_depth", "jobs waiting for a worker"
        ).labels().set(self.queue.depth)
        stats = self.cache.stats()
        self.registry.gauge(
            "repro_service_cache_entries", "result-cache entries"
        ).labels().set(stats["entries"])

    # -- submission ----------------------------------------------------------

    def _new_job_id(self) -> str:
        with self._jobs_lock:
            while True:
                job_id = f"j{next(self._seq):05d}"
                if job_id not in self.jobs:
                    return job_id

    def _register(self, job: Job) -> None:
        with self._jobs_lock:
            self.jobs[job.id] = job

    def submit(self, doc: Any) -> tuple[Job, bool]:
        """Validate and admit one spec; returns ``(job, served_from_cache)``.

        Raises :class:`ConfigurationError` (400), :class:`BackpressureError`
        (429) or :class:`DrainingError` (503).
        """
        if self._draining.is_set():
            raise DrainingError("server is draining; resubmit elsewhere or later")
        spec = JobSpec.from_dict(doc)
        job_id = self._new_job_id()
        job = Job(job_id, spec, os.path.join(self.state_dir, "ckpt", job_id))
        self._counter(
            "repro_service_jobs_submitted_total", "specs accepted for validation",
            tenant=spec.tenant,
        )
        cached = self.cache.get(job.fingerprint)
        if cached is not None:
            job.result = cached
            job.cache = "hit"
            self._register(job)
            self._counter(
                "repro_service_cache_hits_total",
                "jobs served from the result cache", tenant=spec.tenant,
            )
            job.set_state(DONE)
            self._on_terminal(job)
            return job, True
        self._counter(
            "repro_service_cache_misses_total",
            "submissions that had to run", tenant=spec.tenant,
        )
        self._register(job)
        try:
            self.queue.submit(job)
        except BackpressureError:
            with self._jobs_lock:
                self.jobs.pop(job.id, None)
            self._counter(
                "repro_service_rejected_total",
                "submissions refused by backpressure", tenant=spec.tenant,
            )
            raise
        self._refresh_gauges()
        victim = self.pool.maybe_preempt(job)
        if victim is not None:
            self._counter(
                "repro_service_preemptions_total",
                "running jobs evicted for a higher-priority tenant",
                tenant=victim.spec.tenant,
            )
        return job, False

    # -- status / cancel -----------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job {job_id!r}")
        return job

    def summaries(self) -> list[dict[str, Any]]:
        with self._jobs_lock:
            jobs = sorted(self.jobs.values(), key=lambda j: j.id)
        return [j.to_summary() for j in jobs]

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; terminal jobs are left untouched (idempotent)."""
        job = self.get(job_id)
        if job.terminal:
            return job
        if self.queue.remove(job):
            job.request_cancel()
            job.set_state(CANCELLED)
            self._on_terminal(job)
        else:
            # running (or mid-requeue): the pool observes the flag at the
            # next round boundary / dispatch and finalizes the state
            job.request_cancel()
        return job

    # -- terminal bookkeeping -------------------------------------------------

    def _record_terminal_metrics(self, job: Job) -> None:
        self._counter(
            "repro_service_jobs_total", "jobs by terminal state",
            tenant=job.spec.tenant, state=job.state,
        )
        if job.finished_s is not None:
            self.registry.timer(
                "repro_service_job_seconds", "submit-to-terminal latency"
            ).labels(tenant=job.spec.tenant).observe(
                job.finished_s - job.submitted_s
            )
        self._refresh_gauges()

    def _on_terminal(self, job: Job) -> None:
        if job.enqueue_seq >= 0:
            self.queue.release(job)
        with self._jobs_lock:
            self._finished.append(job.id)
            while len(self._finished) > _MAX_FINISHED:
                self.jobs.pop(self._finished.popleft(), None)
        self._record_terminal_metrics(job)

    # -- drain / restore ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float = 30.0) -> int:
        """SIGTERM path: stop admitting, checkpoint in-flight jobs,
        persist pending + preempted, close event streams.  Returns how
        many jobs were persisted (idempotent; later calls return 0)."""
        if self._draining.is_set():
            self._drained.wait(timeout)
            return 0
        self._draining.set()
        self.pool.stop()
        self.pool.join(timeout=timeout)
        with self._jobs_lock:
            preempted = [j for j in self.jobs.values() if j.state == PREEMPTED]
        saved = self.queue.persist(
            os.path.join(self.state_dir, QUEUE_STATE_FILE), extra=preempted
        )
        self._persist_cache()
        with self._jobs_lock:
            open_jobs = [j for j in self.jobs.values() if not j.terminal]
        for job in open_jobs:
            job.bus.close()  # end any SSE streams; state stays resumable
        self._drained.set()
        return saved

    def _persist_cache(self) -> None:
        """Write the result cache next to ``queue.json`` so a restarted
        server keeps serving hits: before this existed, a drain threw the
        cache away and every resubmitted spec re-ran from scratch."""
        docs = self.cache.to_docs()
        if not docs:
            return
        doc = json.dumps({"entries": docs}, default=_jsonable)
        write_durably(os.path.join(self.state_dir, CACHE_STATE_FILE), [doc.encode()])

    def _restore_cache(self) -> None:
        path = os.path.join(self.state_dir, CACHE_STATE_FILE)
        if not os.path.exists(path):
            return
        try:
            with open(path) as fh:
                doc = json.load(fh)
            self.cache.load(doc.get("entries", []))
        except (OSError, ValueError):
            pass  # a corrupt cache file is a cold cache, not a crash
        os.remove(path)

    def _restore_state(self) -> None:
        self._restore_cache()
        path = os.path.join(self.state_dir, QUEUE_STATE_FILE)
        docs = JobQueue.load_persisted(path)
        if not docs:
            return
        for doc in docs:
            try:
                spec, jid = JobSpec.from_dict(doc["spec"]), str(doc["id"])
                job = Job(
                    jid, spec,
                    doc.get("ckpt_dir") or os.path.join(self.state_dir, "ckpt", jid),
                )
                job.attempts = int(doc.get("attempts", 0))
                job.preemptions = int(doc.get("preemptions", 0))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    f"malformed job in queue state file {path!r}: {exc!r}"
                ) from None
            job.resume = bool(doc.get("resume", False))
            self._register(job)
            try:
                self.queue.submit(job)
            except BackpressureError:  # smaller queue than the old server's
                with self._jobs_lock:
                    self.jobs.pop(job.id, None)
        os.remove(path)
        self._refresh_gauges()


def _frames(events: list[dict[str, Any]]) -> bytes:
    """*events* as SSE frames, built in one pass."""
    encode = _ENCODER.encode
    return "".join([
        f"id: {ev.get('seq', 0)}\nevent: trace\ndata: {encode(ev)}\n\n"
        for ev in events
    ]).encode()


def _chunk(data: bytes) -> bytes:
    """*data* as one HTTP/1.1 chunk; nothing for no data."""
    return b"%x\r\n%s\r\n" % (len(data), data) if data else b""


class _Handler(BaseHTTPRequestHandler):
    """``self.server.owner`` is the :class:`JobServer` serving the request;
    a connection carries requests until its client closes it."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.owner._track(self.connection, threading.current_thread())

    def finish(self) -> None:
        self.server.owner._track(self.connection, None)
        super().finish()

    # CI smoke and tests poll repeatedly; default request logging would
    # drown the server's own output
    def log_message(self, format: str, *args: Any) -> None:
        pass

    # -- responses -----------------------------------------------------------

    def _end(self, body: bytes) -> None:
        """``end_headers()`` with *body* in the same write."""
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _text(
        self,
        code: int,
        body: str,
        content_type: str = "text/plain; charset=utf-8",
        headers: "dict[str, str] | None" = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._end(payload)

    def _json(
        self, code: int, doc: Any, headers: "dict[str, str] | None" = None
    ) -> None:
        self._text(code, json.dumps(doc) + "\n", "application/json", headers)

    def _stream(self, bus: EventBus, sub: "Subscription | None") -> None:
        """Answer with an SSE stream of *bus*: the buffered events first,
        then live ones from *sub*, a batch per wake-up, until it closes —
        an ``event: end`` frame — or the server does.  ``sub=None`` is the
        replay-only stream.  The caller subscribes *before* calling, so no
        event falls between the buffer snapshot and the subscription; the
        seq guard drops the overlap.  An HTTP/1.1 request gets one chunk
        per batch; an HTTP/1.0 one a stream its connection's close ends."""
        try:
            chunked = self.request_version == "HTTP/1.1"
            wire = _chunk if chunked else bytes
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            if chunked:
                self.send_header("Transfer-Encoding", "chunked")
            else:
                self.send_header("Connection", "close")
            replay = list(bus.events)
            self._end(wire(_frames(replay)))
            last_seq = int(replay[-1].get("seq", -1)) if replay else -1
            closing = self.server.owner.closing
            idle = 0
            while sub is not None:
                if closing.is_set():
                    self.close_connection = True  # a cut stream has no end
                    return
                batch = sub.take(_SSE_POLL_S, _SSE_LINGER_S)
                if not batch:
                    if sub.closed:
                        break
                    idle += 1
                    if idle >= _SSE_KEEPALIVE_POLLS:
                        # comment frame: keeps proxies open, detects a
                        # dead client via the raised BrokenPipeError
                        self.wfile.write(wire(b": keepalive\n\n"))
                        idle = 0
                    continue
                idle = 0
                # the seq guard skips what the replay already carried
                self.wfile.write(wire(_frames(
                    [ev for ev in batch if int(ev.get("seq", -1)) > last_seq]
                )))
            end = b"0\r\n\r\n" if chunked else b""  # the last chunk rides along
            self.wfile.write(wire(b"event: end\ndata: {}\n\n") + end)
        finally:
            if sub is not None:
                sub.close()

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        try:
            if path == "/metrics":
                self._metrics()
            elif path in ("/", "/healthz"):
                self._healthz()
            elif path == "/jobs":
                self._list_jobs()
            elif path.startswith("/jobs/") and path.endswith("/events"):
                self._events(path.split("/")[2])
            elif path.startswith("/jobs/"):
                self._job_doc(path.split("/")[2])
            else:
                self._json(404, {"error": f"no route {path}"})
        except UnknownJobError as exc:
            self._json(404, {"error": str(exc)})
        except (ConnectionError, TimeoutError):
            self.close_connection = True  # client went away mid-response

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        try:
            if path == "/jobs":
                self._submit()
            elif path.startswith("/jobs/") and path.endswith("/cancel"):
                self._cancel(path.split("/")[2])
            else:
                self._json(404, {"error": f"no route {path}"})
        except UnknownJobError as exc:
            self._json(404, {"error": str(exc)})
        except (ConnectionError, TimeoutError):
            self.close_connection = True

    # -- endpoints -----------------------------------------------------------

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ConfigurationError("empty request body (expected a JSON spec)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"request body is not JSON: {exc}") from None

    def _submit(self) -> None:
        core = self.server.owner.core
        try:
            job, cached = core.submit(self._read_body())
        except DrainingError as exc:
            self._json(503, {"error": str(exc)}, {"Retry-After": "30"})
            return
        except BackpressureError as exc:
            self._json(
                429, {"error": str(exc)},
                {"Retry-After": str(exc.retry_after_s)},
            )
            return
        except ConfigurationError as exc:
            self._json(400, {"error": str(exc)})
            return
        self._json(
            200 if cached else 202,
            job.to_doc(),
            {"X-Repro-Cache": job.cache, "Location": f"/jobs/{job.id}"},
        )

    def _cancel(self, job_id: str) -> None:
        job = self.server.owner.core.cancel(job_id)
        self._json(200, job.to_doc())

    def _list_jobs(self) -> None:
        core = self.server.owner.core
        self._json(
            200,
            {
                "jobs": core.summaries(),
                "queue_depth": core.queue.depth,
                "draining": core.draining,
                "cache": core.cache.stats(),
            },
        )

    def _job_doc(self, job_id: str) -> None:
        self._json(200, self.server.owner.core.get(job_id).to_doc())

    def _healthz(self) -> None:
        core = self.server.owner.core
        self._json(
            200,
            {
                "status": "draining" if core.draining else "ok",
                "jobs": len(core.jobs),
                "queue_depth": core.queue.depth,
            },
        )

    def _metrics(self) -> None:
        core = self.server.owner.core
        core._refresh_gauges()
        self._text(
            200, core.registry.render_prometheus(),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _events(self, job_id: str) -> None:
        """Per-job SSE: replay the bus buffer, then stream live events
        until the job reaches a terminal state (bus closed -> end frame)."""
        job = self.server.owner.core.get(job_id)
        # subscribe *before* the terminal check: set_state flips the state
        # first and closes the bus after, so either we see terminal here
        # (replay-only) or our subscription is registered in time for
        # close() to end the stream — no hang window either way
        sub = job.bus.subscribe()
        if job.terminal:
            sub.close()
            sub = None
        self._stream(job.bus, sub)


class JobServer:
    """The HTTP front of a :class:`ServiceCore`, answering on a daemon
    thread; ``port=0`` picks a free port — read :attr:`port` / :attr:`url`
    after construction.

    Call :meth:`ServiceCore.drain` before :meth:`close` for the SIGTERM
    semantics — close alone does not persist."""

    def __init__(
        self, core: ServiceCore, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.core = core
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        #: set by close(); streaming handlers poll it
        self.closing = threading.Event()
        #: open connections -> the handler thread serving each
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self.host = self._httpd.server_address[0]
        self.port = int(self._httpd.server_address[1])
        self._thread: "threading.Thread | None" = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JobServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def _track(self, conn: socket.socket, thread: "threading.Thread | None") -> None:
        """Note *conn* open (served by *thread*) or, with ``None``, closed."""
        with self._conns_lock:
            if thread is None:
                self._conns.pop(conn, None)
            else:
                self._conns[conn] = thread

    def close(self) -> None:
        """Stop serving: wake SSE streams, shut the listener down, end the
        handlers parked on idle kept-alive connections (idempotent)."""
        if self.closing.is_set():
            return
        self.closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._conns_lock:
            conns = dict(self._conns)
        # an idle handler waits on its next request line; ending the read
        # side answers it EOF, while a response being written still goes out
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its client
        deadline = time.monotonic() + 5.0
        for thread in conns.values():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
