"""``repro serve-metrics``: a stdlib HTTP endpoint for live runs.

The first concrete brick of the ROADMAP's simulation-as-a-service item:
a small :mod:`http.server`-based endpoint (no dependencies) exposing a
running simulation's telemetry:

* ``GET /metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` in
  Prometheus text exposition format (0.0.4), scrape-ready;
* ``GET /events`` — a Server-Sent-Events stream of the
  :class:`~repro.obs.bus.EventBus`: buffered events are replayed first
  (``?replay=0`` to skip), then live events follow as they are emitted.
  Each frame carries the event's ``seq`` as the SSE ``id``, so gaps from
  the bus's drop-oldest backpressure are detectable client-side;
* ``GET /healthz`` — liveness plus event/subscriber counts.

The server runs on daemon threads (:class:`ThreadingHTTPServer`) and
never blocks the simulation: SSE clients consume through a bounded
:class:`~repro.obs.bus.Subscription`.  :meth:`ObsServer.close` wakes
streaming handlers (their subscriptions close and a poll flag flips) and
shuts the listener down cleanly.

This module also holds the repo's one HTTP/SSE skeleton —
:class:`HttpHandler` (response helpers and the SSE stream loop) and
:class:`HttpListener` (the daemon-thread lifecycle) — which
:class:`repro.service.server.JobServer` builds on too.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.obs.bus import EventBus, Subscription
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import _jsonable

#: seconds an idle SSE stream waits between keepalive comments; short so
#: close() is observed promptly even without traffic.
_SSE_POLL_S = 0.5
#: one keepalive comment roughly every this many idle polls.
_SSE_KEEPALIVE_POLLS = 10


class HttpHandler(BaseHTTPRequestHandler):
    """Response helpers shared by every endpoint; ``self.server.owner`` is
    the :class:`HttpListener` serving the request."""

    # CI smoke and tests scrape repeatedly; default request logging would
    # drown the run's own output
    def log_message(self, format: str, *args: Any) -> None:
        pass

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
        self.end_headers()
        self.wfile.write(payload)

    def _json(
        self, code: int, doc: Any, headers: "dict[str, str] | None" = None
    ) -> None:
        self._text(code, json.dumps(doc) + "\n", "application/json", headers)

    def _frame(self, ev: dict[str, Any]) -> None:
        data = json.dumps(ev, default=_jsonable)
        self.wfile.write(
            f"id: {ev.get('seq', 0)}\nevent: trace\ndata: {data}\n\n".encode()
        )
        self.wfile.flush()

    def _stream(
        self, bus: EventBus, sub: "Subscription | None", replay: bool = True
    ) -> None:
        """Answer with an SSE stream of *bus*: the buffered events first
        (when *replay*), then live ones from *sub* until it closes — an
        ``event: end`` frame — or the listener does.  ``sub=None`` is the
        replay-only stream.  The caller subscribes *before* calling, so no
        event falls between the buffer snapshot and the subscription; the
        seq guard drops the overlap."""
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            self.end_headers()
            last_seq = -1
            if replay:
                for ev in list(bus.events):
                    self._frame(ev)
                    last_seq = int(ev.get("seq", last_seq))
            closing = self.server.owner.closing
            idle = 0
            while sub is not None:
                if closing.is_set():
                    return
                ev = sub.get(timeout=_SSE_POLL_S)
                if ev is None:
                    if sub.closed:
                        break
                    idle += 1
                    if idle >= _SSE_KEEPALIVE_POLLS:
                        # comment frame: keeps proxies open, detects a
                        # dead client via the raised BrokenPipeError
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        idle = 0
                    continue
                idle = 0
                if int(ev.get("seq", -1)) <= last_seq:
                    continue  # already replayed from the buffer
                self._frame(ev)
            self.wfile.write(b"event: end\ndata: {}\n\n")
            self.wfile.flush()
        finally:
            if sub is not None:
                sub.close()


class HttpListener:
    """A :class:`ThreadingHTTPServer` answering with :attr:`handler` on a
    daemon thread.  ``port=0`` picks a free port — read :attr:`port` /
    :attr:`url` after construction."""

    handler: type[HttpHandler]
    thread_name = "repro-http"

    def __init__(self, host: str, port: int) -> None:
        self._httpd = ThreadingHTTPServer((host, port), self.handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        #: set by close(); streaming handlers poll it
        self.closing = threading.Event()
        self.host = self._httpd.server_address[0]
        self.port = int(self._httpd.server_address[1])
        self._thread: "threading.Thread | None" = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self.thread_name, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving: wake SSE streams, shut the listener down (idempotent)."""
        if self.closing.is_set():
            return
        self.closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class _Handler(HttpHandler):
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        try:
            if url.path == "/metrics":
                self._metrics()
            elif url.path == "/events":
                self._events(parse_qs(url.query))
            elif url.path in ("/", "/healthz"):
                self._healthz()
            else:
                self._text(404, "not found\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage

    def _metrics(self) -> None:
        registry = self.server.owner.registry
        if registry is None:
            self._text(503, "no metrics registry attached\n")
            return
        self._text(
            200, registry.render_prometheus(),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _healthz(self) -> None:
        bus = self.server.owner.bus
        self._json(
            200,
            {
                "status": "ok",
                "events": len(bus.events) if bus is not None else 0,
                "subscribers": bus.subscriptions if bus is not None else 0,
            },
        )

    def _events(self, query: dict[str, list[str]]) -> None:
        bus = self.server.owner.bus
        if bus is None:
            self._text(503, "no event bus attached\n")
            return
        replay = query.get("replay", ["1"])[0] not in ("0", "false", "no")
        self._stream(bus, bus.subscribe(), replay)


class ObsServer(HttpListener):
    """The live-telemetry HTTP endpoint; see the module docstring."""

    handler = _Handler
    thread_name = "repro-obs-http"

    def __init__(
        self,
        bus: "EventBus | None" = None,
        registry: "MetricsRegistry | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.bus = bus
        self.registry = registry
        super().__init__(host, port)
