"""The event sources of ``repro top`` and ``repro analyze``.

``repro top`` feeds a :class:`~repro.obs.analyze.TraceAnalysis` one event
at a time and prints :meth:`~repro.obs.analyze.TraceAnalysis.render_top`
at any point mid-run.  It holds one small row per round, not the trace:
at most :data:`~repro.cgm.engine.MAX_ROUNDS` (10,000) rows per run.

Two stdlib event sources feed it:

* :func:`iter_jsonl` — read a JSON-lines trace file, optionally in
  ``follow`` mode (tail a live ``REPRO_TRACE=<path>`` / ``EventBus``
  sink as the engine appends to it); the one JSON-lines reader, which
  ``repro analyze`` reads through as well;
* :func:`iter_sse` — consume a Server-Sent-Events stream over HTTP: the
  per-job ``/jobs/<id>/events`` stream of ``repro serve``; it and
  :func:`request_json` (the job server's client) ride this thread's
  kept-alive connection to the server.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from typing import Any, Iterator
from urllib.parse import urlsplit

#: what a failed send or read raises; reported, never retried
_TRANSPORT = (OSError, http.client.HTTPException)

#: this thread's idle kept-alive connections, one per ``(host, port)``
_pool = threading.local()


class ServiceClientError(RuntimeError):
    """A request failed at the transport or HTTP layer."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def _open(method: str, url: str, body: "bytes | None", headers: dict[str, str],
          timeout_s: float, read: bool) -> tuple[Any, Any, bytes]:
    """Send one request on this thread's connection to *url*'s server;
    returns ``(conn, response, its body if read)``.

    A zero-timeout poll over every connection the thread pooled closes
    those with something to read (their server's EOF or stray bytes), so
    a server that went away leaves no socket behind.  A request is sent
    once: one that failed mid-way may have been admitted, so the failure
    is reported, not resent."""
    parts = urlsplit(url)
    key = (parts.hostname, parts.port or 80)
    pool = _pool.__dict__.setdefault("conns", {})
    poller = select.poll()
    for pooled in pool.values():
        poller.register(pooled.sock, select.POLLIN)
    readable = {fd for fd, _event in poller.poll(0)}
    for stale in [k for k, pooled in pool.items() if pooled.sock.fileno() in readable]:
        pool.pop(stale).close()
    conn = pool.pop(key, None)
    if conn is None:
        conn = http.client.HTTPConnection(*key, timeout=timeout_s)
    else:
        conn.sock.settimeout(timeout_s)
    try:
        conn.request(method, url.split(parts.netloc, 1)[1] or "/", body, headers)
        resp = conn.getresponse()
        return conn, resp, resp.read() if read else b""
    except _TRANSPORT as exc:
        conn.close()
        raise ServiceClientError(f"cannot reach {url}: {exc}") from None


def _release(conn: http.client.HTTPConnection, resp: Any) -> None:
    """Pool *conn* again if *resp* was read to its end and the server
    keeps the connection open (and the thread holds no other); else close it."""
    if resp.will_close or not resp.isclosed() or (
        _pool.conns.setdefault((conn.host, conn.port), conn) is not conn
    ):
        conn.close()


def request_json(
    method: str, url: str, body: Any = None, timeout_s: float = 10.0
) -> tuple[int, dict[str, str], Any]:
    """One JSON request; HTTP error codes are returned, not raised.

    Returns ``(status, headers, parsed_body)`` (a body that is not JSON
    comes back as ``{"raw": text}``).  Only transport failures (refused,
    reset, a timeout while sending or reading) raise
    :class:`ServiceClientError`.
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data else {}
    conn, resp, raw = _open(method, url, data, headers, timeout_s, True)
    _release(conn, resp)
    text = raw.decode("utf-8", errors="replace")
    try:
        parsed = json.loads(text) if text else {}
    except json.JSONDecodeError:
        parsed = {"raw": text}
    return resp.status, dict(resp.getheaders()), parsed


def iter_jsonl(
    path: str,
    follow: bool = False,
    poll_s: float = 0.2,
    idle_timeout_s: "float | None" = None,
) -> Iterator[dict[str, Any]]:
    """Yield events from a JSON-lines trace file.

    With ``follow=True`` the iterator tails the file like ``tail -f``,
    sleeping *poll_s* between attempts; it stops after a ``run_end``
    event, or once *idle_timeout_s* passes with no new data (``None`` =
    wait forever).  A partial trailing line (a writer mid-flush) is
    retried in follow mode, and read as the last event otherwise.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buf = ""
        idle_since = time.monotonic()
        while True:
            chunk = fh.readline()
            if chunk:
                buf += chunk
                if not buf.endswith("\n"):
                    continue  # partial line; wait for the rest
                line, buf = buf.strip(), ""
                if not line:
                    continue
                ev = json.loads(line)
                idle_since = time.monotonic()
                yield ev
                if follow and ev.get("kind") == "run_end":
                    return
                continue
            if not follow:
                if buf.strip():
                    yield json.loads(buf)
                return
            if (
                idle_timeout_s is not None
                and time.monotonic() - idle_since >= idle_timeout_s
            ):
                return
            time.sleep(poll_s)


def iter_sse(url: str, timeout_s: float = 30.0) -> Iterator[dict[str, Any]]:
    """Yield events from the SSE stream at *url* (a job's ``/jobs/<id>/events``).

    Splits what has arrived into frames on blank lines (LF or CRLF);
    parses ``data:`` frames as JSON (``data:`` lines join with newlines),
    skips comments, and stops on an ``event: end`` frame or a closed
    connection.  A non-200 answer, a failed read or one blocking longer
    than *timeout_s* is a :class:`ServiceClientError`.  A stream left
    before its end closes its connection: draining would wait for the job.
    """
    conn, resp, _ = _open(
        "GET", url, None, {"Accept": "text/event-stream"}, timeout_s, False
    )
    try:
        if resp.status != 200:
            raise ServiceClientError(f"GET {url} -> {resp.status}", resp.status)
        buf = b""
        while True:
            data = resp.read1(65536)
            if not data:
                return
            buf = (buf + data).replace(b"\r\n", b"\n")
            *frames, buf = buf.split(b"\n\n")
            for frame in frames:
                event, lines = "trace", []
                for line in frame.decode("utf-8", errors="replace").split("\n"):
                    if line.startswith("data:"):
                        lines.append(line[5:].strip())
                    elif line.startswith("event:"):
                        event = line[6:].strip()
                if event == "end":
                    if not resp.will_close:
                        resp.read()  # the terminating chunk, sent with the frame
                    return
                if lines:
                    yield json.loads("\n".join(lines))
    except http.client.IncompleteRead:
        return  # a chunked stream cut by its server's close
    except _TRANSPORT as exc:
        raise ServiceClientError(f"cannot reach {url}: {exc}") from None
    finally:
        _release(conn, resp)  # closed unless the stream was read to its end
