"""One connection per client thread: HTTP/1.1 keep-alive between
``repro serve`` and its client, the chunked SSE stream, and the frames."""

import http.client
import os
import socket
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.obs import live
from repro.obs.live import ServiceClientError, iter_sse
from repro.service import server as server_mod
from repro.service.client import get_job, request_json, stream_job, submit_job
from repro.service.server import JobServer, ServiceCore

MACHINE = {"v": 8, "D": 2, "B": 64}
SPEC = {"op": "sort", "n": 4096, "seed": 1, "machine": MACHINE, "tenant": "alice"}
WAIT_S = 60.0


def _in_thread(fn):
    """Run *fn* on a fresh client thread (an empty connection pool) and
    return what it returned; the thread closes its pool at the end."""
    out: list = []

    def run():
        try:
            out.append(fn())
        finally:
            for conn in live._pool.__dict__.get("conns", {}).values():
                conn.close()

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=WAIT_S)
    assert not t.is_alive()
    return out[0]


def _count_accepts(server: JobServer) -> list:
    accepted: list = []
    real = server._httpd.get_request

    def get_request():
        conn = real()
        accepted.append(conn[1])
        return conn

    server._httpd.get_request = get_request
    return accepted


@pytest.fixture
def served(tmp_path):
    core = ServiceCore(state_dir=str(tmp_path / "state"), pool_size=1)
    server = JobServer(core).start()
    try:
        yield server
    finally:
        core.drain(timeout=WAIT_S)
        server.close()


@pytest.fixture
def held(tmp_path):
    """A server whose pool never starts, and one queued job on it."""
    core = ServiceCore(state_dir=str(tmp_path / "s"), pool_size=1, start=False)
    server = JobServer(core).start()
    job, _ = core.submit(SPEC)
    try:
        yield server, job
    finally:
        server.close()


class TestOneConnection:
    def test_post_stream_get_ride_one_accepted_connection(self, served):
        accepted = _count_accepts(served)

        def session():
            status, _, doc = submit_job(served.url, SPEC)
            events = list(stream_job(served.url, doc["id"], timeout_s=WAIT_S))
            final = get_job(served.url, doc["id"])
            # a cache hit on the same connection too
            status2, _, dup = submit_job(served.url, SPEC)
            return status, events, final, status2, dup

        status, events, final, status2, dup = _in_thread(session)
        assert status == 202 and status2 == 200 and dup["cache"] == "hit"
        assert final["state"] == "done" and events[-1]["kind"] == "job_state"
        assert len(accepted) == 1

    def test_stream_left_mid_job_is_not_pooled(self, held):
        server, job = held
        job.bus.emit("run_begin", engine="seq-em")

        def leave_early():
            stream = stream_job(server.url, job.id, timeout_s=10)
            first = next(stream)
            stream.close()
            pooled = dict(live._pool.__dict__.get("conns", {}))
            return first, pooled, get_job(server.url, job.id)

        first, pooled, doc = _in_thread(leave_early)
        assert first["kind"] == "run_begin"
        assert pooled == {}  # the cut stream's connection was closed
        assert doc["id"] == job.id and doc["state"] == "queued"
        # the server sees the cut on its next write and detaches the stream
        deadline = time.monotonic() + 5.0
        while job.bus.subscriptions and time.monotonic() < deadline:
            job.bus.emit("poke")
            time.sleep(0.05)
        assert job.bus.subscriptions == 0

    def test_connection_the_server_closed_is_replaced_before_use(self, held):
        server, _ = held
        accepted = _count_accepts(server)

        def session():
            assert request_json("GET", server.url + "/healthz")[0] == 200
            # the server ends the idle connection behind the client's back
            with server._conns_lock:
                conns = list(server._conns)
            for conn in conns:
                conn.shutdown(socket.SHUT_RDWR)
            time.sleep(0.1)
            return submit_job(server.url, {**SPEC, "seed": 2})

        status, _, _ = _in_thread(session)
        assert status == 202
        assert len(accepted) == 2
        assert len(server.core.jobs) == 2  # the fixture's job and this one, once


    def test_a_closed_servers_connection_leaves_the_pool(self, tmp_path):
        """One thread talks to four servers in turn, each closed after its
        request, then to a fifth: the poll before that request closes the
        four dead connections, not only a dead one for the fifth."""

        def sockets():
            fds = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    fds.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    pass  # closed meanwhile (the listing's own fd, say)
            return sum(link.startswith("socket:") for link in fds)

        cores = [ServiceCore(state_dir=str(tmp_path / f"s{i}"), start=False)
                 for i in range(5)]
        servers = [JobServer(core).start() for core in cores]

        def session():
            before = sockets()
            for server in servers[:4]:
                assert request_json("GET", server.url + "/healthz")[0] == 200
                server.close()
            assert request_json("GET", servers[4].url + "/healthz")[0] == 200
            return before, sorted(live._pool.conns), sockets()

        try:
            before, pooled, after = _in_thread(session)
        finally:
            for server in servers:
                server.close()
        assert pooled == [(servers[4].host, servers[4].port)]
        assert after - before <= 1


class _DropsPost(BaseHTTPRequestHandler):
    """Counts each POST, then closes the connection without an answer:
    a request a reused connection lost after it was sent."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts += 1
        self.close_connection = True

    def log_message(self, *args):
        pass


def test_a_request_is_never_sent_twice():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _DropsPost)
    httpd.posts = 0
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        def session():
            assert request_json("GET", url + "/x")[0] == 200  # pooled now
            with pytest.raises(ServiceClientError, match="cannot reach"):
                request_json("POST", url + "/jobs", SPEC)
            return httpd.posts

        assert _in_thread(session) == 1
    finally:
        httpd.shutdown()
        httpd.server_close()


class TestStreamFallbacks:
    def _finished(self, served):
        _, _, doc = submit_job(served.url, SPEC)
        assert get_job(served.url, doc["id"])["id"] == doc["id"]
        list(stream_job(served.url, doc["id"], timeout_s=WAIT_S))
        return doc["id"]

    def test_http10_client_gets_a_close_delimited_stream(self, served):
        job_id = self._finished(served)
        with socket.create_connection(("127.0.0.1", served.port), timeout=10) as s:
            s.sendall(f"GET /jobs/{job_id}/events HTTP/1.0\r\n\r\n".encode())
            raw = b""
            while chunk := s.recv(65536):
                raw += chunk
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Transfer-Encoding" not in head
        assert body.endswith(b"event: end\ndata: {}\n\n")

    def test_urllib_client_gets_a_stream_that_ends(self, served):
        job_id = self._finished(served)
        req = urllib.request.Request(f"{served.url}/jobs/{job_id}/events")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers["Transfer-Encoding"] == "chunked"
            body = resp.read()
        assert body.endswith(b"event: end\ndata: {}\n\n")


def test_close_ends_handlers_parked_on_idle_connections(held):
    server, _ = held
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    conn.request("GET", "/healthz")
    assert conn.getresponse().read()
    with server._conns_lock:
        handlers = list(server._conns.values())
    assert len(handlers) == 1 and handlers[0].is_alive()
    server.close()
    assert not handlers[0].is_alive()
    conn.close()


def test_sse_frame_bytes_are_frozen():
    """The frames of a fixed event list, as the one-frame-at-a-time
    ``json.dumps(ev, default=_jsonable)`` writer produced them."""
    events = [
        {"seq": 0, "kind": "run_begin", "engine": "seq-em", "t": 0.25,
         "machine": {"N": 4096, "v": 8}},
        {"seq": 1, "kind": "superstep_end", "superstep": np.int64(4),
         "w": np.float64(0.5), "disks": [1, 2], "note": "hé"},
        {"kind": "job_state", "state": "done", "nan": float("nan")},
    ]
    assert server_mod._frames(events) == (
        b'id: 0\nevent: trace\ndata: {"seq": 0, "kind": "run_begin", '
        b'"engine": "seq-em", "t": 0.25, "machine": {"N": 4096, "v": 8}}\n\n'
        b'id: 1\nevent: trace\ndata: {"seq": 1, "kind": "superstep_end", '
        b'"superstep": 4, "w": 0.5, "disks": [1, 2], "note": "h\\u00e9"}\n\n'
        b'id: 0\nevent: trace\ndata: {"kind": "job_state", "state": "done", '
        b'"nan": NaN}\n\n'
    )
    assert server_mod._frames([]) == b""


class _Canned(BaseHTTPRequestHandler):
    """Answers an SSE stream written in the pieces of ``server.pieces``."""

    def do_GET(self):  # noqa: N802
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.end_headers()
        for piece in self.server.pieces:
            self.wfile.write(piece)
            self.wfile.flush()
            time.sleep(0.01)

    def log_message(self, *args):
        pass


def test_iter_sse_parses_crlf_comments_and_multiline_data():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Canned)
    httpd.pieces = [
        b": hello\r\n\r\nid: 0\r\nevent: trace\r\ndata: {\"a\":\r",
        b"\ndata: 1}\r\n\r\n: keepalive\n\nid: 1\ndata: [2,\n",
        b"data: 3]\n\nevent: trace\nid: 2\n\n",
        b"event: end\r\ndata: {}\r\n\r\nid: 3\ndata: 4\n\n",
    ]
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}/events"
        assert list(iter_sse(url, timeout_s=10)) == [{"a": 1}, [2, 3]]
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_finished_ids_are_evicted_oldest_first(tmp_path, monkeypatch):
    """The retained finished jobs keep their bound, kept in finish order."""
    monkeypatch.setattr(server_mod, "_MAX_FINISHED", 2)
    core = ServiceCore(state_dir=str(tmp_path / "s"), start=False)
    ids = [core.submit({**SPEC, "seed": i})[0].id for i in range(5)]
    for job_id in (ids[1], ids[0], ids[3]):
        core.cancel(job_id)
    assert set(core.jobs) == {ids[0], ids[2], ids[3], ids[4]}
    core.cancel(ids[4])
    assert set(core.jobs) == {ids[2], ids[3], ids[4]}
    # a cache hit is finished at once and counts the same way
    core.cache.put(core.jobs[ids[2]].fingerprint, {"ok": True})
    hit, cached = core.submit({**SPEC, "seed": 2, "tenant": "bob"})
    assert cached and set(core.jobs) == {ids[2], ids[4], hit.id}
    assert list(core._finished) == [ids[4], hit.id]
