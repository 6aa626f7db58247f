"""The worker-exchange transport layer (repro.core.transport): wire
framing and checksums, node-list parsing, connect retry policy, handshake
validation and its bounds, and logical bit-identity across memory / shm /
tcp."""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.core.transport import (
    TransportError,
    parse_nodes,
    render_nodes,
    require_nodes,
)
from repro.core.transport.node import NodeServer
from repro.core.transport.tcp import (
    PROTOCOL_VERSION,
    TcpFleet,
    dial,
    recv_frame,
    runtime_fingerprint,
    send_frame,
)
from repro.em.runner import em_run
from repro.tune.knobs import KnobError
from repro.tune.runtime import RuntimeConfig
from repro.util.validation import ConfigurationError

pytestmark = pytest.mark.usefixtures("worker_leak_guard")

V, D, B = 8, 2, 64
N = 1 << 13


def make_data() -> np.ndarray:
    return np.random.default_rng(7).integers(0, 1 << 30, N, dtype=np.int64)


def counters(report) -> dict:
    return {
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


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            obj = ("pkt", 3, 0, 1, 2, {"k": np.arange(4)})
            n = send_frame(a, obj)
            assert n > 12  # header + payload actually hit the wire
            got = recv_frame(b)
            assert got[:5] == obj[:5]
            assert np.array_equal(got[5]["k"], obj[5]["k"])
        finally:
            a.close()
            b.close()

    def test_checksum_rejects_corruption(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("hello",))
            header = b.recv(12, socket.MSG_PEEK)
            raw = bytearray(b.recv(12 + struct.unpack(">I", header[8:12])[0]))
            raw[-1] ^= 0xFF  # flip one payload byte
            c, d = socket.socketpair()
            c.sendall(bytes(raw))
            with pytest.raises(TransportError, match="checksum"):
                recv_frame(d)
            c.close()
            d.close()
        finally:
            a.close()
            b.close()

    def test_magic_rejects_foreign_peer(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"GET / HTTP/1.1\r\n" + b"\x00" * 32)
            with pytest.raises(TransportError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_round_trip(self):
        """Bigger than any socket buffer: the gather write falls back to
        finishing the payload, the reader fills one buffer in pieces."""
        import threading

        a, b = socket.socketpair()
        try:
            blob = np.random.default_rng(0).integers(0, 256, 1 << 22, dtype=np.uint8)
            got = []
            reader = threading.Thread(target=lambda: got.append(recv_frame(b)))
            reader.start()
            n = send_frame(a, ("result", 0, "final", blob))
            reader.join(timeout=30.0)
            assert not reader.is_alive()
            assert n > blob.nbytes and np.array_equal(got[0][3], blob)
        finally:
            a.close()
            b.close()

    def test_per_call_length_bound(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("hello", "x" * 4096))
            with pytest.raises(TransportError, match="exceeds the 1024-byte bound"):
                recv_frame(b, max_bytes=1024)
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("hello", "x" * 100))
            whole = b.recv(1 << 16)
            c, d = socket.socketpair()
            c.sendall(whole[:20])  # header + a truncated payload
            c.close()
            with pytest.raises(TransportError, match="closed"):
                recv_frame(d)
            d.close()
        finally:
            a.close()
            b.close()


class TestNodeLists:
    def test_parse_and_render(self):
        nodes = parse_nodes(" alpha:9876 , 10.0.0.2:1 ")
        assert nodes == [("alpha", 9876), ("10.0.0.2", 1)]
        assert render_nodes(nodes) == "alpha:9876,10.0.0.2:1"

    @pytest.mark.parametrize(
        "raw", ["alpha", "alpha:notaport", ":9876", "alpha:0", "alpha:70000", ""]
    )
    def test_malformed_entries(self, raw):
        with pytest.raises(ValueError):
            parse_nodes(raw)

    def test_require_nodes_without_list(self):
        with pytest.raises(ConfigurationError, match="REPRO_NODES"):
            require_nodes(None)

    def test_knob_wraps_parse_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", "localhost:notaport")
        with pytest.raises(KnobError, match="REPRO_NODES"):
            RuntimeConfig.from_env()

    def test_transport_knob_rejects_unknown_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "carrier-pigeon")
        with pytest.raises(KnobError, match="REPRO_TRANSPORT"):
            RuntimeConfig.from_env()


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestDial:
    def test_bounded_retry_then_clean_error(self, monkeypatch):
        import repro.core.transport.tcp as tcp

        monkeypatch.setattr(tcp, "CONNECT_RETRIES", 2)
        monkeypatch.setattr(tcp, "CONNECT_BACKOFF_S", 0.01)
        with pytest.raises(TransportError, match="after 2 attempts"):
            dial("127.0.0.1", free_port())


@pytest.fixture
def node_pair():
    servers = [NodeServer().start_thread(), NodeServer().start_thread()]
    yield servers
    for s in servers:
        s.shutdown()


def session_doc() -> dict:
    return {"runtime": RuntimeConfig.from_env()}


class TestHandshake:
    def hello(self, server, *, proto=None, version=None, fp=None):
        from repro import __version__

        session = session_doc()
        host, _, port = server.address.rpartition(":")
        sock = dial(host, int(port))
        try:
            send_frame(
                sock,
                (
                    "hello",
                    PROTOCOL_VERSION if proto is None else proto,
                    __version__ if version is None else version,
                    runtime_fingerprint(session["runtime"]) if fp is None else fp,
                    0,
                    session,
                ),
            )
            return recv_frame(sock)
        finally:
            sock.close()

    def test_good_hello_is_ready(self, node_pair):
        reply = self.hello(node_pair[0])
        assert reply[0] == "ready" and reply[1] == 0

    def test_protocol_mismatch_rejected(self, node_pair):
        reply = self.hello(node_pair[0], proto=PROTOCOL_VERSION + 1)
        assert reply[0] == "reject" and "protocol version" in reply[1]

    def test_release_mismatch_rejected(self, node_pair):
        reply = self.hello(node_pair[0], version="0.0.0-not-this")
        assert reply[0] == "reject" and "release mismatch" in reply[1]

    def test_fingerprint_mismatch_rejected(self, node_pair):
        reply = self.hello(node_pair[0], fp="0" * 16)
        assert reply[0] == "reject" and "fingerprint" in reply[1]

    def test_fleet_surfaces_rejection(self, node_pair, monkeypatch):
        # bump the coordinator-side protocol only: node.py binds its own
        # copy of PROTOCOL_VERSION at import, so the daemon still speaks 1
        import repro.core.transport.tcp as tcp

        monkeypatch.setattr(tcp, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
        fleet = TcpFleet([tuple_addr(node_pair[0])], 1)
        with pytest.raises(TransportError, match="rejected the run"):
            fleet.start(session_doc())
        fleet.stop(force=True)


class TestHandshakeBounds:
    """A connection that has proven nothing gets a deadline and a size
    bound; either way the daemon drops it with one line and goes back to
    accepting."""

    @pytest.fixture
    def node(self, monkeypatch):
        import repro.core.transport.node as node_mod

        monkeypatch.setattr(node_mod, "HANDSHAKE_TIMEOUT_S", 0.3)
        lines = []
        server = NodeServer()
        import threading

        thread = threading.Thread(
            target=server.serve_forever, kwargs={"log": lines.append}, daemon=True
        )
        thread.start()
        yield server, lines
        server.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def wait_dropped(self, server, lines, needle):
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not server._live and any(needle in line for line in lines):
                return
            time.sleep(0.02)
        raise AssertionError(f"not dropped ({needle!r}): {lines}, live={server._live}")

    def assert_still_serving(self, server):
        reply = TestHandshake().hello(server)
        assert reply[0] == "ready"

    def test_silent_client_is_dropped(self, node):
        server, lines = node
        sock = dial(*tuple_addr(server))
        try:
            self.wait_dropped(server, lines, "no hello within")
            assert not sock.recv(1)  # EOF: the daemon hung up on us
        finally:
            sock.close()
        self.assert_still_serving(server)
        self.wait_dropped(server, lines, "session finished")
        assert server.sessions == 2

    def test_oversized_hello_is_dropped(self, node):
        from repro.core.transport.node import HELLO_MAX_BYTES

        server, lines = node
        sock = dial(*tuple_addr(server))
        try:
            # a well-formed header promising more than a hello may carry
            sock.sendall(struct.pack(">4sII", b"RPTP", 0, HELLO_MAX_BYTES + 1))
            self.wait_dropped(server, lines, "exceeds the")
        finally:
            sock.close()
        self.assert_still_serving(server)
        self.wait_dropped(server, lines, "session finished")
        assert server.sessions == 2


def tuple_addr(server) -> tuple[str, int]:
    host, _, port = server.address.rpartition(":")
    return (host, int(port))


class TestFleetValidation:
    def test_empty_node_list(self):
        with pytest.raises(ConfigurationError, match="at least one node"):
            TcpFleet([], 2)

    def test_workers_round_robin_over_nodes(self):
        fleet = TcpFleet([("a", 1), ("b", 2)], 4)
        assert [fleet.node_label(w) for w in range(4)] == [
            "a:1", "b:2", "a:1", "b:2"
        ]

    def test_single_node_still_engages_fleet(self, monkeypatch, node_pair):
        """`--transport tcp` with one node must not silently fall back to
        an in-process run: auto-sizing floors the worker count at two."""
        from repro.core.workers import ProcessParEngine
        from repro.em.runner import make_engine

        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        monkeypatch.setenv("REPRO_NODES", node_pair[0].address)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        eng = make_engine(MachineConfig(N=N, v=V, p=4, D=D, B=B), "par")
        assert isinstance(eng, ProcessParEngine)
        assert eng.cfg.workers == 2


class TestReaderTeardown:
    """``stop()`` clears ``conn.sock`` under the reader thread; the reader
    must treat that as end-of-stream, not die with AttributeError."""

    def reader(self, fleet):
        """A reader thread on a socketpair, plus the peer end and the list
        any uncaught exception of the thread lands in."""
        import threading

        ours, peer = socket.socketpair()
        conn = fleet._conns[0]
        conn.sock, conn.alive = ours, True
        errors = []

        def run():
            try:
                fleet._reader(conn)
            except BaseException as exc:  # noqa: BLE001 - reported by the test
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return conn, peer, thread, errors

    def test_close_under_a_parked_reader(self):
        fleet = TcpFleet([("127.0.0.1", 1)], 1)
        conn, peer, thread, errors = self.reader(fleet)
        try:
            conn.close()  # the reader is blocked in recv on the old socket
            thread.join(timeout=10.0)
        finally:
            peer.close()
        assert not thread.is_alive() and errors == []
        assert conn.alive is False

    def test_close_between_two_frames(self):
        """The race itself, made deterministic: the connection is closed
        while the reader is handing a result up, so its next loop turn
        used to evaluate ``recv_frame(None)``."""
        fleet = TcpFleet([("127.0.0.1", 1)], 1)

        class CloseOnPut:
            def put(self, item):
                self.item = item
                fleet._conns[0].close()

        fleet._results = results = CloseOnPut()
        conn, peer, thread, errors = self.reader(fleet)
        try:
            send_frame(peer, ("result", 0, "round", {"ok": True}))
            thread.join(timeout=10.0)
        finally:
            peer.close()
        assert not thread.is_alive() and errors == []
        assert results.item == (0, "round", {"ok": True})
        assert conn.alive is False


class TestBitIdentity:
    """The acceptance gate: logical IOStats and outputs are identical no
    matter which transport carried the worker exchange."""

    CFG = MachineConfig(N=N, v=V, p=4, D=D, B=B, workers=2)

    def run_sort(self, monkeypatch, transport, nodes=None):
        monkeypatch.setenv("REPRO_TRANSPORT", transport)
        if nodes:
            monkeypatch.setenv("REPRO_NODES", nodes)
        else:
            monkeypatch.delenv("REPRO_NODES", raising=False)
        return em_run(
            SampleSort(), partition_array(make_data(), V), self.CFG, "par"
        )

    @pytest.mark.slow
    def test_memory_shm_tcp_identical(self, monkeypatch, node_pair):
        nodes = ",".join(s.address for s in node_pair)
        runs = {
            "memory": self.run_sort(monkeypatch, "memory"),
            "shm": self.run_sort(monkeypatch, "shm"),
            "tcp": self.run_sort(monkeypatch, "tcp", nodes),
        }
        base = runs["memory"]
        for kind, res in runs.items():
            assert counters(res.report) == counters(base.report), kind
            for a, b in zip(base.outputs, res.outputs):
                assert np.array_equal(a, b), kind
        out = np.concatenate(base.outputs)
        assert np.array_equal(out, np.sort(make_data()))

    @pytest.mark.slow
    def test_nodes_are_reusable_across_runs(self, monkeypatch, node_pair):
        """One daemon serves many sessions in sequence (and the second
        run's counters match the first bit-for-bit)."""
        nodes = ",".join(s.address for s in node_pair)
        first = self.run_sort(monkeypatch, "tcp", nodes)
        second = self.run_sort(monkeypatch, "tcp", nodes)
        assert counters(first.report) == counters(second.report)
        assert node_pair[0].sessions >= 2
