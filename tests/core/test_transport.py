"""The worker-exchange transport layer (repro.core.transport): wire
framing and checksums, the copy-free frame layout and its index checks,
node-list parsing, connect retry policy, handshake validation and its
bounds, per-node traffic counters, and logical bit-identity across the
memory / shm / tcp spellings."""

from __future__ import annotations

import pickle
import socket
import struct
import time
import zlib

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
from repro.em.runner import em_run, em_sort
from repro.obs.metrics import MetricsRegistry
from repro.pdm.block import BlockRun
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

    def test_send_side_length_bound(self, monkeypatch):
        """A frame every receiver would refuse is refused before a byte
        is written, so the stream stays in step for the next frame."""
        from repro.core.transport import base

        monkeypatch.setattr(base, "MAX_FRAME_BYTES", 1024)
        a, b = socket.socketpair()
        try:
            with pytest.raises(
                TransportError, match=r"frame length \d+ exceeds the 1024-byte bound"
            ):
                send_frame(a, ("hello", "x" * 4096))
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)  # nothing reached the peer
            b.setblocking(True)
            send_frame(a, ("hello", "x" * 100))
            assert recv_frame(b) == ("hello", "x" * 100)
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


def _payload_of(buf):
    """The object a received array or buffer is ultimately a view of."""
    while not isinstance(buf, memoryview):
        buf = buf.base
    return buf.obj


class TestWireFormat:
    """Frame v2: ``>4sII`` header, then an index of u64 words, the pickle
    stream and the out-of-band buffers, each piece padded to 8 bytes."""

    def raw_frame(self, obj) -> bytes:
        a, b = socket.socketpair()
        try:
            n = send_frame(a, obj)
            return b.recv(n, socket.MSG_WAITALL)
        finally:
            a.close()
            b.close()

    def test_golden_layout(self):
        x = np.arange(3, dtype=np.int64)
        y = np.arange(5, dtype=np.int32)  # 20 bytes: 4 of padding follow
        raw = self.raw_frame(("pkt", 0, 1, 2, [x, y, BlockRun(b"abc", 1, 16)]))
        magic, crc, length = struct.unpack(">4sII", raw[:12])
        payload = raw[12:]
        assert (magic, length, crc) == (b"RPT2", len(payload), zlib.crc32(payload))
        count, meta_len, *sizes = struct.unpack_from("<5Q", payload)
        assert (count, sizes) == (3, [24, 20, 3])
        pos, pieces = 5 * 8, []
        for size in [meta_len, *sizes]:
            assert pos % 8 == 0
            pieces.append(payload[pos : pos + size])
            pad = payload[pos + size : pos + size + -size % 8]
            assert pad == bytes(-size % 8)
            pos += size + -size % 8
        assert pos == length
        meta, *bufs = pieces
        assert bufs == [x.tobytes(), y.tobytes(), b"abc"]
        assert x.tobytes() not in meta and y.tobytes() not in meta

    def test_buffers_are_aligned_views_of_one_payload(self):
        a, b = socket.socketpair()
        try:
            sent = [
                np.arange(3, dtype=np.int64),
                np.arange(5, dtype=np.int32),
                np.arange(7, dtype=np.int64).reshape(7, 1),
            ]
            run = BlockRun(np.arange(9, dtype=np.uint8), 1, 16)
            send_frame(a, ("result", 0, "final", (sent, run)))
            arrays, got_run = recv_frame(b)[3]
        finally:
            a.close()
            b.close()
        for want, got in zip(sent, arrays):
            assert np.array_equal(want, got) and got.dtype == want.dtype
            assert got.ctypes.data % 8 == 0 and got.flags.writeable
        assert bytes(got_run.buf) == bytes(range(9)) and got_run.nblocks == 1
        owners = {id(_payload_of(x)) for x in [*arrays, got_run.buf]}
        assert len(owners) == 1
        assert isinstance(_payload_of(arrays[0]), bytearray)

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            struct.pack("<2Q", 2**64 - 1, 0),  # more buffers than bytes left
            struct.pack("<4Q", 2, 8, 8, 1 << 20) + bytes(16),  # sum past the end
            struct.pack("<4Q", 2, 8, 2**64 - 8, 16) + bytes(32),  # u64 wrap
        ],
        ids=["empty", "count", "sum", "overflow"],
    )
    def test_hostile_index_is_one_line(self, payload):
        a, b = socket.socketpair()
        try:
            header = struct.pack(">4sII", b"RPT2", zlib.crc32(payload), len(payload))
            a.sendall(header + payload)
            with pytest.raises(TransportError, match="frame index does not fit") as err:
                recv_frame(b)
        finally:
            a.close()
            b.close()
        assert "\n" not in str(err.value)

    def test_v1_frame_is_refused(self):
        a, b = socket.socketpair()
        try:
            payload = pickle.dumps(("hello",), protocol=4)
            a.sendall(
                struct.pack(">4sII", b"RPTP", zlib.crc32(payload), len(payload))
                + payload
            )
            with pytest.raises(TransportError, match="bad frame magic b'RPTP'"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_block_run_pickles_in_band(self, protocol):
        run = BlockRun(np.arange(5, dtype=np.uint8), 1, 8)
        got = pickle.loads(pickle.dumps(run, protocol=protocol))
        assert (bytes(got.buf), got.nblocks, got.block_bytes) == (bytes(range(5)), 1, 8)


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


def test_a_started_node_shuts_down_at_once():
    """``shutdown()`` wakes the blocked ``accept`` instead of waiting out
    its 0.5 s poll, which every test that starts nodes paid in teardown."""
    server = NodeServer().start_thread()
    time.sleep(0.05)  # the accept loop is polling
    t0 = time.perf_counter()
    server.shutdown()
    assert time.perf_counter() - t0 < 0.1


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

    def test_v1_hello_rejected(self, node_pair):
        reply = self.hello(node_pair[0], proto=1)
        assert reply[0] == "reject" and "protocol version mismatch" in reply[1]

    def test_v2_hello_rejected(self, node_pair):
        """A coordinator of the per-round command protocol is refused."""
        reply = self.hello(node_pair[0], proto=2)
        assert reply == (
            "reject", "protocol version mismatch: node speaks 7, coordinator speaks 2"
        )

    def test_v3_hello_rejected(self, node_pair):
        """A coordinator whose session hands the slice its message bound
        (and its programs the whole machine) is refused."""
        reply = self.hello(node_pair[0], proto=3)
        assert reply == (
            "reject", "protocol version mismatch: node speaks 7, coordinator speaks 3"
        )

    def test_v4_hello_rejected(self, node_pair):
        """A coordinator whose ``setup`` command carries the slice's
        inputs (a session without them) is refused."""
        reply = self.hello(node_pair[0], proto=4)
        assert reply == (
            "reject", "protocol version mismatch: node speaks 7, coordinator speaks 4"
        )

    def test_v5_hello_rejected(self, node_pair):
        """A coordinator that gathers one result per round from every
        session (rows not yet riding the exchange) is refused."""
        reply = self.hello(node_pair[0], proto=5)
        assert reply == (
            "reject", "protocol version mismatch: node speaks 7, coordinator speaks 5"
        )

    def test_v6_hello_rejected(self, node_pair):
        """A coordinator whose session asks for boundary snapshots on the
        rows (no checkpoint directory to write parts into) is refused."""
        reply = self.hello(node_pair[0], proto=6)
        assert reply == (
            "reject", "protocol version mismatch: node speaks 7, coordinator speaks 6"
        )

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
        assert [fleet.node_label(w) for w in fleet.workers] == [
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
        assert eng.n_workers == 2


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
            send_frame(peer, ("result", 0, "setup", {"ok": True}))
            thread.join(timeout=10.0)
        finally:
            peer.close()
        assert not thread.is_alive() and errors == []
        assert results.item == (0, "setup", {"ok": True})
        assert conn.alive is False


class TestBitIdentity:
    """The acceptance gate: logical IOStats and outputs are identical no
    matter which transport carried the worker exchange."""

    CFG = MachineConfig(N=N, v=V, p=4, D=D, B=B)

    def run_sort(self, monkeypatch, transport, nodes=None):
        monkeypatch.setenv("REPRO_TRANSPORT", transport)
        if nodes:
            monkeypatch.setenv("REPRO_NODES", nodes)
        else:
            monkeypatch.delenv("REPRO_NODES", raising=False)
        return em_run(
            SampleSort(), partition_array(make_data(), V), self.CFG, "par",
            overrides={"workers": 2},
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


class TestSessionInputs:
    """A session carries its slice's inputs (protocol v5): each ``repro
    node`` gets exactly its own slice's in its hello, by pid, and the
    ``setup`` command carries nothing."""

    def test_each_node_receives_exactly_its_slices_inputs(self, monkeypatch, node_pair):
        from repro.core import workers

        got, serve = {}, workers.serve_session

        def recorded(sock, worker_id, session, peers=None):
            got[worker_id] = session["inputs"]
            return serve(sock, worker_id, session, peers)

        commands = []
        run_session = workers.run_worker_session

        def logged(worker_id, session, cmd_get, **kw):
            def get():
                cmd = cmd_get()
                commands.append(cmd)
                return cmd

            return run_session(worker_id, session, cmd_get=get, **kw)

        monkeypatch.setattr(workers, "serve_session", recorded)
        monkeypatch.setattr(workers, "run_worker_session", logged)
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        monkeypatch.setenv("REPRO_NODES", ",".join(s.address for s in node_pair))
        inputs = partition_array(make_data(), V)
        res = em_run(SampleSort(), inputs, MachineConfig(N=N, v=V, p=4, D=D, B=B), "par",
                     overrides={"workers": 3})
        assert np.array_equal(np.concatenate(res.outputs), np.sort(make_data()))
        # p = 4 over three slices: reals [0, 1], [2] and [3], two pids each
        assert sorted(got) == [1, 2]
        for w, pids in ((1, [4, 5]), (2, [6, 7])):
            assert list(got[w]) == [w] and sorted(got[w][w]) == pids
            assert all(np.array_equal(got[w][w][pid], inputs[pid]) for pid in pids)
        assert commands.count(("setup",)) == 2


class TestTrafficCounters:
    """Each session counts the packet frames it receives; the fold writes
    them per node under the names and labels the relay used to."""

    def traffic(self, monkeypatch, workers, transport, nodes=None):
        monkeypatch.setenv("REPRO_TRANSPORT", transport)
        if nodes:
            monkeypatch.setenv("REPRO_NODES", nodes)
        else:
            monkeypatch.delenv("REPRO_NODES", raising=False)
        reg = MetricsRegistry()
        cfg = MachineConfig(N=N, v=V, p=4, D=D, B=B)
        out = em_sort(make_data(), cfg, "par", metrics=reg,
                      overrides={"workers": workers})
        assert np.array_equal(out.values, np.sort(make_data()))
        snap = reg.snapshot()
        totals = {}
        for family in ("repro_transport_packets_total", "repro_transport_bytes_total"):
            for series in snap[family]["series"]:
                labels = series["labels"]
                assert labels["transport"] == transport
                key = (family, labels["node"], labels.get("direction"))
                totals[key] = totals.get(key, 0) + series["value"]
        return totals

    def test_every_local_node_counts(self, monkeypatch):
        totals = self.traffic(monkeypatch, 3, "memory")
        for w in range(3):
            node = f"local/{w}"
            assert totals[("repro_transport_bytes_total", node, None)] > 0
            for direction in ("sent", "recv"):
                assert totals[("repro_transport_packets_total", node, direction)] > 0

    def test_a_tcp_node_counts(self, monkeypatch, node_pair):
        totals = self.traffic(monkeypatch, 2, "tcp", node_pair[0].address)
        node = node_pair[0].address
        assert totals[("repro_transport_bytes_total", node, None)] > 0
        assert totals[("repro_transport_packets_total", node, "sent")] > 0
