"""Networked worker exchange: the coordinator relays packets between
``repro node`` daemons over length-prefixed, checksummed TCP frames.

Topology is a star: the coordinator holds exactly one socket per node
(one node per worker), and a peer-to-peer packet from worker *i* to
worker *j* travels ``node i -> coordinator -> node j``.  The relay adds
a hop but changes nothing the simulation can observe — the packets, and
the one-packet-per-peer-per-phase barrier they implement, are the same
objects the local transports move, so every logical ``IOStats`` counter
stays bit-identical (DESIGN.md §12 gives the full argument).

Wire format (both directions): a 12-byte header ``>4sII`` of magic
``RPTP``, CRC-32 of the payload, and payload length, followed by the
pickled payload.  Frames::

    ("hello", proto, version, fingerprint, worker_id, session)  C -> N
    ("ready", worker_id, version) | ("reject", reason)          N -> C
    ("cmd", command_tuple)                                      C -> N
    ("result", worker_id, kind, payload)                        N -> C
    ("pkt", dest, r, phase, src, wire)                          N -> C
    ("pkt", r, phase, src, wire)                                C -> N

The handshake ships the coordinator's frozen per-run
:class:`~repro.tune.runtime.RuntimeConfig`; the node re-fingerprints it
and rejects on protocol, release, or fingerprint mismatch so two
machines can never silently disagree on knob values mid-run.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading
import time
import zlib
from typing import Any

from repro.core.transport.base import Transport, TransportError, poll_get
from repro.util.validation import ConfigurationError

#: bumped whenever a frame or handshake shape changes incompatibly.
PROTOCOL_VERSION = 1

_MAGIC = b"RPTP"
_HEADER = struct.Struct(">4sII")
#: refuse absurd frame lengths before allocating (corrupt/foreign peer).
MAX_FRAME_BYTES = 1 << 31

#: connect retry policy (tests shrink these via monkeypatch).
CONNECT_RETRIES = 6
CONNECT_BACKOFF_S = 0.2
CONNECT_BACKOFF_MAX_S = 3.0


def runtime_fingerprint(rt: Any) -> str:
    """Canonical digest of every knob value in a RuntimeConfig snapshot."""
    import hashlib
    import json

    doc = rt.knob_values() if rt is not None else {}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def send_frame(sock: socket.socket, obj: Any, lock=None) -> int:
    """Pickle *obj*, frame it, write it; returns bytes on the wire."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
    data = header + payload
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError(
                f"connection closed while reading {what}"
                + (" (mid-frame)" if buf else "")
            )
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> Any:
    """One framed object off the socket; validates magic and checksum."""
    magic, crc, length = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size, "a frame header")
    )
    if magic != _MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r} (not a repro transport peer?)"
        )
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame length {length} exceeds the sanity bound")
    payload = _recv_exact(sock, length, f"a {length}-byte frame payload")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TransportError("frame checksum mismatch (corrupt stream)")
    return pickle.loads(payload)


def dial(host: str, port: int) -> socket.socket:
    """Connect with bounded retry + exponential backoff."""
    delay = CONNECT_BACKOFF_S
    last: Exception | None = None
    for attempt in range(CONNECT_RETRIES):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt + 1 < CONNECT_RETRIES:
                time.sleep(delay)
                delay = min(delay * 2, CONNECT_BACKOFF_MAX_S)
    raise TransportError(
        f"cannot reach node {host}:{port} after {CONNECT_RETRIES} attempts: {last}"
    )


class TcpWorkerTransport(Transport):
    """A node-side worker's exchange endpoint: one socket to the coordinator.

    Outbound packets are framed ``("pkt", dest, ...)`` for the coordinator
    to relay; inbound packets arrive on *inbox*, fed by the node's socket
    reader thread (which demultiplexes them from command frames).
    """

    kind = "tcp"

    def __init__(self, worker_id: int, sock, wlock, inbox, abort) -> None:
        super().__init__(worker_id)
        self.sock = sock
        self.wlock = wlock
        self.inbox = inbox
        self.abort = abort

    def send_packet(self, dest: int, r: int, phase: int, wire: tuple) -> None:
        try:
            send_frame(
                self.sock, ("pkt", dest, r, phase, self.worker_id, wire), self.wlock
            )
        except OSError as exc:
            raise TransportError(f"packet send to worker {dest} failed: {exc}")

    def recv_packet(self, what: str) -> tuple:
        return poll_get(self.inbox, self.abort, what)


class _NodeConn:
    """Coordinator-side state for one node: socket, writer lock, counters."""

    def __init__(self, worker_id: int, host: str, port: int) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.label = f"{host}:{port}"
        self.sock: socket.socket | None = None
        self.wlock = threading.Lock()
        self.alive = False
        self.packets = 0  # packet frames relayed *to* this node
        self.bytes = 0  # bytes of those frames

    def close(self) -> None:
        sock, self.sock, self.alive = self.sock, None, False
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class TcpFleet:
    """The coordinator's worker fleet when workers are ``repro node``
    daemons: dial + handshake each node, then relay their peer packets
    and funnel their result frames into one queue.

    Presents the same surface :class:`repro.core.workers.LocalFleet` does
    (``start/send/broadcast/result/alive/stop``), so the coordinator's
    round protocol — including checkpointed crash recovery, which maps a
    dead connection onto the existing respawn-and-redispatch path — is
    transport-blind.
    """

    kind = "tcp"

    def __init__(self, nodes: list[tuple[str, int]], n_workers: int) -> None:
        if not nodes:
            raise ConfigurationError(
                "transport 'tcp' needs at least one node in REPRO_NODES"
            )
        self.n_workers = n_workers
        # round-robin workers over nodes: a daemon hosts one session per
        # connection, so fewer nodes than workers just means co-tenancy
        self._conns = [
            _NodeConn(w, *nodes[w % len(nodes)]) for w in range(n_workers)
        ]
        self._results: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._stopping = False

    # ----------------------------------------------------------- lifecycle

    def start(self, session: dict[str, Any]) -> None:
        from repro import __version__

        self._stopping = False
        self._threads = []
        fp = runtime_fingerprint(session.get("runtime"))
        for conn in self._conns:
            conn.sock = dial(conn.host, conn.port)
            conn.alive = True
            conn.packets = conn.bytes = 0
            send_frame(
                conn.sock,
                ("hello", PROTOCOL_VERSION, __version__, fp, conn.worker_id, session),
                conn.wlock,
            )
        for conn in self._conns:
            try:
                reply = recv_frame(conn.sock)
            except TransportError as exc:
                self.stop(force=True)
                raise TransportError(
                    f"node {conn.label} closed during handshake: {exc}"
                ) from None
            if reply[0] == "reject":
                self.stop(force=True)
                raise TransportError(f"node {conn.label} rejected the run: {reply[1]}")
            if reply[0] != "ready" or reply[1] != conn.worker_id:
                self.stop(force=True)
                raise TransportError(
                    f"node {conn.label} sent an unexpected handshake reply {reply[:2]!r}"
                )
        for conn in self._conns:
            t = threading.Thread(
                target=self._reader, args=(conn,), daemon=True,
                name=f"repro-tcp-reader-{conn.worker_id}",
            )
            t.start()
            self._threads.append(t)

    def _reader(self, conn: _NodeConn) -> None:
        """Demultiplex one node's frames: results up, packets across."""
        # read once: stop()/request_abort() clear conn.sock under this
        # thread, and the closed socket then ends the stream with OSError
        sock = conn.sock
        try:
            while sock is not None:
                frame = recv_frame(sock)
                tag = frame[0]
                if tag == "result":
                    self._results.put((frame[1], frame[2], frame[3]))
                elif tag == "pkt":
                    _tag, dest, r, phase, src, wire = frame
                    self._relay(dest, (r, phase, src, wire))
                # anything else: a protocol bug; drop rather than wedge
        except (TransportError, OSError):
            conn.alive = False

    def _relay(self, dest: int, pkt: tuple) -> None:
        dc = self._conns[dest]
        try:
            n = send_frame(dc.sock, ("pkt",) + pkt, dc.wlock)
        except (OSError, AttributeError):
            # dest died; its absence surfaces as WorkerCrashed in _gather
            dc.alive = False
            return
        dc.packets += 1
        dc.bytes += n

    # ------------------------------------------------------------- commands

    def send(self, w: int, cmd: tuple) -> None:
        conn = self._conns[w]
        if conn.sock is None:
            return
        try:
            send_frame(conn.sock, ("cmd", cmd), conn.wlock)
        except OSError:
            conn.alive = False

    def broadcast(self, cmd: tuple) -> None:
        for w in range(self.n_workers):
            self.send(w, cmd)

    def result(self, timeout: float):
        """One ``(worker, kind, payload)`` reply; raises ``queue.Empty``."""
        return self._results.get(timeout=timeout)

    def alive(self, w: int) -> bool:
        return self._conns[w].alive

    def request_abort(self) -> None:
        """Unblock every worker: closing the sockets EOFs the node readers,
        which trip each session's abort flag."""
        self._stopping = True
        for conn in self._conns:
            conn.close()

    def stop(self, force: bool = False) -> None:
        self._stopping = True
        if not force:
            self.broadcast(("stop",))
        for conn in self._conns:
            conn.close()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        # drain stale replies so a restart's _gather never sees them
        try:
            while True:
                self._results.get_nowait()
        except queue.Empty:
            pass

    # ------------------------------------------------------------ telemetry

    def node_label(self, w: int) -> str:
        return self._conns[w].label

    def event_tags(self, w: int) -> dict[str, Any]:
        return {"node": self._conns[w].label}

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-node relay traffic: packet frames and bytes sent to it."""
        return {
            conn.label: {"packets": conn.packets, "bytes": conn.bytes}
            for conn in self._conns
        }
