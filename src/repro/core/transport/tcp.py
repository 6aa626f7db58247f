"""The coordinator end of the worker sessions: one fleet, opened two ways.

The coordinator simulates slice 0 itself and holds one socket per other
slice's session (workers 1..k-1).  :class:`Fleet` is that end, and slice
0's transport; what differs between fleets is only how a session's socket
is opened: :class:`TcpFleet` (here) dials a ``repro node`` daemon and
shakes hands, :class:`repro.core.workers.LocalFleet` forks a child onto
one end of a ``socket.socketpair()``.  Slice 0's packets ride the session
sockets both ways.  Forked workers also get one socketpair per pair of
workers and exchange packets on it directly (a mesh); tcp workers have no
such path, so a packet from worker *i* to worker *j* travels ``i ->
coordinator -> j`` (a star).  The relay adds a hop but changes nothing
the simulation can observe (DESIGN.md §12).

Frames on a session socket (:func:`~repro.core.transport.base.send_frame`)::

    ("hello", proto, version, fingerprint, worker_id, session)  C -> N
    ("ready", worker_id, version) | ("reject", reason)          N -> C
    ("cmd", command_tuple)                                      C -> W
    ("result", worker_id, kind, payload)                        W -> C
    ("pkt", dest, r, phase, src, wire)                          W -> C
    ("pkt", r, phase, src, wire)             C -> W, W -> C, W -> W

A ``pkt`` frame without a destination is for whoever simulates the
receiving end's slice: on a session socket, slice 0's in the
coordinator or the worker's own.

The first two are the node handshake (a forked worker inherits its
session instead).  A session carries its slice's inputs (protocol v5), so
the ``("setup",)`` command carries nothing.  The hello also ships the
coordinator's frozen per-run :class:`~repro.tune.runtime.RuntimeConfig`;
the node re-fingerprints it and rejects on protocol, release, or
fingerprint mismatch so two machines can never silently disagree on knob
values mid-run.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Any

from repro.core.transport.base import (
    POLL_S,
    Transport,
    TransportAbort,
    TransportError,
    recv_frame,
    send_frame,
)
from repro.util.validation import ConfigurationError

#: bumped whenever a frame, the handshake or the command set changes.
PROTOCOL_VERSION = 5

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


def hang_up(sock: socket.socket) -> None:
    """``shutdown`` then ``close``, both quietly.

    ``shutdown`` is what the peer sees as EOF: it acts on the socket
    itself, so it works even when another process still holds a
    duplicate of this descriptor (a child forked by some other fleet of
    the same process inherits every socket open at that moment), where a
    bare ``close`` would only drop this process's reference.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Conn:
    """Coordinator-side state for one session: socket, writer lock, liveness."""

    def __init__(self, worker_id: int, label: str) -> None:
        self.worker_id = worker_id
        self.label = label
        self.sock: socket.socket | None = None
        self.wlock = threading.Lock()
        self.alive = False

    def close(self) -> None:
        sock, self.sock, self.alive = self.sock, None, False
        if sock is not None:
            hang_up(sock)


class Fleet(Transport):
    """The coordinator's end of ``len(labels)`` worker sessions — workers
    ``1..len(labels)`` — and slice 0's :class:`Transport`.

    :meth:`start` opens every session socket (:meth:`_open`, the one
    thing a subclass must supply), then starts one reader thread per
    session that funnels result frames into one queue, delivers the
    packets addressed to slice 0 to its inbox and relays the packets of
    workers with no direct path to their peers.  Slice 0 sends on the
    session sockets themselves.  A packet frame carries its payloads, so
    nothing a session sent outlives the sockets.
    """

    #: the ``transport`` knob value this fleet serves (metrics label)
    kind = "abstract"

    def __init__(self, labels: list[str]) -> None:
        super().__init__(0)
        self.workers = range(1, len(labels) + 1)
        self._conns = [_Conn(w, label) for w, label in zip(self.workers, labels)]
        self._results: queue.Queue = queue.Queue()
        self._inbox: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        #: what the sessions run: the one :meth:`start` was handed, as
        #: :meth:`_open` adapted it
        self.session: dict[str, Any] = {}
        self.bytes_received = 0

    # ----------------------------------------------------------- lifecycle

    def _open(self, session: dict[str, Any]) -> dict[str, Any]:
        """Give every ``_Conn`` a connected socket whose far end runs
        :func:`repro.core.workers.serve_session` for *session*; returns
        the session as the far ends got it."""
        raise NotImplementedError

    def _reap(self) -> None:
        """Collect what :meth:`_open` left behind besides the sockets."""

    def start(self, session: dict[str, Any]) -> None:
        try:
            self.session = self._open(session)
        except BaseException:
            self.stop(force=True)
            raise
        self._buffer.clear()
        self.packets_sent = self.packets_received = self.bytes_received = 0
        # readers start only once every session is open: a fleet that
        # forks must not do so from a process that already runs threads
        for conn in self._conns:
            conn.alive = True
            t = threading.Thread(
                target=self._reader, args=(conn,), daemon=True,
                name=f"repro-fleet-reader-{conn.worker_id}",
            )
            t.start()
            self._threads.append(t)

    def _reader(self, conn: _Conn) -> None:
        """Demultiplex one session's frames: results up, packets to slice
        0 or across.  Its end is a ``None`` on slice 0's inbox."""
        # read once: stop()/request_abort() clear conn.sock under this
        # thread, and the closed socket then ends the stream with OSError
        sock, inbox = conn.sock, self._inbox
        try:
            while sock is not None:
                frame, nbytes = recv_frame(sock, sized=True)
                tag = frame[0]
                if tag == "result":
                    self._results.put(frame[1:])
                elif tag == "pkt" and len(frame) == 5:  # to slice 0
                    inbox.put((frame[1:], nbytes))
                elif tag == "pkt":
                    self._relay(frame[1], frame[2:])  # (r, phase, src, wire)
                # anything else: a protocol bug; drop rather than wedge
        except (TransportError, OSError):
            conn.alive = False
        finally:
            inbox.put(None)

    def _write(self, conn: _Conn, frame: tuple) -> bool:
        try:
            send_frame(conn.sock, frame, conn.wlock)
            return True
        except (OSError, AttributeError):
            # hung up (no socket) or the worker died; the latter surfaces
            # as WorkerCrashed in the coordinator's _gather
            conn.alive = False
            return False

    def _relay(self, dest: int, pkt: tuple) -> None:
        self._write(self._conns[dest - 1], ("pkt",) + pkt)

    # ------------------------------------------------- slice 0's transport

    def send_packet(self, dest: int, r: int, phase: int, wire: list) -> None:
        if not self._write(self._conns[dest - 1], ("pkt", r, phase, 0, wire)):
            raise TransportAbort(f"worker {dest} hung up")

    def recv_packet(self, what: str) -> tuple:
        """One packet for slice 0.  A session that ended, or a worker seen
        dead while nothing arrives, aborts the wait: the coordinator then
        learns from the results what went wrong."""
        while True:
            try:
                got = self._inbox.get(timeout=POLL_S)
            except queue.Empty:
                if all(self.alive(w) for w in self.workers):
                    continue
                got = None
            if got is None:
                raise TransportAbort(f"a worker session ended while waiting for {what}")
            pkt, nbytes = got
            self.bytes_received += nbytes
            return pkt

    # ------------------------------------------------------------- commands

    def send(self, w: int, cmd: tuple) -> None:
        self._write(self._conns[w - 1], ("cmd", cmd))

    def broadcast(self, cmd: tuple) -> None:
        for w in self.workers:
            self.send(w, cmd)

    def result(self, timeout: float):
        """One ``(worker, kind, payload)`` reply; raises ``queue.Empty``."""
        return self._results.get(timeout=timeout)

    def alive(self, w: int) -> bool:
        return self._conns[w - 1].alive

    def request_abort(self) -> None:
        """Unblock every worker: EOF on its socket trips the session's
        abort flag, wherever it is blocked."""
        for conn in self._conns:
            conn.close()

    def stop(self, force: bool = False) -> None:
        if not force:
            self.broadcast(("stop",))
        # EOF ends a session wherever it waits — mid-exchange on a dead
        # peer's packet, say — so nobody eats a join timeout
        self.request_abort()
        self._reap()
        # joined before anyone may start() (and fork) again
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        # a restart's _gather and slice 0 see no stale reply or packet
        self._results = queue.Queue()
        self._inbox = queue.Queue()

    # ------------------------------------------------------------ telemetry

    def node_label(self, w: int) -> str:
        return "local/0" if w == 0 else self._conns[w - 1].label

    def event_tags(self, w: int) -> dict[str, Any]:
        """Extra fields for worker *w*'s replayed trace events."""
        return {}


class TcpFleet(Fleet):
    """Sessions on ``repro node`` daemons: dial + handshake each node."""

    kind = "tcp"

    def __init__(self, nodes: list[tuple[str, int]], n_sessions: int) -> None:
        if not nodes:
            raise ConfigurationError(
                "transport 'tcp' needs at least one node in REPRO_NODES"
            )
        # round-robin workers over nodes: a daemon hosts one session per
        # connection, so fewer nodes than workers just means co-tenancy
        self._nodes = [nodes[i % len(nodes)] for i in range(n_sessions)]
        super().__init__([f"{host}:{port}" for host, port in self._nodes])

    def _open(self, session: dict[str, Any]) -> dict[str, Any]:
        from repro import __version__

        fp = runtime_fingerprint(session.get("runtime"))
        for conn, (host, port) in zip(self._conns, self._nodes):
            w, inputs = conn.worker_id, session.get("inputs", {})
            # a node gets its own slice's inputs, no other's
            mine = {**session, "inputs": {w: inputs[w]} if w in inputs else {}}
            conn.sock = dial(host, port)
            send_frame(
                conn.sock, ("hello", PROTOCOL_VERSION, __version__, fp, w, mine), conn.wlock
            )
        for conn in self._conns:
            try:
                reply = recv_frame(conn.sock)
            except TransportError as exc:
                raise TransportError(
                    f"node {conn.label} closed during handshake: {exc}"
                ) from None
            if reply[0] == "reject":
                raise TransportError(f"node {conn.label} rejected the run: {reply[1]}")
            if reply[0] != "ready" or reply[1] != conn.worker_id:
                raise TransportError(
                    f"node {conn.label} sent an unexpected handshake reply {reply[:2]!r}"
                )
        return session

    def event_tags(self, w: int) -> dict[str, Any]:
        return {"node": self.node_label(w)}
