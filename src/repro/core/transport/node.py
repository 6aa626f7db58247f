"""The ``repro node`` daemon: hosts one worker of a distributed run.

A node binds one port, accepts coordinator connections, and runs one
worker session per connection (sessions may overlap while an aborted
one drains, so a respawning coordinator never waits on a zombie).  Each
connection must complete the handshake — a ``hello`` of bounded size
within :data:`HANDSHAKE_TIMEOUT_S`, carrying a matching protocol
version, repro release, and fingerprint of the shipped
:class:`~repro.tune.runtime.RuntimeConfig` — and is then handed to
:func:`repro.core.workers.serve_session`, the same function a forked
local worker runs on its socketpair.

Lifecycle: SIGTERM/SIGINT stop the accept loop and hang up on any
in-flight session (EOF is what ends a session); the daemon exits 0 —
the CI ``distributed`` lane asserts this clean shutdown leaves no orphan
processes.  A coordinator vanishing (EOF on the socket) aborts only that
session; the node goes straight back to accepting, which is what lets a
respawned coordinator reconnect during crash recovery.

The session payload arrives pickled, so the CGM program class must be
importable on the node — ship the same code tree (and ``PYTHONPATH``)
to every machine.
"""

from __future__ import annotations

import signal
import socket
import threading
import traceback
from typing import Callable

from repro.core.transport.base import TransportError, recv_frame, send_frame
from repro.core.transport.tcp import PROTOCOL_VERSION, hang_up, runtime_fingerprint

#: seconds an accepted connection may stay silent before its ``hello``
#: is complete; cleared once ``ready`` is sent.
HANDSHAKE_TIMEOUT_S = 10.0
#: largest ``hello`` frame read from a peer that has proven nothing yet
#: (it carries the session: config, program, fault plan — no input data).
HELLO_MAX_BYTES = 1 << 24


class NodeServer:
    """One bound, listening node; embeddable (tests) or CLI-driven.

    ``port=0`` binds an ephemeral port; :attr:`address` reports the real
    one.  :meth:`kill_session` hard-closes every live session socket —
    the test hook that makes "node death mid-run" deterministic without
    killing a process.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._srv.bind((host, port))
        self._srv.listen(4)
        self._srv.settimeout(0.5)
        self.port = self._srv.getsockname()[1]
        self.stop_event = threading.Event()
        self.sessions = 0
        self._live: list[socket.socket] = []
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------- control

    def start_thread(self) -> "NodeServer":
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"log": None}, daemon=True,
            name=f"repro-node-{self.port}",
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self.stop_event.set()
        self.kill_session()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def kill_session(self) -> int:
        """Abruptly close every live session socket (simulated node death);
        returns how many were killed."""
        with self._lock:
            victims, self._live = self._live, []
        for sock in victims:
            hang_up(sock)
        return len(victims)

    # --------------------------------------------------------------- serve

    def serve_forever(self, log: "Callable[[str], None] | None" = print) -> int:
        emit = log if log is not None else (lambda msg: None)
        emit(f"repro node listening on {self.address}")
        try:
            while not self.stop_event.is_set():
                try:
                    conn, addr = self._srv.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with self._lock:
                    self._live.append(conn)
                self.sessions += 1
                t = threading.Thread(
                    target=self._session, args=(conn, addr, emit), daemon=True,
                    name=f"repro-node-session-{self.sessions}",
                )
                t.start()
        finally:
            self._srv.close()
            self.kill_session()  # one accepted while the stop was being set
        emit("repro node: clean shutdown")
        return 0

    def _forget(self, conn: socket.socket) -> None:
        with self._lock:
            if conn in self._live:
                self._live.remove(conn)

    def _session(self, conn: socket.socket, addr, emit) -> None:
        try:
            self._run_session(conn, addr, emit)
        except (TransportError, OSError) as exc:
            emit(f"session from {addr[0]}:{addr[1]} dropped: {exc}")
        except Exception:
            emit(f"session from {addr[0]}:{addr[1]} failed:\n{traceback.format_exc()}")
        finally:
            self._forget(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _run_session(self, conn: socket.socket, addr, emit) -> None:
        from repro import __version__
        from repro.core.workers import serve_session

        conn.settimeout(HANDSHAKE_TIMEOUT_S)
        try:
            hello = recv_frame(conn, HELLO_MAX_BYTES)
        except socket.timeout:
            raise TransportError(f"no hello within {HANDSHAKE_TIMEOUT_S:g} s") from None
        if not (isinstance(hello, tuple) and len(hello) == 6 and hello[0] == "hello"):
            raise TransportError(f"expected a hello frame, got {hello!r:.80}")
        _tag, proto, version, fp, worker_id, session = hello
        reason = None
        if proto != PROTOCOL_VERSION:
            reason = (
                f"protocol version mismatch: node speaks {PROTOCOL_VERSION}, "
                f"coordinator speaks {proto}"
            )
        elif version != __version__:
            reason = (
                f"repro release mismatch: node runs {__version__}, "
                f"coordinator runs {version}"
            )
        elif runtime_fingerprint(session.get("runtime")) != fp:
            reason = (
                "RuntimeConfig fingerprint mismatch: the shipped knob snapshot "
                "does not hash to the coordinator's value (corrupt or tampered)"
            )
        if reason is not None:
            emit(f"rejecting session from {addr[0]}:{addr[1]}: {reason}")
            send_frame(conn, ("reject", reason))
            return
        send_frame(conn, ("ready", worker_id, __version__))
        conn.settimeout(None)
        emit(f"worker {worker_id} session from {addr[0]}:{addr[1]} started")
        serve_session(conn, worker_id, session)
        emit(f"worker {worker_id} session finished")


def serve_node(host: str = "127.0.0.1", port: int = 0) -> int:
    """CLI entry point: bind, install signal handlers, serve until told
    to stop; returns the process exit code."""
    server = NodeServer(host, port)

    def _stop(signum, frame) -> None:
        server.stop_event.set()
        server.kill_session()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    return server.serve_forever()
