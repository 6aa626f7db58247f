"""The worker end of a session: one socket to the coordinator, and on a
forked fleet one socket per peer.

A packet of :class:`SessionTransport` leaves as a ``("pkt", r, phase,
src, wire)`` frame on its destination's socket — a forked fleet's mesh,
or the coordinator's socket for slice 0, which the coordinator
simulates — or as a ``("pkt", dest, ...)`` frame for the coordinator to
relay (tcp).  It arrives on the inbox the session's socket readers feed.
Its bulk payloads ride inside the frame, so nothing outlives the socket.
"""

from __future__ import annotations

from repro.core.transport.base import (
    Transport,
    TransportAbort,
    TransportError,
    send_frame,
)


class SessionTransport(Transport):
    """One socket to the coordinator, plus *peers* (``{worker: socket}``);
    the coordinator's socket is peer 0's.

    *inbox* is fed by the session's socket readers with ``(packet,
    frame bytes)`` pairs, and ``None`` when a socket ends; the bytes of
    the packet frames taken off it are counted in ``bytes_received``.
    """

    def __init__(self, worker_id: int, sock, wlock, inbox, peers: dict) -> None:
        super().__init__(worker_id)
        self.sock = sock
        self.wlock = wlock
        self.inbox = inbox
        self.peers = {0: sock, **peers}
        self.bytes_received = 0

    def send_packet(self, dest: int, r: int, phase: int, wire: list) -> None:
        peer = self.peers.get(dest)
        try:
            if peer is None:
                frame = ("pkt", dest, r, phase, self.worker_id, wire)
                send_frame(self.sock, frame, self.wlock)
            else:
                send_frame(peer, ("pkt", r, phase, self.worker_id, wire), self.wlock)
        except OSError as exc:
            if peer is not None:  # a dead peer: the coordinator sees a crash
                raise TransportAbort(f"worker {dest} hung up: {exc}") from None
            raise TransportError(f"packet send to worker {dest} failed: {exc}")

    def recv_packet(self, what: str) -> tuple:
        got = self.inbox.get()
        if got is None:
            raise TransportAbort(f"a session socket closed while waiting for {what}")
        pkt, nbytes = got
        self.bytes_received += nbytes
        return pkt
