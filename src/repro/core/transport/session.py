"""The worker end of a session: one socket to the coordinator.

Every packet of :class:`SessionTransport` leaves as a ``("pkt", dest,
...)`` frame for the coordinator to relay and arrives on the inbox the
session's socket reader feeds — on a socketpair end or a TCP connection
alike.  A packet's bulk payloads ride inside its frame: there is one
local carrier, so nothing outlives the socket that carried it.
"""

from __future__ import annotations

from repro.core.transport.base import (
    Transport,
    TransportAbort,
    TransportError,
    send_frame,
)


class SessionTransport(Transport):
    """One socket to the coordinator.

    *inbox* is fed by the session's socket reader (which demultiplexes
    packet frames from command frames, and posts ``None`` at EOF).
    """

    def __init__(self, worker_id: int, sock, wlock, inbox) -> None:
        super().__init__(worker_id)
        self.sock = sock
        self.wlock = wlock
        self.inbox = inbox

    def send_packet(self, dest: int, r: int, phase: int, wire: list) -> None:
        try:
            send_frame(
                self.sock, ("pkt", dest, r, phase, self.worker_id, wire), self.wlock
            )
        except OSError as exc:
            raise TransportError(f"packet send to worker {dest} failed: {exc}")

    def recv_packet(self, what: str) -> tuple:
        pkt = self.inbox.get()
        if pkt is None:
            raise TransportAbort(f"coordinator hung up while waiting for {what}")
        return pkt
