"""The worker end of a session: one socket to the coordinator, plus the
shared-memory bulk path.

Every packet of :class:`SessionTransport` leaves as a ``("pkt", dest,
...)`` frame for the coordinator to relay and arrives on the inbox the
session's socket reader feeds — on a socketpair end or a TCP connection
alike.  With a *shm_threshold* (local sessions under ``transport=shm``)
a packet whose ``BlockRun`` payloads total at least that many bytes moves
them through one ``multiprocessing.shared_memory`` segment instead: only
the segment reference crosses the socket, and the receiver's scatter
copies straight from the mapping into its track arena, so bulk bytes
cross the process boundary exactly once and are never pickled.

Segment ownership: the sender owns a segment until the frame naming it
is on the socket (an encode or send failure unlinks it here); from then
on the coordinator's fleet knows the name, and the receiver's
:meth:`SessionTransport.release` normally unlinks it after staging.
Whatever a dead or aborted receiver never released, the fleet unlinks
(:func:`unlink_segment`).
"""

from __future__ import annotations

import _posixshmem
from multiprocessing import resource_tracker, shared_memory

from repro.core.transport.base import (
    Transport,
    TransportAbort,
    TransportError,
    send_frame,
)
from repro.pdm.block import BlockRun


def _untrack_shm(shm) -> None:
    """Detach a *sender's* segment from the resource tracker.

    Ownership is explicit in the exchange protocol: the receiver unlinks
    after staging, and ``SharedMemory.unlink`` itself unregisters, which
    balances the registration made when the receiver attached.  Only the
    sender's create-side registration is left dangling — untracking it
    here keeps the tracker from warning (or double-unlinking) at exit.
    The receiver must NOT untrack, or ``unlink`` would unregister a name
    the tracker no longer holds and spray KeyError tracebacks on stderr.
    """
    try:
        resource_tracker.unregister(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def unlink_segment(name: str) -> None:
    """Remove segment *name* if it still exists.

    By name alone — no attach, so no resource-tracker registration (and
    no tracker process) in a coordinator that never maps a segment.
    """
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass  # the receiver's release() got there first: the normal case


class SessionTransport(Transport):
    """One socket to the coordinator; bulk payloads optionally via shm.

    *inbox* is fed by the session's socket reader (which demultiplexes
    packet frames from command frames, and posts ``None`` at EOF);
    *shm_threshold* is ``None`` for the ``memory`` spelling and for node
    sessions.  A packet buffered for a later phase keeps its wire form;
    its segment is only mapped when that phase consumes it.
    """

    def __init__(self, worker_id: int, sock, wlock, inbox, shm_threshold) -> None:
        super().__init__(worker_id)
        self.sock = sock
        self.wlock = wlock
        self.inbox = inbox
        self.shm_threshold = shm_threshold
        self._consumed: list = []

    def send_packet(self, dest: int, r: int, phase: int, wire: tuple) -> None:
        try:
            send_frame(
                self.sock, ("pkt", dest, r, phase, self.worker_id, wire), self.wlock
            )
        except OSError as exc:
            if wire[0] == "shm":
                unlink_segment(wire[1])  # nobody else learned its name
            raise TransportError(f"packet send to worker {dest} failed: {exc}")

    def recv_packet(self, what: str) -> tuple:
        pkt = self.inbox.get()
        if pkt is None:
            raise TransportAbort(f"coordinator hung up while waiting for {what}")
        return pkt

    def _encode(self, items: list) -> tuple:
        """``("inl", items)`` below the threshold, else ``("shm",
        segment_name, items)`` with every payload replaced by the ``(offset,
        nbytes, nblocks, block_bytes)`` of its copy in the segment."""
        threshold = self.shm_threshold
        if threshold is None:
            return ("inl", items)
        total = sum(bundle[2].nbytes for _src, bundle in items)
        if total < threshold:
            return ("inl", items)
        shm = shared_memory.SharedMemory(create=True, size=total)
        _untrack_shm(shm)
        try:
            view = shm.buf
            off = 0
            wire_items = []
            for src_pid, (dest, parts, payload) in items:
                n = payload.nbytes
                view[off : off + n] = memoryview(payload.buf).cast("B")
                ref = (off, n, payload.nblocks, payload.block_bytes)
                off += n
                wire_items.append((src_pid, (dest, parts, ref)))
            return ("shm", shm.name, wire_items)
        except BaseException:
            unlink_segment(shm.name)
            raise
        finally:
            shm.close()

    def _decode(self, wire: tuple) -> list:
        kind = wire[0]
        if kind == "inl":
            return wire[1]
        _, name, wire_items = wire
        shm = shared_memory.SharedMemory(name=name)
        self._consumed.append(shm)
        view = memoryview(shm.buf)
        return [
            (src_pid, (dest, parts, BlockRun(view[off : off + n], nblocks, bb)))
            for src_pid, (dest, parts, (off, n, nblocks, bb)) in wire_items
        ]

    def release(self) -> None:
        """Unlink segments whose payloads have been staged on disk.

        Callers must have dropped every ``BlockRun`` view first (staging
        copies the bytes into the arena); a still-exported mapping is
        retried on the next call rather than erroring the round.
        """
        keep = []
        for shm in self._consumed:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                keep.append(shm)
        self._consumed = keep
