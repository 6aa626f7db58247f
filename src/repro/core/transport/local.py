"""Single-machine transports: per-worker queues, optionally with a
shared-memory bulk path.

:class:`MemoryTransport` is the plain path — every packet pickles
through its destination worker's ``multiprocessing`` queue.
:class:`ShmTransport` keeps the queue as the control lane but moves a
packet's bulk ``BlockRun`` payload bytes through one
``multiprocessing.shared_memory`` segment per packet once they total at
least the configured threshold: the receiver's scatter copies straight
from the mapping into its track arena, so bulk bytes cross the process
boundary exactly once and are never pickled.  Both re-home the PR-3/PR-5
exchange paths of ``repro.core.workers`` behind the
:class:`~repro.core.transport.base.Transport` interface — the packets on
the wire (and hence every logical counter) are unchanged.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

from repro.core.transport.base import Transport, poll_get
from repro.pdm.block import BlockRun

#: payload placeholder in a shared-memory packet: the receiver rebuilds a
#: BlockRun view over the mapped segment from these coordinates.
_SHM_REF = "__shmrun__"


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


class MemoryTransport(Transport):
    """Peer-to-peer ``multiprocessing`` queues; payloads pickled inline."""

    kind = "memory"

    def __init__(self, worker_id: int, inboxes, abort) -> None:
        super().__init__(worker_id)
        self.inboxes = inboxes
        self.abort = abort

    def send_packet(self, dest: int, r: int, phase: int, wire: tuple) -> None:
        self.inboxes[dest].put((r, phase, self.worker_id, wire))

    def recv_packet(self, what: str) -> tuple:
        return poll_get(self.inboxes[self.worker_id], self.abort, what)


class ShmTransport(MemoryTransport):
    """Queue control lane + shared-memory segments for bulk payloads.

    A packet buffered for a later phase keeps its wire form; its segment
    is only mapped when that phase consumes it.  :meth:`release` closes
    and unlinks consumed segments after staging.
    """

    kind = "shm"

    def __init__(self, worker_id: int, inboxes, abort, shm_threshold) -> None:
        super().__init__(worker_id, inboxes, abort)
        self.shm_threshold = shm_threshold
        self._consumed: list = []

    def _encode(self, items: list) -> tuple:
        """``("inl", items)`` below the threshold, else
        ``("shm", segment_name, items_with_refs)``."""
        threshold = self.shm_threshold
        if threshold is None:
            return ("inl", items)
        total = sum(bundle[2].nbytes for _src, bundle in items)
        if total < threshold:
            return ("inl", items)
        shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            view = shm.buf
            off = 0
            wire_items = []
            for src_pid, (dest, parts, payload) in items:
                n = payload.nbytes
                view[off : off + n] = memoryview(payload.buf).cast("B")
                ref = (_SHM_REF, off, n, payload.nblocks, payload.block_bytes)
                off += n
                wire_items.append((src_pid, (dest, parts, ref)))
            return ("shm", shm.name, wire_items)
        finally:
            # the receiver owns the segment's lifetime from here on
            _untrack_shm(shm)
            shm.close()

    def _decode(self, wire: tuple) -> list:
        kind = wire[0]
        if kind == "inl":
            return wire[1]
        _, name, wire_items = wire
        shm = shared_memory.SharedMemory(name=name)
        self._consumed.append(shm)
        view = memoryview(shm.buf)
        items = []
        for src_pid, (dest, parts, payload) in wire_items:
            if isinstance(payload, tuple) and payload and payload[0] == _SHM_REF:
                _tag, off, n, nblocks, block_bytes = payload
                payload = BlockRun(view[off : off + n], nblocks, block_bytes)
            items.append((src_pid, (dest, parts, payload)))
        return items

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
