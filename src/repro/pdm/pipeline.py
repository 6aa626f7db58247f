"""Double-buffered block prefetch over the track arena.

The EM engines spend each compound superstep alternating between disk
reads (context, inbox) and compute (the program's round callback).  The
reads are fully predictable one virtual processor ahead — the context
directory names every pid's ``(disk, track)`` addresses before the loop
starts — so :class:`DoubleBufferedReader` overlaps them: a worker thread
gathers pid *k+1*'s blocks out of the arena while the main thread is still
deserializing and computing pid *k* (the pipelined-buffer scheme of
Rahn/Sanders/Singler's external sorter, scaled down to two buffers).

Determinism is non-negotiable: IOStats, per-disk counters, trace events
and raised errors must stay bit-identical to the synchronous path.  The
split that guarantees it:

* the **worker thread** only performs *speculative, unaccounted* copies
  (:meth:`~repro.pdm.disk_array.DiskArray.try_gather`) — it never touches
  a counter, never raises, and degrades to a miss on anything unusual
  (side-dict tracks, a fault-injected array, bad addresses);
* the **consuming thread** performs all accounting at :meth:`get` time via
  :meth:`~repro.pdm.disk_array.DiskArray.finish_read` — on a miss that is
  simply the synchronous ``read_run``, canonical errors included.  Since
  consumption order equals submission order equals the synchronous loop
  order, every observable sequence is unchanged.

Why the prefetched data cannot be stale: a pid's context tracks are only
rewritten by that pid's own store, which happens strictly after its load
consumes the prefetch; all other writes during a superstep (message slots,
overflow runs, other pids' contexts) land on disjoint tracks, and an arena
growth triggered by them preserves old rows in place (RAM copy / sparse
file extension), so a concurrent gather sees either the correct bytes or
a clean miss.

Buffers come from the reader's private :class:`BufferPool`: only the
worker thread takes, only :meth:`release` gives back, so a buffer handed
to a consumer can never be reused mid-flight.  ``depth`` bounds how many
unreleased buffers the worker may fill ahead (2 = classic double
buffering); the request queue itself is unbounded, so submitting the whole
superstep schedule up front never blocks the main thread.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.pdm.fastpath import BufferPool

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.pdm.disk_array import DiskArray

#: classic double buffering: one buffer being consumed, one being filled.
DEFAULT_DEPTH = 2

#: Smallest mean read (bytes) worth handing to the worker thread.  One
#: request costs the consumer ~140 us whatever its size (a semaphore and an
#: Event handshake, two thread switches under the interpreter lock, its
#: share of a thread start/join per round); what the overlap can hide is
#: the gather, bytes / throughput.  At the 1.5-4 GB/s the arenas gather at
#: the two meet at 210-560 KB, and measured in the engine a prefetched read
#: lost to a synchronous one at every context size from 8 to 512 KiB on
#: both arenas (DESIGN.md section 10).  1 MiB is the next power of two:
#: below it the round reads synchronously and no thread is started.
#: Callers decide from the sizes they already schedule.
PREFETCH_BREAK_EVEN_BYTES = 1 << 20


class _Request:
    """One submitted read: addresses in, a filled buffer + hit flag out."""

    __slots__ = ("array", "disks", "tracks", "key", "buf", "hit", "ready", "error")

    def __init__(
        self, array: "DiskArray", disks: np.ndarray, tracks: np.ndarray, key: object
    ) -> None:
        self.array = array
        self.disks = disks
        self.tracks = tracks
        self.key = key
        self.buf: np.ndarray | None = None
        self.hit = False
        self.ready = threading.Event()
        self.error: BaseException | None = None


class DoubleBufferedReader:
    """Bounded-lookahead prefetcher over one or more disk arrays.

    Usage::

        reader = DoubleBufferedReader()
        for pid in schedule:
            reader.submit(array, disks, tracks, key=pid)   # never blocks
        ...
        flat, buf = reader.get(pid)    # FIFO; accounting happens here
        ...consume flat...
        reader.release(buf)            # buffer re-enters circulation
        ...
        reader.close()                 # graceful drain, idempotent
    """

    def __init__(self, depth: int = DEFAULT_DEPTH, max_buffers: int = 8) -> None:
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self.depth = depth
        #: consumer-side telemetry (counted in :meth:`get`, on the calling
        #: thread, so reads are race-free): a *hit* consumed a speculative
        #: gather, a *miss* fell back to the accounted synchronous read.
        self.submitted = 0
        self.hits = 0
        self.misses = 0
        self._pool = BufferPool(max_buffers=max_buffers)
        self._slots = threading.Semaphore(depth)
        self._requests: deque[_Request | None] = deque()
        self._have_work = threading.Semaphore(0)
        self._pending: deque[_Request] = deque()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-prefetch", daemon=True
        )
        self._thread.start()

    # -- worker side -------------------------------------------------------

    def _run(self) -> None:
        while True:
            self._have_work.acquire()
            req = self._requests.popleft()
            if req is None:
                return
            # wait for a free buffer slot; close() releases a permit to
            # unblock the wait, with req then finishing as a plain miss
            self._slots.acquire()
            if self._closed:
                # hand the escape permit back so every remaining queued
                # request (and the sentinel) can drain without a consumer
                self._slots.release()
                req.ready.set()
                continue
            try:
                nbytes = int(req.disks.size) * req.array.block_bytes
                buf = self._pool.take(nbytes)
                req.hit = req.array.try_gather(req.disks, req.tracks, buf)
                req.buf = buf
            except BaseException as exc:  # pragma: no cover - defensive
                req.error = exc
            req.ready.set()

    # -- consumer side -----------------------------------------------------

    def submit(
        self, array: "DiskArray", disks: np.ndarray, tracks: np.ndarray, key: object
    ) -> None:
        """Queue one read.  Never blocks; work starts when a slot frees."""
        if self._closed:
            raise RuntimeError("submit() on a closed DoubleBufferedReader")
        req = _Request(array, disks, tracks, key)
        self.submitted += 1
        self._pending.append(req)
        self._requests.append(req)
        self._have_work.release()

    def get(self, key: object) -> tuple[np.ndarray, np.ndarray | None]:
        """Consume the oldest submitted read (keys must match FIFO order).

        Returns ``(flat, buf)``: *flat* is the gathered bytes as a flat
        ``uint8`` view, *buf* the backing buffer to hand to
        :meth:`release` once *flat* has been consumed (``None`` when the
        read fell back to a synchronous allocation).  All accounting — and
        any canonical read error — happens here, on the calling thread.
        """
        if self._closed:
            raise RuntimeError("get() on a closed DoubleBufferedReader")
        if not self._pending:
            raise RuntimeError(f"get({key!r}) with no submitted reads")
        req = self._pending.popleft()
        if req.key != key:
            raise RuntimeError(
                f"out-of-order get: expected key {req.key!r}, got {key!r}"
            )
        req.ready.wait()
        if req.error is not None:  # pragma: no cover - defensive
            raise req.error
        buf = req.buf
        if buf is None:
            # cancelled by a racing close(); serve synchronously
            self.misses += 1
            flat = req.array.read_run(req.disks, req.tracks)
            return flat, None
        if req.hit:
            self.hits += 1
        else:
            self.misses += 1
        flat = req.array.finish_read(req.disks, req.tracks, buf, req.hit)
        return flat, buf

    def release(self, buf: np.ndarray | None) -> None:
        """Return a consumed buffer; frees one prefetch slot."""
        if buf is None:
            return
        self._pool.give(buf)
        self._slots.release()

    def close(self) -> None:
        """Stop the worker and drop unconsumed reads (idempotent).

        Safe to call with requests still in flight — early termination of
        a superstep must not deadlock or leak the thread.  Unconsumed
        prefetched data is simply discarded; nothing was accounted, so the
        synchronous path can re-read it later with identical counters.
        """
        if self._closed:
            return
        self._closed = True
        self._requests.append(None)
        self._have_work.release()
        # unblock a worker parked on the slot semaphore
        self._slots.release()
        self._thread.join()
        self._pending.clear()
