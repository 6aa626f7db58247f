"""Preallocated per-disk track storage: the one block store.

A disk's tracks are, logically, a ``dict[int, bytes]``.  The arena keeps
them as one 2-D ``uint8`` array per disk (rows = tracks, row stride = the
block size in bytes) plus an occupancy mask and a per-track byte length,
so a whole parallel-I/O stream scatters or gathers as strided block copies
(basic slicing, no index array): the stream's planned per-disk
:data:`Extent` says which stream rows go to which evenly spaced tracks
above the stream's base track — one copy per disk for every context, every
single-run stream of the consecutive and staggered layouts and every inbox
of equal messages, at most one per run and disk otherwise.
:class:`~repro.pdm.disk.Disk` serves single tracks out of the same rows.

Invariants that keep the arena indistinguishable from that dict:

* a track is either *occupied* (mask set, ``nbytes`` valid) or free —
  reading a free track is a ``SimulationError``;
* **a row is observable only while its occupancy bit is set**: ``get``,
  ``gather`` and ``snapshot`` all check the bit before they touch the
  bytes, so a grown matrix comes uncleared (``np.empty``; a sparse hole in
  the mmap backend) and whatever a free row holds is never read;
* a written row is zero-padded past ``nbytes``, mirroring ``pack_blocks``;
  short rows (a torn write's corrupt prefix) read back exactly ``nbytes``
  long;
* writes longer than the row stride or landing on far-away tracks (the
  fault injector's shadow region at ``1 << 40``) go to a per-disk side
  dict, so the arena never allocates rows for a sparse track space.

``snapshot``/``restore`` produce and accept plain ``dict[int, bytes]``,
which keeps engine checkpoints portable between storage backends.

Storage backends: this class keeps the track matrices as preallocated
in-memory arrays (``REPRO_ARENA=ram``, the default);
:class:`repro.pdm.mmap_arena.MmapTrackArena` subclasses it to back them
with per-disk ``numpy.memmap`` spill files for out-of-core runs
(``REPRO_ARENA=mmap``).  The seam is two hooks, :meth:`_grow_data` and
:meth:`_store` (a scatter's writes): that backend writes by file
descriptor and reads through its mapping, one page cache under both.
Every batch operation, invariant and snapshot shape is shared.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Tracks at or beyond this index live in the side dict: growing the arena
#: to reach them would allocate rows for the whole gap.
MAX_DIRECT_TRACK = 1 << 20

_INITIAL_ROWS = 64

#: One disk's share of an address stream, as linear pieces in stream order:
#: ``(rows, tracks)`` sends the stream rows ``rows`` to the tracks ``tracks``
#: counted from the stream's base track — both plain slices of equal length,
#: the tracks ascending.  Empty when the stream never touches the disk.
#: Planned once per run pattern by ``disk_array.BatchPlan``.
Extent = tuple[tuple[slice, slice], ...]


class TrackArena:
    """Dense track storage for the ``D`` disks of one array."""

    __slots__ = ("D", "block_bytes", "_data", "_used", "_nbytes", "_side", "on_grow")

    def __init__(self, D: int, block_bytes: int) -> None:
        self.D = D
        self.block_bytes = block_bytes
        #: optional observer called as ``on_grow(arena, disk, cap)`` after
        #: one disk's track matrix grew (telemetry hook; never pickled — the
        #: owner re-attaches it when rebuilding an arena).  It is handed the
        #: arena instead of holding it, so the hook closes no reference cycle
        self.on_grow: "Callable[[TrackArena, int, int], None] | None" = None
        self._data: list[np.ndarray] = [
            np.zeros((0, block_bytes), dtype=np.uint8) for _ in range(D)
        ]
        self._used: list[np.ndarray] = [np.zeros(0, dtype=bool) for _ in range(D)]
        self._nbytes: list[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in range(D)]
        self._side: list[dict[int, bytes]] = [{} for _ in range(D)]

    # -- growth ------------------------------------------------------------

    def _ensure_rows(self, disk: int, rows: int) -> None:
        have = self._data[disk].shape[0]
        if rows <= have:
            return
        cap = max(_INITIAL_ROWS, have)
        while cap < rows:
            cap *= 2
        self._grow_data(disk, cap, have)
        used = np.zeros(cap, dtype=bool)
        used[:have] = self._used[disk]
        nbytes = np.zeros(cap, dtype=np.int64)
        nbytes[:have] = self._nbytes[disk]
        self._used[disk] = used
        self._nbytes[disk] = nbytes
        if self.on_grow is not None:
            self.on_grow(self, disk, cap)

    def _grow_data(self, disk: int, cap: int, have: int) -> None:
        """Grow one disk's track matrix to *cap* rows, preserving the
        first *have*; the new rows come uncleared (their occupancy bits
        are off, so nothing reads them before it writes them).  The
        storage-backend hook: the base class reallocates in RAM, the mmap
        subclass extends its spill file with ``ftruncate`` and remaps."""
        data = np.empty((cap, self.block_bytes), dtype=np.uint8)
        data[:have] = self._data[disk]
        self._data[disk] = data

    # -- single-track operations (Disk delegates here) ---------------------

    def put(self, disk: int, track: int, payload: bytes) -> None:
        """Store one track (the dict-compatible slow entry point)."""
        if track >= MAX_DIRECT_TRACK or len(payload) > self.block_bytes:
            self._free_row(disk, track)
            self._side[disk][track] = payload
            return
        self._side[disk].pop(track, None)
        self._ensure_rows(disk, track + 1)
        row = self._data[disk][track]
        n = len(payload)
        row[:n] = np.frombuffer(payload, dtype=np.uint8)
        row[n:] = 0
        self._used[disk][track] = True
        self._nbytes[disk][track] = n

    def get(self, disk: int, track: int) -> bytes | None:
        """Fetch one track as ``bytes``, or ``None`` when unwritten."""
        side = self._side[disk]
        if side:
            hit = side.get(track)
            if hit is not None:
                return hit
        if track < 0 or track >= self._used[disk].shape[0]:
            return None
        if not self._used[disk][track]:
            return None
        n = int(self._nbytes[disk][track])
        return bytes(self._data[disk][track, :n])

    def _free_row(self, disk: int, track: int) -> None:
        if 0 <= track < self._used[disk].shape[0]:
            self._used[disk][track] = False
            self._nbytes[disk][track] = 0

    def free(self, disk: int, track: int) -> None:
        self._side[disk].pop(track, None)
        self._free_row(disk, track)

    # -- bulk operations (DiskArray run API) -------------------------------

    def scatter(self, extents: Sequence[Extent], base: int, rows: np.ndarray) -> None:
        """Store the stream ``rows`` (full block stride each) where its
        planned per-disk *extents* say, counted from track *base*.

        Duplicate addresses within one call resolve last-wins, matching the
        sequential per-op loop (pieces are stored in stream order).  Rows
        must already carry their padding; every stored track is marked
        full-stride.  Tracks at or beyond ``MAX_DIRECT_TRACK`` divert to
        the side dict exactly as :meth:`put` does — growing the dense
        matrix to reach them would allocate rows for the whole gap.  Every
        touched disk is grown before anything is stored, so a refused
        growth (the mmap spill quota) leaves the tracks as they were.
        """
        bb = self.block_bytes
        far: list[tuple[int, int, int]] = []
        moves = []
        for d, pieces in enumerate(extents):
            need = 0
            for sel, tracks in pieces:
                tt = range(base + tracks.start, base + tracks.stop, tracks.step)
                if tt.stop > MAX_DIRECT_TRACK:
                    pos = range(sel.start, sel.stop, sel.step)
                    near = len(range(tt.start, min(tt.stop, MAX_DIRECT_TRACK), tt.step))
                    far += [(d, t, i) for t, i in zip(tt[near:], pos[near:])]
                    if not near:
                        continue
                    tt, pos = tt[:near], pos[:near]
                    sel = slice(pos.start, pos.stop, pos.step)
                moves.append((d, sel, tt))
                need = max(need, tt[-1] + 1)
            self._ensure_rows(d, need)
        for d, t, i in far:
            self.put(d, t, bytes(rows[i]))
        for d, sel, tt in moves:
            side = self._side[d]
            if side:
                for t in tt:
                    side.pop(t, None)
            where = slice(tt.start, tt.stop, tt.step)
            self._store(d, where, rows[sel])
            self._used[d][where] = True
            self._nbytes[d][where] = bb

    def _store(self, disk: int, tracks: slice, rows: np.ndarray) -> None:
        """Write the full-stride *rows* to the grown track range *tracks*
        of *disk* (the backend hook for bulk writes)."""
        self._data[disk][tracks] = rows

    def gather(self, extents: Sequence[Extent], base: int, out: np.ndarray) -> bool:
        """Fill the stream ``out`` from where its planned per-disk *extents*
        say, counted from track *base*.

        Returns ``False`` (without touching *out*) when any requested track
        lives in a side dict, is unwritten or is shorter than the full
        stride — callers fall back to the per-track loop, which handles
        those and raises the canonical unwritten-track error.  Returns
        ``True`` on a completed dense gather.  A side-dict track never has
        its dense row marked used (``put``/``scatter`` keep the two stores
        disjoint), so the occupancy check below is what refuses it — other
        tracks of a disk that holds side entries still gather.
        """
        bb = self.block_bytes
        moves = []
        for d, pieces in enumerate(extents):
            used, nbytes, data = self._used[d], self._nbytes[d], self._data[d]
            for sel, tracks in pieces:
                where = slice(base + tracks.start, base + tracks.stop, tracks.step)
                if where.stop > used.shape[0] or not (
                    used[where].all() and (nbytes[where] == bb).all()
                ):
                    return False
                moves.append((sel, data[where]))
        for sel, blocks in moves:
            out[sel] = blocks
        return True

    # -- inspection / checkpointing ----------------------------------------

    def tracks_in_use(self, disk: int) -> int:
        return int(self._used[disk].sum()) + len(self._side[disk])

    def resident_nbytes(self) -> int:
        """Host-memory footprint of the arena's storage.

        For the RAM backend this includes the track matrices themselves;
        the mmap backend excludes them (they are file-backed and paged by
        the OS), which is what the scale benchmarks assert stays
        O(bookkeeping), not O(N).
        """
        total = sum(int(d.nbytes) for d in self._data)
        return total + self._bookkeeping_nbytes()

    def _bookkeeping_nbytes(self) -> int:
        total = 0
        for d in range(self.D):
            total += int(self._used[d].nbytes) + int(self._nbytes[d].nbytes)
            total += sum(len(p) for p in self._side[d].values())
        return total

    def spill_nbytes(self) -> int:
        """Bytes held in spill files (0 for the in-memory backend)."""
        return 0

    def close(self) -> None:
        """Release backing storage (spill files for the mmap backend).

        The RAM arena has nothing to release; the method exists so callers
        can tear down any arena uniformly.
        """

    def max_track(self, disk: int) -> int:
        used = np.flatnonzero(self._used[disk])
        dense = int(used[-1]) if used.size else -1
        side = max(self._side[disk], default=-1)
        return max(dense, side)

    def snapshot(self, disk: int) -> dict[int, bytes]:
        """The reference ``dict[int, bytes]`` view of one disk's tracks."""
        out: dict[int, bytes] = {}
        for t in np.flatnonzero(self._used[disk]).tolist():
            n = int(self._nbytes[disk][t])
            out[t] = bytes(self._data[disk][t, :n])
        out.update(self._side[disk])
        return out

    def restore(self, disk: int, tracks: dict[int, bytes]) -> None:
        self._used[disk][:] = False
        self._nbytes[disk][:] = 0
        self._side[disk].clear()
        for t, payload in tracks.items():
            self.put(disk, t, payload)
