"""Preallocated per-disk track storage: the one block store.

A disk's tracks are, logically, a ``dict[int, bytes]``.  The arena keeps
them as one 2-D ``uint8`` array per disk (rows = tracks, row stride = the
block size in bytes) plus an occupancy mask and a per-track byte length,
so a whole parallel-I/O stream scatters or gathers as one move per disk:
the stream's planned per-disk :data:`Extent` picks the rows, and when
the disk's tracks are one ascending run — every context and every
single-extent run of the consecutive and staggered layouts — they move
as a strided block copy (basic slicing), otherwise through index arrays
in the same statements.  :class:`~repro.pdm.disk.Disk` serves single
tracks out of the same rows.

Invariants that keep the arena indistinguishable from that dict:

* a track is either *occupied* (mask set, ``nbytes`` valid) or free —
  reading a free track is a ``SimulationError``;
* rows are zero-padded past ``nbytes``, mirroring ``pack_blocks``; short
  rows (a torn write's corrupt prefix) read back exactly ``nbytes`` long;
* writes longer than the row stride or landing on far-away tracks (the
  fault injector's shadow region at ``1 << 40``) go to a per-disk side
  dict, so the arena never allocates rows for a sparse track space.

``snapshot``/``restore`` produce and accept plain ``dict[int, bytes]``,
which keeps engine checkpoints portable between storage backends.

Storage backends: this class keeps the track matrices as preallocated
in-memory arrays (``REPRO_ARENA=ram``, the default);
:class:`repro.pdm.mmap_arena.MmapTrackArena` subclasses it to back them
with per-disk ``numpy.memmap`` spill files for out-of-core runs
(``REPRO_ARENA=mmap``).  Only :meth:`_grow_data` differs — every batch
operation, invariant and snapshot shape is shared.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

#: Tracks at or beyond this index live in the side dict: growing the arena
#: to reach them would allocate rows for the whole gap.
MAX_DIRECT_TRACK = 1 << 20

_INITIAL_ROWS = 64

#: One disk's positions in an address stream: a ``slice`` when they form an
#: arithmetic progression, an index array otherwise, ``None`` when the stream
#: never touches the disk.  Planned once per stream by ``disk_array.BatchPlan``.
Extent = Union[slice, np.ndarray, None]


def _as_run(tt: np.ndarray) -> "tuple[slice | np.ndarray, int]":
    """What to index one disk's arrays with for tracks *tt*, and the rows
    that needs: a basic slice when the tracks are one ascending run — rows
    then move as a strided block copy — else *tt* itself, for the same
    statements.  Checked per call: tracks are no part of a plan's key."""
    t0, k = int(tt[0]), tt.size
    if int(tt[-1]) - t0 == k - 1 and (k < 3 or (tt[1:] - tt[:-1] == 1).all()):
        return slice(t0, t0 + k), t0 + k
    return tt, int(tt.max()) + 1


class TrackArena:
    """Dense track storage for the ``D`` disks of one array."""

    __slots__ = ("D", "block_bytes", "_data", "_used", "_nbytes", "_side", "on_grow")

    def __init__(self, D: int, block_bytes: int) -> None:
        self.D = D
        self.block_bytes = block_bytes
        #: optional observer called as ``on_grow(disk, cap)`` after one
        #: disk's track matrix grew (telemetry hook; never pickled — the
        #: owner re-attaches it when rebuilding an arena)
        self.on_grow: "Callable[[int, int], None] | None" = None
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
            self.on_grow(disk, cap)

    def _grow_data(self, disk: int, cap: int, have: int) -> None:
        """Grow one disk's track matrix to *cap* rows, preserving the
        first *have* rows and zero-filling the rest.  The storage-backend
        hook: the base class reallocates in RAM, the mmap subclass
        extends its spill file with ``ftruncate`` and remaps."""
        data = np.zeros((cap, self.block_bytes), dtype=np.uint8)
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
        return self._data[disk][track, :n].tobytes()

    def _free_row(self, disk: int, track: int) -> None:
        if 0 <= track < self._used[disk].shape[0]:
            self._used[disk][track] = False
            self._nbytes[disk][track] = 0

    def free(self, disk: int, track: int) -> None:
        self._side[disk].pop(track, None)
        self._free_row(disk, track)

    # -- bulk operations (DiskArray run API) -------------------------------

    def scatter(
        self, split: Sequence[Extent], tracks: np.ndarray, rows: np.ndarray
    ) -> None:
        """Store ``rows[i]`` (full block stride each) at track ``tracks[i]`` of
        the disk whose extent ``split[d]`` holds position ``i``.

        Duplicate addresses within one call resolve last-wins, matching the
        sequential per-op loop.  Rows must already carry their padding;
        every stored track is marked full-stride.  Tracks at or beyond
        ``MAX_DIRECT_TRACK`` divert to the side dict exactly as
        :meth:`put` does — growing the dense matrix to reach them would
        allocate rows for the whole gap.  Every touched disk is grown
        before anything is stored, so a refused growth (the mmap spill
        quota) leaves the tracks as they were.
        """
        bb = self.block_bytes
        far: list[tuple[int, int]] = []
        moves = []
        for d, sel in enumerate(split):
            if sel is None:
                continue
            tt, need = _as_run(tracks[sel])
            if need > MAX_DIRECT_TRACK:
                pos = np.arange(tracks.size)[sel]
                near = tracks[pos] < MAX_DIRECT_TRACK
                far += [(d, i) for i in pos[~near].tolist()]
                sel = pos[near]
                if sel.size == 0:
                    continue
                tt, need = _as_run(tracks[sel])
            self._ensure_rows(d, need)
            moves.append((d, sel, tt))
        for d, i in far:
            self.put(d, int(tracks[i]), rows[i].tobytes())
        for d, sel, tt in moves:
            side = self._side[d]
            if side:
                for t in tracks[sel].tolist():
                    side.pop(t, None)
            self._data[d][tt] = rows[sel]
            self._used[d][tt] = True
            self._nbytes[d][tt] = bb

    def gather(
        self, split: Sequence[Extent], tracks: np.ndarray, out: np.ndarray
    ) -> bool:
        """Fill ``out[i]`` with the block at track ``tracks[i]`` of the disk
        whose extent ``split[d]`` holds position ``i``.

        Returns ``False`` (without touching *out*) when any requested track
        lives in a side dict or is shorter than the full stride — callers
        fall back to the per-track loop, which handles those and raises
        the canonical unwritten-track error.  Returns ``True`` on a
        completed dense gather.  A side-dict track never has its dense row
        marked used (``put``/``scatter`` keep the two stores disjoint), so
        the occupancy check below is what refuses it — other tracks of a
        disk that holds side entries still gather.
        """
        bb = self.block_bytes
        moves = []
        for d, sel in enumerate(split):
            if sel is None:
                continue
            tt, need = _as_run(tracks[sel])
            used = self._used[d]
            if need > used.shape[0] or not (
                used[tt].all() and (self._nbytes[d][tt] == bb).all()
            ):
                return False
            moves.append((d, sel, tt))
        for d, sel, tt in moves:
            out[sel] = self._data[d][tt]
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
            out[t] = self._data[disk][t, :n].tobytes()
        out.update(self._side[disk])
        return out

    def restore(self, disk: int, tracks: dict[int, bytes]) -> None:
        self._used[disk][:] = False
        self._nbytes[disk][:] = 0
        self._side[disk].clear()
        for t, payload in tracks.items():
            self.put(disk, t, payload)
