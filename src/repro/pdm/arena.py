"""One linear track store: the PDM's address space, held in chunks.

A disk's tracks are, logically, a ``dict[int, bytes]``.  The arena keeps
all ``D`` disks of an array in **one linear row space**, ``row = track·D +
disk`` — the linear position of the paper's consecutive and staggered
formats (Figure 2), where block ``q`` of a run starting at linear offset
``lin0`` above base track ``T`` sits at row ``T·D + lin0 + q``.  So a run
is one contiguous stretch of rows, and a stream — its runs as linear pieces
``(stream row, linear row, n)``, planned once per run pattern by
``disk_array.BatchPlan`` — moves as one slice copy per run and chunk
touched (almost always one), with one occupancy check.
:class:`~repro.pdm.disk.Disk` serves single tracks out of the same rows.

The rows live in chunks of 2-D ``uint8`` arrays (row stride = the block
size in bytes), each with a per-row length ledger.  The first chunk holds
64 tracks and each next one twice its predecessor, up to
:func:`chunk_tracks` (about 2 MiB of rows, whole tracks); from there every
chunk is that size.  Growth appends a chunk: no row is ever copied or
remapped, and a small job allocates no more than its first 64 tracks.

Invariants that keep the arena indistinguishable from that dict:

* a row's ledger entry is its byte length while the track is occupied and
  ``-1`` while it is free — reading a free track is a ``SimulationError``;
* **a row is observable only while its ledger entry is set**: ``get``,
  ``gather`` and ``snapshot`` all check the ledger before they touch the
  bytes, so a new chunk comes uncleared (``np.empty``; a sparse hole in the
  mmap backend) and whatever a free row holds is never read;
* a written row is zero-padded past its length, mirroring ``pack_blocks``;
  short rows (a torn write's corrupt prefix) read back exactly that long;
* writes longer than the row stride or landing on far-away tracks (the
  fault injector's shadow region at ``1 << 40``) go to a per-disk side
  dict, so the arena never allocates rows for a sparse track space: the
  row space ends at track :data:`MAX_DIRECT_TRACK`.

A checkpoint takes the arena as it lies: :meth:`live_rows` names the
occupied rows (the ledger), :meth:`row_buffers` hands their bytes over
through one 1 MiB buffer as a gather reads them, and :meth:`load` fills
a fresh arena of either backend through the same buffer as a scatter
writes, so no track becomes a ``bytes`` on the way and checkpoints stay
portable between backends.  ``snapshot``/``restore`` are the per-track
``dict[int, bytes]`` reference view (the fault injector's evacuation and
the tests read it).

Storage backends: this class keeps the chunks as in-memory arrays
(``REPRO_ARENA=ram``, the default); :class:`repro.pdm.mmap_arena.MmapTrackArena`
subclasses it to back them with windows of one spill file for out-of-core
runs (``REPRO_ARENA=mmap``).  The seam is five hooks, :meth:`_new_chunk`,
:meth:`_store` and :meth:`_store_run` (a scatter's writes, a run handed
as buffers), :meth:`_take` and :meth:`_copy` (a gather's reads): that
backend moves bulk streams by file descriptor both ways and serves single
tracks through its mapping, one page cache under both.  Every batch
operation, ledger check, invariant and snapshot shape is shared.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

#: Tracks at or beyond this index live in the side dict: growing the arena
#: to reach them would allocate rows for the whole gap.
MAX_DIRECT_TRACK = 1 << 20

_FIRST_TRACKS = 64
_CHUNK_BYTES = 2 << 20
#: the most a checkpoint's rows take of the heap on their way
_BATCH_BYTES = 1 << 20

#: One run of a stream as the arena moves it: ``(stream row, linear row
#: counted from the stream's base track times D, blocks)``.
Piece = tuple[int, int, int]


@lru_cache(maxsize=256)
def _stream_rows(pieces: tuple[Piece, ...]) -> "tuple[np.ndarray, int, int] | None":
    """The linear row of every stream row of *pieces*, the lowest and the
    highest, when the pieces fill the stream's rows in order — a stream
    that can move as one indexed copy — else None.  Memoised like the plans
    the pieces come from."""
    rows, at = [], 0
    for r, lin, n in pieces:
        if r != at:
            return None
        rows.append(np.arange(lin, lin + n))
        at += n
    out = np.concatenate(rows)
    return out, int(out.min()), int(out.max())


def chunk_tracks(D: int, block_bytes: int) -> int:
    """Tracks per full chunk: about 2 MiB of rows, whole tracks, at least
    the first chunk's 64."""
    return max(_FIRST_TRACKS, _CHUNK_BYTES // (D * block_bytes))


class TrackArena:
    """Dense track storage for the ``D`` disks of one array."""

    __slots__ = ("D", "block_bytes", "_full", "_chunks", "_lens", "_bounds",
                 "_side", "on_grow")

    def __init__(self, D: int, block_bytes: int) -> None:
        self.D = D
        self.block_bytes = block_bytes
        #: optional observer called as ``on_grow(arena, chunk, rows)`` after
        #: chunk number *chunk* of *rows* rows was added (telemetry hook;
        #: never pickled — the owner re-attaches it when rebuilding an
        #: arena).  It is handed the arena instead of holding it, so the
        #: hook closes no reference cycle
        self.on_grow: "Callable[[TrackArena, int, int], None] | None" = None
        self._full = chunk_tracks(D, block_bytes)
        self._chunks: list[np.ndarray] = []
        #: per chunk, each row's byte length, -1 while free
        self._lens: list[np.ndarray] = []
        #: chunk k holds the rows [_bounds[k], _bounds[k + 1])
        self._bounds: list[int] = [0]
        self._side: list[dict[int, bytes]] = [{} for _ in range(D)]

    # -- growth ------------------------------------------------------------

    def _ensure_rows(self, rows: int) -> None:
        """Append chunks until the row space holds *rows* rows (callers
        never ask past ``MAX_DIRECT_TRACK`` tracks, where it ends)."""
        bounds = self._bounds
        while bounds[-1] < rows:
            have, k = bounds[-1], len(self._chunks)
            tracks = min(_FIRST_TRACKS << k, self._full,
                         MAX_DIRECT_TRACK - have // self.D)
            n = tracks * self.D
            self._chunks.append(self._new_chunk(have, n))
            self._lens.append(np.full(n, -1, dtype=np.int32))
            bounds.append(have + n)
            if self.on_grow is not None:
                self.on_grow(self, k, n)

    def _new_chunk(self, start: int, rows: int) -> np.ndarray:
        """Storage for the *rows* rows from row *start* on, uncleared (their
        ledger entries are free, so nothing reads them before it writes
        them).  The storage-backend hook: the base class allocates in RAM,
        the mmap subclass extends its spill file and maps the new window."""
        return np.empty((rows, self.block_bytes), dtype=np.uint8)

    def _locate(self, lin: int) -> tuple[int, int]:
        """The chunk holding row *lin* (inside the row space) and the
        row's offset in it."""
        k = bisect_right(self._bounds, lin) - 1
        return k, lin - self._bounds[k]

    def _spans(self, lin: int, n: int) -> list[tuple[int, int, int, int]]:
        """The rows ``[lin, lin + n)`` (all inside the row space) as
        ``(chunk, offset in it, offset in the run, rows)`` per chunk."""
        bounds = self._bounds
        k, off = self._locate(lin)
        if lin + n <= bounds[k + 1]:  # one chunk: almost every run
            return [(k, off, 0, n)]
        out, done = [], 0
        while done < n:
            m = min(n - done, bounds[k + 1] - lin)
            out.append((k, lin - bounds[k], done, m))
            lin, done, k = lin + m, done + m, k + 1
        return out

    # -- single-track operations (Disk delegates here) ---------------------

    def put(self, disk: int, track: int, payload: bytes) -> None:
        """Store one track (the dict-compatible slow entry point)."""
        if track >= MAX_DIRECT_TRACK or len(payload) > self.block_bytes:
            self._free_row(disk, track)
            self._side[disk][track] = payload
            return
        self._side[disk].pop(track, None)
        lin = track * self.D + disk
        self._ensure_rows(lin + 1)
        k, off = self._locate(lin)
        row = self._chunks[k][off]
        n = len(payload)
        row[:n] = np.frombuffer(payload, dtype=np.uint8)
        row[n:] = 0
        self._lens[k][off] = n

    def get(self, disk: int, track: int) -> bytes | None:
        """Fetch one track as ``bytes``, or ``None`` when unwritten."""
        side = self._side[disk]
        if side:
            hit = side.get(track)
            if hit is not None:
                return hit
        lin = track * self.D + disk
        if track < 0 or lin >= self._bounds[-1]:
            return None
        k, off = self._locate(lin)
        n = int(self._lens[k][off])
        return None if n < 0 else bytes(self._chunks[k][off, :n])

    def _free_row(self, disk: int, track: int) -> None:
        lin = track * self.D + disk
        if 0 <= track and lin < self._bounds[-1]:
            k, off = self._locate(lin)
            self._lens[k][off] = -1

    def free(self, disk: int, track: int) -> None:
        self._side[disk].pop(track, None)
        self._free_row(disk, track)

    # -- bulk operations (DiskArray run API) -------------------------------

    def scatter(self, pieces: Sequence[Piece], base: int, rows: np.ndarray) -> None:
        """Store the stream ``rows`` (full block stride each) at its planned
        linear *pieces*, counted from track *base*.

        Duplicate addresses within one call resolve last-wins, matching the
        sequential per-op loop (pieces are stored in stream order).  Rows
        must already carry their padding; every stored track is marked
        full-stride.  Tracks at or beyond ``MAX_DIRECT_TRACK`` divert to
        the side dict exactly as :meth:`put` does — growing the row space
        to reach them would allocate rows for the whole gap.  The row space
        is grown before anything is stored, so a refused growth (the mmap
        spill quota) leaves the tracks as they were.
        """
        bb, D = self.block_bytes, self.D
        lo, far = base * D, MAX_DIRECT_TRACK * D
        top = 0
        for _r, lin, n in pieces:
            if top < lo + lin + n and lo + lin < far:
                top = lo + lin + n
        self._ensure_rows(min(top, far))
        # far puts add side entries only at tracks no dense row reaches
        unside = any(self._side)
        for r, lin, n in pieces:
            lin += lo
            if lin + n > far:
                near = max(0, far - lin)
                for q in range(near, n):
                    self.put((lin + q) % D, (lin + q) // D, bytes(rows[r + q]))
                n = near
                if not n:
                    continue
            if unside:
                for q in range(lin, lin + n):
                    self._side[q % D].pop(q // D, None)
            for k, off, at, m in self._spans(lin, n):
                self._store(k, off, rows[r + at : r + at + m])
                self._lens[k][off : off + m] = bb

    def _store(self, chunk: int, off: int, rows: np.ndarray) -> None:
        """Write the full-stride *rows* from row *off* of *chunk* on (the
        backend hook for a scatter's writes)."""
        self._chunks[chunk][off : off + len(rows)] = rows

    def write_rows(self, runs: Sequence[tuple[int, int, list]]) -> bool:
        """Store runs of whole rows handed as buffers, in order: per
        ``(linear row, rows, buffers)`` the buffers' bytes, padding
        included.  The row space grows first, as in :meth:`scatter`; a run
        past its end stores nothing and answers False (scatter it)."""
        bb, D = self.block_bytes, self.D
        top = max(lin + n for lin, n, _bufs in runs)
        if top > MAX_DIRECT_TRACK * D:
            return False
        self._ensure_rows(top)
        for lin, n, bufs in runs:
            if any(self._side):
                for q in range(lin, lin + n):
                    self._side[q % D].pop(q // D, None)
            spans = self._spans(lin, n)
            self._store_run(lin, spans, bufs)
            for k, off, _at, m in spans:
                self._lens[k][off : off + m] = bb
        return True

    def _store_run(self, lin: int, spans: list, bufs: list) -> None:
        """Write the rows from linear row *lin* on, in chunks as *spans*,
        from *bufs* (the backend hook for :meth:`write_rows`)."""
        bb = self.block_bytes
        src = np.frombuffer(bufs[0] if len(bufs) == 1 else b"".join(bufs), dtype=np.uint8)
        for k, off, at, m in spans:
            self._chunks[k][off : off + m] = src[at * bb : (at + m) * bb].reshape(m, bb)

    def gather(self, pieces: Sequence[Piece], base: int, out: np.ndarray) -> bool:
        """Fill the stream ``out`` from its planned linear *pieces*, counted
        from track *base*.

        Returns ``False`` (without touching *out*) when any requested track
        lives in a side dict, is unwritten or is shorter than the full
        stride — callers fall back to the per-track loop, which handles
        those and raises the canonical unwritten-track error.  Returns
        ``True`` on a completed dense gather.  A side-dict track never has
        its dense row marked occupied (``put``/``scatter`` keep the two
        stores disjoint), so the ledger check below is what refuses it —
        other tracks of a disk that holds side entries still gather.
        """
        bb, lo, top = self.block_bytes, base * self.D, self._bounds[-1]
        hit = _stream_rows(tuple(pieces)) if len(pieces) > 1 else None
        if hit is not None and hit[0].size == len(out) and lo + hit[2] < top:
            # several pieces in one chunk (an inbox): one indexed copy, not
            # one slice copy per message
            k, _off = self._locate(lo + hit[1])
            if lo + hit[2] < self._bounds[k + 1]:
                at = hit[0] + (lo - self._bounds[k])
                if self._lens[k][at].min() < bb:
                    return False
                self._take(k, at, out)
                return True
        moves = []
        for r, lin, n in pieces:
            lin += lo
            if lin + n > top:
                return False
            for k, off, at, m in self._spans(lin, n):
                # a length is at most the stride, -1 while free
                lens = self._lens[k]
                if (lens[off] if m == 1 else lens[off : off + m].min()) < bb:
                    return False
                moves.append((r + at, k, off, m))
        self._copy(moves, out)
        return True

    def _take(self, chunk: int, at: np.ndarray, out: np.ndarray) -> None:
        """Fill *out* with the rows *at* of *chunk*, all checked (the
        backend hook for a one-chunk gather)."""
        np.take(self._chunks[chunk], at, axis=0, out=out, mode="clip")

    def _copy(self, moves: list[tuple[int, int, int, int]], out: np.ndarray) -> None:
        """Fill *out* by ``(stream row, chunk, offset in it, rows)`` moves,
        all checked (the backend hook for any other gather)."""
        for r, k, off, m in moves:
            out[r : r + m] = self._chunks[k][off : off + m]

    # -- inspection and checkpoints ----------------------------------------

    def tracks_in_use(self, disk: int) -> int:
        dense = sum(int((lens[disk :: self.D] >= 0).sum()) for lens in self._lens)
        return dense + len(self._side[disk])

    def resident_nbytes(self) -> int:
        """Host-memory footprint of the arena's storage.

        For the RAM backend this includes the chunks themselves; the mmap
        backend excludes them (they are file-backed and paged by the OS),
        which is what the scale benchmarks assert stays O(bookkeeping),
        not O(N).
        """
        total = sum(int(c.nbytes) for c in self._chunks)
        return total + self._bookkeeping_nbytes()

    def _bookkeeping_nbytes(self) -> int:
        total = sum(int(lens.nbytes) for lens in self._lens)
        return total + sum(len(p) for side in self._side for p in side.values())

    def spill_nbytes(self) -> int:
        """Bytes held in spill files (0 for the in-memory backend)."""
        return 0

    def close(self) -> None:
        """Release backing storage (the spill file for the mmap backend).

        The RAM arena has nothing to release; the method exists so callers
        can tear down any arena uniformly.
        """

    def max_track(self, disk: int) -> int:
        dense = -1
        for k in reversed(range(len(self._lens))):
            used = np.flatnonzero(self._lens[k][disk :: self.D] >= 0)
            if used.size:
                dense = self._bounds[k] // self.D + int(used[-1])
                break
        return max(dense, max(self._side[disk], default=-1))

    def live_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The occupied rows of the row space, ascending, and their byte
        lengths (the side dicts hold the rest)."""
        ledger = np.concatenate(self._lens) if self._lens else np.zeros(0, np.int32)
        rows = np.flatnonzero(ledger >= 0)
        return rows, ledger[rows]

    def _batches(self, rows: np.ndarray) -> Iterator[tuple[list, np.ndarray]]:
        """The ascending *rows* in batches of at most 1 MiB, each as the
        pieces ``(batch row, linear row, rows)`` of its runs and the part
        of the one buffer it moves through."""
        bb = self.block_bytes
        buf = np.empty((max(1, min(rows.size, _BATCH_BYTES // bb)), bb), dtype=np.uint8)
        for at in range(0, rows.size, len(buf)):
            batch = rows[at : at + len(buf)]
            first = np.r_[0, np.flatnonzero(np.diff(batch) != 1) + 1]
            n = np.diff(np.r_[first, batch.size])
            pieces = list(zip(first.tolist(), batch[first].tolist(), n.tolist()))
            yield pieces, buf[: batch.size]

    def row_buffers(self, rows: np.ndarray) -> Iterator[np.ndarray]:
        """The full-stride bytes of the occupied *rows* (ascending), in
        order, read as a gather reads them (``preadv`` on the mmap arena,
        so no spill page is mapped)."""
        for pieces, buf in self._batches(rows):
            self._copy([(r + at, k, off, m) for r, lin, n in pieces
                        for k, off, at, m in self._spans(lin, n)], buf)
            yield buf

    def load(self, rows: np.ndarray, lens: np.ndarray, side: list, read) -> None:
        """Fill this fresh arena: the *rows* (ascending) of byte lengths
        *lens*, whose full-stride bytes ``read(view)`` hands over in order,
        and the side dicts *side*."""
        for pieces, buf in self._batches(rows):
            read(memoryview(buf).cast("B"))
            self.scatter(pieces, 0, buf)
        for k, lo in enumerate(self._bounds[:-1]):
            at = (rows >= lo) & (rows < self._bounds[k + 1])
            self._lens[k][rows[at] - lo] = lens[at]
        self._side = [dict(tracks) for tracks in side]

    def snapshot(self, disk: int) -> dict[int, bytes]:
        """The reference ``dict[int, bytes]`` view of one disk's tracks."""
        out: dict[int, bytes] = {}
        D = self.D
        for k, lens in enumerate(self._lens):
            t0, rows = self._bounds[k] // D, self._chunks[k]
            for i in np.flatnonzero(lens[disk::D] >= 0).tolist():
                row = i * D + disk
                out[t0 + i] = bytes(rows[row, : int(lens[row])])
        out.update(self._side[disk])
        return out

    def restore(self, disk: int, tracks: dict[int, bytes]) -> None:
        for lens in self._lens:
            lens[disk :: self.D] = -1
        self._side[disk].clear()
        for t, payload in tracks.items():
            self.put(disk, t, payload)
