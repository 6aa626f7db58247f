"""Memory-mapped track storage: the out-of-core arena backend.

:class:`MmapTrackArena` keeps the exact :class:`~repro.pdm.arena.TrackArena`
contract — one linear row space in chunks, batch scatter/gather, side-dict
fallbacks, dict-portable ``snapshot``/``restore`` — but backs each chunk
with a window of one spill file instead of an in-memory array.  Simulated
problem size is then bounded by disk capacity, not host memory: the OS
pages track data in and out on demand, and the arena's own resident
footprint is the per-row length ledger (4 bytes/row) plus whatever the
page cache chooses to keep.  Bulk streams move by file descriptor: a
run handed as pieces is one ``pwritev`` of them at its file offset
(:meth:`_store_run`), a scatter's contiguous slice one too (:meth:`_store`),
which fills a fresh stretch of file without a write fault per page, and a
gather reads each contiguous run of the file with one ``preadv`` straight
into the caller's buffer (:meth:`_copy`), so no spill page is mapped into
the process to read it.  ``get``,
``snapshot`` and the single-track ``put`` go through the mapping, which
sees the same page-cache pages.

Spill-file lifecycle:

* every arena creates its own run-scoped directory
  (``mkdtemp(prefix="repro-arena-")``) under ``$REPRO_SPILL_DIR`` (default:
  the system temp dir), holding one ``tracks.bin`` — the arena's linear
  row space, all disks interleaved as ``row = track·D + disk`` — and worker
  processes of the multi-core backend each build their own arenas, so
  directories never collide across processes;
* a chunk is a window of that file: growth extends the file by the chunk
  (``ftruncate``) and maps the new window, and the windows already mapped
  stay valid — nothing is remapped or copied.  Each window holds one file
  descriptor (``mmap`` dups the file's); a growth the system refuses
  (descriptors, space, file size) is a one-line :class:`SimulationError`
  naming the spill dir and the windows held.  The extension is a sparse
  hole, so untouched tracks cost no physical disk; what a hole holds is as
  unobservable as the RAM arena's uncleared rows (a row is read only while
  its ledger entry is set);
* ``$REPRO_SPILL_QUOTA`` (bytes, optional) bounds the file's size; a chunk
  that would pass it raises :class:`SimulationError` before it is added,
  and so does a write the volume refuses (a one-line error naming the
  disk, the track and the spill dir);
* :meth:`close` unmaps the windows and deletes the directory; a
  ``weakref.finalize`` does the same at garbage collection, so abandoned
  arenas (a killed run) cannot leak spill files past interpreter exit.

Checkpoints need no special handling: a checkpoint's rows leave through
the gather hook and come back through the scatter hook, by descriptor,
as full-stride bytes either backend hands over, so a checkpoint written
under ``REPRO_ARENA=mmap`` restores under ``ram`` bit-identically, and
vice versa.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import IO, Callable

import numpy as np

from repro.pdm.arena import TrackArena
from repro.tune.runtime import RuntimeConfig, current
from repro.util.validation import SimulationError

_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _cleanup(file: "IO[bytes]", path: str) -> None:
    """Best-effort teardown shared by close() and the GC finalizer."""
    try:
        file.close()
    except OSError:  # pragma: no cover - already closed
        pass
    shutil.rmtree(path, ignore_errors=True)


class MmapTrackArena(TrackArena):
    """Track arena whose chunks are windows of one spill file."""

    __slots__ = ("spill_dir", "_file", "_quota", "_finalizer", "__weakref__")

    def __init__(
        self,
        D: int,
        block_bytes: int,
        spill_dir: str | None = None,
        quota: int | None = None,
        runtime: RuntimeConfig | None = None,
    ) -> None:
        super().__init__(D, block_bytes)
        rt = runtime if runtime is not None else current()
        base = spill_dir or rt.spill_dir or None
        if base is not None:
            os.makedirs(base, exist_ok=True)
        self.spill_dir = tempfile.mkdtemp(prefix="repro-arena-", dir=base)
        self._file: IO[bytes] | None = open(
            os.path.join(self.spill_dir, "tracks.bin"), "w+b"
        )
        self._quota = quota if quota is not None else rt.spill_quota
        self._finalizer = weakref.finalize(
            self, _cleanup, self._file, self.spill_dir
        )

    # -- growth ------------------------------------------------------------

    def _new_chunk(self, start: int, rows: int) -> np.ndarray:
        if self._file is None:
            raise SimulationError("mmap arena used after close()")
        bb = self.block_bytes
        have, new = start * bb, rows * bb
        if self._quota is not None and have + new > self._quota:
            raise SimulationError(
                f"spill quota exceeded: a chunk of {new} bytes on top of the "
                f"{have} the arena holds, REPRO_SPILL_QUOTA={self._quota}"
            )
        # the extension is a sparse hole that nothing reads before writing
        # it; the windows mapped before stay valid over the longer file.
        # Each window holds a descriptor of its own (mmap dups the file's)
        try:
            self._file.truncate(have + new)
            return np.memmap(
                self._file, dtype=np.uint8, mode="r+", offset=have, shape=(rows, bb)
            )
        except OSError as exc:  # EMFILE, ENOSPC, EFBIG, ...
            raise SimulationError(
                f"cannot map a chunk of {new} bytes in spill dir {self.spill_dir}"
                f" ({len(self._chunks)} windows held): {exc.strerror or exc}"
            ) from None

    # -- bulk moves: by descriptor ------------------------------------------
    #
    # a write takes no fault per fresh page, as an assignment into the
    # mapping does; a read (after the ledger checks) fills only the
    # caller's buffer, where a copy out of the mapping faults each page in

    def _store(self, chunk: int, off: int, rows: np.ndarray) -> None:
        pos = (self._bounds[chunk] + off) * self.block_bytes
        self._move(True, pos, [rows], rows.nbytes)

    def _store_run(self, lin: int, spans: list, bufs: list) -> None:
        # the rows are one stretch of the file: one pwritev for the run
        rows = sum(m for _k, _off, _at, m in spans)
        self._move(True, lin * self.block_bytes, bufs, rows * self.block_bytes)

    def _take(self, chunk: int, at: np.ndarray, out: np.ndarray) -> None:
        self._copy([(i, chunk, off, 1) for i, off in enumerate(at.tolist())], out)

    def _copy(self, moves: list[tuple[int, int, int, int]], out: np.ndarray) -> None:
        # one preadv per contiguous run of the file, a buffer per move
        bounds, bb = self._bounds, self.block_bytes
        runs: list[list] = []  # [file offset, bytes, buffers]
        for r, k, off, m in moves:
            pos, buf = (bounds[k] + off) * bb, memoryview(out[r : r + m]).cast("B")
            last = runs[-1] if runs else None
            if last and last[0] + last[1] == pos and len(last[2]) < _IOV_MAX:
                last[1] += buf.nbytes
                last[2].append(buf)
            else:
                runs.append([pos, buf.nbytes, [buf]])
        for pos, nbytes, bufs in runs:
            self._move(False, pos, bufs, nbytes)

    def _move(self, write: bool, pos: int, bufs: list, nbytes: int) -> None:
        """Write the *nbytes* of *bufs* to the file from *pos* on, or read
        them from it, ``IOV_MAX`` buffers a call; short transfers loop."""
        assert self._file is not None
        fd, what = self._file.fileno(), "write" if write else "read"
        call: Callable[..., int] = os.pwritev if write else os.preadv
        while True:
            try:
                n = call(fd, bufs[:_IOV_MAX], pos)
                why = f"the {what} stayed short"
            except OSError as exc:
                n, why = 0, exc.strerror or str(exc)
            if n <= 0:
                lin = pos // self.block_bytes
                raise SimulationError(
                    f"cannot {what} disk {lin % self.D} track {lin // self.D} "
                    f"{'to' if write else 'from'} spill dir {self.spill_dir}: {why}"
                )
            if n == nbytes:  # the rest in one call: almost always
                return
            pos, nbytes = pos + n, nbytes - n
            bufs = [memoryview(b).cast("B") for b in bufs]
            while n >= bufs[0].nbytes:
                n -= bufs.pop(0).nbytes
            bufs[0] = bufs[0][n:]

    # -- inspection --------------------------------------------------------

    def resident_nbytes(self) -> int:
        # the chunks are file-backed: only bookkeeping is counted
        return self._bookkeeping_nbytes()

    def spill_nbytes(self) -> int:
        return self._bounds[-1] * self.block_bytes

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap, close and delete the spill directory (idempotent)."""
        if self._file is None:
            return
        # drop the windows before deleting their backing file
        self._chunks, self._lens, self._bounds = [], [], [0]
        file, self._file = self._file, None
        self._finalizer.detach()
        _cleanup(file, self.spill_dir)


def make_arena(
    D: int, block_bytes: int, runtime: RuntimeConfig | None = None
) -> TrackArena:
    """Build the track arena selected by ``REPRO_ARENA``.

    *runtime* is the engine's per-run knob snapshot; without one the
    current environment is resolved on the spot (module-level callers).
    """
    rt = runtime if runtime is not None else current()
    if rt.arena == "mmap":
        return MmapTrackArena(D, block_bytes, runtime=rt)
    return TrackArena(D, block_bytes)
