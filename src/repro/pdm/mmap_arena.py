"""Memory-mapped track storage: the out-of-core arena backend.

:class:`MmapTrackArena` keeps the exact :class:`~repro.pdm.arena.TrackArena`
contract — batch scatter/gather, side-dict fallbacks, dict-portable
``snapshot``/``restore`` — but backs each disk's track matrix with a
``numpy.memmap`` over a spill file instead of a preallocated in-memory
array.  Simulated problem size is then bounded by disk capacity, not host
memory: the OS pages track data in and out on demand, and the arena's own
resident footprint is the per-track bookkeeping (occupancy mask + byte
lengths, ~9 bytes/track) plus whatever the page cache chooses to keep.

Spill-directory lifecycle:

* every arena creates its own run-scoped directory
  (``mkdtemp(prefix="repro-arena-")``) under ``$REPRO_SPILL_DIR`` (default:
  the system temp dir), holding one ``disk<d>.bin`` file per simulated
  disk — worker processes of the multi-core backend each build their own
  arenas, so directories never collide across processes;
* growth is by doubling, implemented as ``ftruncate`` + remap — the
  extension is a sparse hole, so untouched tracks cost no physical disk;
  what a hole holds is as unobservable as the RAM arena's uncleared rows
  (a row is read only while its occupancy bit is set);
* ``$REPRO_SPILL_QUOTA`` (bytes, optional) bounds the total mapped size
  per arena; growth past it raises :class:`SimulationError` instead of
  filling the volume;
* :meth:`close` unmaps and deletes the directory; a ``weakref.finalize``
  does the same at garbage collection, so abandoned arenas (a killed run)
  cannot leak spill files past interpreter exit.

Snapshots need no special handling: ``snapshot``/``restore`` are inherited
and produce/accept the plain ``dict[int, bytes]`` representation, so a
checkpoint written under ``REPRO_ARENA=mmap`` restores under ``ram``
bit-identically, and vice versa.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import IO

import numpy as np

from repro.pdm.arena import TrackArena
from repro.tune.runtime import RuntimeConfig, current
from repro.util.validation import SimulationError


def _cleanup(files: "list[IO[bytes]]", path: str) -> None:
    """Best-effort teardown shared by close() and the GC finalizer."""
    for f in files:
        try:
            f.close()
        except OSError:  # pragma: no cover - already closed
            pass
    shutil.rmtree(path, ignore_errors=True)


class MmapTrackArena(TrackArena):
    """Track arena whose per-disk matrices live in spill files."""

    __slots__ = ("spill_dir", "_files", "_quota", "_finalizer", "__weakref__")

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
        self._files: list[IO[bytes]] = [
            open(os.path.join(self.spill_dir, f"disk{d}.bin"), "w+b")
            for d in range(D)
        ]
        self._quota = quota if quota is not None else rt.spill_quota
        self._finalizer = weakref.finalize(
            self, _cleanup, self._files, self.spill_dir
        )

    # -- growth ------------------------------------------------------------

    def _grow_data(self, disk: int, cap: int, have: int) -> None:
        if not self._files:
            raise SimulationError("mmap arena used after close()")
        new_bytes = cap * self.block_bytes
        if self._quota is not None:
            total = sum(
                int(a.shape[0]) * self.block_bytes
                for d, a in enumerate(self._data)
                if d != disk
            )
            if total + new_bytes > self._quota:
                raise SimulationError(
                    f"spill quota exceeded: disk {disk} needs {new_bytes} "
                    f"bytes, arena already holds {total}, "
                    f"REPRO_SPILL_QUOTA={self._quota}"
                )
        f = self._files[disk]
        f.truncate(new_bytes)
        f.flush()
        # remap over the grown file: old rows are preserved in place, the
        # extension is a sparse hole that nothing reads before writing it.
        # A gather still holding the previous (smaller) memmap keeps a
        # valid view of the same file until it drops the reference.
        self._data[disk] = np.memmap(
            f, dtype=np.uint8, mode="r+", shape=(cap, self.block_bytes)
        )

    # -- inspection --------------------------------------------------------

    def resident_nbytes(self) -> int:
        # the track matrices are file-backed: only bookkeeping is counted
        return self._bookkeeping_nbytes()

    def spill_nbytes(self) -> int:
        return sum(int(a.shape[0]) * self.block_bytes for a in self._data)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unmap, close and delete the spill directory (idempotent)."""
        if not self._files:
            return
        # drop the memmaps before deleting their backing files
        self._data = [
            np.zeros((0, self.block_bytes), dtype=np.uint8) for _ in range(self.D)
        ]
        self._used = [np.zeros(0, dtype=bool) for _ in range(self.D)]
        self._nbytes = [np.zeros(0, dtype=np.int64) for _ in range(self.D)]
        files, self._files = self._files, []
        self._finalizer.detach()
        _cleanup(files, self.spill_dir)


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
