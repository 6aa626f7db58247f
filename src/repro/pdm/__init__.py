"""Parallel Disk Model (PDM) substrate.

Implements the Vitter–Shriver two-level memory model the paper analyses
against: each (real) processor owns ``D`` independent disks; a disk is a
sequence of tracks; a track stores exactly one block of ``B`` items; one
*parallel I/O operation* may touch at most one track per disk and moves up
to ``D*B`` items at cost ``G``.

The substrate is a faithful simulator, not a performance shim: the disks
store real bytes, reads genuinely reconstruct what was written, and the
:class:`IOStats` counters are the PDM cost measure the paper's theorems are
stated in.  There is one I/O path: tracks live in a per-array arena
(:mod:`repro.pdm.arena`), the engines move whole runs through it with
vectorized scatter/gathers, fault-injected or not, and the per-op
``parallel_io`` loop over the same arena is the PDM specification — the
oracle the vectorized forms are held bit-identical to.
"""

from repro.pdm.block import (
    BlockRun,
    Runs,
    blocks_for_bytes,
    pack_blocks,
    unpack_blocks,
)
from repro.pdm.disk import Disk
from repro.pdm.disk_array import DiskArray, IOOp, greedy_batch_widths
from repro.pdm.io_stats import DiskServiceModel, IOStats
from repro.pdm.memory import InternalMemory

__all__ = [
    "blocks_for_bytes",
    "pack_blocks",
    "unpack_blocks",
    "Disk",
    "DiskArray",
    "IOOp",
    "greedy_batch_widths",
    "BlockRun",
    "Runs",
    "DiskServiceModel",
    "IOStats",
    "InternalMemory",
]
