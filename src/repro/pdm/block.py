"""Disk blocks: cutting bytes into them, carrying runs of them, and saying
where a run sits on the disks.

A track stores exactly one block of ``B`` items (``B * ITEM_BYTES`` bytes).
Objects are serialized, zero-padded to a whole number of blocks, and cut;
:func:`unpack_blocks` concatenates and the self-describing serialization
header makes the padding harmless.

Bulk streams move as single NumPy gather/scatter operations over the
per-disk track arena (:mod:`repro.pdm.arena`); the engines hand data and
addresses to that API in two small values:

* :class:`BlockRun` — a run of fixed-size blocks backed by one buffer,
  the wire and write format of every context and message bundle.
* :class:`Runs` — where such a run goes: a base track and a short list of
  linear runs, the address of every stream the layouts produce.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.util.items import ITEM_BYTES
from repro.util.validation import SimulationError


def pack_blocks(data: bytes, B: int) -> list[bytes]:
    """Split *data* into blocks of ``B`` items, zero-padding the last one.

    Returns an empty list for empty input: storing nothing costs nothing.
    """
    if B <= 0:
        raise ValueError(f"block size must be positive, got B={B}")
    if not data:
        return []
    bb = B * ITEM_BYTES
    nblocks = -(-len(data) // bb)
    padded = data.ljust(nblocks * bb, b"\x00")
    return [padded[i * bb : (i + 1) * bb] for i in range(nblocks)]


def blocks_for_bytes(nbytes: int, B: int) -> int:
    """Number of ``B``-item blocks :func:`pack_blocks` would produce.

    The engines size runs from this without materializing the block
    list, so byte lengths — and therefore every I/O counter derived from
    them — match the packed form exactly.
    """
    if B <= 0:
        raise ValueError(f"block size must be positive, got B={B}")
    if nbytes <= 0:
        return 0
    return -(-nbytes // (B * ITEM_BYTES))


def unpack_blocks(blocks: list[bytes]) -> bytes:
    """Concatenate blocks back into one byte string (padding included)."""
    return b"".join(blocks)


class BlockRun:
    """``nblocks`` fixed-size blocks backed by a single buffer.

    The buffer may be up to one block shorter than ``nblocks *
    block_bytes``; the missing tail is implicit zero padding, exactly as
    :func:`pack_blocks` pads the last block.  Keeping the padding implicit
    is what makes the container zero-copy: a serialized payload is wrapped
    as-is, and the scatter into the arena pads only the final track in
    place.
    """

    __slots__ = ("buf", "nblocks", "block_bytes")

    def __init__(
        self, buf: bytes | bytearray | memoryview | np.ndarray, nblocks: int, block_bytes: int
    ) -> None:
        nbytes = len(buf) if not isinstance(buf, np.ndarray) else int(buf.nbytes)
        if nbytes > nblocks * block_bytes:
            raise ValueError(
                f"buffer of {nbytes} bytes does not fit {nblocks} blocks "
                f"of {block_bytes} bytes"
            )
        self.buf = buf
        self.nblocks = nblocks
        self.block_bytes = block_bytes

    @property
    def nbytes(self) -> int:
        buf = self.buf
        return int(buf.nbytes) if isinstance(buf, np.ndarray) else len(buf)

    def to_blocks(self) -> list[bytes]:
        """Materialize one ``bytes`` per block (copies; per-op callers only)."""
        bb = self.block_bytes
        data = bytes(self.buf).ljust(self.nblocks * bb, b"\x00")
        return [data[i * bb : (i + 1) * bb] for i in range(self.nblocks)]

    def __reduce_ex__(self, protocol) -> tuple:
        # A session frame (protocol 5) ships the buffer out of band and
        # the receiver wraps a view of its payload; older protocols copy.
        buf = pickle.PickleBuffer(self.buf) if protocol >= 5 else bytes(self.buf)
        return (BlockRun, (buf, self.nblocks, self.block_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockRun(nblocks={self.nblocks}, block_bytes={self.block_bytes}, "
            f"nbytes={self.nbytes})"
        )


@dataclass(frozen=True, slots=True)
class Runs:
    """Where a bulk stream sits on ``D`` disks: a base track and, in stream
    order, linear runs ``(lin0, nblocks)``.

    Block ``q`` of a run is at disk ``(lin0 + q) mod D`` on track
    ``base + (lin0 + q) div D`` — the consecutive format entered at linear
    offset ``lin0``.  Every stream the layouts produce is such a list: a
    context or overflow run is one run at ``lin0 = 0``, a slot message one
    run at its slot's offset, an inbox one run per source.  ``D`` belongs
    to the disk array the value is handed to, so no address can name a
    disk the array does not have; the rest is checked here, once.
    """

    base: int
    runs: tuple[tuple[int, int], ...]
    nblocks: int = field(init=False)  #: blocks addressed, all runs together

    def __post_init__(self) -> None:
        if self.base < 0:
            raise SimulationError(f"negative track {self.base}")
        total = 0
        for lin0, n in self.runs:
            if lin0 < 0 or n < 0:
                raise SimulationError(
                    f"run of {n} blocks at linear offset {lin0}: both must be >= 0"
                )
            total += n
        object.__setattr__(self, "nblocks", total)

    def expand(self, D: int) -> tuple[np.ndarray, np.ndarray]:
        """``(disks, tracks)`` of every block, in stream order.

        The only place an address array is made: a batch plan is built
        from it once per distinct run pattern and keeps it, for a fault
        plan to decide over and for the bulk read's per-track fallback.
        """
        starts = np.asarray([lin0 for lin0, _ in self.runs], dtype=np.int64)
        counts = np.asarray([n for _, n in self.runs], dtype=np.int64)
        # offset of each run's first block in the stream, then one arange
        first = np.cumsum(counts) - counts
        lin = np.repeat(starts - first, counts) + np.arange(self.nblocks, dtype=np.int64)
        return lin % D, self.base + lin // D
