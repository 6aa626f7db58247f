"""Zero-copy containers for the vectorized run API.

Bulk I/O streams are serviced as single NumPy gather/scatter operations
over a preallocated per-disk track arena (:mod:`repro.pdm.arena`); the
engines hand data to and from that API in two containers:

* :class:`BlockRun` — a run of fixed-size blocks backed by one buffer,
  the wire and write format of every context and message bundle.
* :class:`BufferPool` — bounded reuse of gather staging buffers, so a
  long run does not allocate per parallel I/O.
"""

from __future__ import annotations

import numpy as np


class BlockRun:
    """``nblocks`` fixed-size blocks backed by a single buffer.

    The buffer may be up to one block shorter than ``nblocks *
    block_bytes``; the missing tail is implicit zero padding, exactly as
    :func:`repro.pdm.block.pack_blocks` pads the last block.  Keeping the
    padding implicit is what makes the container zero-copy: a serialized
    payload is wrapped as-is, and the scatter into the arena pads only the
    final track in place.
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
        """Materialize one ``bytes`` per block (copies; per-op service only)."""
        bb = self.block_bytes
        data = bytes(self.buf).ljust(self.nblocks * bb, b"\x00")
        return [data[i * bb : (i + 1) * bb] for i in range(self.nblocks)]

    def __reduce__(self) -> tuple:
        # Pickling (queue and tcp transports) materializes the buffer;
        # the shared-memory transport avoids this entirely.
        return (BlockRun, (bytes(self.buf), self.nblocks, self.block_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockRun(nblocks={self.nblocks}, block_bytes={self.block_bytes}, "
            f"nbytes={self.nbytes})"
        )


class BufferPool:
    """Bounded pool of reusable ``uint8`` staging buffers.

    ``take`` hands out a buffer of at least the requested size (callers
    slice to exact length); ``give`` returns it for reuse.  The pool keeps
    at most ``max_buffers`` and grows sizes geometrically so a long run
    converges on a handful of right-sized arenas instead of allocating per
    parallel I/O.
    """

    __slots__ = ("_free", "max_buffers")

    def __init__(self, max_buffers: int = 8) -> None:
        self._free: list[np.ndarray] = []
        self.max_buffers = max_buffers

    def take(self, nbytes: int) -> np.ndarray:
        best = -1
        for i, buf in enumerate(self._free):
            if buf.size >= nbytes and (best < 0 or buf.size < self._free[best].size):
                best = i
        if best >= 0:
            return self._free.pop(best)
        cap = 256
        while cap < nbytes:
            cap *= 2
        return np.empty(cap, dtype=np.uint8)

    def give(self, buf: np.ndarray) -> None:
        if buf.base is not None:  # only whole buffers come back
            return
        if len(self._free) < self.max_buffers:
            self._free.append(buf)
