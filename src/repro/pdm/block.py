"""Cutting byte strings into fixed-size disk blocks and back.

A track stores exactly one block of ``B`` items (``B * ITEM_BYTES`` bytes).
Objects are serialized, zero-padded to a whole number of blocks, and cut;
:func:`unpack_blocks` concatenates and the self-describing serialization
header makes the padding harmless.
"""

from __future__ import annotations

from repro.util.items import ITEM_BYTES


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
