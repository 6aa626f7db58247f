"""Item accounting and serialization.

The PDM counts cost in units of fixed-size *items*; a block holds ``B``
items and one parallel I/O moves ``D*B`` items.  We fix an item at 8 bytes
(one 64-bit word — the granularity Algorithm 1 of the paper distributes in
its round-robin binning).

Serialization has a fast path for numpy arrays (raw buffer + a pickled
``(dtype, shape)`` header) because contexts and message payloads are
overwhelmingly numpy data; other objects fall back to pickle.  The header
is ~75 bytes and, for the few-hundred-byte messages of a many-round
program, cost more to pickle than the body to copy — so both directions
memoise it (same bytes on the wire, packed or parsed once per distinct
``(dtype, shape)``).  The encoding is self-describing so the disk engines
can round-trip arbitrary context dictionaries through the simulated block
store.
"""

from __future__ import annotations

import pickle
import struct
from functools import lru_cache
from typing import Any

import numpy as np

#: Size of one PDM application item in bytes (a 64-bit word).
ITEM_BYTES = 8

# One-byte format tags.
_TAG_PICKLE = b"P"
_TAG_NDARRAY = b"N"

_HEADER = struct.Struct("<cQ")  # tag, payload byte length


@lru_cache(maxsize=256)
def _pack_ndarray_header(dtype: np.dtype, shape: tuple) -> bytes:
    # The dtype object itself is pickled so structured dtypes survive.
    meta = pickle.dumps((dtype, shape), protocol=5)
    return _HEADER.pack(_TAG_NDARRAY, len(meta)) + meta


@lru_cache(maxsize=256)
def _parse_ndarray_meta(meta: bytes) -> tuple[np.dtype, tuple, int]:
    dtype_spec, shape = pickle.loads(meta)
    dtype = np.dtype(dtype_spec)
    nbytes = dtype.itemsize * int(np.prod(shape)) if shape else dtype.itemsize
    return dtype, shape, nbytes


def serialize(obj: Any) -> bytes:
    """Encode *obj* to a self-describing byte string.

    Contiguous numpy arrays are encoded as a raw buffer plus a pickled
    (dtype, shape) header — roughly 40x faster than pickling the array for
    the large payloads the simulators move around.
    """
    if isinstance(obj, np.ndarray) and obj.dtype != object:
        arr = np.ascontiguousarray(obj)
        dtype = arr.dtype
        # ascontiguousarray promotes 0-d to 1-d; keep the original shape.
        # Only NumPy's interned dtypes go through the memo: equal dtypes
        # that are not the same object (metadata, aligned structs) can
        # pickle to different bytes, and the format may not depend on
        # which of them was seen first.
        pack = _pack_ndarray_header
        if dtype.isbuiltin != 1:
            pack = pack.__wrapped__
        return pack(dtype, obj.shape) + arr.tobytes()
    body = pickle.dumps(obj, protocol=5)
    return _HEADER.pack(_TAG_PICKLE, len(body)) + body


def deserialize(data: bytes) -> Any:
    """Decode a byte string produced by :func:`serialize`.

    Trailing padding (zero bytes appended to reach a block boundary) is
    ignored, which lets the disk engines store objects in whole blocks.
    """
    tag, length = _HEADER.unpack_from(data, 0)
    off = _HEADER.size
    if tag == _TAG_NDARRAY:
        dtype, shape, nbytes = _parse_ndarray_meta(bytes(data[off : off + length]))
        body_off = off + length
        arr = np.frombuffer(data[body_off : body_off + nbytes], dtype=dtype)
        return arr.reshape(shape).copy()
    if tag == _TAG_PICKLE:
        return pickle.loads(data[off : off + length])
    raise ValueError(f"unknown serialization tag {tag!r}")


def bytes_to_items(nbytes: int) -> int:
    """Number of items needed to hold *nbytes* bytes (rounded up)."""
    return -(-nbytes // ITEM_BYTES)


def item_count(obj: Any) -> int:
    """Logical size of *obj* in items.

    Numpy arrays are measured by their buffer size; lists/tuples of scalars
    by their length; everything else by serialized size.  This is the
    quantity charged against h-relation and memory budgets.
    """
    if isinstance(obj, np.ndarray):
        return max(1, bytes_to_items(obj.nbytes))
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(x, (int, float, np.integer, np.floating)) for x in obj[:8]
    ):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 1
    if isinstance(obj, bytes):
        return max(1, bytes_to_items(len(obj)))
    return max(1, bytes_to_items(len(serialize(obj))))


def blocks_needed(n_items: int, B: int) -> int:
    """Number of size-``B`` blocks needed to store *n_items* items."""
    if n_items <= 0:
        return 0
    return -(-n_items // B)
