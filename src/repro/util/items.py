"""Item accounting and the one byte format of the simulated disks.

The PDM counts cost in units of fixed-size *items*; a block holds ``B``
items and one parallel I/O moves ``D*B`` items.  We fix an item at 8 bytes
(one 64-bit word — the granularity Algorithm 1 of the paper distributes in
its round-robin binning).

Every context and every message bundle the disk engines store is one
*item*: a ``<cQ`` header (tag ``T``, body length) and a body holding one
self-describing node.  A node is a tag byte and what the tag implies:

======  ==========================================================
``n``   ``None``
``t f`` ``True`` / ``False``
``1 2`` unsigned 1- and 2-byte ``int``
``4 8`` signed 4- and 8-byte ``int``
``I``   any other ``int``: count, signed little-endian bytes
``d``   ``float`` (IEEE double)
``s``   ``str``: count, UTF-8 bytes
``b``   ``bytes``: count, raw bytes
``a``   ``ndarray``: count, that many bytes of *array header* (``ndim``
        byte, ``u64`` dims, dtype spec), then the C-order buffer
``g``   NumPy scalar: the same with ``ndim`` 0
``( [`` ``tuple`` / ``list``: count, that many nodes
``{``   ``dict``: count, that many key and value nodes
``C``   a balanced-routing chunk: eight ``i64`` fields and the word
        count, the tag node, the raw ``uint64`` words
======  ==========================================================

A *count* is one byte, or ``0xFF`` and a ``u32``.  A *dtype spec* is a
node: the ``dtype.str`` of a plain dtype (byte order included, metadata
not — equal dtypes give equal bytes) or the ``dtype.descr`` list of a
structured one.  Array buffers go from the array straight into the one
``join`` that builds the item, and come back as a copy, so a decoded value
never aliases the buffer it was read from.

A ``C`` node is not a value: it exists only inside a balanced-routing
bundle, the item of a list of ``C`` nodes, which :func:`chunk_node` and
:func:`chunk_list` write and :func:`chunk_index` reads (per chunk one
``unpack_from`` and a ``None`` or ``str`` tag read in place; the words
stay where they are).  :func:`deserialize` refuses a ``C`` node as an
unknown tag.

Nothing is reconstructed by name: the decoder builds only the value types
above, so bytes read back from a disk, a snapshot or a peer cannot run
code.  It checks every length against the enclosing item before it reads
or allocates, bounds the nesting depth, and answers anything else —
object dtypes, unknown tags, truncated items, the ``P``/``N`` items
written before format 2 — with a one-line ``ValueError``.  Encoding anything
outside the table (a ``set``, a class instance, an object array, a
``tuple`` subclass) is a one-line ``TypeError`` naming the type.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from typing import Any, NoReturn

import numpy as np

#: Size of one PDM application item in bytes (a 64-bit word).
ITEM_BYTES = 8

#: Version of the byte format below.  Checkpoint headers and result-cache
#: keys carry it, so state written under another format is refused or
#: missed instead of decoded.
ITEM_FORMAT_VERSION = 2

_HEADER = struct.Struct("<cQ")  # tag, body byte length
_TAG_ITEM = b"T"

#: containers nested deeper than this are refused on both sides; a
#: self-referential list therefore ends in an error, not a crash
_MAX_DEPTH = 32

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_CHUNK = struct.Struct("<8qQ")

(_NONE, _TRUE, _FALSE, _INT1, _INT2, _INT4, _INT8, _BIGINT, _FLOAT, _STR, _BYTES,
 _SCALAR, _ARRAY, _TUPLE, _LIST, _DICT, _CHUNK_TAG) = b"ntf1248Idsbga([{C"
_FIXED = {_INT2: _U16, _INT4: _I32, _INT8: _I64, _FLOAT: _F64}


# ------------------------------------------------------------------ encoding


def _count(n: int) -> bytes:
    return bytes((n,)) if n < 0xFF else b"\xff" + _U32.pack(n)


def _enc_int(obj: int, parts: list, depth: int) -> None:
    if 0 <= obj < 0x100:
        parts.append(bytes((_INT1, obj)))
    elif 0 <= obj < 0x10000:
        parts.append(b"2" + _U16.pack(obj))
    elif -0x80000000 <= obj < 0x80000000:
        parts.append(b"4" + _I32.pack(obj))
    elif -0x8000000000000000 <= obj < 0x8000000000000000:
        parts.append(b"8" + _I64.pack(obj))
    else:
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
        parts.append(b"I" + _count(len(raw)) + raw)


def _enc_str(obj: str, parts: list, depth: int) -> None:
    raw = obj.encode("utf-8", "surrogatepass")
    parts.append(b"s" + _count(len(raw)) + raw)


def _enc_bytes(obj: bytes, parts: list, depth: int) -> None:
    parts.append(b"b" + _count(len(obj)))
    parts.append(obj)


@lru_cache(maxsize=1024)
def _array_header(dtype: np.dtype, shape: tuple, tag: bytes = b"a") -> bytes:
    """Everything of an ``a`` (or ``g``) node but the buffer.  Packed once
    per ``(dtype, shape)``: for the few-hundred-byte arrays of a many-round
    program the header costs more to build than the body to copy."""
    if dtype.hasobject or dtype.itemsize == 0:
        raise TypeError(f"cannot serialize arrays of dtype {dtype!r}")
    spec = dtype.str if dtype.names is None else dtype.descr
    if np.dtype(spec) != dtype:  # padded/aligned layouts do not survive descr
        raise TypeError(f"cannot serialize arrays of dtype {dtype!r}")
    meta = [struct.pack(f"<B{len(shape)}Q", len(shape), *shape)]
    _encode(spec, meta, 0)
    return tag + _count(sum(map(len, meta))) + b"".join(meta)


def _buffer(arr: np.ndarray) -> "memoryview | bytes":
    """*arr*'s C-order bytes — the array's own memory when it is
    contiguous, so the one ``join`` is the only copy."""
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    try:
        return memoryview(arr).cast("B")
    except (TypeError, ValueError):  # a zero in the shape; datetime64 has no format
        return arr.tobytes()


def _enc_array(obj: np.ndarray, parts: list, depth: int) -> None:
    parts.append(_array_header(obj.dtype, obj.shape))
    parts.append(_buffer(obj))


def _enc_scalar(obj: np.generic, parts: list, depth: int) -> None:
    parts.append(_array_header(obj.dtype, (), b"g"))
    parts.append(obj.tobytes())


def _enc_seq(tag: bytes):
    def enc(obj, parts: list, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise ValueError(f"cannot serialize: nested deeper than {_MAX_DEPTH}")
        parts.append(tag + _count(len(obj)))
        for x in obj:
            _encode(x, parts, depth + 1)

    return enc


def _enc_dict(obj: dict, parts: list, depth: int) -> None:
    if depth >= _MAX_DEPTH:
        raise ValueError(f"cannot serialize: nested deeper than {_MAX_DEPTH}")
    parts.append(b"{" + _count(len(obj)))
    for k, x in obj.items():
        _encode(k, parts, depth + 1)
        _encode(x, parts, depth + 1)


def chunk_node(fields: tuple, tag: "str | None") -> bytes:
    """A ``C`` node up to its words.  *fields* are ``(src, fdest, msg_seq,
    first, stride, total_words, nbytes, size_items, n_words)``: the chunk
    holds words ``first::stride`` of message ``msg_seq`` of processor
    ``src`` to ``fdest``, whose serialized payload is ``nbytes`` bytes in
    ``total_words`` words and charges ``size_items``; *tag* is the
    message's."""
    if not (tag is None or type(tag) is str):
        raise TypeError("cannot serialize a Chunk whose tag is not a str or None")
    try:
        return b"C" + _CHUNK.pack(*fields) + _tag_node(tag)
    except struct.error as exc:
        raise TypeError(f"cannot serialize Chunk fields: {exc}") from None


def chunk_list(n: int, parts: list) -> bytes:
    """The item of a list of *n* ``C`` nodes: a list head, then *parts*
    (each node's :func:`chunk_node` and its words) in order."""
    head = b"[" + _count(n)
    size = len(head) + sum(map(len, parts))
    return b"".join([_HEADER.pack(_TAG_ITEM, size), head, *parts])


@lru_cache(maxsize=256)
def _tag_node(tag: "str | None") -> bytes:
    """A chunk's tag node; a routing round repeats a handful of tags."""
    return serialize(tag)[_HEADER.size :]


_ENCODERS = {
    type(None): lambda obj, parts, depth: parts.append(b"n"),
    bool: lambda obj, parts, depth: parts.append(b"t" if obj else b"f"),
    int: _enc_int,
    float: lambda obj, parts, depth: parts.append(b"d" + _F64.pack(obj)),
    str: _enc_str,
    bytes: _enc_bytes,
    np.ndarray: _enc_array,
    tuple: _enc_seq(b"("),
    list: _enc_seq(b"["),
    dict: _enc_dict,
}


def _subclass_encoder(tp: type):
    """Encoder of a type that is not itself a row of the table: NumPy's
    scalar and array subclasses and ``dict`` subclasses (a ``Context``)
    encode as their base.  Subclasses of the other rows would come back as
    a different type, so they are refused like any foreign class."""
    if issubclass(tp, np.generic):
        return _enc_scalar
    if issubclass(tp, np.ndarray):
        return _enc_array
    if issubclass(tp, dict):
        return _enc_dict
    raise TypeError(
        f"cannot serialize {tp.__module__}.{tp.__qualname__}: contexts and "
        "messages hold None, bool, int, float, str, bytes, NumPy scalars and "
        "non-object arrays, and tuples, lists and dicts of those"
    )


def _encode(obj: Any, parts: list, depth: int) -> None:
    tp = type(obj)
    (_ENCODERS.get(tp) or _subclass_encoder(tp))(obj, parts, depth)


def serialize(obj: Any) -> bytes:
    """Encode *obj* to one self-describing item (module docstring).

    Raises ``TypeError`` naming the first unsupported type met, before
    any byte is produced."""
    parts: list = [b""]
    _encode(obj, parts, 0)
    parts[0] = _HEADER.pack(_TAG_ITEM, sum(map(len, parts)))
    return b"".join(parts)


# ------------------------------------------------------------------ decoding


def _fail(what: str) -> NoReturn:
    raise ValueError(f"corrupt item: {what}")


def _dec_count(mv: memoryview, off: int, end: int) -> tuple[int, int]:
    if off < end:
        n = mv[off]
        if n < 0xFF:
            return n, off + 1
        if off + 5 <= end:
            return _U32.unpack_from(mv, off + 1)[0], off + 5
    _fail("truncated count")


def _dec_raw(mv: memoryview, off: int, end: int) -> tuple[memoryview, int]:
    """A count and that many bytes → (the bytes, offset past them)."""
    n, off = _dec_count(mv, off, end)
    if off + n > end:
        _fail(f"{n} bytes announced, {end - off} left")
    return mv[off : off + n], off + n


@lru_cache(maxsize=256)
def _array_meta(meta: bytes) -> tuple[np.dtype, tuple, int]:
    """Parse what :func:`_array_header` packed → (dtype, shape, nbytes);
    once per distinct header, like the packing."""
    mv = memoryview(meta)
    end = len(meta)
    if not end or 1 + 8 * mv[0] > end:
        _fail("truncated array shape")
    shape = struct.unpack_from(f"<{mv[0]}Q", mv, 1)
    spec, off = _decode(mv, 1 + 8 * len(shape), end, 0)
    if off != end or type(spec) not in (str, list):
        _fail("array header is not a shape and a dtype spec")
    try:
        dtype = np.dtype(spec)
    except (TypeError, ValueError, SyntaxError, OverflowError, Warning) as exc:
        # Warning: a deprecated spelling, when warnings are errors
        _fail(f"bad dtype spec {spec!r} ({exc})")
    if dtype.hasobject or dtype.itemsize == 0:
        _fail(f"refused dtype {dtype!r}")
    return dtype, shape, dtype.itemsize * math.prod(shape)


def _dec_array(mv: memoryview, off: int, end: int) -> tuple[np.ndarray, int]:
    meta, off = _dec_raw(mv, off, end)
    # only one-byte-count headers are memoised, so the memo's keys are short
    parse = _array_meta if len(meta) < 0xFF else _array_meta.__wrapped__
    dtype, shape, nbytes = parse(bytes(meta))
    if off + nbytes > end:
        _fail(f"array of {nbytes} bytes announced, {end - off} left")
    try:
        arr = np.ndarray(shape, dtype, mv, off).copy()
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(f"bad array shape {shape!r} ({exc})")
    return arr, off + nbytes


def _decode(mv: memoryview, off: int, end: int, depth: int) -> tuple[Any, int]:
    """Decode the node at ``mv[off:end]`` → (value, offset past it)."""
    if off >= end:
        _fail("truncated node")
    tag = mv[off]
    off += 1
    if tag == _INT1:
        if off >= end:
            _fail("truncated number")
        return mv[off], off + 1
    if tag == _STR:
        raw, off = _dec_raw(mv, off, end)
        try:
            return str(raw, "utf-8", "surrogatepass"), off
        except UnicodeDecodeError:
            _fail("str is not UTF-8")
    if tag == _ARRAY:
        return _dec_array(mv, off, end)
    if tag in _FIXED:
        st = _FIXED[tag]
        if off + st.size > end:
            _fail("truncated number")
        return st.unpack_from(mv, off)[0], off + st.size
    if tag == _TUPLE or tag == _LIST or tag == _DICT:
        if depth >= _MAX_DEPTH:
            _fail(f"nested deeper than {_MAX_DEPTH}")
        n, off = _dec_count(mv, off, end)
        if n * (2 if tag == _DICT else 1) > end - off:
            _fail(f"{n} entries announced, {end - off} bytes left")
        depth += 1
        if tag == _DICT:
            out: dict = {}
            for _ in range(n):
                k, off = _decode(mv, off, end, depth)
                v, off = _decode(mv, off, end, depth)
                try:
                    out[k] = v
                except TypeError:
                    _fail(f"unhashable dict key of type {type(k).__name__}")
            return out, off
        items = []
        for _ in range(n):
            x, off = _decode(mv, off, end, depth)
            items.append(x)
        return (tuple(items) if tag == _TUPLE else items), off
    if tag == _NONE:
        return None, off
    if tag == _TRUE:
        return True, off
    if tag == _FALSE:
        return False, off
    if tag == _BYTES:
        raw, off = _dec_raw(mv, off, end)
        return bytes(raw), off
    if tag == _BIGINT:
        raw, off = _dec_raw(mv, off, end)
        return int.from_bytes(raw, "little", signed=True), off
    if tag == _SCALAR:
        arr, off = _dec_array(mv, off, end)
        if arr.ndim:
            _fail("NumPy scalar with a shape")
        return arr[()], off
    _fail(f"unknown node tag {bytes((tag,))!r}")


def _item_end(mv: memoryview) -> int:
    """The offset where the body of the item at the start of *mv* ends; a
    header that does not open a whole format-2 item raises."""
    if mv.nbytes < _HEADER.size:
        _fail("shorter than its header")
    tag, length = _HEADER.unpack_from(mv, 0)
    if tag != _TAG_ITEM:
        if tag in (b"P", b"N"):
            raise ValueError(
                f"item written in the retired item format 1 (tag {tag!r}); "
                f"this build reads item format {ITEM_FORMAT_VERSION} only"
            )
        raise ValueError(f"unknown serialization tag {tag!r}")
    end = _HEADER.size + length
    if end > mv.nbytes:
        _fail(f"body of {length} bytes announced, {mv.nbytes - _HEADER.size} present")
    return end


def chunk_index(data) -> tuple[int, list]:
    """*data*, the item :func:`chunk_list` writes (padding ignored) → (its
    length, per ``C`` node ``(start, stop, tag, fields)``: the node is
    ``data[start:stop]`` and ends in its ``fields[8]`` words).  Anything
    else is a one-line ``ValueError``; a corrupt node's own error comes
    before the verdict that the item is not a bundle."""
    mv = memoryview(data)
    end = _item_end(mv)
    off = _HEADER.size + 1
    if off > end or mv[off - 1] != _LIST:
        _fail("not a list of Chunks")
    n, off = _dec_count(mv, off, end)
    if n > end - off:
        _fail(f"{n} entries announced, {end - off} bytes left")
    run = []
    while len(run) < n and off < end and mv[off] == _CHUNK_TAG:
        if off + 1 + _CHUNK.size > end:
            _fail("truncated Chunk")
        start, fields = off, _CHUNK.unpack_from(mv, off + 1)
        off += 1 + _CHUNK.size
        if off < end and mv[off] == _NONE:
            ctag, off = None, off + 1
        elif off < end and mv[off] == _STR:
            raw, off = _dec_raw(mv, off + 1, end)
            try:
                ctag = str(raw, "utf-8", "surrogatepass")
            except UnicodeDecodeError:
                _fail("str is not UTF-8")
        else:
            _decode(mv, off, end, 1)
            _fail("Chunk tag is neither a str nor None")
        if off + 8 * fields[8] > end:
            _fail(f"Chunk of {fields[8]} words announced, {end - off} bytes left")
        off += 8 * fields[8]
        run.append((start, off, ctag, fields))
    if len(run) < n:
        _decode(mv, off, end, 1)
        _fail("not a list of Chunks")
    if off != end:
        _fail(f"{end - off} stray bytes after the value")
    return end, run


def deserialize(data) -> Any:
    """Decode an item produced by :func:`serialize` from any bytes-like
    *data*; every array in the result is a copy.

    Trailing padding (zero bytes appended to reach a block boundary) is
    ignored, which lets the disk engines store objects in whole blocks.
    Anything that is not a whole, well-formed item raises ``ValueError``.
    """
    mv = memoryview(data)
    end = _item_end(mv)
    obj, off = _decode(mv, _HEADER.size, end, 0)
    if off != end:
        _fail(f"{end - off} stray bytes after the value")
    return obj


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
