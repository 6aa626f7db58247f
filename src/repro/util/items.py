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
structured one.  :func:`encode` leaves array buffers in their arrays, a
piece each, for the one copy that stores the item.  :func:`deserialize`
gives every array back as a copy, so its value never aliases the buffer
it was read from; :func:`decode_owned` — for a buffer the caller hands
over, as the disk engines do with each fresh read — gives writable views
of that buffer.  Counts, small ints and short ``str`` nodes (dict keys,
tags) come from tables and memos, and the leaves of a container are read
in its own loop; the bytes are the same either way.

A ``C`` node is not a value: it exists only inside a balanced-routing
bundle, the item of a list of ``C`` nodes, which :func:`chunk_node` and
:func:`chunk_list` write (as pieces) and :func:`chunk_index` reads (per
chunk one ``unpack_from`` and a ``None`` or ``str`` tag; the words stay
where they are).  :func:`deserialize` refuses a ``C`` node as an
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
from itertools import chain
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

#: counts and small ``int`` nodes by value, and the ``s`` node of every
#: short ``str`` met (dict keys and tags: a run repeats a handful)
_COUNTS = [bytes((n,)) for n in range(0xFF)]
_SMALL_INTS = [bytes((_INT1, n)) for n in range(0x100)]
_STR_NODES: dict[str, bytes] = {}
_MEMO_STR = 64  # longest str, in UTF-8 bytes, either side memoises
_MEMO_MAX = 4096  # entries per memo; past it a str is coded each time


def _count(n: int) -> bytes:
    return _COUNTS[n] if n < 0xFF else b"\xff" + _U32.pack(n)


def _enc_int(obj: int, parts: list, depth: int) -> None:
    if 0 <= obj < 0x100:
        parts.append(_SMALL_INTS[obj])
    elif 0 <= obj < 0x10000:
        parts.append(b"2" + _U16.pack(obj))
    elif -0x80000000 <= obj < 0x80000000:
        parts.append(b"4" + _I32.pack(obj))
    elif -0x8000000000000000 <= obj < 0x8000000000000000:
        parts.append(b"8" + _I64.pack(obj))
    else:
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
        parts.append(b"I" + _count(len(raw)) + raw)


def _str_node(obj: str) -> bytes:
    raw = obj.encode("utf-8", "surrogatepass")
    node = b"s" + _count(len(raw)) + raw
    if len(raw) <= _MEMO_STR and len(_STR_NODES) < _MEMO_MAX:
        _STR_NODES[obj] = node
    return node


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
        return arr.data.cast("B")
    except (TypeError, ValueError):  # a zero in the shape; datetime64 has no format
        return arr.tobytes()


def _enc_array(obj: np.ndarray, parts: list, depth: int) -> None:
    parts.append(_array_header(obj.dtype, obj.shape))
    parts.append(_buffer(obj))


def _enc_scalar(obj: np.generic, parts: list, depth: int) -> None:
    parts.append(_array_header(obj.dtype, (), b"g"))
    parts.append(obj.tobytes())


def _enc_nodes(nodes, parts: list, depth: int) -> None:
    """Encode each of *nodes* in turn.  The leaves a context or a bundle
    is mostly made of — short ``str``, arrays, small ``int`` — are coded
    here, without a call per node; anything else goes by the table."""
    append = parts.append
    for x in nodes:
        tp = type(x)
        if tp is str:
            append(_STR_NODES.get(x) or _str_node(x))
        elif tp is np.ndarray:
            append(_array_header(x.dtype, x.shape))
            append(_buffer(x))
        elif tp is int and 0 <= x < 0x100:
            append(_SMALL_INTS[x])
        else:
            (_ENCODERS.get(tp) or _subclass_encoder(tp))(x, parts, depth)


def _enc_seq(tag: bytes):
    def enc(obj, parts: list, depth: int) -> None:
        if depth >= _MAX_DEPTH:
            raise ValueError(f"cannot serialize: nested deeper than {_MAX_DEPTH}")
        parts.append(tag + _count(len(obj)))
        _enc_nodes(obj, parts, depth + 1)

    return enc


def _enc_dict(obj: dict, parts: list, depth: int) -> None:
    if depth >= _MAX_DEPTH:
        raise ValueError(f"cannot serialize: nested deeper than {_MAX_DEPTH}")
    parts.append(b"{" + _count(len(obj)))
    _enc_nodes(chain.from_iterable(obj.items()), parts, depth + 1)


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
        node = b"n" if tag is None else _STR_NODES.get(tag) or _str_node(tag)
        return b"C" + _CHUNK.pack(*fields) + node
    except struct.error as exc:
        raise TypeError(f"cannot serialize Chunk fields: {exc}") from None


def chunk_list(n: int, parts: list) -> tuple[list, int]:
    """The item of a list of *n* ``C`` nodes as :func:`encode` gives one:
    a list head, then *parts* (each node's :func:`chunk_node` and its
    words) in order, left where they are."""
    head = b"[" + _count(n)
    size = len(head) + sum(map(len, parts))
    return [_HEADER.pack(_TAG_ITEM, size) + head, *parts], _HEADER.size + size


_ENCODERS = {
    type(None): lambda obj, parts, depth: parts.append(b"n"),
    bool: lambda obj, parts, depth: parts.append(b"t" if obj else b"f"),
    int: _enc_int,
    float: lambda obj, parts, depth: parts.append(b"d" + _F64.pack(obj)),
    str: lambda obj, parts, depth: parts.append(_str_node(obj)),
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
    _enc_nodes((obj,), parts, depth)


def encode(obj: Any) -> tuple[list, int]:
    """*obj*'s item → (pieces, their length): ``b"".join(pieces)`` is
    :func:`serialize`, and an array's buffer is a view of the array, for
    whoever stores the item to make its one copy.

    Raises ``TypeError`` naming the first unsupported type met, before
    any byte is produced."""
    parts: list = [b""]
    _encode(obj, parts, 0)
    nbytes = sum(map(len, parts)) + _HEADER.size
    parts[0] = _HEADER.pack(_TAG_ITEM, nbytes - _HEADER.size)
    return parts, nbytes


def serialize(obj: Any) -> bytes:
    """Encode *obj* to one self-describing item (module docstring)."""
    return b"".join(encode(obj)[0])


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


#: the text of every short ``str`` node met, by its UTF-8 bytes
_STR_TEXT: dict[bytes, str] = {}


def _text(raw: bytes) -> str:
    text = _STR_TEXT.get(raw)
    if text is None:
        try:
            text = str(raw, "utf-8", "surrogatepass")
        except UnicodeDecodeError:
            _fail("str is not UTF-8")
        if len(raw) <= _MEMO_STR and len(_STR_TEXT) < _MEMO_MAX:
            _STR_TEXT[raw] = text
    return text


@lru_cache(maxsize=256)
def _array_meta(meta: bytes) -> tuple[np.dtype, tuple, int]:
    """Parse what :func:`_array_header` packed → (dtype, shape, nbytes);
    once per distinct header, like the packing."""
    mv = memoryview(meta)
    end = len(meta)
    if not end or 1 + 8 * mv[0] > end:
        _fail("truncated array shape")
    shape = struct.unpack_from(f"<{mv[0]}Q", mv, 1)
    spec, off = _decode(mv, 1 + 8 * len(shape), end, 0, False)
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


def _dec_array(
    mv: memoryview, off: int, end: int, own: bool
) -> tuple[np.ndarray, int]:
    if off < end and mv[off] < 0xFF:
        # only one-byte-count headers are memoised, so the memo's keys are short
        n = mv[off]
        if off + 1 + n > end:
            _fail(f"{n} bytes announced, {end - off - 1} left")
        dtype, shape, nbytes = _array_meta(mv[off + 1 : off + 1 + n].tobytes())
        off += 1 + n
    else:
        meta, off = _dec_raw(mv, off, end)
        dtype, shape, nbytes = _array_meta.__wrapped__(meta.tobytes())
    if off + nbytes > end:
        _fail(f"array of {nbytes} bytes announced, {end - off} left")
    try:
        arr = np.ndarray(shape, dtype, mv, off)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(f"bad array shape {shape!r} ({exc})")
    return (arr if own else arr.copy()), off + nbytes


def _dec_nodes(
    mv: memoryview, off: int, end: int, depth: int, own: bool, n: int, out: list
) -> int:
    """Decode *n* nodes from ``mv[off:end]`` into *out* → the offset past
    them.  Short ``str``, arrays and one-byte ``int`` — what a context or a
    bundle is mostly made of — are read here, without a call per node."""
    append = out.append
    for _ in range(n):
        if off >= end:
            _fail("truncated node")
        tag = mv[off]
        if tag == _STR and off + 1 < end and mv[off + 1] < 0xFF:
            stop = off + 2 + mv[off + 1]
            if stop > end:
                _fail(f"{mv[off + 1]} bytes announced, {end - off - 2} left")
            raw = mv[off + 2 : stop].tobytes()
            text = _STR_TEXT.get(raw)
            append(text if text is not None else _text(raw))
            off = stop
        elif tag == _ARRAY:
            x, off = _dec_array(mv, off + 1, end, own)
            append(x)
        elif tag == _INT1 and off + 1 < end:
            append(mv[off + 1])
            off += 2
        else:
            x, off = _decode(mv, off, end, depth, own)
            append(x)
    return off


def _decode(
    mv: memoryview, off: int, end: int, depth: int, own: bool
) -> tuple[Any, int]:
    """Decode the node at ``mv[off:end]`` → (value, offset past it).  Its
    arrays are views of *mv* when *own*, else copies."""
    if off >= end:
        _fail("truncated node")
    tag = mv[off]
    off += 1
    if tag == _TUPLE or tag == _LIST or tag == _DICT:
        if depth >= _MAX_DEPTH:
            _fail(f"nested deeper than {_MAX_DEPTH}")
        n, off = _dec_count(mv, off, end)
        width = 2 if tag == _DICT else 1
        if n * width > end - off:
            _fail(f"{n} entries announced, {end - off} bytes left")
        items: list = []
        off = _dec_nodes(mv, off, end, depth + 1, own, n * width, items)
        if tag == _LIST:
            return items, off
        if tag == _TUPLE:
            return tuple(items), off
        out: dict = {}
        for k, v in zip(items[::2], items[1::2]):
            try:
                out[k] = v
            except TypeError:
                _fail(f"unhashable dict key of type {type(k).__name__}")
        return out, off
    if tag == _STR:
        raw, off = _dec_raw(mv, off, end)
        return _text(raw.tobytes()), off
    if tag == _ARRAY:
        return _dec_array(mv, off, end, own)
    if tag == _INT1:
        if off >= end:
            _fail("truncated number")
        return mv[off], off + 1
    if tag in _FIXED:
        st = _FIXED[tag]
        if off + st.size > end:
            _fail("truncated number")
        return st.unpack_from(mv, off)[0], off + st.size
    if tag == _NONE:
        return None, off
    if tag == _TRUE:
        return True, off
    if tag == _FALSE:
        return False, off
    if tag == _BYTES:
        raw, off = _dec_raw(mv, off, end)
        return raw.tobytes(), off
    if tag == _BIGINT:
        raw, off = _dec_raw(mv, off, end)
        return int.from_bytes(raw, "little", signed=True), off
    if tag == _SCALAR:
        arr, off = _dec_array(mv, off, end, False)
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
    ``data[start:stop]`` and ends in its ``fields[8]`` words), in one
    pass.  Anything else is a one-line ``ValueError``; a corrupt node's
    own error comes before the verdict that the item is not a bundle."""
    mv = memoryview(data)
    end = _item_end(mv)
    off = _HEADER.size + 1
    if off > end or mv[off - 1] != _LIST:
        _fail("not a list of Chunks")
    n, off = _dec_count(mv, off, end)
    if n > end - off:
        _fail(f"{n} entries announced, {end - off} bytes left")
    run, unpack, head = [], _CHUNK.unpack_from, 1 + _CHUNK.size
    for _ in range(n):
        if off >= end or mv[off] != _CHUNK_TAG:
            _decode(mv, off, end, 1, False)
            _fail("not a list of Chunks")
        at = off + head
        if at > end:
            _fail("truncated Chunk")
        fields = unpack(mv, off + 1)
        tag = mv[at] if at < end else None
        if tag == _NONE:
            ctag, at = None, at + 1
        elif tag == _STR:
            raw, at = _dec_raw(mv, at + 1, end)
            raw = raw.tobytes()
            ctag = _STR_TEXT.get(raw) or _text(raw)
        else:
            _decode(mv, at, end, 1, False)
            _fail("Chunk tag is neither a str nor None")
        stop = at + 8 * fields[8]
        if stop > end:
            _fail(f"Chunk of {fields[8]} words announced, {end - at} bytes left")
        run.append((off, stop, ctag, fields))
        off = stop
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
    return _deserialize(data, False)


def decode_owned(buf: np.ndarray) -> Any:
    """:func:`deserialize` of a buffer the caller hands over: the arrays in
    the result are writable views of *buf* (unaligned where the format puts
    them so), not copies.  *buf* must serve nothing else afterwards — it
    becomes the memory of the value."""
    return _deserialize(buf, True)


def _deserialize(data, own: bool) -> Any:
    mv = memoryview(data)
    end = _item_end(mv)
    obj, off = _decode(mv, _HEADER.size, end, 0, own)
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
