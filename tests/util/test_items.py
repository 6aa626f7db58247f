"""Unit tests for item accounting and serialization."""

from __future__ import annotations

import hashlib
import json
import pickle  # what format 2 replaced: the size yardstick of the last class
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.items import (
    ITEM_BYTES,
    blocks_needed,
    bytes_to_items,
    chunk_index,
    chunk_list,
    chunk_node,
    deserialize,
    encode,
    item_count,
    serialize,
)


GOLDEN_ARRAYS = {
    "zero_d": np.array(7.5),
    "empty": np.zeros((0, 3), dtype=np.int32),
    "non_contiguous": np.arange(24, dtype=np.int64).reshape(4, 6)[::2, 1::2],
    "structured": np.array([(1, 2.5), (3, -4.0)], dtype=[("a", "i1"), ("b", ">f8")]),
    "big_endian": np.arange(5, dtype=">u4"),
}
#: ``serialize(GOLDEN_ARRAYS[name]).hex()`` as printed by the commit that
#: introduced item format 2 (PR 22)
GOLDEN = {
    "zero_d": (
        "54100000000000000061060073033c66380000000000001e40"
    ),
    "empty": (
        "5418000000000000006116020000000000000000030000000000000073033c6934"
    ),
    "non_contiguous": (
        "5448000000000000006116020200000000000000030000000000000073033c6938010000"
        "0000000000030000000000000005000000000000000d000000000000000f000000000000"
        "001100000000000000"
    ),
    "structured": (
        "543300000000000000611f0102000000000000005b02280273016173037c693128027301"
        "6273033e663801400400000000000003c010000000000000"
    ),
    "big_endian": (
        "542400000000000000610e01050000000000000073033e75340000000000000001000000"
        "020000000300000004"
    ),
}


def chunk(fields: tuple, tag, words: np.ndarray) -> list:
    """The pieces of one ``C`` node: its head, then its words."""
    return [chunk_node(fields, tag), words.tobytes()]


#: (src, fdest, msg_seq, first, stride, total_words, nbytes, size_items,
#: n_words), tag, words
CHUNK_A = chunk((1, 2, 0, 3, 8, 40, 317, 40, 5), None, np.arange(5, dtype=np.uint64))
CHUNK_B = chunk((7, 2, 1, 0, 8, 9, 70, 9, 2), "t", np.array([2**64 - 1, 6], dtype=np.uint64))


def item(body: bytes, tag: bytes = b"T") -> bytes:
    return struct.pack("<cQ", tag, len(body)) + body


def chunk_item(n: int, parts: list) -> bytes:
    """The bytes of ``chunk_list``'s item: the join of its pieces."""
    pieces, nbytes = chunk_list(n, parts)
    assert nbytes == sum(map(len, pieces))
    return b"".join(pieces)


#: ``serialize(...).hex()`` of ``[CHUNK_A, CHUNK_B, 70000]`` and ``(CHUNK_B,
#: CHUNK_A)`` as printed, with ``Chunk`` records, by the commit before a
#: run of ``C`` nodes decoded in one loop; built here from the same fields
GOLDEN_CHUNKS = {
    "list_then_int": (
        chunk_item(3, CHUNK_A + CHUNK_B + [serialize(70000)[9:]]),
        "54d5000000000000005b03430100000000000000020000000000000000000000000000"
        "000300000000000000080000000000000028000000000000003d010000000000002800"
        "00000000000005000000000000006e0000000000000000010000000000000002000000"
        "000000000300000000000000040000000000000043070000000000000002000000000000"
        "000100000000000000000000000000000008000000000000000900000000000000460000"
        "000000000009000000000000000200000000000000730174ffffffffffffffff06000000"
        "000000003470110100",
    ),
    "tuple": (
        item(b"(\x02" + b"".join(CHUNK_B + CHUNK_A)),
        "54d000000000000000280243070000000000000002000000000000000100000000000000"
        "000000000000000008000000000000000900000000000000460000000000000009000000"
        "000000000200000000000000730174ffffffffffffffff06000000000000004301000000"
        "00000000020000000000000000000000000000000300000000000000080000000000000028"
        "000000000000003d01000000000000280000000000000005000000000000006e00000000"
        "000000000100000000000000020000000000000003000000000000000400000000000000",
    ),
}


class TestSerializeRoundTrip:
    def test_int64_array(self):
        arr = np.arange(1000, dtype=np.int64)
        out = deserialize(serialize(arr))
        assert np.array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_float_array(self):
        arr = np.linspace(-1e9, 1e9, 317)
        assert np.array_equal(deserialize(serialize(arr)), arr)

    def test_2d_array_shape_preserved(self):
        arr = np.arange(60).reshape(5, 12)
        out = deserialize(serialize(arr))
        assert out.shape == (5, 12)
        assert np.array_equal(out, arr)

    def test_empty_array(self):
        arr = np.array([], dtype=np.float64)
        out = deserialize(serialize(arr))
        assert out.size == 0
        assert out.dtype == np.float64

    def test_zero_d_array(self):
        arr = np.array(42.5)
        out = deserialize(serialize(arr))
        assert out.shape == ()
        assert out == 42.5

    def test_non_contiguous_array(self):
        arr = np.arange(100).reshape(10, 10)[::2, ::3]
        assert np.array_equal(deserialize(serialize(arr)), arr)

    def test_dict_payload(self):
        obj = {"a": [1, 2, 3], "b": "text", "c": (4.5, None)}
        assert deserialize(serialize(obj)) == obj

    def test_nested_with_arrays(self):
        obj = {"x": np.arange(5), "y": "meta"}
        out = deserialize(serialize(obj))
        assert np.array_equal(out["x"], np.arange(5))
        assert out["y"] == "meta"

    def test_padding_is_harmless(self):
        # engines store objects in whole blocks: trailing zeros must be ignored
        data = serialize({"k": 1}) + b"\x00" * 37
        assert deserialize(data) == {"k": 1}

    def test_structured_dtype(self):
        dt = np.dtype([("a", np.int32), ("b", np.float64)])
        arr = np.zeros(4, dtype=dt)
        arr["a"] = [1, 2, 3, 4]
        out = deserialize(serialize(arr))
        assert np.array_equal(out["a"], arr["a"])

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_ndarray_bytes_are_those_of_the_unmemoised_codec(self, name):
        """Recorded when item format 2 was introduced: the disk format may
        not move by one byte (block counts depend on it), on a header-memo
        miss or a hit."""
        arr = GOLDEN_ARRAYS[name]
        for _hit in range(2):
            assert serialize(arr).hex() == GOLDEN[name]
            out = deserialize(bytes.fromhex(GOLDEN[name]) + b"\x00" * 13)
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert out.tobytes() == np.ascontiguousarray(arr).tobytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CHUNKS))
    def test_chunk_bundle_bytes_are_frozen(self, name):
        """A ``C`` node is written only by ``chunk_node``, read only by
        ``chunk_index``, and refused by ``deserialize`` like any unknown
        tag: the frozen items hold two ``C`` nodes each."""
        built, want = GOLDEN_CHUNKS[name]
        assert built.hex() == want
        with pytest.raises(ValueError) as err:
            deserialize(built + bytes(5))
        assert str(err.value) == "corrupt item: unknown node tag b'C'"
        # the same two nodes as a bundle: the index gives back their fields
        bundle = chunk_item(2, CHUNK_A + CHUNK_B)
        end, index = chunk_index(bundle + bytes(5))
        assert end == len(bundle) == 9 + 2 + len(b"".join(CHUNK_A + CHUNK_B))
        assert [(tag, f) for _start, _stop, tag, f in index] == [
            (None, (1, 2, 0, 3, 8, 40, 317, 40, 5)), ("t", (7, 2, 1, 0, 8, 9, 70, 9, 2))
        ]
        for (start, stop, _tag, f), pieces in zip(index, (CHUNK_A, CHUNK_B)):
            assert bundle[start:stop] == b"".join(pieces)
            assert bundle[stop - 8 * f[8] : stop] == pieces[1]

    def test_equal_dtypes_that_pickle_differently_bypass_the_memo(self):
        """Format 2 spells a dtype as ``dtype.str``: equal dtypes give equal
        bytes whichever of them the header memo saw first, and the metadata
        one of them carries is neither written nor handed to the other."""
        plain = np.arange(3, dtype=np.int64)
        tagged = plain.astype(np.dtype(np.int64, metadata={"unit": "m"}))
        assert tagged.dtype == plain.dtype
        first, second = serialize(tagged), serialize(plain)
        assert first == second
        assert b"unit" not in first
        for raw in (first, second):
            assert deserialize(raw).dtype.metadata is None
        # a different dtype of the same width is a different spelling
        assert serialize(plain.view(np.uint64)) != second

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown serialization tag"):
            deserialize(b"Z" + b"\x00" * 16)

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.int64, np.float64, np.uint32]),
            shape=hnp.array_shapes(max_dims=2, max_side=50),
        )
    )
    def test_roundtrip_property(self, arr):
        out = deserialize(serialize(arr))
        assert out.shape == arr.shape
        assert np.array_equal(out, arr, equal_nan=True)


class TestItemCount:
    def test_array_by_buffer_size(self):
        assert item_count(np.zeros(100, dtype=np.int64)) == 100
        assert item_count(np.zeros(100, dtype=np.int32)) == 50

    def test_scalar_is_one(self):
        assert item_count(7) == 1
        assert item_count(3.14) == 1

    def test_numeric_list_by_length(self):
        assert item_count([1, 2, 3, 4]) == 4

    def test_bytes(self):
        assert item_count(b"x" * 16) == 2
        assert item_count(b"x") == 1

    def test_generic_object_positive(self):
        assert item_count({"some": "dict"}) >= 1

    def test_empty_array_still_charged_one(self):
        assert item_count(np.array([])) == 1


class TestBlockArithmetic:
    def test_bytes_to_items_rounds_up(self):
        assert bytes_to_items(1) == 1
        assert bytes_to_items(8) == 1
        assert bytes_to_items(9) == 2

    def test_blocks_needed(self):
        assert blocks_needed(0, 64) == 0
        assert blocks_needed(1, 64) == 1
        assert blocks_needed(64, 64) == 1
        assert blocks_needed(65, 64) == 2

    def test_item_is_eight_bytes(self):
        assert ITEM_BYTES == 8


# --------------------------------------------------------------------------
# Item format 2 under generated trees and hostile bytes
# --------------------------------------------------------------------------

CLOSED_SET = (type(None), bool, int, float, str, bytes, np.generic, np.ndarray,
              tuple, list, dict)

INT_EDGES = [
    e + d
    for e in (0, 0xFF, 0x100, 0xFFFF, 0x10000, 2**31, -(2**31), 2**63, -(2**63),
              2**64, 2**200, -(2**200))
    for d in (-1, 0, 1)
]
DTYPES = [
    np.dtype(t)
    for t in ("?", "i1", "<i2", ">i4", "<i8", "u1", ">u2", "<u8", "<f4", ">f8", "<c16",
              "S3", "<U2", "<M8[ns]", "<m8[s]", [("a", "i1"), ("b", ">f8")],
              [("p", "<u2", (2,)), ("q", [("r", "?"), ("s", "<f4")])])
]


def same(a, b) -> bool:
    """Type-exact, bit-exact equality over the closed set."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, np.generic):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


def footprint(obj) -> int:
    """Bytes of payload a decoded value holds (the allocation bound)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.nbytes
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return len(obj) + sum(map(footprint, obj))
    if isinstance(obj, dict):
        return len(obj) + sum(footprint(k) + footprint(v) for k, v in obj.items())
    return 1


def in_closed_set(obj) -> bool:
    if isinstance(obj, (tuple, list)):
        return all(map(in_closed_set, obj))
    if isinstance(obj, dict):
        return all(in_closed_set(k) and in_closed_set(v) for k, v in obj.items())
    if isinstance(obj, np.ndarray):
        return not obj.dtype.hasobject
    return isinstance(obj, CLOSED_SET)


def _views(arr: np.ndarray):
    """The array itself and its non-contiguous faces."""
    yield arr
    if arr.ndim:
        yield arr[::2]
        yield arr[::-1]
    if arr.ndim > 1:
        yield arr.T


arrays = st.sampled_from(DTYPES).flatmap(
    lambda dt: hnp.arrays(
        dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    )
).flatmap(lambda arr: st.sampled_from(list(_views(arr))))
# an empty np.bytes_ / np.str_ has a zero-itemsize dtype, which the codec
# refuses on purpose (TypeError at store time), so it is not a round-trip case
scalars = (
    st.sampled_from(DTYPES[:-2]).flatmap(hnp.from_dtype)
    .filter(lambda s: s.dtype.itemsize > 0)
)
hashable = (
    st.none() | st.booleans() | st.integers() | st.sampled_from(INT_EDGES)
    | st.floats(allow_nan=False) | st.text(max_size=8) | st.binary(max_size=8)
)
leaves = (
    hashable | st.floats() | st.text(max_size=300) | st.binary(max_size=300)
    | arrays | scalars
)
trees = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(hashable, inner, max_size=4)
    ),
    max_leaves=12,
)

def read_bundle(data) -> list:
    """What ``chunk_index`` finds in *data*, as closed-set values: per chunk
    its tag, its fields and a view of its words."""
    _end, index = chunk_index(data)
    return [(tag, list(f), np.frombuffer(data, np.uint64, f[8], stop - 8 * f[8]))
            for _start, stop, tag, f in index]


#: valid items the hostile-bytes tests mutate, each with its reader: a
#: ListRanking-shaped context, a multi-part bundle, a balanced-routing
#: bundle, a deep scalar tree
VICTIMS = [
    (serialize({"pid": 3, "phase": "splice", "level": -1, "w": np.linspace(0, 1, 5),
                "removed": np.full(5, -1, np.int16), "alive": np.ones(5, bool)}),
     deserialize),
    (serialize([("coin", np.arange(6).reshape(3, 2)), ("count", 70000), (None, 2.5)]),
     deserialize),
    (chunk_item(2, CHUNK_A + chunk((7, 2, 1, 0, 8, 9, 70, 9, 2), "pred",
                                   np.zeros(2, dtype=np.uint64))),
     read_bundle),
    (serialize({"k": [(), [], {}, b"\x00\xff", 2**70, np.float32(1.5), True, None],
                2: GOLDEN_ARRAYS["structured"]}),
     deserialize),
]


class TestFormat2RoundTrip:
    @given(trees, st.integers(0, 40))
    def test_generated_trees_round_trip(self, tree, pad):
        raw = serialize(tree)
        assert type(raw) is bytes
        out = deserialize(raw + b"\x00" * pad)
        assert same(out, tree)
        assert same(deserialize(memoryview(raw)), tree)

    @given(trees)
    def test_encode_pieces_join_to_the_item(self, tree):
        """What a store writes piece by piece is ``serialize``'s item, and
        an array's buffer is a piece of its own, not a copy."""
        pieces, nbytes = encode(tree)
        assert b"".join(pieces) == serialize(tree) and nbytes == sum(map(len, pieces))
        arrays = [x for x in (tree if isinstance(tree, list) else [tree])
                  if isinstance(x, np.ndarray) and x.flags.c_contiguous and x.size]
        for arr in arrays:
            assert any(isinstance(p, memoryview) and np.shares_memory(np.asarray(p), arr)
                       for p in pieces)

    @pytest.mark.parametrize("n", INT_EDGES)
    def test_ints_at_every_width_boundary(self, n):
        out = deserialize(serialize(n))
        assert type(out) is int and out == n

    def test_int_widths_are_those_pickle_uses(self):
        sizes = [len(serialize(n)) - 9 for n in (0xFF, 0xFFFF, 2**31 - 1, -1, 2**63 - 1)]
        assert sizes == [2, 3, 5, 5, 9]

    def test_decoded_arrays_own_their_memory(self):
        buf = bytearray(serialize({"a": np.arange(4)}))
        out = deserialize(buf)
        buf[:] = bytes(len(buf))
        assert np.array_equal(out["a"], np.arange(4)) and out["a"].flags.writeable

    def test_dict_subclass_and_array_subclass_encode_as_their_base(self):
        from repro.cgm.program import Context

        ctx = Context(a=1, b=np.arange(3).view(np.recarray))
        out = deserialize(serialize(ctx))
        assert type(out) is dict and type(out["b"]) is np.ndarray
        assert serialize(ctx) == serialize({"a": 1, "b": np.arange(3)})


class TestFormat2Refusals:
    @pytest.mark.parametrize("bad", [
        {1, 2}, frozenset(), object(), 1j, range(3), bytearray(b"x"),
        np.array([None, "x"], dtype=object), np.zeros(2, dtype=[("a", "O")]),
        np.zeros(2, dtype=np.dtype([("a", "i1"), ("b", "f8")], align=True)),
        np.zeros(2, dtype="V0"), type("Point", (tuple,), {})((1, 2)),
    ], ids=lambda b: type(b).__name__)
    def test_unsupported_values_are_one_line_type_errors(self, bad):
        for wrapped in (bad, {"ok": 1, "nested": [0, (bad,)]}):
            with pytest.raises(TypeError, match="cannot serialize") as err:
                serialize(wrapped)
            assert "\n" not in str(err.value)

    @pytest.mark.parametrize("fields, tag", [
        ((0, 0, 0, 0, 1, 1, 8, 1, 1), 5),
        ((0, 0, 0, 0, 1, 2**70, 8, 1, 1), None),
    ], ids=["tag", "field"])
    def test_a_chunk_node_refuses_what_its_format_cannot_hold(self, fields, tag):
        with pytest.raises(TypeError, match="cannot serialize") as err:
            chunk_node(fields, tag)
        assert "\n" not in str(err.value)

    def test_the_error_names_the_type(self):
        class Point:
            pass

        with pytest.raises(TypeError, match=r"Point"):
            serialize([Point()])
        with pytest.raises(TypeError, match=r"builtins\.set"):
            serialize({"s": set()})

    def test_self_reference_and_depth_are_bounded(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="nested deeper"):
            serialize(loop)
        deep: list = []
        for _ in range(31):
            deep = [deep]
        assert deserialize(serialize(deep)) == deep
        with pytest.raises(ValueError, match="nested deeper"):
            serialize([deep])

    @pytest.mark.parametrize("victim", range(len(VICTIMS)))
    def test_every_truncation_is_a_value_error(self, victim):
        raw, read = VICTIMS[victim]
        for cut in range(len(raw)):
            with pytest.raises(ValueError):
                read(raw[:cut])
            # ... and so is a body cut short under an honest header
            if cut >= 9:
                with pytest.raises(ValueError):
                    read(item(raw[9:cut]))

    @pytest.mark.parametrize("body", [
        b"[\xff\xff\xff\xff\xff",                         # 4 G entries, none present
        b"{\xfe" + b"n" * 20,                             # 254 pairs in 20 bytes
        b"s\xff\x00\x00\x00\x10abc",                      # 256 MiB of text in 3 bytes
        b"b\x09abc",
        b"I\xff\xff\xff\xff\x7f",
        b"a\x0e\x01" + struct.pack("<Q", 2**61) + b"s\x03<i8" + bytes(64),
        b"a\x16\x02" + struct.pack("<QQ", 2**40, 2**40) + b"s\x03<i8",
        b"a\x0e\x01" + struct.pack("<Q", 2**63) + b"s\x03<V0",   # no bytes, huge shape
        b"a\x05\xffs\x03<i8",                             # ndim 255, no dims
        b"a\x04\x00s\x01O" + bytes(8),                    # object dtype
        b"a\x0c\x00[\x01(\x02s\x01as\x01O" + bytes(8),    # object field
        b"a\x06\x00s\x03zzz",                             # no such dtype
        b"a\x03\x00\x31\x05",                             # dtype spec is an int
        b"g\x0e\x01" + struct.pack("<Q", 1) + b"s\x03<i8" + bytes(8),  # scalar with shape
        b"C" + struct.pack("<8qQ", *[0] * 8, 2**60) + b"n",
        b"C" + struct.pack("<8qQ", *[0] * 8, 0) + b"\x31\x05",      # tag is an int
        b"{\x01[\x00n",                                   # unhashable key
        b"s\x02\xff\xfe",                                 # not UTF-8
        b"n" + b"n",                                      # stray bytes inside the item
        b"Z",
        b"",
    ], ids=repr)
    def test_oversized_and_malformed_bodies_are_value_errors(self, body):
        with pytest.raises(ValueError) as err:
            deserialize(item(body) + bytes(7))
        assert "\n" not in str(err.value)

    #: a ``C`` node's bytes up to and including its tag (the fields alone
    #: are the first 73), then the words
    _A = b"".join(CHUNK_A)

    @pytest.mark.parametrize("body, message", [
        (b"[\x02" + _A + _A[:40], "truncated Chunk"),
        (b"[\x02" + _A + _A[:-9], "Chunk of 5 words announced, 31 bytes left"),
        (b"[\x03" + _A + _A + b"Z", "unknown node tag b'Z'"),
        (b"[\x02" + _A + _A[:73] + b"\x31\x05", "Chunk tag is neither a str nor None"),
        (b"[\x02" + _A + _A[:73] + b"s\xff" + struct.pack("<I", 1 << 20) + b"abc",
         "1048576 bytes announced, 3 left"),
        (b"(\xff" + struct.pack("<I", 3) + _A + _A, "not a list of Chunks"),
        (b"[\x02" + _A + _A[:73] + b"s\x09ab", "9 bytes announced, 2 left"),
        (b"[\x02" + _A + _A[:73] + b"s\x02\xff\xfe", "str is not UTF-8"),
        (b"[\x02" + _A + _A[:73], "truncated node"),
        (b"[\x02" + _A + _A[:73] + b"s", "truncated count"),
    ], ids=["header", "words", "run-then-bad-node", "tag-int", "tag-long-count",
            "list-long-count", "tag-short-count", "tag-utf8", "no-tag", "tag-no-count"])
    def test_a_hostile_chunk_run_is_the_parents_error(self, body, message):
        """Each message is what the per-node decoder said before runs of
        ``C`` nodes were decoded in one loop, read now by the bundle reader.
        One moved: a tuple is no bundle, so ``list-long-count`` is refused
        as such instead of by its third, missing node."""
        with pytest.raises(ValueError) as err:
            chunk_index(item(body) + bytes(7))
        assert str(err.value) == f"corrupt item: {message}"

    def test_depth_bomb_is_a_value_error_not_a_recursion_error(self):
        with pytest.raises(ValueError, match="nested deeper"):
            deserialize(item(b"[\x01" * 100_000 + b"n"))
        with pytest.raises(ValueError, match="nested deeper"):
            deserialize(item(b"a\xff" + struct.pack("<I", 100_006) + b"\x00"
                             + b"[\x01" * 50_000 + b"s\x03<i8"))

    def test_items_of_the_retired_format_are_refused_not_unpickled(self):
        body = pickle.dumps({"k": 1}, protocol=5)
        with pytest.raises(ValueError, match="retired item format 1"):
            deserialize(item(body, b"P"))
        meta = pickle.dumps((np.dtype("<i8"), (2,)), protocol=5)
        with pytest.raises(ValueError, match="retired item format 1"):
            deserialize(item(meta, b"N") + bytes(16))

    @pytest.mark.filterwarnings("ignore:Data type alias:DeprecationWarning")
    @pytest.mark.parametrize("victim", range(len(VICTIMS)))
    def test_every_single_byte_flip_decodes_to_the_closed_set_or_raises(self, victim):
        raw, read = VICTIMS[victim]
        for pos in range(len(raw)):
            for mask in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF):
                bent = bytearray(raw)
                bent[pos] ^= mask
                try:
                    out = read(bent)
                except ValueError:
                    continue
                assert in_closed_set(out), (pos, mask)
                assert footprint(out) <= len(raw), (pos, mask)


class TestFormat2IsNeverLonger:
    """``len(serialize(x))`` against the parent's bytes — header + protocol-5
    pickle, or header + pickled ``(dtype, shape)`` + buffer for a bare array
    — for every context and bundle of one op of each e2e workload."""

    @staticmethod
    def _parent_len(obj) -> int:
        if isinstance(obj, np.ndarray) and obj.dtype != object:
            return 9 + len(pickle.dumps((obj.dtype, obj.shape), protocol=5)) + obj.nbytes
        return 9 + len(pickle.dumps(dict(obj) if isinstance(obj, dict) else obj, protocol=5))

    @pytest.fixture
    def captured(self, monkeypatch):
        from repro.core import par_engine

        seen: list[tuple[int, int]] = []

        def spy(obj):
            pieces, nbytes = encode(obj)
            seen.append((nbytes, self._parent_len(obj)))
            return pieces, nbytes

        monkeypatch.setattr(par_engine, "encode", spy)
        return seen

    @staticmethod
    def _one_op(workload: str) -> None:
        from repro.algorithms.collectives import partition_array
        from repro.algorithms.graphs.api import list_rank
        from repro.algorithms.sorting import SampleSort
        from repro.cgm.config import MachineConfig
        from repro.em.runner import em_run, em_sort
        from repro.service.client import run_spec_local

        rng = np.random.default_rng(22)
        if workload == "sort_io":
            n = 1 << 18
            em_sort(rng.integers(0, 2**40, n), MachineConfig(N=n, v=8, D=2, B=16), "seq")
        elif workload == "rounds_listrank":
            n = 4096
            order = rng.permutation(n)
            succ = np.full(n, -1, dtype=np.int64)
            succ[order[:-1]] = order[1:]
            list_rank(succ, MachineConfig(N=n, v=8, D=2, B=64), engine="seq")
        elif workload == "scale_out":  # in-process: the spy lives in this interpreter
            n = 1 << 20
            cfg = MachineConfig(N=n, v=16, p=4, D=4, B=1024)
            data = rng.integers(0, 2**40, n)
            em_run(SampleSort(), partition_array(data, 16), cfg, "par", balanced=True,
                   overrides={"workers": 0})
        else:
            for op in ("sort", "permute", "transpose"):
                run_spec_local({"op": op, "n": 8192, "seed": 22,
                                "machine": {"v": 8, "D": 2, "B": 64}})

    @pytest.mark.parametrize(
        "workload", ["sort_io", "rounds_listrank", "scale_out", "service_mix"]
    )
    def test_no_context_or_bundle_grew(self, captured, workload):
        self._one_op(workload)
        assert len(captured) > 50
        assert [pair for pair in captured if pair[0] > pair[1]] == []
        assert sum(new for new, _ in captured) < sum(old for _, old in captured)


#: per e2e workload shape, what :class:`TestStoredBytesAreFrozen` hashes,
#: recorded before the codec's fast paths went in
STORED_DIGESTS = Path(__file__).parent / "data" / "stored_item_digests.json"


class TestStoredBytesAreFrozen:
    """Every item ``par_engine`` writes — each context and each message
    bundle, in the order they are stored — for one op of each e2e workload
    shape, against digests recorded at the commit before the codec's fast
    paths: a faster encoder must write the same bytes."""

    @staticmethod
    def digest(workload: str, monkeypatch) -> dict:
        from repro.core import par_engine

        chain = hashlib.sha256()
        seen = {"items": 0, "bytes": 0}
        block_run = par_engine.BlockRun

        def spy(buf, nblocks, block_bytes, *nbytes):
            # a run handed the encoder's pieces stores their join
            raw = b"".join(buf) if isinstance(buf, list) else bytes(buf)
            chain.update(hashlib.sha256(raw).digest())
            seen["items"] += 1
            seen["bytes"] += len(raw)
            return block_run(buf, nblocks, block_bytes, *nbytes)

        monkeypatch.setattr(par_engine, "BlockRun", spy)
        TestFormat2IsNeverLonger._one_op(workload)
        monkeypatch.undo()
        return {**seen, "sha256": chain.hexdigest()}

    @pytest.mark.parametrize(
        "workload", ["sort_io", "rounds_listrank", "scale_out", "service_mix"]
    )
    def test_every_stored_item_is_unchanged(self, monkeypatch, workload):
        want = json.loads(STORED_DIGESTS.read_text())[workload]
        assert self.digest(workload, monkeypatch) == want

    def test_a_fleet_stores_what_one_process_stores(self, tmp_path):
        """``scale_out``'s machine — balanced SampleSort at v = 16, p = 4,
        D = 4 on the mmap arena — at a reduced N: run by two workers it
        leaves the same tracks on every real's disks in its final
        checkpoint as run in one process, so the pieces that reach the
        arena on either side of a frame store what the spy above hashes."""
        from repro.algorithms.collectives import partition_array
        from repro.algorithms.sorting import SampleSort
        from repro.cgm.config import MachineConfig
        from repro.em.runner import em_run
        from repro.faults.checkpoint import CheckpointManager

        n = 1 << 18
        cfg = MachineConfig(N=n, v=16, p=4, D=4, B=64)
        data = np.random.default_rng(46).integers(0, 2**40, n)
        tracks = {}
        for workers in (0, 2):
            ck = str(tmp_path / f"ck{workers}")
            res = em_run(SampleSort(), partition_array(data, 16), cfg, "par", balanced=True,
                         checkpoint=ck, overrides={"workers": workers, "arena": "mmap",
                                                   "spill_dir": str(tmp_path / "spill")})
            assert np.array_equal(np.concatenate(res.outputs), np.sort(data))
            _header, snap = CheckpointManager(ck).load()
            assert snap["finished"]
            tracks[workers] = {r: a["tracks"] for r, a in snap["backend"]["arrays"].items()}
        assert sorted(tracks[0]) == [0, 1, 2, 3] and tracks[2] == tracks[0]
