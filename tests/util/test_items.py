"""Unit tests for item accounting and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.items import (
    ITEM_BYTES,
    blocks_needed,
    bytes_to_items,
    deserialize,
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
#: ``serialize(GOLDEN_ARRAYS[name]).hex()`` as printed by commit 8b0477d
GOLDEN = {
    "zero_d": (
        "4e45000000000000008005953a000000000000008c056e756d7079948c05647479706594"
        "93948c02663894898887945294284b038c013c944e4e4e4affffffff4affffffff4b0074"
        "94622986942e0000000000001e40"
    ),
    "empty": (
        "4e4a000000000000008005953f000000000000008c056e756d7079948c05647479706594"
        "93948c02693494898887945294284b038c013c944e4e4e4affffffff4affffffff4b0074"
        "94624b004b03869486942e"
    ),
    "non_contiguous": (
        "4e4a000000000000008005953f000000000000008c056e756d7079948c05647479706594"
        "93948c02693894898887945294284b038c013c944e4e4e4affffffff4affffffff4b0074"
        "94624b024b03869486942e0100000000000000030000000000000005000000000000000d"
        "000000000000000f000000000000001100000000000000"
    ),
    "structured": (
        "4ea40000000000000080059599000000000000008c056e756d7079948c05647479706594"
        "93948c02563994898887945294284b038c017c944e8c0161948c01629486947d94286807"
        "68028c02693194898887945294284b0368064e4e4e4affffffff4affffffff4b00749462"
        "4b008694680868028c02663894898887945294284b038c013e944e4e4e4affffffff4aff"
        "ffffff4b007494624b018694754b094b014b107494624b02859486942e01400400000000"
        "000003c010000000000000"
    ),
    "big_endian": (
        "4e48000000000000008005953d000000000000008c056e756d7079948c05647479706594"
        "93948c02753494898887945294284b038c013e944e4e4e4affffffff4affffffff4b0074"
        "94624b05859486942e0000000000000001000000020000000300000004"
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

    def test_nested_with_arrays_uses_pickle_path(self):
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
        """Recorded at commit 8b0477d, before the header memo: the wire and
        disk format may not move by one byte (block counts depend on it)."""
        arr = GOLDEN_ARRAYS[name]
        for _hit in range(2):
            assert serialize(arr).hex() == GOLDEN[name]
            out = deserialize(bytes.fromhex(GOLDEN[name]) + b"\x00" * 13)
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert out.tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_equal_dtypes_that_pickle_differently_bypass_the_memo(self):
        plain = np.arange(3, dtype=np.int64)
        tagged = plain.astype(np.dtype(np.int64, metadata={"unit": "m"}))
        assert tagged.dtype == plain.dtype
        first, second = serialize(tagged), serialize(plain)
        assert first != second  # the metadata is on the wire
        assert serialize(plain) == second and serialize(tagged) == first
        assert deserialize(first).dtype.metadata == {"unit": "m"}

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
