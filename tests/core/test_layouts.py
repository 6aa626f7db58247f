"""Tests for the consecutive format and the staggered message matrix
(Figure 2): address math, full parallelism, and non-overlap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import (
    MessageMatrix,
    RegionAllocator,
    consecutive_addresses,
    consecutive_addresses_np,
)
from repro.pdm.block import Runs
from repro.util.validation import SimulationError


class TestConsecutiveFormat:
    def test_paper_definition(self):
        """block q -> disk (d+q) mod D, track T0 + (d+q)//D."""
        addrs = consecutive_addresses(nblocks=7, D=3, start_track=5, start_disk=1)
        expect = [(1, 5), (2, 5), (0, 5 + 1), (1, 6), (2, 6), (0, 7), (1, 7)]
        assert addrs == expect

    def test_full_parallelism(self):
        """Any D consecutive blocks land on D distinct disks."""
        D = 5
        addrs = consecutive_addresses(23, D, 0)
        for i in range(0, len(addrs) - D + 1):
            disks = [d for d, _ in addrs[i : i + D]]
            assert len(set(disks)) == D

    def test_zero_blocks(self):
        assert consecutive_addresses(0, 4, 0) == []


class TestMessageMatrixGeometry:
    def test_no_two_messages_share_an_address(self):
        """All (src, dest) slots of one copy are disjoint — full slots."""
        v, D, slot = 6, 4, 3
        mm = MessageMatrix(v, v, D, slot)
        seen: set[tuple[int, int]] = set()
        for j in range(v):
            for i in range(v):
                for a in mm.message_addresses(i, j, slot, parity=0):
                    assert a not in seen, f"overlap at {a} (src={i}, dest={j})"
                    seen.add(a)

    def test_copies_do_not_overlap(self):
        v, D, slot = 4, 3, 2
        mm = MessageMatrix(v, v, D, slot)
        a0 = {
            a
            for j in range(v)
            for i in range(v)
            for a in mm.message_addresses(i, j, slot, parity=0)
        }
        a1 = {
            a
            for j in range(v)
            for i in range(v)
            for a in mm.message_addresses(i, j, slot, parity=1)
        }
        assert not (a0 & a1)

    def test_stagger_formula(self):
        """block q of msg_ij -> disk (d_j + i*b' + q) mod D at track
        T_j + (d_j + i*b' + q) // D with d_j = (j b') mod D."""
        v, D, slot = 5, 3, 2
        mm = MessageMatrix(v, v, D, slot, base_track=10)
        i, j = 3, 2
        d_j = (j * slot) % D
        T_j = 10 + j * mm.band_height
        for q, (disk, track) in enumerate(mm.message_addresses(i, j, slot, 0)):
            lin = d_j + i * slot + q
            assert disk == lin % D
            assert track == T_j + lin // D

    def test_inbox_read_is_consecutive_and_parallel(self):
        """Reading a full inbox (all v messages at slot size) touches each
        disk the same number of times and in conflict-free runs of D."""
        v, D, slot = 6, 3, 2
        mm = MessageMatrix(v, v, D, slot)
        addrs = mm.inbox_addresses(2, [(i, slot) for i in range(v)], parity=0)
        # consecutive runs of D distinct disks
        for k in range(0, len(addrs) - D + 1, D):
            disks = [d for d, _ in addrs[k : k + D]]
            assert len(set(disks)) == D

    def test_writer_stagger_across_destinations(self):
        """One source writing its slot-size message to consecutive
        destinations hits distinct disks when gcd(b', D) = 1 — Figure 2's
        point — so the FIFO can emit fully parallel write cycles."""
        v, D, slot = 8, 4, 3  # gcd(3, 4) = 1
        mm = MessageMatrix(v, v, D, slot)
        i = 5
        first_blocks = [
            mm.message_addresses(i, j, 1, parity=0)[0][0] for j in range(v)
        ]
        for k in range(0, v - D + 1):
            assert len(set(first_blocks[k : k + D])) == D

    def test_oversized_message_rejected(self):
        mm = MessageMatrix(4, 4, 2, slot_blocks=2)
        with pytest.raises(ValueError, match="exceeds slot"):
            mm.message_addresses(0, 0, 3, 0)

    def test_bad_slot(self):
        with pytest.raises(ValueError):
            MessageMatrix(4, 4, 2, slot_blocks=0)

    @settings(max_examples=40, deadline=None)
    @given(
        v=st.integers(2, 8),
        D=st.integers(1, 6),
        slot=st.integers(1, 5),
    )
    def test_geometry_property(self, v, D, slot):
        """Disjointness holds for arbitrary (v, D, slot)."""
        mm = MessageMatrix(v, v, D, slot)
        seen = set()
        for j in range(v):
            for i in range(v):
                for a in mm.message_addresses(i, j, slot, parity=0):
                    assert a not in seen
                    seen.add(a)
        # everything stays inside the copy's track span
        assert all(t < mm.tracks_per_copy for _, t in seen)


def _pairs(runs: Runs, D: int) -> list[tuple[int, int]]:
    disks, tracks = runs.expand(D)
    return list(zip(disks.tolist(), tracks.tolist()))


class TestMemoisedAddressArrays:
    """(Named for what the ``_np`` spellings used to return.)  They return
    :class:`Runs` — a base track and linear runs — whose expansion equals
    the list-returning Figure-2 definitions block for block."""

    @settings(max_examples=60, deadline=None)
    @given(
        v=st.integers(2, 6), D=st.integers(1, 5), slot=st.integers(1, 4),
        parity=st.integers(0, 1), start=st.integers(0, 40), data=st.data(),
    )
    def test_equal_to_the_list_definitions(self, v, D, slot, parity, start, data):
        mm = MessageMatrix(v, v, D, slot, base_track=3)
        src, dest = data.draw(st.integers(0, v - 1)), data.draw(st.integers(0, v - 1))
        n = data.draw(st.integers(0, slot))
        by_src = [(i, data.draw(st.integers(0, slot))) for i in range(v)]
        assert _pairs(consecutive_addresses_np(n + 5, start, src), D) == (
            consecutive_addresses(n + 5, D, start, src)
        )
        assert _pairs(mm.message_addresses_np(src, dest, n, parity), D) == (
            mm.message_addresses(src, dest, n, parity)
        )
        inbox = mm.inbox_addresses_np(dest, by_src, parity)
        assert _pairs(inbox, D) == mm.inbox_addresses(dest, by_src, parity)
        assert inbox.nblocks == sum(n for _, n in by_src)
        assert len(inbox.runs) == v  # one run per source, however long

    def test_arrays_are_shared_and_read_only(self):
        """No array is shared any more: an address is an immutable,
        hashable value, equal whenever its arithmetic is."""
        mm = MessageMatrix(4, 4, 2, slot_blocks=3)
        for runs in (
            consecutive_addresses_np(7, 5, 1),
            mm.message_addresses_np(1, 2, 3, 0),
            mm.inbox_addresses_np(2, [(0, 3), (1, 1), (3, 2)], 1),
            mm.inbox_addresses_np(2, [], 1),
        ):
            with pytest.raises(AttributeError):
                runs.base = 0
            assert hash(runs) == hash(Runs(runs.base, runs.runs))
            for arr in runs.expand(2):
                assert arr.dtype == np.int64 and arr.size == runs.nblocks
        assert consecutive_addresses_np(7, 5, 1) == Runs(5, ((1, 7),))
        assert mm.inbox_addresses_np(2, [], 1).nblocks == 0

    def test_long_runs_are_recomputed_not_kept(self):
        """Nothing is kept and nothing needs to be: a run of a million
        blocks is the same three integers as a run of one."""
        n = 1 << 20
        mm = MessageMatrix(2, 2, 3, slot_blocks=n)
        assert consecutive_addresses_np(n, 5, 1) == Runs(5, ((1, n),))
        inbox = mm.inbox_addresses_np(1, [(0, n), (1, 2)], 0)
        assert inbox.runs == ((n % 3, n), (n % 3 + n, 2)) and inbox.nblocks == n + 2
        short = MessageMatrix(2, 2, 3, slot_blocks=40)
        assert _pairs(short.inbox_addresses_np(1, [(0, 40), (1, 2)], 0), 3) == (
            short.inbox_addresses(1, [(0, 40), (1, 2)], 0)
        )

    def test_slot_check_fires_on_every_request(self):
        mm = MessageMatrix(4, 4, 2, slot_blocks=2)
        for _ in range(2):
            with pytest.raises(ValueError, match="message of 3 blocks exceeds slot of 2"):
                mm.message_addresses_np(0, 0, 3, 0)
            with pytest.raises(ValueError, match="message of 3 blocks exceeds slot of 2"):
                mm.inbox_addresses_np(0, [(0, 1), (1, 3)], 0)
        assert _pairs(mm.message_addresses_np(0, 0, 2, 0), 2) == mm.message_addresses(0, 0, 2, 0)

    @pytest.mark.parametrize(
        "base, runs, text",
        [
            (-3, ((0, 2),), "negative track -3"),
            (0, ((-1, 2),), "run of 2 blocks at linear offset -1"),
            (0, ((0, 2), (4, -1)), "run of -1 blocks at linear offset 4"),
        ],
    )
    def test_a_hand_built_runs_is_checked_at_construction(self, base, runs, text):
        with pytest.raises(SimulationError, match=text):
            Runs(base, runs)


class TestRegionAllocator:
    def test_rows_cover_blocks(self):
        alloc = RegionAllocator(D=4, first_track=100)
        start, rows = alloc.alloc(10)
        assert start == 100
        assert rows * 4 >= 10

    def test_sequential_non_overlap(self):
        alloc = RegionAllocator(D=2, first_track=0)
        r1 = alloc.alloc(5)
        r2 = alloc.alloc(3)
        assert r2[0] >= r1[0] + r1[1]

    def test_zero_block_alloc_still_one_row(self):
        alloc = RegionAllocator(D=2, first_track=0)
        _, rows = alloc.alloc(0)
        assert rows == 1

    def test_high_water(self):
        alloc = RegionAllocator(D=2, first_track=7)
        alloc.alloc(4)
        assert alloc.high_water_track == 9

    def test_freed_region_is_reused(self):
        alloc = RegionAllocator(D=2, first_track=0)
        r1 = alloc.alloc(4)  # rows 0-1
        alloc.alloc(2)       # row 2 keeps the cursor up
        alloc.free(*r1)
        assert alloc.free_rows == 2
        r3 = alloc.alloc(4)
        assert r3 == r1      # same rows handed back, no growth
        assert alloc.high_water_track == 3

    def test_best_fit_prefers_smallest_adequate_region(self):
        alloc = RegionAllocator(D=1, first_track=0)
        big = alloc.alloc(4)     # rows 0-3
        alloc.alloc(1)           # row 4 (separator)
        small = alloc.alloc(2)   # rows 5-6
        alloc.alloc(1)           # row 7 keeps the cursor above everything
        alloc.free(*big)
        alloc.free(*small)
        start, rows = alloc.alloc(2)
        assert (start, rows) == small  # smallest fit wins, not lowest track

    def test_adjacent_free_regions_coalesce(self):
        alloc = RegionAllocator(D=1, first_track=0)
        a = alloc.alloc(2)  # rows 0-1
        b = alloc.alloc(2)  # rows 2-3
        c = alloc.alloc(2)  # rows 4-5
        alloc.alloc(1)      # row 6 separator
        alloc.free(*a)
        alloc.free(*c)
        alloc.free(*b)      # bridges a and c into one region
        assert alloc.free_rows == 6
        assert alloc.alloc(6) == (0, 6)

    def test_free_at_cursor_retracts_it(self):
        alloc = RegionAllocator(D=2, first_track=10)
        a = alloc.alloc(4)  # rows 10-11
        b = alloc.alloc(4)  # rows 12-13
        assert alloc.high_water_track == 14
        alloc.free(*b)
        assert alloc.high_water_track == 12
        alloc.free(*a)      # coalesces with the retraction chain
        assert alloc.high_water_track == 10
        assert alloc.free_rows == 0

    def test_split_leaves_remainder_on_free_list(self):
        alloc = RegionAllocator(D=1, first_track=0)
        big = alloc.alloc(5)
        alloc.alloc(1)      # separator pins the cursor
        alloc.free(*big)
        start, rows = alloc.alloc(2)
        assert (start, rows) == (0, 2)
        assert alloc.free_rows == 3  # remainder of the split region

    def test_churn_stays_bounded(self):
        """Allocate/free cycles must not grow the high-water mark."""
        alloc = RegionAllocator(D=2, first_track=0)
        hold = alloc.alloc(6)  # long-lived region, rows 0-2
        water = []
        for _ in range(200):
            r = alloc.alloc(8)
            alloc.free(*r)
            water.append(alloc.high_water_track)
        assert max(water) == water[0]  # no leak: every round reuses rows
        alloc.free(*hold)
        assert alloc.high_water_track == 0
