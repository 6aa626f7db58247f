"""Tests for internal-memory accounting, the VM baseline's LRU pager, and
the disk service-time model."""

from __future__ import annotations

import pytest

from repro.core.vm_engine import lru_pager
from repro.pdm.io_stats import DiskServiceModel, IOStats
from repro.pdm.memory import InternalMemory


class TestInternalMemory:
    def test_charge_release_and_peak(self):
        m = InternalMemory(100)
        m.charge(60)
        m.charge(30)
        m.release(50)
        assert m.used == 40
        assert m.peak == 90
        assert not m.overflowed

    def test_nonstrict_overflow_recorded(self):
        m = InternalMemory(10)
        m.charge(25)
        assert m.overflowed
        assert m.peak == 25

    def test_release_never_negative(self):
        m = InternalMemory(10)
        m.charge(5)
        m.release(50)
        assert m.used == 0

    def test_negative_amounts_rejected(self):
        m = InternalMemory(10)
        with pytest.raises(ValueError):
            m.charge(-1)
        with pytest.raises(ValueError):
            m.release(-1)


class TestLRUPager:
    """``lru_pager`` is ``CacheSim`` with one set: misses are page faults."""

    def test_working_set_fits_only_compulsory_faults(self):
        pager = lru_pager(memory_items=10 * 512, page_items=512)
        for _ in range(5):
            pager.access_range(0, 8 * 512)  # 8 pages, 10 frames
        assert pager.misses == 8  # compulsory only

    def test_cyclic_sweep_beyond_memory_thrashes(self):
        """LRU's pathological case: cyclic scan of M+1 pages faults on
        every access — the Figure 3 mechanism."""
        pager = lru_pager(memory_items=4 * 512, page_items=512)
        for _ in range(3):
            pager.access_range(0, 8 * 512)  # 8 pages into 4 frames
        assert pager.misses == 3 * 8
        assert pager.miss_rate == 1.0

    def test_partial_page_access_touches_whole_page(self):
        pager = lru_pager(memory_items=16 * 512)
        pager.access_range(100, 10)  # inside page 0
        assert pager.misses == 1
        pager.access_range(500, 50)  # spans pages 0 and 1
        assert pager.misses == 2

    def test_recency_updates(self):
        pager = lru_pager(memory_items=2 * 512, page_items=512)
        pager.access_range(0 * 512, 1)      # page 0
        pager.access_range(1 * 512, 1)      # page 1
        pager.access_range(0 * 512, 1)      # refresh page 0
        pager.access_range(2 * 512, 1)      # evicts page 1 (LRU)
        pager.access_range(0 * 512, 1)      # page 0 still resident
        assert pager.misses == 3

    def test_empty_touch_free(self):
        pager = lru_pager(memory_items=512)
        assert pager.access_range(0, 0) == 0

    def test_memory_below_one_page_keeps_one_frame(self):
        pager = lru_pager(memory_items=100, page_items=512)
        assert pager.n_sets == 1 and pager.ways == 1
        pager.access_range(0, 512 * 5)
        pager.access_range(4 * 512, 1)  # the one frame holds the last page
        assert pager.misses == 5

    def test_bad_page_size(self):
        with pytest.raises(ValueError):
            lru_pager(1024, page_items=0)


class TestDiskServiceModel:
    def test_throughput_monotone_in_block_size(self):
        m = DiskServiceModel()
        sizes = [2**k for k in range(9, 24)]
        th = [m.throughput(s) for s in sizes]
        assert all(b > a for a, b in zip(th, th[1:]))

    def test_throughput_saturates_at_transfer_rate(self):
        m = DiskServiceModel()
        assert m.throughput(1 << 30) == pytest.approx(
            m.transfer_rate_bytes_per_s, rel=0.02
        )

    def test_small_block_dominated_by_positioning(self):
        m = DiskServiceModel()
        # 512-byte blocks: < 1% of the raw rate
        assert m.throughput(512) < 0.01 * m.transfer_rate_bytes_per_s

    def test_suggest_G_positive_and_increasing_in_B(self):
        m = DiskServiceModel()
        assert 0 < m.suggest_G(64) < m.suggest_G(4096)


class TestIOStats:
    def test_merge_and_delta(self):
        a = IOStats()
        a.record(2, 0, [0, 1], D=2)
        snap = a.snapshot()
        a.record(0, 2, [0, 1], D=2)
        d = a.delta_since(snap)
        assert d.parallel_ios == 1
        assert d.blocks_written == 2
        b = IOStats()
        b.record(1, 0, [0], D=2)
        a.merge(b)
        assert a.parallel_ios == 3
        assert a.blocks_total == 5

    def test_utilization(self):
        s = IOStats()
        s.record(2, 0, [0, 1], D=2)
        assert s.utilization(2) == 1.0
        s.record(1, 0, [0], D=2)
        assert s.utilization(2) == pytest.approx(3 / 4)

    def test_io_time(self):
        s = IOStats()
        s.record(1, 0, [0], D=1)
        s.record(0, 1, [0], D=1)
        assert s.io_time(G=2.5) == 5.0
