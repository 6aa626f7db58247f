"""The memoised batch plan of the run API: equal to a fresh computation
before and after eviction, the same errors on a hit as on a miss, safe to
share between the prefetch thread and the engine thread — and the length
checks that keep a mismatched segment from being counted or stored."""

from __future__ import annotations

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultyDiskArray
from repro.pdm.disk_array import (
    PLAN_MEMO_MAX_BLOCKS,
    BatchPlan,
    DiskArray,
    _build_plan,
    batch_plan,
    greedy_batch_widths,
)
from repro.pdm.fastpath import BlockRun
from repro.util.validation import SimulationError


def _fresh_plan(D: int, disks: np.ndarray) -> BatchPlan:
    nops, widths = greedy_batch_widths(disks, D)
    return BatchPlan(
        nops,
        tuple(np.bincount(disks, minlength=D).tolist()),
        tuple(np.bincount(widths, minlength=D + 1)[: D + 1].tolist()),
    )


@st.composite
def disk_streams(draw):
    D = draw(st.sampled_from([1, 2, 3, 4, 8]))
    disks = draw(st.lists(st.integers(0, D - 1), min_size=0, max_size=60))
    return D, np.asarray(disks, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.lists(disk_streams(), min_size=1, max_size=6))
def test_memoised_plan_equals_a_fresh_computation(streams):
    memo = lru_cache(maxsize=2)(_build_plan)  # longer lists evict
    for _pass in range(2):
        for D, disks in streams:
            want = _fresh_plan(D, disks)
            assert memo(D, disks.tobytes()) == want
            assert memo(D, disks.tobytes()) == want  # the hit
            assert batch_plan(D, disks.tobytes()) == want  # the shared memo
    batch_plan.cache_clear()
    for D, disks in streams:
        assert batch_plan(D, disks.tobytes()) == _fresh_plan(D, disks)


def test_the_shared_memo_is_bounded_in_entries_and_key_length(monkeypatch):
    import repro.pdm.disk_array as da

    assert batch_plan.cache_info().maxsize == 256
    arr = DiskArray(2, 1)
    n = PLAN_MEMO_MAX_BLOCKS + 1
    dd, tt = np.arange(n, dtype=np.int64) % 2, np.arange(n, dtype=np.int64) // 2
    arr.write_run(dd, tt, BlockRun(b"", n, 8))
    ref = DiskArray(2, 1)
    ref.write_blocks(list(zip(dd.tolist(), tt.tolist(), [b""] * n)))
    monkeypatch.setattr(da, "batch_plan", None)  # a long stream never asks it
    arr.read_run(dd, tt)
    ref.read_blocks(list(zip(dd.tolist(), tt.tolist())))
    assert arr.stats.as_dict() == ref.stats.as_dict()


def test_a_raising_build_stores_nothing():
    memo = lru_cache(maxsize=8)(_build_plan)
    bad = np.asarray([0, 1, 7], dtype=np.int64).tobytes()
    for _ in range(3):
        with pytest.raises(SimulationError, match="disk index 7 out of range 0..1"):
            memo(2, bad)
    assert memo.cache_info().currsize == 0


@pytest.mark.parametrize(
    "disks, tracks, text",
    [
        ([0, 5, 9], [0, 0, 0], "disk index 5 out of range 0..1"),
        ([0, -1, 1], [0, 0, 0], "disk index -1 out of range 0..1"),
        ([0, 1, 0], [0, -3, -4], "negative track -3 on disk 1"),
        ([0, 4], [0, -1], "disk index 4 out of range 0..1"),  # disks first
    ],
)
def test_address_errors_repeat_verbatim(disks, tracks, text):
    """Same ``SimulationError`` text on the first and on repeated calls,
    through every entry point, with nothing stored or counted."""
    dd, tt = np.asarray(disks, dtype=np.int64), np.asarray(tracks, dtype=np.int64)
    good = np.asarray([0, 1, 0], dtype=np.int64)
    arr = DiskArray(2, 1)
    arr.write_run(good, np.asarray([0, 0, 1]), BlockRun(b"", 3, 8))
    before = arr.stats.as_dict()
    run = BlockRun(b"\x01" * 8 * len(disks), len(disks), 8)
    for _ in range(2):
        for call in (
            lambda: arr.write_run(dd, tt, run),
            lambda: arr.read_run(dd, tt),
            lambda: arr.finish_read(dd, tt, np.empty(64, np.uint8), hit=True),
        ):
            with pytest.raises(SimulationError) as err:
                call()
            assert str(err.value) == text
        assert not arr.try_gather(dd, tt, np.empty(64, np.uint8))
    assert arr.stats.as_dict() == before
    assert [d.snapshot_tracks() for d in arr.disks] == [
        {0: b"\x00" * 8, 1: b"\x00" * 8}, {0: b"\x00" * 8},
    ]


def _bulk(D: int, B: int) -> DiskArray:
    return DiskArray(D, B)


def _per_op(D: int, B: int) -> DiskArray:
    return FaultyDiskArray(D, B, FaultPlan().injector_for(0))


class TestLengthMismatch:
    """Regression: a segment whose address arrays and run disagree in
    length used to be counted by its addresses and stored by its run (the
    per-op array silently dropped the unmatched blocks or addresses)."""

    @pytest.mark.parametrize("make", [_bulk, _per_op])
    @pytest.mark.parametrize("n_addr", [2, 5])
    def test_write_stream_refuses_addresses_that_do_not_match_the_run(self, make, n_addr):
        arr = make(2, 1)
        run = BlockRun(b"\x07" * 24, 3, 8)
        dd = np.arange(n_addr, dtype=np.int64) % 2
        tt = np.arange(n_addr, dtype=np.int64) // 2
        ok = (np.asarray([0]), np.asarray([9]), BlockRun(b"\x01" * 8, 1, 8))
        with pytest.raises(SimulationError, match=r"segment 1: .* run of 3 blocks"):
            arr.write_stream([ok, (dd, tt, run)])
        assert arr.stats.as_dict() == DiskArray(2, 1).stats.as_dict()
        assert arr.tracks_in_use == 0
        assert [d.blocks_written for d in arr.disks] == [0, 0]

    @pytest.mark.parametrize("make", [_bulk, _per_op])
    def test_write_stream_refuses_disks_without_tracks(self, make):
        arr = make(2, 1)
        run = BlockRun(b"\x07" * 24, 3, 8)
        with pytest.raises(SimulationError, match="segment 0: 3 disks and 2 tracks"):
            arr.write_run(np.asarray([0, 1, 0]), np.asarray([0, 0]), run)
        assert arr.tracks_in_use == 0 and arr.stats.parallel_ios == 0

    def test_an_empty_run_with_addresses_is_refused_too(self):
        with pytest.raises(SimulationError, match="run of 0 blocks"):
            DiskArray(2, 1).write_run(np.asarray([0]), np.asarray([0]), BlockRun(b"", 0, 8))

    def test_read_run_refuses_mismatched_addresses_and_a_short_buffer(self):
        arr = DiskArray(2, 1)
        dd, tt = np.asarray([0, 1, 0]), np.asarray([0, 0, 1])
        arr.write_run(dd, tt, BlockRun(b"\x07" * 24, 3, 8))
        before = arr.stats.as_dict()
        with pytest.raises(SimulationError, match="3 disks but 2 tracks"):
            arr.read_run(dd, tt[:2])
        with pytest.raises(SimulationError, match="out buffer of 16 bytes cannot hold 3"):
            arr.read_run(dd, tt, out=np.empty(16, np.uint8))
        assert not arr.try_gather(dd, tt[:2], np.empty(24, np.uint8))
        assert arr.stats.as_dict() == before
        assert [d.blocks_read for d in arr.disks] == [0, 0]
        assert bytes(arr.read_run(dd, tt, out=np.empty(24, np.uint8))) == b"\x07" * 24


def test_prefetch_thread_and_engine_thread_share_the_memo(monkeypatch):
    """``try_gather`` plans on worker threads while the main thread folds
    ``finish_read`` through the same memo — kept tiny here so lookups,
    inserts and evictions interleave.  A lost update would hand back a plan
    that is not the stream's."""
    import repro.pdm.disk_array as da

    D, n_streams, rounds, longest = 4, 24, 30, 40
    rng = np.random.default_rng(5)
    streams = [
        rng.integers(0, D, size=int(rng.integers(1, longest))) for _ in range(n_streams)
    ]
    arr, ref = DiskArray(D, 1), DiskArray(D, 1)
    tracks = np.arange(longest, dtype=np.int64)
    for a in (arr, ref):
        for d in range(D):
            a.write_run(np.full(longest, d), tracks, BlockRun(b"", longest, 8))

    small = lru_cache(maxsize=8)(_build_plan)
    monkeypatch.setattr(da, "batch_plan", small)
    failures: list[str] = []
    stop = threading.Event()

    def speculate(seed: int) -> None:
        order = np.random.default_rng(seed)
        out = np.empty(longest * 8, np.uint8)
        while not stop.is_set():
            disks = streams[int(order.integers(n_streams))]
            if not arr.try_gather(disks, tracks[: disks.size], out):
                failures.append("speculative gather missed")
                return

    threads = [threading.Thread(target=speculate, args=(s,), daemon=True) for s in range(6)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        out = np.empty(longest * 8, np.uint8)
        for _ in range(rounds):
            for disks in streams:
                arr.finish_read(disks, tracks[: disks.size], out, hit=True)
                assert small(D, disks.tobytes()) == _fresh_plan(D, disks)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=20)
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads) and not failures
    assert small.cache_info().currsize <= 8
    # the accounting is exactly `rounds` synchronous passes over the streams
    for _ in range(rounds):
        for disks in streams:
            ref.read_run(disks, tracks[: disks.size])
    assert arr.stats.as_dict() == ref.stats.as_dict()
    assert [d.blocks_read for d in arr.disks] == [d.blocks_read for d in ref.disks]


def test_plans_do_not_depend_on_the_index_dtype():
    """The memo key is the stream as int64 bytes, whatever the caller's
    index dtype (the speculative entry points do not coerce first)."""
    arr = DiskArray(2, 1)
    dd, tt = np.asarray([0, 1, 0, 1, 1]), np.asarray([0, 0, 1, 1, 2])
    arr.write_run(dd, tt, BlockRun(b"\x05" * 40, 5, 8))
    out = np.empty(40, np.uint8)
    for dtype in (np.int32, np.uint8, np.int64):
        assert arr.try_gather(dd.astype(dtype), tt.astype(dtype), out)
        arr.finish_read(dd.astype(dtype), tt.astype(dtype), out, hit=True)
    assert arr.stats.read_ops == 3 * 3 and arr.stats.blocks_read == 15
