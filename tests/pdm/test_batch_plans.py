"""The memoised batch plan of the run API, held to the planner it replaced:
for any list of linear runs the plan equals ``greedy_batch_widths`` over
the expanded disk stream, before and after eviction; a stream of any length
is a small memo entry; the two deferred-accounting entry points share the
memo safely across threads — and the checks that keep a malformed address
or a mismatched segment from being counted or stored."""

from __future__ import annotations

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultyDiskArray
from repro.pdm.block import BlockRun, Runs
from repro.pdm.disk_array import (
    BatchPlan,
    DiskArray,
    IOOp,
    _build_plan,
    batch_plan,
    greedy_batch_widths,
)
from repro.util.validation import SimulationError
from tests.spec_array import SpecDiskArray


def _fresh_plan(D: int, disks: np.ndarray) -> BatchPlan:
    nops, widths = greedy_batch_widths(disks, D)
    return BatchPlan(
        nops,
        tuple(np.bincount(disks, minlength=D).tolist()),
        tuple(np.bincount(widths, minlength=D + 1)[: D + 1].tolist()),
    )


@st.composite
def run_lists(draw, max_runs: int = 6, max_blocks: int = 20):
    """``(D, ((lin0, n), ...))``: D = 1, empty runs, runs entering
    mid-stripe, several runs as an inbox has them (gaps, repeats, any
    order)."""
    D = draw(st.sampled_from([1, 2, 3, 4, 8]))
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 5 * D + 3), st.integers(0, max_blocks)),
            min_size=0, max_size=max_runs,
        )
    )
    return D, tuple(runs)


def _placements(D: int, runs: Runs) -> list[tuple[int, int]]:
    disks, tracks = runs.expand(D)
    return list(zip(disks.tolist(), tracks.tolist()))


@settings(max_examples=60, deadline=None)
@given(st.lists(run_lists(), min_size=1, max_size=6))
def test_memoised_plan_equals_a_fresh_computation(streams):
    """The old planner is the oracle: ``nops`` / ``per_disk`` /
    ``width_counts`` of a plan keyed on the runs equal the greedy packing
    of the expanded disk stream, and its pieces address exactly the
    expanded placements: stream rows in order, each run one contiguous
    stretch of the linear row space ``track·D + disk``."""
    memo = lru_cache(maxsize=2)(_build_plan)  # longer lists evict
    for _pass in range(2):
        for D, runs in streams:
            disks, tracks = Runs(0, runs).expand(D)
            want = _fresh_plan(D, disks)
            assert memo(D, runs) == want
            assert memo(D, runs) == want  # the hit
            plan = batch_plan(D, runs)  # the shared memo
            assert plan == want
            rows, lins = [], []
            for row, lin, n in plan.pieces:
                assert n > 0
                rows += range(row, row + n)
                lins += range(lin, lin + n)
            assert rows == list(range(disks.size))
            assert lins == (tracks * D + disks).tolist()
    batch_plan.cache_clear()
    for D, runs in streams:
        assert batch_plan(D, runs) == _fresh_plan(D, Runs(0, runs).expand(D)[0])


@settings(max_examples=60, deadline=None)
@given(run_lists(), st.integers(0, 9), st.integers(0, 2**16))
def test_runs_round_trip_like_their_expanded_placements(stream, base, seed):
    """``write_stream`` -> ``read_run`` through ``Runs`` stores, returns and
    counts what ``write_blocks`` -> ``read_blocks`` do over the expanded
    placements (overlapping runs included: last write wins on both)."""
    D, runs = stream
    rng = np.random.default_rng(seed)
    fast, ref, per_op = DiskArray(D, 1), DiskArray(D, 1), _per_op(D, 1)
    segments, placements = [], []
    for lin0, n in runs:
        seg = Runs(base, ((lin0, n),))
        raw = rng.integers(0, 256, max(0, n * 8 - 3), dtype=np.uint8).tobytes()
        run = BlockRun(raw, n, 8)  # the tail block is zero-padded
        segments.append((seg, run))
        placements += [(d, t, blk) for (d, t), blk in zip(_placements(D, seg), run.to_blocks())]
    nops = ref.write_blocks(placements)
    assert fast.write_stream(segments) == per_op.write_stream(segments) == nops
    whole = Runs(base, runs)
    want = b"".join(b.ljust(8, b"\x00") for b in ref.read_blocks(_placements(D, whole)))
    assert bytes(fast.read_run(whole)) == bytes(per_op.read_run(whole)) == want
    assert fast.stats.as_dict() == per_op.stats.as_dict() == ref.stats.as_dict()
    for a in (fast, per_op):
        for d in range(D):
            assert a.disks[d].snapshot_tracks() == ref.disks[d].snapshot_tracks()
            assert a.disks[d].blocks_read == ref.disks[d].blocks_read
            assert a.disks[d].blocks_written == ref.disks[d].blocks_written


def test_the_shared_memo_is_bounded_in_entries_and_key_length():
    """256 entries, each O(runs) whatever the stream's length: a run of
    65,536 blocks is memoised like any other (no size cliff), its key two
    integers and its pieces one slice of the linear row space."""
    assert batch_plan.cache_info().maxsize == 256
    arr, ref = DiskArray(2, 1), DiskArray(2, 1)
    n = 1 << 16
    written, first = Runs(7, ((1, n + 4),)), Runs(7, ((1, n),))
    batch_plan.cache_clear()
    arr.write_run(written, BlockRun(b"", n + 4, 8))
    arr.read_run(first)
    before = batch_plan.cache_info()
    assert (before.misses, before.currsize) == (2, 2)
    again = Runs(8, ((3, n),))  # the same pattern a track up: the same plan
    arr.read_run(first)
    arr.read_run(again)
    after = batch_plan.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 2, 2)
    assert batch_plan(2, ((1, n),)).pieces == ((0, 1, n),)
    ref.write_blocks([(d, t, b"") for d, t in _placements(2, written)])
    for runs in (first, first, again):
        ref.read_blocks(_placements(2, runs))
    assert arr.stats.as_dict() == ref.stats.as_dict()


def test_an_inbox_moves_as_one_slice_per_message():
    """A message is one run of the linear row space, so an inbox moves as
    one slice copy per message: eight one-block messages nine slots apart
    — the inbox ``rounds_listrank`` reads every round — are eight pieces,
    an odd message out is still one, and messages that fill their slots
    abut and merge into a single slice."""
    from repro.core.layouts import MessageMatrix

    mm = MessageMatrix(8, 8, 2, slot_blocks=9)
    equal = mm.inbox_addresses_np(3, [(src, 1) for src in range(8)], 1)
    assert len(batch_plan(2, equal.runs).pieces) == 8
    odd = mm.inbox_addresses_np(3, [(src, 1 + (src == 5)) for src in range(8)], 1)
    assert [n for _row, _lin, n in batch_plan(2, odd.runs).pieces] == [1] * 5 + [2] + [1] * 2
    full = MessageMatrix(8, 8, 2, slot_blocks=1)
    whole = full.inbox_addresses_np(3, [(src, 1) for src in range(8)], 1)
    assert len(batch_plan(2, whole.runs).pieces) == 1
    for runs in (equal, odd, whole):
        arr, ref = DiskArray(2, 1), DiskArray(2, 1)
        raw = bytes(range(8 * runs.nblocks))
        arr.write_run(runs, BlockRun(raw, runs.nblocks, 8))
        placed = _placements(2, runs)
        ref.write_blocks([(d, t, raw[8 * i : 8 * i + 8]) for i, (d, t) in enumerate(placed)])
        assert bytes(arr.read_run(runs)) == b"".join(ref.read_blocks(placed)) == raw
        assert arr.stats.as_dict() == ref.stats.as_dict()
        assert [d.snapshot_tracks() for d in arr.disks] == [d.snapshot_tracks() for d in ref.disks]


def test_a_raising_build_stores_nothing():
    """The only build that can raise is that of the address itself: a
    ``Runs`` with a negative base, offset or length is refused where it is
    made, so no plan, track or counter ever sees it."""
    arr = DiskArray(2, 1)
    batch_plan.cache_clear()
    for _ in range(3):
        for base, runs, text in (
            (-3, ((1, 2),), "negative track -3"),
            (0, ((-2, 2),), "run of 2 blocks at linear offset -2"),
            (0, ((0, 1), (2, -5)), "run of -5 blocks at linear offset 2"),
        ):
            with pytest.raises(SimulationError, match=text):
                arr.write_run(Runs(base, runs), BlockRun(b"", 2, 8))
    assert batch_plan.cache_info().currsize == 0
    assert arr.tracks_in_use == 0 and arr.stats.parallel_ios == 0


@pytest.mark.parametrize(
    "disks, tracks, text",
    [
        ([0, 5, 9], [0, 0, 0], "disk index 5 out of range 0..1"),
        ([0, -1, 1], [0, 0, 0], "disk index -1 out of range 0..1"),
        ([1, 0], [-3, -4], "negative track -3 on disk 1"),
        ([0, 4], [0, -1], "disk index 4 out of range 0..1"),  # disks first
    ],
)
def test_address_errors_repeat_verbatim(disks, tracks, text):
    """A ``Runs`` cannot name a disk the array lacks or a negative track,
    so these errors live where arbitrary placements still enter —
    ``parallel_io`` and the two loops over it: the same ``SimulationError``
    text on the first and on repeated calls, nothing stored or counted."""
    arr = DiskArray(2, 1)
    arr.write_run(Runs(0, ((0, 3),)), BlockRun(b"", 3, 8))
    before = arr.stats.as_dict()
    block = b"\x01" * 8
    calls = [
        lambda: arr.parallel_io([IOOp(d, t, block) for d, t in zip(disks, tracks)]),
        lambda: arr.write_blocks([(d, t, block) for d, t in zip(disks, tracks)]),
    ]
    if "disk index" in text:  # a negative track reads as an unwritten one
        calls.append(lambda: arr.read_blocks(list(zip(disks, tracks))))
    for _ in range(2):
        for call in calls:
            with pytest.raises(SimulationError) as err:
                call()
            assert str(err.value) == text
    assert arr.stats.as_dict() == before
    assert [d.snapshot_tracks() for d in arr.disks] == [
        {0: b"\x00" * 8, 1: b"\x00" * 8}, {0: b"\x00" * 8},
    ]


def _bulk(D: int, B: int) -> DiskArray:
    return DiskArray(D, B)


def _per_op(D: int, B: int) -> DiskArray:
    return SpecDiskArray(D, B)


def _faulty(D: int, B: int) -> DiskArray:
    return FaultyDiskArray(D, B, FaultPlan().injector_for(0))


class TestLengthMismatch:
    """Regression: a segment whose addresses and run disagree in length
    used to be counted by its addresses and stored by its run (the per-op
    array silently dropped the unmatched blocks or addresses)."""

    @pytest.mark.parametrize("make", [_bulk, _per_op, _faulty])
    @pytest.mark.parametrize("n_addr", [2, 5])
    def test_write_stream_refuses_addresses_that_do_not_match_the_run(self, make, n_addr):
        arr = make(2, 1)
        run = BlockRun(b"\x07" * 24, 3, 8)
        ok = (Runs(9, ((0, 1),)), BlockRun(b"\x01" * 8, 1, 8))
        with pytest.raises(
            SimulationError, match=rf"segment 1: {n_addr} addresses for a run of 3 blocks"
        ):
            arr.write_stream([ok, (Runs(0, ((0, n_addr),)), run)])
        assert arr.stats.as_dict() == DiskArray(2, 1).stats.as_dict()
        assert arr.tracks_in_use == 0
        assert [d.blocks_written for d in arr.disks] == [0, 0]

    @pytest.mark.parametrize("make", [_bulk, _per_op, _faulty])
    def test_write_stream_refuses_disks_without_tracks(self, make):
        """(Named for the two arrays an address used to be.)  The runs of
        one ``Runs`` are counted together against the segment's blocks."""
        arr = make(2, 1)
        run = BlockRun(b"\x07" * 24, 3, 8)
        with pytest.raises(SimulationError, match="segment 0: 4 addresses for a run of 3"):
            arr.write_run(Runs(0, ((0, 2), (6, 2))), run)
        assert arr.tracks_in_use == 0 and arr.stats.parallel_ios == 0

    def test_an_empty_run_with_addresses_is_refused_too(self):
        with pytest.raises(SimulationError, match="run of 0 blocks"):
            DiskArray(2, 1).write_run(Runs(0, ((0, 1),)), BlockRun(b"", 0, 8))

    def test_read_run_refuses_mismatched_addresses_and_a_short_buffer(self):
        arr = DiskArray(2, 1)
        runs = Runs(0, ((0, 3),))
        arr.write_run(runs, BlockRun(b"\x07" * 24, 3, 8))
        before = arr.stats.as_dict()
        with pytest.raises(SimulationError, match="out buffer of 16 bytes cannot hold 3"):
            arr.read_run(runs, out=np.empty(16, np.uint8))
        assert arr.stats.as_dict() == before
        assert [d.blocks_read for d in arr.disks] == [0, 0]
        assert bytes(arr.read_run(runs, out=np.empty(24, np.uint8))) == b"\x07" * 24


def test_prefetch_thread_and_engine_thread_share_the_memo(monkeypatch):
    """``try_gather`` plans on worker threads while the main thread folds
    ``finish_read`` through the same memo — kept tiny here so lookups,
    inserts and evictions interleave.  A lost update would hand back a plan
    that is not the stream's."""
    import repro.pdm.disk_array as da

    D, n_streams, rounds, longest = 4, 24, 30, 40
    rng = np.random.default_rng(5)
    streams = []
    for _ in range(n_streams):
        k = int(rng.integers(1, 4))
        streams.append(
            Runs(0, tuple(
                (int(rng.integers(0, longest)), int(rng.integers(0, longest // k)))
                for _ in range(k)
            ))
        )
    arr, ref = DiskArray(D, 1), DiskArray(D, 1)
    for a in (arr, ref):
        a.write_run(Runs(0, ((0, 2 * longest),)), BlockRun(b"", 2 * longest, 8))

    small = lru_cache(maxsize=8)(_build_plan)
    monkeypatch.setattr(da, "batch_plan", small)
    failures: list[str] = []
    stop = threading.Event()

    def speculate(seed: int) -> None:
        order = np.random.default_rng(seed)
        out = np.empty(longest * 8, np.uint8)
        while not stop.is_set():
            if not arr.try_gather(streams[int(order.integers(n_streams))], out):
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
            for runs in streams:
                arr.finish_read(runs, out, hit=True)
                plan, _base = arr._plan([runs])
                assert plan == _fresh_plan(D, runs.expand(D)[0])
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=20)
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads) and not failures
    assert small.cache_info().currsize <= 8
    # the accounting is exactly `rounds` synchronous passes over the streams
    for _ in range(rounds):
        for runs in streams:
            ref.read_run(runs)
    assert arr.stats.as_dict() == ref.stats.as_dict()
    assert [d.blocks_read for d in arr.disks] == [d.blocks_read for d in ref.disks]


def test_plans_do_not_depend_on_the_index_dtype():
    """The memo key is the runs as integers, whatever integer type the
    caller computed them in: NumPy scalars hash and compare as ``int``."""
    arr = DiskArray(2, 1)
    arr.write_run(Runs(0, ((1, 5),)), BlockRun(b"\x05" * 40, 5, 8))
    out = np.empty(40, np.uint8)
    batch_plan.cache_clear()
    for kind in (np.int32, np.uint8, np.int64, int):
        runs = Runs(kind(0), ((kind(1), kind(5)),))
        assert arr.try_gather(runs, out) and bytes(out) == b"\x05" * 40
        arr.finish_read(runs, out, hit=True)
    assert batch_plan.cache_info().currsize == 1
    assert arr.stats.read_ops == 4 * 3 and arr.stats.blocks_read == 20
