"""The vectorized run API's building blocks, proved against the per-op
PDM specification.

The run API (:mod:`repro.pdm.block` containers, :mod:`repro.pdm.arena`,
``write_stream``/``read_run``) is an *implementation* of the same PDM, not
a looser variant: every observable — batch widths, IOStats, per-disk
counters, stored bytes, raised errors — must be bit-identical to
``write_blocks``/``read_blocks``, the one-``parallel_io``-per-batch loop.
The hypothesis suites here drive both spellings with the same address
streams — arbitrary placements reach the run API as one-block runs — and
compare everything observable.
"""

from __future__ import annotations

import pickle
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultyDiskArray
from repro.faults.plan import FaultPlan
from repro.pdm.arena import MAX_DIRECT_TRACK, TrackArena
from repro.pdm.block import BlockRun, Runs, blocks_for_bytes
from repro.pdm.disk_array import DiskArray, batch_plan, greedy_batch_widths
from repro.tune.knobs import KNOB_BY_ENV, KnobError
from repro.tune.runtime import RuntimeConfig, current
from repro.util.items import ITEM_BYTES
from repro.util.validation import SimulationError
from tests.spec_array import SpecDiskArray, spec_arrays


def _per_op_array(D: int, B: int) -> SpecDiskArray:
    """The per-op service of the run API: the PDM specification loop."""
    return SpecDiskArray(D, B)


def _single_blocks(addrs, D: int) -> Runs:
    """Arbitrary ``(disk, track)`` placements as one-block runs."""
    return Runs(0, tuple((t * D + d, 1) for d, t in addrs))


# ------------------------------------------------------------------ BlockRun


class TestBlockRun:
    def test_to_blocks_pads_the_tail(self):
        run = BlockRun(b"abcdefgh" + b"xy", nblocks=2, block_bytes=8)
        assert run.to_blocks() == [b"abcdefgh", b"xy" + b"\x00" * 6]

    def test_rejects_overlong_buffer(self):
        with pytest.raises(ValueError):
            BlockRun(b"x" * 17, nblocks=2, block_bytes=8)

    def test_pickle_roundtrip_materializes_views(self):
        base = np.frombuffer(b"A" * 16, dtype=np.uint8)
        run = BlockRun(memoryview(base)[4:12], nblocks=1, block_bytes=8)
        back = pickle.loads(pickle.dumps(run))
        assert bytes(back.buf) == b"A" * 8
        assert (back.nblocks, back.block_bytes) == (1, 8)

    def test_nbytes(self):
        assert BlockRun(b"x" * 10, 2, 8).nbytes == 10


def test_blocks_for_bytes():
    bb = 4 * ITEM_BYTES
    assert blocks_for_bytes(0, 4) == 0
    assert blocks_for_bytes(1, 4) == 1
    assert blocks_for_bytes(bb, 4) == 1
    assert blocks_for_bytes(bb + 1, 4) == 2
    with pytest.raises(ValueError):
        blocks_for_bytes(8, 0)


# ------------------------------------------------- greedy batching equivalence


def _fifo_reference_widths(disks: list[int]) -> list[int]:
    """The write_blocks/read_blocks FIFO rule, stated directly."""
    widths: list[int] = []
    seen: set[int] = set()
    w = 0
    for d in disks:
        if d in seen:
            widths.append(w)
            seen, w = set(), 0
        seen.add(d)
        w += 1
    if w:
        widths.append(w)
    return widths


@given(
    disks=st.lists(st.integers(min_value=0, max_value=4), max_size=200),
    D=st.integers(min_value=5, max_value=8),
)
def test_greedy_batch_widths_matches_fifo_reference(disks, D):
    arr = np.asarray(disks, dtype=np.int64)
    nops, widths = greedy_batch_widths(arr, D)
    assert nops == len(widths)
    assert widths.tolist() == _fifo_reference_widths(disks)
    assert int(widths.sum()) == len(disks)
    assert all(w <= D for w in widths.tolist())


@given(n=st.integers(min_value=0, max_value=64), D=st.integers(min_value=1, max_value=7), start=st.integers(min_value=0, max_value=6))
def test_greedy_batch_widths_striped_case(n, D, start):
    disks = (start + np.arange(n, dtype=np.int64)) % D
    nops, widths = greedy_batch_widths(disks, D)
    assert widths.tolist() == _fifo_reference_widths(disks.tolist())


# ------------------------------------------------------------------ TrackArena


class TestTrackArena:
    def test_put_get_roundtrip_and_growth(self):
        a = TrackArena(D=2, block_bytes=8)
        a.put(0, 500, b"abcdefgh")  # beyond initial rows: must grow
        assert a.get(0, 500) == b"abcdefgh"
        assert a.get(0, 1) is None

    def test_short_block_kept_exact(self):
        a = TrackArena(D=1, block_bytes=8)
        a.put(0, 0, b"xy")
        assert a.get(0, 0) == b"xy"

    def test_huge_track_goes_to_side_dict(self):
        a = TrackArena(D=1, block_bytes=8)
        a.put(0, MAX_DIRECT_TRACK + 7, b"deadbeef")
        assert a.get(0, MAX_DIRECT_TRACK + 7) == b"deadbeef"
        assert a.max_track(0) == MAX_DIRECT_TRACK + 7
        out = np.empty((1, 8), dtype=np.uint8)
        assert not a.gather(batch_plan(1, ((0, 1),)).pieces, MAX_DIRECT_TRACK + 7, out)

    def test_scatter_last_wins_on_duplicates(self):
        a = TrackArena(D=1, block_bytes=4)
        rows = np.frombuffer(b"AAAABBBB", dtype=np.uint8).reshape(2, 4)
        a.scatter(batch_plan(1, ((0, 1), (0, 1))).pieces, 0, rows)
        assert a.get(0, 0) == b"BBBB"

    def test_snapshot_restore(self):
        a = TrackArena(D=2, block_bytes=4)
        a.put(0, 3, b"ab")
        a.put(1, 0, b"cdef")
        snap = a.snapshot(0)
        b = TrackArena(D=2, block_bytes=4)
        b.restore(0, snap)
        assert b.get(0, 3) == b"ab"
        assert b.tracks_in_use(0) == 1


# ----------------------------------------------- DiskArray run/per-op identity


def _segment_stream(draw):
    """A write stream plus a read plan over the addresses it defines."""
    D = draw(st.integers(min_value=1, max_value=4))
    B = draw(st.integers(min_value=1, max_value=3))
    bb = B * ITEM_BYTES
    n_addr = draw(st.integers(min_value=1, max_value=24))
    addrs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=D - 1),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=n_addr,
            max_size=n_addr,
        )
    )
    payload = draw(st.binary(min_size=0, max_size=n_addr * bb))
    return D, B, addrs, payload


@st.composite
def streams(draw):
    return _segment_stream(draw)


@settings(max_examples=40)
@given(streams())
def test_write_stream_matches_write_blocks(stream):
    D, B, addrs, payload = stream
    bb = B * ITEM_BYTES
    nblocks = len(addrs)
    payload = payload.ljust(0)  # may be shorter than the run: zero-padded tail
    run = BlockRun(payload[: nblocks * bb], nblocks=nblocks, block_bytes=bb)
    runs = _single_blocks(addrs, D)

    fast = DiskArray(D, B)
    ref = DiskArray(D, B)
    per_op = _per_op_array(D, B)
    ops_fast = fast.write_run(runs, run)
    ops_ref = ref.write_blocks([(d, t, blk) for (d, t), blk in zip(addrs, run.to_blocks())])

    assert ops_fast == ops_ref == per_op.write_run(runs, run)
    assert fast.stats.as_dict() == ref.stats.as_dict() == per_op.stats.as_dict()
    for d in range(D):
        assert fast.disks[d].snapshot_tracks() == ref.disks[d].snapshot_tracks()
        assert fast.disks[d].snapshot_tracks() == per_op.disks[d].snapshot_tracks()
        assert fast.disks[d].blocks_written == ref.disks[d].blocks_written

    # read everything back through both paths (dedup keeps batching valid)
    uniq = sorted(set(addrs))
    back = _single_blocks(uniq, D)
    got_fast = fast.read_run(back)
    got_ref = b"".join(
        blk.ljust(bb, b"\x00") for blk in ref.read_blocks(uniq)
    )
    assert bytes(got_fast) == got_ref == bytes(per_op.read_run(back))
    assert fast.stats.as_dict() == ref.stats.as_dict() == per_op.stats.as_dict()
    for d in range(D):
        assert fast.disks[d].blocks_read == ref.disks[d].blocks_read


@st.composite
def multi_run_streams(draw):
    """Several runs written as one stream: short buffers (implicit tails up
    to whole missing blocks), an ndarray-backed run, addresses repeated
    across runs, tracks far enough to divert to the side dict, and linear
    runs that cross ``MAX_DIRECT_TRACK`` on their way."""
    D = draw(st.integers(min_value=1, max_value=4))
    B = draw(st.integers(min_value=1, max_value=2))
    bb = B * ITEM_BYTES
    track = st.one_of(
        st.integers(0, 6), st.sampled_from([MAX_DIRECT_TRACK, MAX_DIRECT_TRACK + 4])
    )
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 7))
        if draw(st.booleans()):
            addrs = draw(
                st.lists(st.tuples(st.integers(0, D - 1), track), min_size=n, max_size=n)
            )
            runs = _single_blocks(addrs, D)
        else:
            base = draw(st.sampled_from([0, 5, MAX_DIRECT_TRACK - 1]))
            runs = Runs(base, ((draw(st.integers(0, D)), n),))
            addrs = list(zip(*(a.tolist() for a in runs.expand(D))))
        payload = draw(st.binary(min_size=0, max_size=n * bb))
        buf = np.frombuffer(payload, np.uint8) if draw(st.booleans()) else payload
        segments.append((addrs, runs, BlockRun(buf, n, bb)))
    return D, B, segments


@settings(max_examples=80, deadline=None)
@given(multi_run_streams())
def test_staged_scatter_matches_write_blocks(stream):
    """One staging buffer and one arena scatter per stream store, count
    and batch exactly what the per-op loop does over the concatenated
    placements — padding, side-dict diversion and last-wins included."""
    D, B, segments = stream
    fast, ref, per_op = DiskArray(D, B), DiskArray(D, B), _per_op_array(D, B)
    as_arrays = [(runs, run) for _addrs, runs, run in segments]
    placements = [
        (d, t, blk)
        for addrs, _runs, run in segments
        for (d, t), blk in zip(addrs, run.to_blocks())
    ]
    for _again in range(2):  # the second pass overwrites through a warm plan
        assert (
            fast.write_stream(as_arrays)
            == ref.write_blocks(placements)
            == per_op.write_stream(as_arrays)
        )
        assert fast.stats.as_dict() == ref.stats.as_dict() == per_op.stats.as_dict()
        for d in range(D):
            want = ref.disks[d].snapshot_tracks()
            assert fast.disks[d].snapshot_tracks() == want
            assert per_op.disks[d].snapshot_tracks() == want
            assert fast.disks[d].blocks_written == ref.disks[d].blocks_written
            assert fast._arena._side[d] == ref._arena._side[d]
        assert fast._arena._bounds == ref._arena._bounds
        for mine, theirs in zip(fast._arena._lens, ref._arena._lens):
            assert np.array_equal(mine, theirs)


def test_read_run_unwritten_track_raises_canonical_error():
    fast = DiskArray(2, 1)
    ref = DiskArray(2, 1)
    with pytest.raises(SimulationError) as e_fast:
        fast.read_run(Runs(3, ((0, 1),)))
    with pytest.raises(SimulationError) as e_ref:
        ref.read_blocks([(0, 3)])
    assert str(e_fast.value) == str(e_ref.value)


def test_write_stream_rejects_bad_addresses_both_paths():
    run = BlockRun(b"\x00" * ITEM_BYTES, 1, ITEM_BYTES)
    for arr in (DiskArray(2, 1), _per_op_array(2, 1)):
        with pytest.raises(SimulationError, match="negative track -1"):
            arr.write_run(Runs(-1, ((0, 1),)), run)
        with pytest.raises(SimulationError, match="2 addresses for a run of 1 blocks"):
            arr.write_run(Runs(0, ((0, 2),)), run)
        # a disk the array lacks cannot be spelled as a run, only as a placement
        with pytest.raises(SimulationError, match="disk index 5 out of range 0..1"):
            arr.write_blocks([(5, 0, b"\x00" * ITEM_BYTES)])
        assert arr.tracks_in_use == 0 and arr.stats.parallel_ios == 0


def test_snapshot_restore_portable_across_storage_modes():
    """A checkpoint taken on one arena backend restores into the other,
    and into a fault-injected array (the snapshot is a plain dict)."""
    fast = DiskArray(2, 1)
    run = BlockRun(b"12345678" * 3, 3, ITEM_BYTES)
    fast.write_run(Runs(0, ((0, 3),)), run)
    snap = {d: fast.disks[d].snapshot_tracks() for d in range(2)}
    assert snap == {0: {0: b"12345678", 1: b"12345678"}, 1: {0: b"12345678"}}

    mm = DiskArray(2, 1, runtime=RuntimeConfig(arena="mmap"))
    try:
        for ref in (mm, FaultyDiskArray(2, 1, FaultPlan().injector_for(0))):
            for d in range(2):
                ref.disks[d].restore_tracks(snap[d])
            assert bytes(ref.read_run(Runs(0, ((0, 3),)))) == b"12345678" * 3
    finally:
        mm.close()


# ------------------------------------------- the engine stays on the bulk path

_PER_TRACK = ("read_blocks", "write_blocks", "parallel_io")


def _fig5_sort(engine, arena, balanced, n, faults=None):
    """One ``em_sort`` of *n* items at the fig5 shape on the disabled
    recorder: ``(cfg, values, IOStats dict)``."""
    from repro.cgm.config import MachineConfig
    from repro.em.runner import OPS, make_engine
    from repro.obs.bus import NULL_RECORDER

    cfg = MachineConfig(N=n, v=8, p=2 if engine == "par" else 1, D=2, B=16)
    data = np.random.default_rng(5).integers(0, 1 << 50, n)
    rt = RuntimeConfig.resolve(overrides={"arena": arena}, environ={})
    eng = make_engine(cfg, engine, balanced, runtime=rt, faults=faults)
    assert eng.tracer is NULL_RECORDER
    res = eng.run(OPS["sort"].program(), OPS["sort"].split(data, cfg.v))
    return cfg, np.concatenate(res.outputs), res.report.io.as_dict()


@pytest.mark.parametrize("balanced", [False, True], ids=["plain", "balanced"])
@pytest.mark.parametrize("arena", ["ram", "mmap"])
@pytest.mark.parametrize("engine", ["seq", "par"])
def test_clean_sort_never_enters_the_per_track_loop(
    monkeypatch, engine, arena, balanced
):
    """A clean ``em_sort`` services every run with one gather or scatter:
    zero ``read_blocks`` / ``write_blocks`` / ``parallel_io`` calls, on the
    disabled recorder.  (What a wall-clock floor used to stand in for: bulk
    reads silently falling back to the per-track loop.)  So does the same
    sort under an empty fault plan; on the specification arrays it takes
    that loop on every access, which shows the counter is live."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    calls = dict.fromkeys(_PER_TRACK, 0)
    for name in _PER_TRACK:
        def counted(self, *args, _name=name, _inner=getattr(DiskArray, name)):
            calls[_name] += 1
            return _inner(self, *args)

        monkeypatch.setattr(DiskArray, name, counted)

    def sort(faults):
        return _fig5_sort(engine, arena, balanced, 1 << 16, faults)[1:]

    values, io = sort(None)
    assert calls == dict.fromkeys(_PER_TRACK, 0)
    empty_values, empty_io = sort(FaultPlan())
    assert calls == dict.fromkeys(_PER_TRACK, 0)
    assert np.array_equal(values, empty_values) and io == empty_io
    with spec_arrays():
        per_op_values, per_op_io = sort(None)
    assert calls["read_blocks"] > 0 and calls["write_blocks"] > 0
    assert np.array_equal(values, per_op_values) and io == per_op_io


@pytest.mark.parametrize("balanced", [False, True], ids=["plain", "balanced"])
@pytest.mark.parametrize("arena", ["ram", "mmap"])
@pytest.mark.parametrize("engine", ["seq", "par"])
def test_clean_sort_moves_every_context_as_slices(monkeypatch, engine, arena, balanced):
    """Counted over the planned pieces, nothing re-derived: every context
    and every single-run stream of a clean ``em_sort`` moves as one slice
    of the linear row space (per chunk it touches), a whole inbox as at
    most one per message — and no index array exists to move anything
    else.  Address arrays are made by ``Runs.expand`` alone, once per
    plan-memo miss: a second, identical run (the steady state) makes none
    at all."""
    from collections import Counter

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    pieces, copies = Counter(), []
    expands = []
    for name in ("scatter", "gather"):
        def counted(self, plan_pieces, base, rows, _inner=getattr(TrackArena, name)):
            assert all(type(x) is int for piece in plan_pieces for x in piece)
            pieces[len(plan_pieces)] += 1
            return _inner(self, plan_pieces, base, rows)

        monkeypatch.setattr(TrackArena, name, counted)

    def written(self, runs, _inner=TrackArena.write_rows):
        # a large stream's runs, each one stretch of rows, handed over as
        # they are: one single-piece move a run
        pieces[1] += len(runs)
        return _inner(self, runs)

    monkeypatch.setattr(TrackArena, "write_rows", written)

    def spans(self, lin, n, _inner=TrackArena._spans):
        out = _inner(self, lin, n)
        b = self._bounds
        assert len(out) == sum(b[k] < lin + n and b[k + 1] > lin for k in range(len(b) - 1))
        copies.append(len(out))
        return out

    monkeypatch.setattr(TrackArena, "_spans", spans)

    def counting_expand(self, D, _inner=Runs.expand):
        expands.append(self)
        return _inner(self, D)

    monkeypatch.setattr(Runs, "expand", counting_expand)

    batch_plan.cache_clear()
    cfg, values, _io = _fig5_sort(engine, arena, balanced, 1 << 14)
    assert (values[:-1] <= values[1:]).all()
    info = batch_plan.cache_info()
    assert 0 < info.misses == len(expands) <= info.maxsize
    # v contexts x (setup write, 4 rounds of read + write, final read): one
    # slice each, like every other single-run stream
    assert pieces[1] >= cfg.v * 10 and max(pieces) <= cfg.v
    # a copy per chunk a piece touches, and few pieces touch two
    assert len(copies) >= sum(k * c for k, c in pieces.items()) // 2
    assert 20 * sum(c > 1 for c in copies) < len(copies)
    moves = sum(pieces.values())
    _fig5_sort(engine, arena, balanced, 1 << 14)
    assert len(expands) == info.misses and sum(pieces.values()) == 2 * moves
    assert batch_plan.cache_info().misses == info.misses


# ------------------------------------------------------------------ env knobs


def test_fastpath_env_flag(monkeypatch):
    """There is one I/O path: the retired switch is not a knob, a stale
    value in the environment is ignored, and no override can name it."""
    assert "REPRO_FASTPATH" not in KNOB_BY_ENV
    before = current()
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    assert current() == before
    arr = DiskArray(2, 1)
    run = BlockRun(b"12345678", 1, ITEM_BYTES)
    arr.write_run(Runs(0, ((0, 1),)), run)
    assert arr.try_gather(Runs(0, ((0, 1),)), np.empty(8, np.uint8))
    with pytest.raises(KnobError, match="fastpath"):
        before.with_overrides({"fastpath": "0"})


@pytest.mark.parametrize("arena", ["ram", "mmap"])
@pytest.mark.parametrize("lengths", [[1] * 8, [2, 3, 2, 3, 2, 3, 2, 3]], ids=["equal", "mixed"])
def test_an_inbox_in_one_chunk_gathers_as_one_indexed_copy(monkeypatch, arena, lengths):
    """An inbox — one message per source, each at its slot's offset in the
    destination's band — is a stream of several pieces.  Inside one chunk
    of the row space it is gathered with one indexed copy, not a slice per
    message; across a chunk boundary, per piece.  Either way the rows, the
    counters and a refused (unwritten) read are the per-op loop's."""
    from repro.core.layouts import MessageMatrix

    D, B, v, slot = 2, 8, 8, 4
    bb = B * ITEM_BYTES
    rt = RuntimeConfig.resolve(overrides={"arena": arena})
    spans = []
    monkeypatch.setattr(TrackArena, "_spans", lambda self, lin, n, _s=TrackArena._spans:
                        spans.append(n) or _s(self, lin, n))
    mm = MessageMatrix(v, v, D, slot, base_track=0)
    arr, ref = DiskArray(D, B, runtime=rt), _per_op_array(D, B)
    seen = set()
    for parity in (0, 1):
        for band in range(v):
            payload = [bytes([s + 1]) * (n * bb - 3) for s, n in enumerate(lengths)]
            for a in (arr, ref):
                for s, n in enumerate(lengths):
                    runs = mm.message_addresses_np(s, band, n, parity)
                    a.write_run(runs, BlockRun(payload[s], n, bb))
            runs = mm.inbox_addresses_np(band, list(enumerate(lengths)), parity)
            spans.clear()
            assert bytes(arr.read_run(runs)) == bytes(ref.read_run(runs))
            assert arr.stats.snapshot() == ref.stats.snapshot()
            first, last = runs.base * D + runs.runs[0][0], runs.base * D + runs.runs[-1][0]
            one_chunk = bisect_right(arr._arena._bounds, first) == bisect_right(
                arr._arena._bounds, last + lengths[-1] - 1)
            assert (spans == []) == one_chunk
            seen.add(one_chunk)
    assert seen == {True, False}
    arr.free_blocks(list(zip(*Runs(runs.base, runs.runs[3:4]).expand(D))))
    with pytest.raises(SimulationError, match="unwritten track"):
        arr.read_run(runs)
    arr.close()
