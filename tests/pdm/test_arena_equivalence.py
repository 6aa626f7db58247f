"""Storage-backend equivalence: a dict model, the RAM arena, the mmap arena.

One logical track store — ``dict[int, bytes]`` per disk — and the two
arena backends that implement it.  The hypothesis suites drive the *same*
randomized operation sequence through a plain-dict model and both arenas
and assert that every observable — returned bytes, ``SimulationError`` parity
on free-track reads, occupancy, snapshots, side-dict fallbacks for
odd-sized and shadow-region tracks — is identical.  The boundary classes
pin the exact ``MAX_DIRECT_TRACK`` edge, where a track one below must stay
dense and a track at the constant must divert to the side dict (the
scatter path historically skipped that check and allocated rows for the
whole gap).  Streams whose runs cross the arena's chunk boundaries — the
ramp's first edge and the first edge between two full-size chunks — are
part of the differential on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdm.arena import MAX_DIRECT_TRACK, TrackArena, chunk_tracks
from repro.pdm.disk import Disk
from repro.pdm.block import BlockRun, Runs
from repro.pdm.disk_array import DiskArray, batch_plan
from repro.pdm.mmap_arena import MmapTrackArena
from repro.tune.runtime import RuntimeConfig
from repro.util.validation import SimulationError

D = 2
BB = 8  # block bytes


def _pieces(disks, tracks, D: int = 1):
    """Arbitrary placements as the linear pieces the arena's bulk movers
    take: one one-block piece per stream row (base track 0)."""
    return tuple((i, int(t) * D + int(d), 1) for i, (d, t) in enumerate(zip(disks, tracks)))


def _chunk_edges(D: int, bb: int) -> list[int]:
    """The tracks where the arena's chunks end, through the end of its
    first full-size chunk (growing a RAM arena allocates, touches nothing)."""
    a, edges, size = TrackArena(D, bb), [], 0
    while size < chunk_tracks(D, bb):
        before = a._bounds[-1]
        a._ensure_rows(before + 1)
        size = (a._bounds[-1] - before) // D
        edges.append(a._bounds[-1] // D)
    return edges


def _single_blocks(placements, D: int = D) -> Runs:
    """Arbitrary ``(disk, track)`` placements as one-block runs."""
    return Runs(0, tuple((t * D + d, 1) for d, t in placements))


class _DictDisk:
    """The model a :class:`Disk` must be indistinguishable from: one
    ``dict[int, bytes]``, with the same counters and the same errors."""

    def __init__(self, disk_id: int) -> None:
        self.disk_id = disk_id
        self.tracks: dict[int, bytes] = {}
        self.blocks_read = self.blocks_written = 0

    def write(self, track: int, data: bytes) -> None:
        self.tracks[track] = data
        self.blocks_written += 1

    def read(self, track: int) -> bytes:
        if track not in self.tracks:
            raise SimulationError(
                f"read of unwritten track {track} on disk {self.disk_id}"
            )
        self.blocks_read += 1
        return self.tracks[track]

    def free(self, track: int) -> None:
        self.tracks.pop(track, None)

    def snapshot_tracks(self) -> dict[int, bytes]:
        return dict(self.tracks)

    def restore_tracks(self, tracks: dict[int, bytes]) -> None:
        self.tracks = dict(tracks)

    @property
    def tracks_in_use(self) -> int:
        return len(self.tracks)

    def max_track(self) -> int:
        return max(self.tracks, default=-1)


@pytest.fixture
def trio():
    """One dict-model disk bank plus RAM- and mmap-arena banks."""
    ram = TrackArena(D, BB)
    mm = MmapTrackArena(D, BB)
    banks = (
        [_DictDisk(d) for d in range(D)],
        [Disk(d, arena=ram) for d in range(D)],
        [Disk(d, arena=mm) for d in range(D)],
    )
    yield banks
    mm.close()


def _read_all(banks, disk: int, track: int):
    """Read one address through every backend; returns the common result.

    Either all three return the same bytes or all three raise the same
    canonical error — anything else is an equivalence bug.
    """
    results = []
    for bank in banks:
        try:
            results.append(bank[disk].read(track))
        except SimulationError as exc:
            results.append(str(exc))
    assert results[0] == results[1] == results[2], (disk, track, results)
    return results[0]


# ------------------------------------------------------------- op sequences

# Track values exercise the dense range, the side-dict shadow region
# (>= MAX_DIRECT_TRACK, as the fault injector's remaps use), and payload
# sizes exercise full-stride, short (padded) and oversized (side dict).
_tracks = st.one_of(
    st.integers(min_value=0, max_value=24),
    st.sampled_from([MAX_DIRECT_TRACK, MAX_DIRECT_TRACK + 5, (1 << 40) + 3]),
)
_payloads = st.binary(min_size=0, max_size=BB + 4)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, D - 1), _tracks, _payloads),
        st.tuples(st.just("read"), st.integers(0, D - 1), _tracks),
        st.tuples(st.just("free"), st.integers(0, D - 1), _tracks),
    ),
    max_size=30,
)


@given(ops=_ops)
def test_randomized_sequences_are_equivalent(ops):
    ram = TrackArena(D, BB)
    mm = MmapTrackArena(D, BB)
    try:
        banks = (
            [_DictDisk(d) for d in range(D)],
            [Disk(d, arena=ram) for d in range(D)],
            [Disk(d, arena=mm) for d in range(D)],
        )
        for op in ops:
            if op[0] == "write":
                _, d, t, payload = op
                for bank in banks:
                    bank[d].write(t, payload)
            elif op[0] == "read":
                _, d, t = op
                _read_all(banks, d, t)
            else:
                _, d, t = op
                for bank in banks:
                    bank[d].free(t)
        for d in range(D):
            ref = banks[0][d]
            for bank in banks[1:]:
                assert bank[d].snapshot_tracks() == ref.snapshot_tracks()
                assert bank[d].tracks_in_use == ref.tracks_in_use
                assert bank[d].max_track() == ref.max_track()
                assert bank[d].blocks_read == ref.blocks_read
                assert bank[d].blocks_written == ref.blocks_written
    finally:
        mm.close()


@settings(max_examples=25)
@given(
    addrs=st.lists(
        st.tuples(st.integers(0, D - 1), st.integers(0, 15)),
        min_size=1,
        max_size=16,
    ),
    payload=st.binary(min_size=0, max_size=16 * BB),
)
def test_batch_scatter_gather_matches_dict_writes(addrs, payload):
    """A full-stride batch scatter equals per-track dict writes, and both
    arenas gather back the identical bytes."""
    n = len(addrs)
    raw = payload.ljust(n * BB, b"\x00")[: n * BB]
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, BB)
    disks = np.asarray([a for a, _ in addrs], dtype=np.int64)
    tracks = np.asarray([t for _, t in addrs], dtype=np.int64)

    ref = [_DictDisk(d) for d in range(D)]
    for (d, t), i in zip(addrs, range(n)):
        ref[d].write(t, rows[i].tobytes())

    ram = TrackArena(D, BB)
    mm = MmapTrackArena(D, BB)
    try:
        for arena in (ram, mm):
            arena.scatter(_pieces(disks, tracks, D), 0, rows)
            for d in range(D):
                assert arena.snapshot(d) == ref[d].snapshot_tracks()
            uniq = sorted(set(addrs))
            ud = np.asarray([a for a, _ in uniq], dtype=np.int64)
            ut = np.asarray([t for _, t in uniq], dtype=np.int64)
            out = np.empty((len(uniq), BB), dtype=np.uint8)
            assert arena.gather(_pieces(ud, ut, D), 0, out)
            expect = b"".join(ref[d].read(t) for d, t in uniq)
            assert out.tobytes() == expect
    finally:
        mm.close()


def test_occupancy_mask_parity_after_frees(trio):
    banks = trio
    for bank in banks:
        bank[0].write(0, b"A" * BB)
        bank[0].write(1, b"B" * BB)
        bank[1].write(2, b"C" * BB)
        bank[0].free(1)
        bank[1].free(9)  # freeing an unwritten track is a no-op everywhere
    for d in range(D):
        assert (
            banks[0][d].snapshot_tracks()
            == banks[1][d].snapshot_tracks()
            == banks[2][d].snapshot_tracks()
        )
    assert _read_all(banks, 0, 0) == b"A" * BB
    assert "unwritten track 1" in _read_all(banks, 0, 1)


def test_snapshots_port_across_all_backends(trio):
    """A snapshot taken on any backend restores into any other."""
    src_bank = trio[2]  # mmap
    src_bank[0].write(3, b"x" * BB)
    src_bank[0].write(MAX_DIRECT_TRACK + 1, b"far")
    src_bank[0].write(5, b"odd-size-payload")  # > BB: side dict
    snap = src_bank[0].snapshot_tracks()
    for dest_bank in trio[:2]:
        dest_bank[0].restore_tracks(snap)
        assert dest_bank[0].snapshot_tracks() == snap
        assert dest_bank[0].read(MAX_DIRECT_TRACK + 1) == b"far"
        assert dest_bank[0].read(5) == b"odd-size-payload"


@pytest.mark.parametrize("kind", ["ram", "mmap"])
def test_far_track_does_not_demote_dense_gathers(kind):
    """Regression: ``gather`` used to refuse a whole disk as soon as it
    held *any* side-dict entry, so one track past ``MAX_DIRECT_TRACK``
    sent every later bulk read on that disk through the per-track loop.
    Only a *requested* side-dict track may refuse the dense gather."""
    rt = RuntimeConfig(arena=kind)
    far, plain = DiskArray(D, 1, runtime=rt), DiskArray(D, 1, runtime=rt)
    try:
        runs = Runs(0, ((0, 4),))
        payload = bytes(range(4 * BB))
        for arr in (far, plain):
            arr.write_run(runs, BlockRun(payload, 4, BB))
        far._arena.put(0, MAX_DIRECT_TRACK + 3, b"F" * BB)

        out = np.empty(4 * BB, dtype=np.uint8)
        assert far.try_gather(runs, out)
        assert out.tobytes() == payload
        assert far.read_run(runs).tobytes() == plain.read_run(runs).tobytes()
        assert far.stats.as_dict() == plain.stats.as_dict()
        for d in range(D):
            assert far.disks[d].blocks_read == plain.disks[d].blocks_read

        # the far track itself still reads through the per-track loop
        beyond = Runs(MAX_DIRECT_TRACK + 3, ((0, 1),))
        assert not far.try_gather(beyond, out)
        assert far.read_run(beyond).tobytes() == b"F" * BB
    finally:
        far.close()
        plain.close()


# ------------------------------------------- all-or-nothing bulk movers


@pytest.mark.parametrize("kind", ["ram", "mmap"])
def test_refused_gather_leaves_out_untouched(kind):
    """Regression: ``gather`` copied each disk as it went, so a stream
    whose disk 0 was written and disk 1 was not returned ``False`` with
    ``out[0]`` already filled."""
    arena = TrackArena(D, BB) if kind == "ram" else MmapTrackArena(D, BB)
    try:
        arena.put(0, 0, b"A" * BB)
        arena.put(1, 0, b"short")  # not full-stride: the other refusal
        out = np.zeros((2, BB), dtype=np.uint8)
        for t1 in (0, 1):  # short row, then unwritten row
            assert not arena.gather(_pieces([0, 1], [0, t1], D), 0, out)
            assert not out.any()
    finally:
        arena.close()


def test_quota_error_stores_nothing():
    """Regression: ``scatter`` stored disk 0's rows before disk 1's growth
    hit ``REPRO_SPILL_QUOTA``.  The row space grows before anything is
    stored now, so a refused stream — here one whose last block needs the
    second chunk — leaves tracks and counters as they were."""
    first = 64 * D * BB  # the first chunk: 64 tracks of every disk
    rt = RuntimeConfig(arena="mmap", spill_quota=first + BB)
    arr = DiskArray(D, 1, runtime=rt)
    try:
        arr.write_run(_single_blocks([(0, 0), (0, 1)]), BlockRun(b"x" * 16, 2, BB))
        before = [d.snapshot_tracks() for d in arr.disks], arr.stats.as_dict()
        with pytest.raises(SimulationError, match="spill quota exceeded"):
            arr.write_run(_single_blocks([(0, 1), (1, 0), (0, 64)]), BlockRun(b"y" * 24, 3, BB))
        assert ([d.snapshot_tracks() for d in arr.disks], arr.stats.as_dict()) == before
    finally:
        arr.close()


# ------------------------------------- planned extents vs per-track model

_FAR = MAX_DIRECT_TRACK - 2  # a run from here straddles the side-dict edge
_EDGES = _chunk_edges(D, BB)  # runs from just below these cross a chunk edge


@st.composite
def _segments(draw):
    """A multi-segment write stream as :class:`Runs`: consecutive runs from
    random start disks (one slice pair per disk), strided and scattered
    one-block runs, repeats of earlier addresses, runs across
    ``MAX_DIRECT_TRACK``, across the first chunk edge and the first edge
    between full-size chunks, and now and then one run far longer than the
    rest."""
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["run", "run", "gaps", "random", "long"]))
        n = 4101 if shape == "long" else draw(st.integers(1, 24))
        base = draw(st.sampled_from([0, 3, 60, 130, _FAR, _EDGES[-2] - 3, _EDGES[-1] - 2]))
        start = draw(st.integers(0, D - 1))
        if shape == "random":
            seg = _single_blocks(draw(st.lists(
                st.tuples(st.integers(0, D - 1), st.integers(base, base + 6)),
                min_size=n, max_size=n,
            )))
        elif shape == "gaps":
            gap = draw(st.integers(2, 3))
            seg = Runs(base, tuple(((start + q) * gap, 1) for q in range(n)))
        else:
            seg = Runs(base, ((start, n),))
        segments.append(seg)
    if draw(st.booleans()):  # duplicate addresses: last write wins
        k = draw(st.integers(1, 8))
        segments.append(_single_blocks(_placements(segments[0])[:k][::-1]))
    return segments


def _placements(runs: Runs) -> list[tuple[int, int]]:
    disks, tracks = runs.expand(D)
    return list(zip(disks.tolist(), tracks.tolist()))


@settings(max_examples=40, deadline=None)
@given(segments=_segments(), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("kind", ["ram", "mmap"])
def test_planned_extents_match_the_per_track_model(kind, segments, seed):
    """``write_stream``/``read_run`` move a stream by its planned linear
    pieces, a run one slice per chunk it touches; the model stores and
    fetches the same stream one ``put``/``get`` at a time.  Same tracks, same
    side dicts, same bytes read back."""
    rng = np.random.default_rng(seed)
    arr = DiskArray(D, 1, runtime=RuntimeConfig(arena=kind))
    model = TrackArena(D, BB)
    try:
        flat = [addr for seg in segments for addr in _placements(seg)]
        # an odd-sized track under the stream must leave the side dict
        for arena in (arr._arena, model):
            arena.put(*flat[0], b"oversize-payload")
        stream = []
        for seg in segments:
            raw = rng.integers(0, 256, seg.nblocks * BB - 3, dtype=np.uint8).tobytes()
            run = BlockRun(raw, seg.nblocks, BB)  # the tail block is zero-padded
            stream.append((seg, run))
            for (d, t), block in zip(_placements(seg), run.to_blocks()):
                model.put(d, t, block)
        arr.write_stream(stream)
        for d in range(D):
            assert arr._arena.snapshot(d) == model.snapshot(d)
            assert arr._arena._side[d] == model._side[d]

        order = rng.permutation(len(flat)).tolist()  # re-reads included
        shuffled = [flat[i] for i in order]
        want = b"".join(model.get(d, t) for d, t in shuffled)
        assert arr.read_run(_single_blocks(shuffled)).tobytes() == want
        for seg in segments:  # and segment by segment, as the engines read
            want = b"".join(model.get(d, t) for d, t in _placements(seg))
            assert arr.read_run(seg).tobytes() == want
    finally:
        arr.close()


# --------------------------------------------- MAX_DIRECT_TRACK boundary


class _Boundary:
    """Shared boundary regressions, run against both arena backends.

    Uses ``block_bytes=1`` so dense growth to the real constant's edge
    costs ~1 MiB, keeping the true-boundary coverage cheap enough for
    tier-1.
    """

    def make(self) -> TrackArena:
        raise NotImplementedError

    def teardown_arena(self, arena: TrackArena) -> None:
        arena.close()

    def test_put_one_below_stays_dense(self):
        a = self.make()
        try:
            a.put(0, MAX_DIRECT_TRACK - 1, b"z")
            assert a.get(0, MAX_DIRECT_TRACK - 1) == b"z"
            assert not a._side[0], "track MAX-1 must not spill to the side dict"
            assert a._bounds[-1] == MAX_DIRECT_TRACK  # the row space's end
        finally:
            self.teardown_arena(a)

    def test_put_at_boundary_goes_to_side_dict(self):
        a = self.make()
        try:
            a.put(0, MAX_DIRECT_TRACK, b"w")
            assert a.get(0, MAX_DIRECT_TRACK) == b"w"
            assert a._side[0] == {MAX_DIRECT_TRACK: b"w"}
            assert a._bounds[-1] == 0, "boundary put must not grow rows"
        finally:
            self.teardown_arena(a)

    def test_scatter_straddling_the_boundary(self):
        """Regression: scatter used to ignore MAX_DIRECT_TRACK entirely,
        growing dense rows for the whole gap and breaking the side-dict
        invariant.  A straddling batch must split: below-dense, at/above-
        side, with last-wins semantics preserved across the split."""
        a = self.make()
        try:
            disks = np.zeros(3, dtype=np.int64)
            tracks = np.asarray(
                [MAX_DIRECT_TRACK - 1, MAX_DIRECT_TRACK, MAX_DIRECT_TRACK + 2],
                dtype=np.int64,
            )
            rows = np.frombuffer(b"abc", dtype=np.uint8).reshape(3, 1)
            a.scatter(_pieces(disks, tracks), 0, rows)
            assert a.get(0, MAX_DIRECT_TRACK - 1) == b"a"
            assert a.get(0, MAX_DIRECT_TRACK) == b"b"
            assert a.get(0, MAX_DIRECT_TRACK + 2) == b"c"
            assert set(a._side[0]) == {MAX_DIRECT_TRACK, MAX_DIRECT_TRACK + 2}
            assert a._bounds[-1] <= MAX_DIRECT_TRACK
            assert a.max_track(0) == MAX_DIRECT_TRACK + 2
            # a dict round-trip carries all three across backends
            snap = a.snapshot(0)
            b = TrackArena(1, 1)
            b.restore(0, snap)
            assert b.snapshot(0) == snap
        finally:
            self.teardown_arena(a)

    def test_scatter_overwrites_boundary_side_entries(self):
        a = self.make()
        try:
            a.put(0, MAX_DIRECT_TRACK, b"old")
            a.scatter(
                _pieces([0], [MAX_DIRECT_TRACK]),
                0,
                np.frombuffer(b"n", dtype=np.uint8).reshape(1, 1),
            )
            assert a.get(0, MAX_DIRECT_TRACK) == b"n"
            assert a._side[0] == {MAX_DIRECT_TRACK: b"n"}
        finally:
            self.teardown_arena(a)

    def test_gather_refuses_boundary_tracks(self):
        a = self.make()
        try:
            a.put(0, MAX_DIRECT_TRACK, b"w")
            out = np.empty((1, 1), dtype=np.uint8)
            assert not a.gather(_pieces([0], [MAX_DIRECT_TRACK]), 0, out)
        finally:
            self.teardown_arena(a)

    @pytest.mark.parametrize("base", [MAX_DIRECT_TRACK - 2, 1 << 40])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_a_planned_run_crossing_the_boundary_diverts_its_far_tracks(self, base, stride):
        """A stream moved by its memoised plan — one-block runs that abut
        (one piece) or equal messages *stride* tracks apart (a piece
        each): the tracks below ``MAX_DIRECT_TRACK`` stay dense, the rest go
        to the side dict (all of them in the injector's shadow region at
        ``1 << 40``), and the dense gather refuses the stream without
        touching *out*."""
        a = self.make()
        try:
            pieces = batch_plan(1, tuple((q * stride, 1) for q in range(5))).pieces
            assert len(pieces) == (1 if stride == 1 else 5)
            tracks = [base + q * stride for q in range(5)]
            rows = np.frombuffer(b"abcde", dtype=np.uint8).reshape(5, 1)
            a.put(0, tracks[4], b"old")
            a.scatter(pieces, base, rows)
            assert [a.get(0, t) for t in tracks] == [b"a", b"b", b"c", b"d", b"e"]
            assert sorted(a._side[0]) == [t for t in tracks if t >= MAX_DIRECT_TRACK]
            assert a.tracks_in_use(0) == 5 and a._bounds[-1] <= MAX_DIRECT_TRACK
            out = np.zeros((5, 1), dtype=np.uint8)
            assert not a.gather(pieces, base, out) and not out.any()
        finally:
            self.teardown_arena(a)


class TestBoundaryRam(_Boundary):
    def make(self) -> TrackArena:
        return TrackArena(1, 1)


class TestBoundaryMmap(_Boundary):
    def make(self) -> TrackArena:
        return MmapTrackArena(1, 1)
