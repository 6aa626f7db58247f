"""Unwritten rows are unobservable.

A new chunk of the linear track store comes uncleared (``np.empty`` in RAM,
a sparse hole in the spill file): a row may be read only while its ledger
entry is set, and a written row carries its own padding.  So what a fresh
row happens to hold must not matter — these tests fill every new chunk
with a chosen byte
(zero is what ``np.zeros`` used to give, anything else is poison) and
require whole engine runs to be indistinguishable: outputs, logical
``IOStats``, every disk's ``snapshot()`` dict and every real's checkpoint
section, live rows at full stride, on both arenas, with and without a fault plan that tears writes
(the short, zero-padded rows).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.collectives import partition_array
from repro.algorithms.graphs.list_ranking import ListRanking
from repro.cgm.config import MachineConfig
from repro.em.runner import OPS, make_engine
from repro.faults import CheckpointManager, FaultPlan
from repro.pdm.arena import TrackArena
from repro.pdm.block import BlockRun, Runs
from repro.pdm.disk_array import DiskArray
from repro.pdm.mmap_arena import MmapTrackArena
from repro.tune.runtime import RuntimeConfig
from repro.util.validation import SimulationError


@contextmanager
def fresh_rows_hold(fill: int):
    """Every row of every chunk an arena adds starts as *fill* bytes."""
    saved = {cls: cls.__dict__["_new_chunk"] for cls in (TrackArena, MmapTrackArena)}

    def filling(inner):
        def _new_chunk(self, start, rows):
            chunk = inner(self, start, rows)
            chunk[:] = fill
            return chunk

        return _new_chunk

    try:
        for cls, inner in saved.items():
            cls._new_chunk = filling(inner)
        yield
    finally:
        for cls, inner in saved.items():
            cls._new_chunk = inner


TORN = FaultPlan(seed=11, p_torn_write=0.05, p_transient_read=0.02)


def _observe(kind: str, arena: str, faults, seed: int, ckpt_dir) -> dict:
    """One small run and everything about it a caller could look at."""
    rng = np.random.default_rng(seed)
    if kind == "list_rank":
        n = 512
        cfg = MachineConfig(N=n, v=8, D=2, B=16).with_(M=None)
        order = rng.permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        succ[order[:-1]] = order[1:]
        weights = (succ >= 0).astype(np.float64)
        program = ListRanking()
        inputs = list(zip(partition_array(succ, cfg.v), partition_array(weights, cfg.v)))
        engine, balanced = "seq", False
    else:  # the fig5 sort on seq, or balanced on the in-process par engine
        n = 1 << 12
        engine, balanced = ("par", True) if kind == "balanced_par" else ("seq", False)
        cfg = MachineConfig(N=n, v=8, p=2 if engine == "par" else 1, D=2, B=16)
        program = OPS["sort"].program()
        inputs = OPS["sort"].split(rng.integers(0, 1 << 50, n), cfg.v)
    rt = RuntimeConfig.resolve(overrides={"arena": arena}, environ={})
    ckpt = CheckpointManager(str(ckpt_dir))
    eng = make_engine(cfg, engine, balanced, runtime=rt, faults=faults, checkpoint=ckpt)
    try:
        res = eng.run(program, inputs)
        sections = []
        for path, offset, nbytes in ckpt.load().sections:
            with open(path, "rb") as fh:
                fh.seek(offset)
                sections.append(fh.read(nbytes))
        return {
            "outputs": [np.asarray(o).tobytes() for o in res.outputs],
            "io": res.report.io.as_dict(),
            "tracks": {
                r: [arr._arena.snapshot(d) for d in range(cfg.D)]
                for r, arr in eng.arrays.items()
            },
            # the report inside a checkpoint carries wall-clock seconds;
            # everything a resume restores from — each real's section,
            # its live rows at full stride — is compared byte for byte
            "checkpoint": sections,
        }
    finally:
        for arr in eng.arrays.values():
            arr.close()


@settings(max_examples=3, deadline=None)
@given(fill=st.integers(1, 255), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("faults", [None, TORN], ids=["clean", "torn-writes"])
@pytest.mark.parametrize("arena", ["ram", "mmap"])
@pytest.mark.parametrize("kind", ["fig5_sort", "list_rank", "balanced_par"])
def test_poisoned_fresh_rows_change_nothing(tmp_path_factory, kind, arena, faults, fill, seed):
    with fresh_rows_hold(0):
        zeros = _observe(kind, arena, faults, seed, tmp_path_factory.mktemp("zeros"))
    with fresh_rows_hold(fill):
        poisoned = _observe(kind, arena, faults, seed, tmp_path_factory.mktemp("poison"))
    assert poisoned == zeros
    assert any(zeros["tracks"][0])  # the run did leave tracks to compare


def test_the_torn_plan_really_tears():
    """The fault lane above is live: the plan commits short prefixes (rows
    whose tail ``put`` pads) and every one of them is retried to success."""
    with fresh_rows_hold(0xA5):
        rng = np.random.default_rng(3)
        cfg = MachineConfig(N=1 << 12, v=8, D=2, B=16)
        eng = make_engine(cfg, "seq", faults=TORN, runtime=RuntimeConfig(arena="ram"))
        res = eng.run(OPS["sort"].program(), OPS["sort"].split(rng.integers(0, 1 << 50, cfg.N), cfg.v))
    assert res.report.fault_stats.torn_writes > 0
    assert (np.diff(np.concatenate(res.outputs)) >= 0).all()


@pytest.mark.parametrize("arena", ["ram", "mmap"])
def test_a_never_written_track_still_raises_the_canonical_error(arena):
    """Poison does not turn a free row into data: inside the first chunk,
    beyond the row space, after a free and on a short row, the bulk read
    answers as the per-track loop does."""
    with fresh_rows_hold(0xA5):
        arr = DiskArray(2, 1, runtime=RuntimeConfig(arena=arena))
        try:
            arr.write_run(Runs(0, ((0, 4),)), BlockRun(b"\x07" * 32, 4, 8))
            assert arr._arena._bounds == [0, 128]  # tracks 2..63 exist, unwritten
            assert bytes(arr._arena._chunks[0][5 * 2]) == b"\xa5" * 8
            for runs, text in (
                (Runs(0, ((0, 12),)), "read of unwritten track 2 on disk 0"),
                (Runs(5, ((1, 1),)), "read of unwritten track 5 on disk 1"),
                (Runs(500, ((0, 2),)), "read of unwritten track 500 on disk 0"),
            ):
                for _ in range(2):
                    with pytest.raises(SimulationError) as err:
                        arr.read_run(runs)
                    assert str(err.value) == text
                assert not arr.try_gather(runs, np.empty(runs.nblocks * 8, np.uint8))
            arr.free_blocks([(1, 0)])
            with pytest.raises(SimulationError, match="read of unwritten track 0 on disk 1"):
                arr.read_run(Runs(0, ((0, 4),)))
            arr.disks[1].write(0, b"xy")  # a torn write's short prefix
            assert bytes(arr.read_run(Runs(0, ((0, 2),)))) == b"\x07" * 8 + b"xy" + b"\x00" * 6
            assert arr._arena.snapshot(1) == {0: b"xy", 1: b"\x07" * 8}
            assert arr._arena.get(0, 7) is None and arr._arena.get(0, 70) is None
        finally:
            arr.close()
