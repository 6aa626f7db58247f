"""One fault path: a fault-injected run moves its streams in bulk.

The injector decides a whole stream at once (``FaultInjector.decide``)
and the bytes then move through the clean run's scatter/gather, so no
engine path reaches the per-op ``parallel_io`` loop, with or without a
plan (on a fault-injected array that loop refuses).  And a stream decided
at once suffers exactly what :class:`OneAccessAtATime` makes of the same
placements: the injector's rules applied to one access after another,
with one scalar draw per attempt, which shares nothing with ``decide``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.collectives import partition_array
from repro.algorithms.graphs.list_ranking import ListRanking
from repro.cgm.config import MachineConfig
from repro.cgm.program import CGMProgram
from repro.em.runner import OPS, make_engine
from repro.faults.injector import DiskFault, FaultInjector, FaultyDiskArray
from repro.faults.plan import DiskDeath, FaultPlan, RetryPolicy, ScheduledFault
from repro.obs.bus import EventBus
from repro.pdm.arena import MAX_DIRECT_TRACK
from repro.pdm.block import BlockRun, Runs
from repro.pdm.disk_array import DiskArray, IOOp
from tests.spec_array import SpecDiskArray

ROOT = Path(__file__).resolve().parents[2]
CI_PLAN = FaultPlan.from_json(str(ROOT / "benchmarks" / "fault_plans" / "ci_transient.json"))
_PER_OP = ("parallel_io", "write_blocks", "read_blocks")


class _Oversized(CGMProgram):
    """Sends more than it promised, so every message spills to an
    overflow run."""

    name = "oversized"

    def max_message_items(self, shape):
        return 8

    def setup(self, ctx, pid, shape, local_input):
        ctx["data"] = local_input

    def round(self, r, ctx, env):
        for m in env.messages():
            ctx["data"] = m.payload
        if r < 3:
            env.send((env.pid + 1) % env.v, ctx["data"])
            return False
        return True

    def finish(self, ctx):
        return ctx["data"]


def _workload(kind: str, rng):
    if kind == "list_rank":
        n = 1024
        cfg = MachineConfig(N=n, v=8, D=2, B=16)
        order = rng.permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        succ[order[:-1]] = order[1:]
        weights = (succ >= 0).astype(np.float64)
        inputs = list(zip(partition_array(succ, cfg.v), partition_array(weights, cfg.v)))
        return cfg, ListRanking(), inputs
    cfg = MachineConfig(N=1 << 12, v=4, D=2, B=16)
    if kind == "overflow":
        return cfg, _Oversized(), [rng.integers(0, 2**40, 500) for _ in range(cfg.v)]
    data = rng.integers(0, 1 << 50, cfg.N)
    return cfg, OPS["sort"].program(), OPS["sort"].split(data, cfg.v)


@pytest.mark.parametrize("plan", [FaultPlan(), CI_PLAN], ids=["empty", "ci_transient"])
@pytest.mark.parametrize("kind", ["sort", "list_rank", "overflow"])
def test_fault_injected_runs_never_enter_the_per_op_loop(monkeypatch, kind, plan):
    calls = {name: 0 for name in _PER_OP}
    for cls in (DiskArray, FaultyDiskArray):
        for name in _PER_OP:
            if name not in vars(cls):
                continue

            def counted(self, *args, _name=name, _inner=vars(cls)[name]):
                calls[_name] += 1
                return _inner(self, *args)

            monkeypatch.setattr(cls, name, counted)
    cfg, program, inputs = _workload(kind, np.random.default_rng(4))
    res = make_engine(cfg, "seq", faults=plan).run(program, inputs)
    assert calls == dict.fromkeys(_PER_OP, 0)
    assert (res.report.overflow_blocks > 0) == (kind == "overflow")
    if kind == "overflow":
        for pid in range(cfg.v):
            assert np.array_equal(res.outputs[pid], inputs[(pid - 3) % cfg.v])


class OneAccessAtATime(SpecDiskArray, FaultyDiskArray):
    """The reference for a fault plan: streams go through the per-op loop,
    and each parallel I/O services its accesses one after another.  At
    each I/O the deaths due come first; then, per access in batch order, a
    dead disk's address moves to its survivor, a scheduled fault strikes
    the first attempt, every other attempt draws its own uniforms, and
    retries run until one succeeds or the policy gives up."""

    def _draw(self, op: IOOp) -> str | None:
        inj = self.injector
        p, rng = inj.plan, inj._rng
        if op.is_write:
            if p.p_torn_write and rng.random() < p.p_torn_write:
                return "torn_write"
            if p.p_transient_write and rng.random() < p.p_transient_write:
                return "transient_write"
        elif p.p_transient_read and rng.random() < p.p_transient_read:
            return "transient_read"
        return None

    def parallel_io(self, ops: list[IOOp]) -> list[bytes]:
        if not ops:
            return []
        touched = self._check_batch(ops)
        inj, st, D = self.injector, self.injector.stats, self.D
        op_idx = inj.op_index
        inj.op_index += 1
        due = sorted(d for d, after in inj._pending_death.items() if op_idx >= after)
        for dead in due:
            del inj._pending_death[dead]
        for dead in due:
            self._kill_disk(dead, op_idx)
        out, physical, remapped = [], set(), False
        for op in ops:
            pdisk, ptrack = op.disk, op.track
            if op.disk in inj.dead:
                pdisk, ptrack = inj.resolve(op.disk, op.track, D)
                remapped = True
            physical.add(pdisk)
            kind = inj._schedule.get((op_idx, op.disk)) or self._draw(op)
            attempt = 0
            while kind is not None:
                name = {"torn_write": "torn_writes"}.get(kind, f"{kind}_faults")
                setattr(st, name, getattr(st, name) + 1)
                if kind == "torn_write" and op.is_write:
                    self.disks[pdisk].write(ptrack, op.data[: max(1, len(op.data) // 2)])
                self._tracer.emit(
                    "io_fault", real=self._real, disk=op.disk, track=op.track,
                    op=op_idx, fault=kind, attempt=attempt,
                )
                if attempt == inj.retry.max_retries:
                    raise DiskFault(
                        f"{kind} on disk {op.disk} track {op.track} of real "
                        f"processor {self._real} persists after "
                        f"{attempt} retries (parallel I/O #{op_idx})"
                    )
                attempt += 1
                st.retries += 1
                st.backoff_s += inj.retry.backoff_s * attempt
                kind = self._draw(op)
            st.retried_accesses += attempt > 0
            if op.is_write:
                self.disks[pdisk].write(ptrack, op.data)
            else:
                out.append(self.disks[pdisk].read(ptrack))
        if remapped:
            st.degraded_ios += 1
            st.lost_width += len(touched) - len(physical)
        self.stats.record(len(out), len(ops) - len(out), sorted(touched), D)
        return out


@st.composite
def _plans(draw, D: int):
    p = st.sampled_from([0.0, 0.05, 0.3])
    kinds = st.lists(st.sampled_from(["transient_write", "torn_write"]), max_size=4)
    schedule = tuple(
        ScheduledFault(0, draw(st.integers(0, 6)), draw(st.integers(0, D - 1)), kind)
        for kind in draw(kinds)
    )
    # a death may leave no survivor, which ends the run
    dying = draw(st.sets(st.integers(0, D - 1), max_size=D))
    deaths = tuple(DiskDeath(0, d, draw(st.integers(0, 10))) for d in sorted(dying))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        p_transient_read=draw(p),
        p_transient_write=draw(p),
        p_torn_write=draw(p),
        retry=RetryPolicy(max_retries=draw(st.sampled_from([0, 1, 4])), backoff_s=0.25),
        schedule=schedule,
        dead_disks=deaths,
    )


@st.composite
def _cases(draw):
    D = draw(st.integers(1, 3))
    streams = []
    for _ in range(draw(st.integers(1, 3))):
        runs = Runs(
            draw(st.integers(0, 3)),
            tuple(
                (draw(st.integers(0, 2 * D)), draw(st.integers(0, 9)))
                for _ in range(draw(st.integers(1, 3)))
            ),
        )
        streams.append(runs)
    return D, draw(_plans(D)), streams


def _observe(arr, plan_fn):
    """Run *plan_fn*; everything about the array afterwards."""
    try:
        got = plan_fn()
        error = None
    except DiskFault as exc:
        got, error = None, str(exc)
    inj = arr.injector
    return {
        "result": got,
        "error": error,
        "faults": inj.stats.as_dict(),
        "injector": {k: v for k, v in inj.state().items() if k != "stats"},
        "io": arr.stats.as_dict(),
        "tracks": [d.snapshot_tracks() for d in arr.disks],
        "counts": [(d.blocks_read, d.blocks_written) for d in arr.disks],
        "events": [
            {k: v for k, v in ev.items() if k not in ("seq", "ts")}
            for ev in getattr(arr._tracer, "events", ())
            if ev["kind"] in ("io_fault", "disk_dead")
        ],
    }


def _lanes(D: int, plan: FaultPlan) -> list[FaultyDiskArray]:
    """The run API and the one-access reference."""
    kinds = (FaultyDiskArray, OneAccessAtATime)
    return [
        cls(D, 1, plan.injector_for(0), tracer=EventBus(monitor=False)) for cls in kinds
    ]


def _agree(lanes, runs: Runs, raw: bytes) -> str | None:
    """Write then read *raw* at *runs* on both lanes; they must end alike.
    The :class:`DiskFault` they stopped on, if any."""
    bulk, ref = lanes
    run = BlockRun(raw, runs.nblocks, 8)
    for stream in (lambda a: a.write_run(runs, run), lambda a: bytes(a.read_run(runs))):
        seen = _observe(bulk, lambda: stream(bulk))
        assert seen == _observe(ref, lambda: stream(ref))
        if seen["error"] is not None:
            return seen["error"]
    return None


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_a_stream_decided_at_once_suffers_what_its_accesses_do(case):
    D, plan, streams = case
    lanes = _lanes(D, plan)
    rng = np.random.default_rng(len(streams))
    for runs in streams:
        raw = rng.integers(0, 256, 8 * runs.nblocks, dtype=np.uint8).tobytes()
        if _agree(lanes, runs, raw) is not None:
            return


@pytest.mark.parametrize("max_retries", [0, 1])
@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("second", ["transient_write", "torn_write"])
def test_two_scheduled_faults_in_one_io_strike_in_stream_order(second, p, max_retries):
    """A stripe that starts on disk 1 makes the batches [1, 0], [1, 0]:
    stream order within an I/O is not disk order, and the faults at both
    disks of I/O 0 (and of I/O 1 on the read back) must still strike in
    stream order, before and between the draws of the other accesses."""
    schedule = tuple(
        ScheduledFault(0, op, disk, kind)
        for op in (0, 3)
        for disk, kind in ((0, "transient_write"), (1, second))
    )
    plan = FaultPlan(
        seed=5,
        p_transient_read=p,
        p_transient_write=p,
        retry=RetryPolicy(max_retries=max_retries, backoff_s=0.5),
        schedule=schedule,
    )
    error = _agree(_lanes(2, plan), Runs(0, ((1, 6),)), bytes(range(48)))
    if max_retries == 0:  # I/O 0 services disk 1 first
        assert error is not None and error.startswith(f"{second} on disk 1 track 0 ")
    elif p == 0.0:
        assert error is None


def test_the_read_fallback_is_decided_once(monkeypatch):
    """A stream that crosses into the side dict cannot be gathered, so it
    is read track by track — under the one decision already made for it,
    which is what the reads one access at a time suffer too."""
    plan = FaultPlan(seed=3, p_transient_read=0.3, retry=RetryPolicy(max_retries=9))
    runs = Runs(MAX_DIRECT_TRACK - 2, ((0, 8),))  # tracks 2^20 - 2 .. 2^20 + 1
    data = bytes(range(64))
    bulk = FaultyDiskArray(2, 1, plan.injector_for(0))
    per_op = OneAccessAtATime(2, 1, plan.injector_for(0), tracer=EventBus(monitor=False))
    for arr in (bulk, per_op):
        arr.write_run(runs, BlockRun(data, 8, 8))
    decided = []
    decide = FaultInjector.decide
    monkeypatch.setattr(
        FaultInjector, "decide", lambda self, *a: decided.append(a[1]) or decide(self, *a)
    )
    assert bytes(bulk.read_run(runs)) == data
    assert [w.tolist() for w in decided] == [[2, 2, 2, 2]]
    assert bytes(per_op.read_run(runs)) == data
    assert bulk.injector.stats.as_dict() == per_op.injector.stats.as_dict()
    assert bulk.injector.stats.transient_read_faults > 0
    assert bulk.stats.as_dict() == per_op.stats.as_dict()
    assert [d.blocks_read for d in bulk.disks] == [d.blocks_read for d in per_op.disks]


def test_a_speculative_gather_leaves_a_faulty_array_to_its_decision():
    """``try_gather`` answers no on a fault-injected array, so the read it
    would have skipped goes through ``read_run`` and its decision."""
    plan = FaultPlan(seed=1, p_transient_read=0.5, retry=RetryPolicy(max_retries=30))
    arr = FaultyDiskArray(2, 1, plan.injector_for(0))
    runs = Runs(0, ((0, 4),))
    arr.write_run(runs, BlockRun(bytes(range(32)), 4, 8))
    out = np.empty(32, dtype=np.uint8)
    assert not arr.try_gather(runs, out)
    assert bytes(arr.finish_read(runs, out, hit=False)) == bytes(range(32))
    assert arr.injector.op_index == 4
    assert arr.injector.stats.transient_read_faults > 0
