"""Absolute fault behaviour, pinned to recorded values.

Every other fault test compares a run with a run: resumed against
uninterrupted, ``ram`` against ``mmap``, one worker count against another.
Those stay green if the injector changes *what* it injects, as long as it
changes it consistently.  These pin the numbers themselves, recorded from
the per-access injector: for four plans (the CI transient plan, scheduled
faults, disk deaths, probabilistic faults with a death) on a small
``em_sort`` (seq, and par with p = 2) and ``list_rank`` (seq), the
``FaultStats`` (``backoff_s`` exactly), a hash of every ``io_fault`` /
``disk_dead`` event in emission order, the output hash, the logical
``IOStats`` and each disk's physical ``blocks_read`` / ``blocks_written``
(a tear and a survivor's remapped access each count).  One more case pins
a ``DiskFault`` raised in the middle of a stream written through the
array API: its message, the tracks it leaves (torn prefix included) and
the counters of the batches that completed before it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.collectives import partition_array
from repro.algorithms.graphs.list_ranking import ListRanking
from repro.cgm.config import MachineConfig
from repro.em.runner import OPS, make_engine
from repro.faults.injector import DiskFault, FaultyDiskArray
from repro.faults.plan import DiskDeath, FaultPlan, RetryPolicy, ScheduledFault
from repro.obs.bus import EventBus
from repro.pdm.block import BlockRun, Runs

ROOT = Path(__file__).resolve().parents[2]
GOLDENS = json.loads((Path(__file__).parent / "data" / "fault_goldens.json").read_text())

#: name -> (plan, D)
PLANS = {
    "ci_transient": (
        FaultPlan.from_json(str(ROOT / "benchmarks" / "fault_plans" / "ci_transient.json")),
        2,
    ),
    "scheduled": (
        FaultPlan(
            schedule=(
                ScheduledFault(real=0, op=0, disk=1, kind="torn_write"),
                ScheduledFault(real=0, op=9, disk=0, kind="transient_read"),
                ScheduledFault(real=1, op=4, disk=1, kind="transient_write"),
            )
        ),
        2,
    ),
    "death": (
        FaultPlan(
            dead_disks=(
                DiskDeath(real=0, disk=1, after_op=60),
                DiskDeath(real=1, disk=1, after_op=40),
            )
        ),
        3,
    ),
    "probabilistic_death": (
        FaultPlan(
            seed=5,
            p_transient_read=0.03,
            p_transient_write=0.02,
            p_torn_write=0.01,
            retry=RetryPolicy(max_retries=6, backoff_s=0.003),
            dead_disks=(DiskDeath(real=0, disk=2, after_op=35),),
        ),
        3,
    ),
}

RUNS = ("sort_seq", "sort_par", "list_rank_seq")


def _observe(run: str, plan_name: str) -> dict:
    plan, D = PLANS[plan_name]
    rng = np.random.default_rng(1)
    if run == "list_rank_seq":
        n = 1024
        cfg = MachineConfig(N=n, v=8, D=D, B=16)
        order = rng.permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        succ[order[:-1]] = order[1:]
        weights = (succ >= 0).astype(np.float64)
        program = ListRanking()
        inputs = list(zip(partition_array(succ, cfg.v), partition_array(weights, cfg.v)))
        engine = "seq"
    else:
        n = 1 << 13
        engine = "par" if run == "sort_par" else "seq"
        cfg = MachineConfig(N=n, v=8, p=2 if engine == "par" else 1, D=D, B=16)
        program = OPS["sort"].program()
        inputs = OPS["sort"].split(rng.integers(0, 1 << 50, n), cfg.v)
    tracer = EventBus(monitor=False)
    eng = make_engine(cfg, engine, False, faults=plan, tracer=tracer)
    res = eng.run(program, inputs)
    events = hashlib.sha256()
    for ev in tracer.events:
        if ev["kind"] in ("io_fault", "disk_dead"):
            fields = {k: v for k, v in ev.items() if k not in ("seq", "ts")}
            events.update(json.dumps(fields, sort_keys=True).encode())
    output = hashlib.sha256()
    for out in res.outputs:
        output.update(np.asarray(out).tobytes())
    return {
        "fault_stats": res.report.fault_stats.as_dict(),
        "events_sha256": events.hexdigest(),
        "output_sha256": output.hexdigest(),
        "io": res.report.io.as_dict(),
        "disks": {
            str(real): {
                "blocks_read": [d.blocks_read for d in arr.disks],
                "blocks_written": [d.blocks_written for d in arr.disks],
            }
            for real, arr in sorted(eng.arrays.items())
        },
    }


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("run", RUNS)
def test_fault_behaviour_matches_the_recording(run, plan_name):
    got = json.loads(json.dumps(_observe(run, plan_name)))
    assert got == GOLDENS[f"{run}/{plan_name}"]


def _mid_stream_fault() -> dict:
    """A 16-block run on D = 2 whose fourth parallel I/O tears its disk-1
    write with no retry left: batches 0-2 and the disk-0 half of batch 3
    are on the platters, the torn half-block beside them."""
    plan = FaultPlan(
        schedule=(ScheduledFault(real=0, op=3, disk=1, kind="torn_write"),),
        retry=RetryPolicy(max_retries=0),
    )
    arr = FaultyDiskArray(2, 4, plan.injector_for(0))
    data = bytes(range(256)) * 2
    with pytest.raises(DiskFault) as err:
        arr.write_run(Runs(0, ((0, 16),)), BlockRun(data, 16, 32))
    return {
        "message": str(err.value),
        "tracks": [
            {str(t): blk.hex() for t, blk in sorted(d.snapshot_tracks().items())}
            for d in arr.disks
        ],
        "io": arr.stats.as_dict(),
        "blocks_written": [d.blocks_written for d in arr.disks],
        "fault_stats": arr.injector.stats.as_dict(),
        "op_index": arr.injector.op_index,
    }


def test_a_mid_stream_disk_fault_leaves_the_recorded_tracks():
    assert json.loads(json.dumps(_mid_stream_fault())) == GOLDENS["mid_stream_disk_fault"]
