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

The recording is of the in-process run (``workers`` 0, whatever
``REPRO_WORKERS`` and ``REPRO_TRANSPORT`` say).  A real's array sees its
own virtual processors' accesses in loop order, then every cross-real
bundle at the exchange, by source pid — whichever worker hosts the
sender — so a worker fleet keeps the whole ledger: ``FaultStats``, output
hash and logical ``IOStats`` (its arrays, and so the per-disk counters,
live in its workers).  The partition cases check that ledger at p = 4
over 0, 2 and 4 workers.
"""

from __future__ import annotations

import functools
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


def _run(run: str, plan_name: str, workers: int = 0, p: int = 2, balanced=False):
    """One faulted run of *run* (``{sort,list_rank}_{seq,par}``); returns
    the result, the engine and the event bus."""
    plan, D = PLANS[plan_name]
    rng = np.random.default_rng(1)
    engine = run.rsplit("_", 1)[1]
    if engine == "seq":
        p = 1
    if run.startswith("list_rank"):
        n = 1024
        cfg = MachineConfig(N=n, v=8, p=p, D=D, B=16)
        order = rng.permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        succ[order[:-1]] = order[1:]
        weights = (succ >= 0).astype(np.float64)
        program = ListRanking()
        inputs = list(zip(partition_array(succ, cfg.v), partition_array(weights, cfg.v)))
    else:
        n = 1 << 13
        cfg = MachineConfig(N=n, v=8, p=p, D=D, B=16)
        program = OPS["sort"].program()
        inputs = OPS["sort"].split(rng.integers(0, 1 << 50, n), cfg.v)
    tracer = EventBus(monitor=False)
    eng = make_engine(
        cfg, engine, balanced, faults=plan, tracer=tracer,
        overrides={"workers": workers},
    )
    return eng.run(program, inputs), eng, tracer


def _ledger(res) -> dict:
    """What every worker partition reproduces: ``FaultStats``, the output
    hash and the logical ``IOStats``."""
    output = hashlib.sha256()
    for out in res.outputs:
        output.update(np.asarray(out).tobytes())
    return json.loads(json.dumps({
        "fault_stats": res.report.fault_stats.as_dict(),
        "output_sha256": output.hexdigest(),
        "io": res.report.io.as_dict(),
    }))


def _observe(run: str, plan_name: str) -> dict:
    """The recorded shape: the ledger, the fault-event hash and the
    per-disk physical counters of the in-process run."""
    res, eng, tracer = _run(run, plan_name)
    events = hashlib.sha256()
    for ev in tracer.events:
        if ev["kind"] in ("io_fault", "disk_dead"):
            fields = {k: v for k, v in ev.items() if k not in ("seq", "ts")}
            events.update(json.dumps(fields, sort_keys=True).encode())
    return {
        **_ledger(res),
        "events_sha256": events.hexdigest(),
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


@pytest.mark.usefixtures("worker_leak_guard")
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_a_worker_fleet_keeps_the_recorded_output_and_logical_io(plan_name):
    """... and the recorded ``FaultStats``, ``backoff_s`` exactly."""
    got = _ledger(_run("sort_par", plan_name, workers=2)[0])
    want = GOLDENS[f"sort_par/{plan_name}"]
    assert got == {key: want[key] for key in got}


@functools.lru_cache(maxsize=None)
def _in_process_ledger(run: str, plan_name: str, balanced: bool) -> dict:
    return _ledger(_run(run, plan_name, p=4, balanced=balanced)[0])


@pytest.mark.usefixtures("worker_leak_guard")
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
@pytest.mark.parametrize("plan_name", ["ci_transient", "probabilistic_death"])
@pytest.mark.parametrize("run", ["sort_par", "list_rank_par"])
def test_the_fault_ledger_does_not_depend_on_the_worker_partition(
    run, plan_name, balanced, workers
):
    got = _ledger(_run(run, plan_name, workers, p=4, balanced=balanced)[0])
    assert got == _in_process_ledger(run, plan_name, balanced)


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
