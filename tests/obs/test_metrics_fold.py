"""The metrics registry as a fold over the event stream.

Engines emit one stream; :meth:`MetricsRegistry.attach` folds its
``run_begin`` / ``compute_round`` / ``superstep_end`` / ``fault_stats`` /
``run_end`` events into the same labelled series the engines used to
write into a registry themselves.  The snapshots in
``data/metrics_fold_snapshots.json`` were recorded on a tree whose engines
still did that, with::

    PYTHONPATH=src python tests/obs/test_metrics_fold.py --record OUT.json

(timer sums blanked: they are wall time).  Each run below must fold to
exactly that snapshot, so a listener that double-counts or drops an event
fails here.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, make_engine
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry

DATA = Path(__file__).parent / "data" / "metrics_fold_snapshots.json"

SHAPE = dict(N=1 << 12, v=4, D=2, B=64)
SPEC = {
    "op": "sort", "n": 1 << 12, "seed": 3, "tenant": "acme",
    "machine": {"v": 4, "D": 2, "B": 64},
}
PLAN = {
    "seed": 13, "p_transient_read": 0.02, "p_transient_write": 0.02,
    "p_torn_write": 0.005, "retry": {"max_retries": 8},
}


def _data() -> np.ndarray:
    return np.random.default_rng(5).integers(0, 2**50, SHAPE["N"])


def _sort(
    engine: str, options: dict[str, Any] | None = None, **cfg: Any
) -> Callable[[MetricsRegistry], None]:
    def run(reg: MetricsRegistry) -> None:
        em_sort(
            _data(), MachineConfig(**SHAPE, **cfg), engine, metrics=reg,
            **(options or {}),
        )

    return run


def _served(reg: MetricsRegistry) -> None:
    """One job through a pool-less ServiceCore, run on this thread."""
    from repro.service.server import ServiceCore

    with tempfile.TemporaryDirectory() as state:
        core = ServiceCore(state_dir=state, registry=reg, start=False)
        core.submit(SPEC)
        job = core.queue.pop(timeout=0)
        core.pool._run(job)
        assert job.state == "done", job.error


#: the par runs pin their worker count: in-process, or two workers,
#: whatever REPRO_WORKERS says
IN_PROCESS = {"overrides": {"workers": 0}}

RUNS: dict[str, Callable[[MetricsRegistry], None]] = {
    "seq": _sort("seq"),
    "par_p2_balanced": _sort("par", {"balanced": True, **IN_PROCESS}, p=2),
    "workers_2": _sort("par", {"overrides": {"workers": 2}}, p=2),
    "vm": _sort("vm"),
    "par_faults": _sort(
        "par", {"faults": FaultPlan.from_dict(PLAN), **IN_PROCESS}, p=2
    ),
    "served": _served,
}


def blanked(snap: dict[str, Any]) -> dict[str, Any]:
    """*snap* with every timer's wall-clock sum set to ``None``."""
    out = json.loads(json.dumps(snap))
    for family in out.values():
        if family["kind"] == "summary":
            for series in family["series"]:
                series["sum"] = None
    return out


def snapshot_of(run: Callable[[MetricsRegistry], None]) -> dict[str, Any]:
    reg = MetricsRegistry()
    run(reg)
    return blanked(reg.snapshot())


@pytest.fixture(autouse=True)
def _no_knobs(monkeypatch):
    # the snapshots were recorded with no REPRO_* knob set; a lane that
    # sets one (injected faults, forced workers) would change the run
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fold_reproduces_the_engine_written_snapshot(name):
    recorded = json.loads(DATA.read_text())[name]
    assert snapshot_of(RUNS[name]) == recorded


def test_attach_is_idempotent_per_bus():
    from repro.obs.bus import EventBus

    reg, bus = MetricsRegistry(), EventBus(monitor=False)
    reg.attach(bus)
    reg.attach(bus, tenant="ignored")
    cfg = MachineConfig(**SHAPE)
    res = em_sort(_data(), cfg, "seq", tracer=bus, metrics=reg)
    assert reg["repro_rounds_total"].series[0].value == res.report.rounds
    assert reg["repro_runs_total"].series[0].value == 1


def test_runs_sharing_a_bus_fold_under_their_own_labels():
    """Two different runs on one bus fold as they would on a bus each."""
    from repro.em.runner import em_permute
    from repro.obs.bus import EventBus

    cfg = MachineConfig(**SHAPE)
    dest = np.random.default_rng(6).permutation(cfg.N)
    shared, apart, bus = MetricsRegistry(), MetricsRegistry(), EventBus(monitor=False)
    for reg, tracer in ((shared, bus), (apart, None)):
        em_sort(_data(), cfg, "seq", tracer=tracer, metrics=reg)
        em_permute(_data(), dest, cfg, "vm", tracer=tracer, metrics=reg)
    assert len(shared["repro_runs_total"].series) == 2
    assert blanked(shared.snapshot()) == blanked(apart.snapshot())


@pytest.mark.parametrize("p", [1, 2])
def test_compute_seconds_is_the_reports_critical_path(p):
    """The timer's sum is the report's per-round max over reals of the
    callback time summed per real: every ``compute_round`` counted once."""
    reg = MetricsRegistry()
    cfg = MachineConfig(**SHAPE, p=p)
    res = em_sort(_data(), cfg, metrics=reg, **IN_PROCESS)
    (timer,) = reg["repro_compute_seconds"].series
    assert timer.count == res.report.rounds
    assert timer.value == pytest.approx(res.report.comp_wall_s, rel=1e-9)


def test_cc_snapshot_is_the_same_with_and_without_a_trace(tmp_path):
    """``cc`` is a composite: its stages share one bus under ``--trace``
    and get one bus each without it; the fold is the same."""
    from repro.cli import main

    argv = ["cc", "--n", "300", "--v", "4", "--b", "32", "--seed", "2"]
    alone, traced = tmp_path / "alone.json", tmp_path / "traced.json"
    assert main([*argv, "--metrics", str(alone)]) == 0
    trace = str(tmp_path / "t.jsonl")
    assert main([*argv, "--trace", trace, "--metrics", str(traced)]) == 0
    a = blanked(json.loads(alone.read_text()))
    assert a["repro_runs_total"]["series"]
    assert a == blanked(json.loads(traced.read_text()))


def test_preempted_served_job_counts_each_round_once(tmp_path):
    """A preempted job is requeued on its own bus; its second attempt
    must not add a second listener, nor lose the first attempt's rounds."""
    from repro.service.server import ServiceCore

    reg = MetricsRegistry()
    core = ServiceCore(state_dir=str(tmp_path), registry=reg, start=False)
    job, _ = core.submit(SPEC)
    core.queue.pop(timeout=0)
    job.request_preempt()
    core.pool._run(job)
    assert job.state == "preempted" and job.preemptions == 1
    core.pool._run(core.queue.pop(timeout=0))
    assert job.state == "done" and job.attempts == 2
    rounds = [
        s.value for s in reg["repro_rounds_total"].series
        if s.labels["job"] == job.id
    ]
    assert rounds == [job.result["counters"]["rounds"]]
    runs = reg["repro_runs_total"].series
    assert [(s.labels["tenant"], s.value) for s in runs] == [("acme", 1)]


def test_a_metered_run_frees_its_disks_without_a_cycle_collection():
    """A metered run records on a bus, so its disk arrays carry the arena
    growth hook; the hook must not tie an array and its arena into a cycle
    that only the cyclic collector frees (a served job's tracks waited for
    it, and the daemon's peak memory with them)."""
    import gc
    import weakref

    from repro.algorithms.collectives import partition_array
    from repro.algorithms.sorting import SampleSort

    cfg = MachineConfig(**SHAPE)
    eng = make_engine(cfg, "seq", metrics=MetricsRegistry())
    eng.run(SampleSort(), partition_array(_data(), cfg.v))
    arrays = [weakref.ref(a) for a in eng.arrays.values()]
    gc.collect()
    gc.disable()
    try:
        del eng
        assert [a() for a in arrays] == [None] * len(arrays)
    finally:
        gc.enable()


def test_no_metrics_and_no_trace_keeps_the_null_recorder():
    from repro.obs.bus import NULL_RECORDER, EventBus

    cfg = MachineConfig(**SHAPE)
    assert make_engine(cfg, "seq").tracer is NULL_RECORDER
    metered = make_engine(cfg, "seq", metrics=MetricsRegistry()).tracer
    assert isinstance(metered, EventBus) and metered.monitor is None


if __name__ == "__main__":  # pragma: no cover - fixture recorder
    if sys.argv[1:2] != ["--record"] or len(sys.argv) != 3:
        sys.exit("usage: test_metrics_fold.py --record OUT.json")
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    doc = {name: snapshot_of(run) for name, run in sorted(RUNS.items())}
    Path(sys.argv[2]).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
