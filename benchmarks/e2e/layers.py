"""The traced run: per-layer metrics from spans and whole-op differences.

Spans are recorded from here, around each layer's *public* functions —
nothing under ``src/`` is edited.  Layer names are the repo's packages:

    em          em_sort / em_run / list_rank ... and make_engine
    algorithms  the program's setup / round / finish callbacks
    core        Engine.run minus everything below it; LocalFleet.start /
                result / stop (the coordinator launching, awaiting and
                reaping its worker processes)
    pdm         DiskArray's nine public I/O methods
    faults      CheckpointManager.save
    service     ServiceCore.submit, execute_spec, ResultCache.get/put

A layer's self time is its spans' duration minus the part their child
spans cover, so the layers plus ``trace.residual_rel`` account for the
op's wall time.  Only spans on the path that blocks the op are summed:
its own thread and, for the service, the server threads that carry a
``service.*`` root span.  The prefetch thread's speculative ``try_gather``
overlaps them and blocks nothing; its spans are dumped but not summed.
Traced and untraced ops alternate inside one run, which
gives ``trace.overhead_rel`` under the same host conditions.  What spans
cannot see (worker processes, the cost of a whole option) is measured as
the ratio of two whole ops that differ in that one option, again
alternating.  A metric a workload does not exercise reads 0 there.
"""

from __future__ import annotations

import collections
import gc
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Callable

import harness as hz
import numpy as np
from workloads import (
    WARMUP_OP,
    WORKLOADS,
    ScaleOut,
    ServiceMix,
    Workload,
    child_env,
    scaled_ops,
    work_dir,
)

import repro.algorithms.graphs.api as graphs_api
import repro.em.runner as em_runner
import repro.service.pool as service_pool
from repro.algorithms.graphs.list_ranking import ListRanking
from repro.algorithms.permutation import CGMPermute
from repro.algorithms.sorting import SampleSort
from repro.algorithms.transpose import CGMTranspose
from repro.cgm.engine import Engine
from repro.core.workers import LocalFleet
from repro.faults.checkpoint import CheckpointManager
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.pdm.disk_array import DiskArray
from repro.service.cache import ResultCache
from repro.service.server import JobServer, ServiceCore
from repro.util.items import ITEM_BYTES

#: traced/untraced op pairs per run at the nominal ``--seconds`` (frozen)
TRACE_PAIRS = {"sort_io": 24, "rounds_listrank": 8, "scale_out": 5, "service_mix": 16}
#: pairs per whole-op comparison (option on / option off)
PROBE_PAIRS = 5
#: fresh interpreters per ``cli.*`` metric
CLI_STARTS = 3

_DISK_ARRAY_IO = (
    "parallel_io", "write_blocks", "read_blocks", "free_blocks", "write_run",
    "write_stream", "read_run", "try_gather", "finish_read",
)


def build_tracer() -> hz.Tracer:
    """Register every layer's public entry points (nothing installed yet)."""
    tr = hz.Tracer()
    for fn in (em_runner.em_sort, em_runner.em_permute, em_runner.em_transpose,
               em_runner.em_run, graphs_api.list_rank):
        tr.add_function(fn, "em")
    tr.add_function(em_runner.make_engine, "em.make_engine")
    for program in (SampleSort, ListRanking, CGMPermute, CGMTranspose):
        for callback in ("setup", "round", "finish"):
            tr.add(program, callback, "algorithms.callback")
    tr.add(Engine, "run", "core.engine")
    tr.add(LocalFleet, "start", "core.workers.start")
    tr.add(LocalFleet, "result", "core.workers.wait")
    tr.add(LocalFleet, "stop", "core.workers.stop")
    for method in _DISK_ARRAY_IO:
        tr.add(DiskArray, method, "pdm")
    tr.add(CheckpointManager, "save", "faults.checkpoint")
    tr.add(ServiceCore, "submit", "service.submit")
    tr.add_function(service_pool.execute_spec, "service.execute")
    tr.add(ResultCache, "get", "service.cache")
    tr.add(ResultCache, "put", "service.cache")
    return tr


def layer_table(spans: list[hz.Span], op_wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced op from its spans (raw seconds)."""
    inner = [
        s for s in spans
        if s.end > 0.0 and s.name != "op"
        and (s.root.name == "op" or s.root.name.startswith("service."))
    ]
    st = hz.self_times(inner)
    count = collections.Counter(s.name for s in inner)
    pdm_calls = hz.entry_calls(inner, "pdm")
    return {
        "em.self_s": st.get("em", 0.0) + st.get("em.make_engine", 0.0),
        "em.make_engine_s": sum(
            s.duration for s in inner if s.name == "em.make_engine"
        ),
        "algorithms.callback_s": st.get("algorithms.callback", 0.0),
        "algorithms.callback_calls": count.get("algorithms.callback", 0),
        "core.engine_self_s": st.get("core.engine", 0.0),
        "core.engine_self_share": st.get("core.engine", 0.0) / op_wall,
        "core.workers.wait_s": sum(
            st.get(f"core.workers.{k}", 0.0) for k in ("start", "wait", "stop")
        ),
        "pdm.self_s": st.get("pdm", 0.0),
        "pdm.calls": pdm_calls,
        "pdm.s_per_call": st.get("pdm", 0.0) / pdm_calls if pdm_calls else 0.0,
        "trace.residual_rel": max(0.0, 1.0 - sum(st.values()) / op_wall),
    }


_SCALED_BY_HOST = (
    "em.self_s", "em.make_engine_s", "algorithms.callback_s",
    "core.engine_self_s", "core.workers.wait_s", "pdm.self_s", "pdm.s_per_call",
)


class Probe:
    """Shared state of one traced run: clock, verdicts, metric values."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.calib = hz.Calibrator()
        self.clock = hz.OpClock(self.calib, wl.calib_mix)
        self.guard = hz.LeakGuard(wl.spill_dir)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.values: dict[str, float] = {}
        #: what the most recent op returned (its cost report feeds counts)
        self.last: Any = None

    def verdict(self, ok: bool, what: str) -> None:
        leaks = self.guard.leaks()
        self.attempted += 1
        if not ok or leaks:
            self.failed += 1
            self.notes.append(f"{what}: " + (", ".join(leaks) if ok else "wrong output"))

    def alternate(
        self, pairs: int, a: Callable[[int], Any], b: Callable[[int], Any],
        check: Callable[[int, Any], bool], what: str,
    ) -> tuple[list[hz.Sample], list[hz.Sample]]:
        """Run *a* and *b* in alternating order (a b, b a, a b ...), each
        op bracketed by the calibration kernel and verified."""
        out: tuple[list[hz.Sample], list[hz.Sample]] = ([], [])
        self.clock.refresh()
        i = 0
        for k in range(pairs):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                fn = (a, b)[side]
                result, sample = self.clock.timed(lambda: fn(i))
                self.last = result
                self.verdict(check(i, result), f"{what} op {i}")
                out[side].append(sample)
                i += 1
        return out

    def ratio(self, name: str, num: list[hz.Sample], den: list[hz.Sample]) -> None:
        self.values[name] = hz.median([s.wall_cal for s in num]) / hz.median(
            [s.wall_cal for s in den]
        )


def trace_pairs(probe: Probe, pairs: int, run_op: Callable[[int], Any],
                check: Callable[[int, Any], bool], tracer: hz.Tracer) -> None:
    """Alternate untraced and traced ops; fill the span-derived metrics."""
    tables: list[dict[str, float]] = []

    def traced(i: int) -> Any:
        first = len(tracer.spans)
        with tracer:
            root = tracer.begin("op")
            try:
                result = run_op(i)
            finally:
                tracer.finish(root)
        tables.append(layer_table(tracer.spans[first:], root.duration))
        return result

    plain_s, traced_s = probe.alternate(pairs, run_op, traced, check, "trace")
    for table, sample in zip(tables, traced_s):
        for key in _SCALED_BY_HOST:
            table[key] *= sample.factor
    for key in tables[0]:
        probe.values[key] = hz.median([t[key] for t in tables])
    probe.ratio("trace.overhead_rel", traced_s, plain_s)
    raw = [s.wall for s in plain_s]
    pct, tail_raw = hz.tail(raw)
    probe.values.update({
        "host.op_p50_raw_s": hz.median(raw),
        "host.op_tail_raw_s": tail_raw,
        "host.op_tail_pct": pct,
        "host.ops": len(raw),
    })


def report_counts(probe: Probe, rounds: int, blocks: int, parallel_ios: int,
                  disks: int) -> None:
    probe.values["cgm.rounds"] = rounds
    probe.values["pdm.blocks_moved"] = blocks
    # blocks per parallel I/O over D: the useful share of each operation
    probe.values["pdm.disk_utilisation"] = blocks / (parallel_ios * disks)


def cli_starts(probe: Probe, smoke: bool) -> None:
    """``cli.import_s`` and ``cli.sort_cold_s``: fresh interpreters, raw s."""
    env = child_env(probe.wl.tmp_dir)
    commands = {
        "cli.import_s": [sys.executable, "-c", "import repro.cli"],
        "cli.sort_cold_s": [sys.executable, "-m", "repro", "sort", "--n", "16384",
                            "--v", "8", "--b", "64"],
    }
    for name, cmd in commands.items():
        times = []
        for _ in range(1 if smoke else CLI_STARTS):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=hz.ROOT, capture_output=True,
                                  text=True, timeout=120)
            times.append(time.perf_counter() - t0)
            probe.verdict(proc.returncode == 0, name)
        probe.values[name] = hz.median(times)


# ------------------------------------------------------ per-workload probes


def probe_sort_io(probe: Probe, pairs: int, tracer: hz.Tracer) -> None:
    wl = probe.wl
    check = lambda i, res: wl.check(i, res)[0]  # noqa: E731
    trace_pairs(probe, pairs, wl.op, check, tracer)
    report = probe.last.report
    report_counts(probe, report.rounds, report.io.blocks_total,
                  report.io.parallel_ios, wl.D)
    # the in-memory event bus against the default null recorder
    buses: list[EventBus] = []

    def bus_on(i: int) -> Any:
        buses.append(EventBus())
        return wl.op(i, tracer=buses[-1])

    on, off = probe.alternate(max(2, pairs // 4), bus_on, wl.op, check, "bus")
    probe.ratio("obs.bus_on_cost_rel", on, off)
    probe.values["obs.events_per_op"] = len(buses[-1].events)


def probe_rounds_listrank(probe: Probe, pairs: int, tracer: hz.Tracer) -> None:
    wl = probe.wl
    check = lambda i, res: wl.check(i, res)[0]  # noqa: E731
    trace_pairs(probe, pairs, wl.op, check, tracer)
    report = probe.last.reports[0]
    report_counts(probe, report.rounds, report.io.blocks_total,
                  report.io.parallel_ios, wl.D)

    def variant_ok(i: int, res: Any) -> bool:
        return bool(np.array_equal(res[0], wl.reference))

    n = max(1, min(PROBE_PAIRS, pairs // 2))
    on, off = probe.alternate(
        n, lambda i: wl.run_variant(balanced=True),
        lambda i: wl.run_variant(balanced=False), variant_ok, "balanced",
    )
    probe.ratio("core.balanced_cost_rel", on, off)

    ckpt_dir = os.path.join(wl.work_dir, "ckpt")

    def with_checkpoint(i: int) -> Any:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        # keep every snapshot so the bytes of all 54 saves can be summed
        return wl.run_variant(checkpoint=CheckpointManager(ckpt_dir, keep=10**6))

    on, off = probe.alternate(
        n, with_checkpoint, lambda i: wl.run_variant(), variant_ok, "checkpoint",
    )
    probe.ratio("faults.checkpoint_cost_rel", on, off)
    probe.values["faults.checkpoint_bytes"] = sum(
        os.path.getsize(os.path.join(ckpt_dir, f)) for f in os.listdir(ckpt_dir)
    )
    first = len(tracer.spans)
    with tracer:
        result, sample = probe.clock.timed(lambda: with_checkpoint(0))
    probe.verdict(variant_ok(0, result), "checkpoint spans")
    probe.values["faults.checkpoint_save_s"] = sample.factor * sum(
        s.duration for s in tracer.spans[first:] if s.name == "faults.checkpoint"
    )
    shutil.rmtree(ckpt_dir, ignore_errors=True)


def probe_scale_out(probe: Probe, pairs: int, tracer: hz.Tracer) -> None:
    wl = probe.wl
    assert isinstance(wl, ScaleOut)
    check = lambda i, res: wl.check(i, res)[0]  # noqa: E731
    trace_pairs(probe, pairs, wl.op, check, tracer)
    n = max(1, min(PROBE_PAIRS, pairs))

    # worker processes are invisible to spans: compare whole ops instead
    in_proc = wl.runtime_for(workers=0)
    par, seq = probe.alternate(
        n, wl.op, lambda i: wl.op(i, runtime=in_proc), check, "workers",
    )
    probe.ratio("core.workers.speedup", seq, par)
    probe.values["core.workers.cpu_ratio"] = hz.median(
        [s.cpu_cal for s in par]
    ) / hz.median([s.cpu_cal for s in seq])

    ram = wl.runtime_for(arena="ram")
    on, off = probe.alternate(
        n, wl.op, lambda i: wl.op(i, runtime=ram), check, "mmap",
    )
    probe.ratio("pdm.mmap_cost_rel", on, off)

    # spawn: LocalFleet.start called -> every worker has answered its first
    # command, on a tiny op so that the command itself costs nothing
    tiny = wl.cfg.with_(N=1 << 12, M=None)
    tiny_reference = np.sort(wl.data[: tiny.N])
    spawns = []
    for i in range(n):
        first = len(tracer.spans)
        with tracer:
            result, sample = probe.clock.timed(lambda: wl.op(i, cfg=tiny, runtime=ram))
        probe.verdict(bool(np.array_equal(result[0], tiny_reference)), f"spawn op {i}")
        spans = tracer.spans[first:]
        started = next(s.start for s in spans if s.name == "core.workers.start")
        replies = [s.end for s in spans
                   if s.name == "core.workers.wait" and not s.raised]
        spawns.append((replies[ram.workers - 1] - started) * sample.factor)
    probe.values["core.workers.spawn_s"] = hz.median(spawns)

    # exact counts from a registry passed as metrics=
    registry = MetricsRegistry()
    values, report = wl.op(0, metrics=registry)
    probe.verdict(check(0, (values, report)), "metrics op")
    snap = registry.snapshot()

    def total(metric: str, **labels: str) -> float:
        return sum(
            s["value"] for s in snap.get(metric, {}).get("series", [])
            if all(s["labels"].get(k) == v for k, v in labels.items())
        )

    probe.values["core.transport.packets"] = total(
        "repro_transport_packets_total", direction="sent"
    )
    probe.values["core.transport.bytes"] = (
        total("repro_cross_items_total") * ITEM_BYTES
    )
    report_counts(probe, report.rounds, report.io.blocks_total,
                  report.io.parallel_ios, wl.D)

    # spill-file size: the in-process engine reports arena growth as events
    bus = EventBus()
    ok = check(0, wl.op(0, runtime=in_proc, tracer=bus))
    grown: dict[tuple[int, int], int] = {}
    for ev in bus.events:
        if ev.get("kind") == "arena_grow":
            grown[(ev["real"], ev["disk"])] = ev["nbytes"]
    probe.values["pdm.spill_bytes"] = sum(grown.values())
    # the bus and the engine reference each other, so the arenas (and
    # their spill dirs) of this one run live until the cycle is collected
    del bus
    gc.collect()
    probe.verdict(ok, "spill op")


def probe_service_mix(probe: Probe, pairs: int, tracer: hz.Tracer) -> None:
    """Sessions against an embedded ServiceCore + JobServer, so submit,
    execute_spec and the cache can carry spans."""
    wl = probe.wl
    assert isinstance(wl, ServiceMix)
    core = ServiceCore(state_dir=os.path.join(wl.work_dir, "embedded"))
    server = JobServer(core, port=0).start()
    sessions: list[Any] = []
    try:
        run_op = lambda i: wl.session(server.url, i)  # noqa: E731

        def check(i: int, result: Any) -> bool:
            sessions.append(result)
            return wl.check(i, result)[0]

        probe.guard.arm()  # the embedded listener is allowed to stay
        probe.verdict(check(WARMUP_OP, run_op(WARMUP_OP)), "warm-up")
        trace_pairs(probe, pairs, run_op, check, tracer)
    finally:
        t0 = time.perf_counter()
        core.drain(timeout=30.0)
        server.close()
        probe.values["service.drain_s"] = time.perf_counter() - t0

    jobs = [job for session in sessions[1:] for job in session]
    cold = [j for j in jobs if j.tenant == "a"]
    dup = [j for j in jobs if j.tenant == "b"]
    done = [j for j in cold if j.doc.get("state") == "done"]
    probe.values.update({
        "service.submit_s": hz.median([j.submit_s for j in jobs]),
        "service.job_cold_p50_s": hz.median([j.done_s for j in cold]),
        "service.job_hit_p50_s": hz.median([j.done_s for j in dup]),
        "service.overhead_s": hz.median(
            [j.done_s - j.doc["result"]["elapsed_s"] for j in done]
        ),
        "service.cache_hit_ratio": sum(j.cache == "hit" for j in dup) / len(dup),
        "service.rejected": sum(j.status == 429 for j in jobs),
    })
    counters = [j.doc["result"]["counters"] for j in sessions[1][:3]]
    report_counts(
        probe,
        sum(c["rounds"] for c in counters),
        sum(c["io"]["blocks_read"] + c["io"]["blocks_written"] for c in counters),
        sum(c["io"]["parallel_ios"] for c in counters),
        wl.D,
    )


_PROBES = {
    "sort_io": probe_sort_io,
    "rounds_listrank": probe_rounds_listrank,
    "scale_out": probe_scale_out,
    "service_mix": probe_service_mix,
}


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    wl = WORKLOADS[name](seed, work_dir(name, seed))
    if wl.one_process:
        hz.pin_to_one_cpu()
    pairs = scaled_ops(TRACE_PAIRS[name], seconds, smoke)
    tracer = build_tracer()
    try:
        wl.setup(2 * pairs)
        probe = Probe(wl)
        if wl.in_process:
            ok, _sim = wl.check(WARMUP_OP, wl.op(WARMUP_OP))
            probe.guard.arm()  # e.g. multiprocessing's resource tracker
            probe.verdict(ok, "warm-up")
        gc.collect()
        gc.freeze()
        _PROBES[name](probe, pairs, tracer)
        cli_starts(probe, smoke)
    finally:
        tracer.uninstall()
        wl.close()
    os.makedirs(hz.OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(hz.OUT_DIR, f"spans-{name}-{seed}.json"))

    calib = probe.calib
    probe.values.update({
        "host.calib_p50_s": hz.median(calib.samples),
        "host.calib_spread_rel": hz.iqr_rel(calib.samples),
        "host.nproc": os.cpu_count() or 1,
    })
    declared = [(m["name"], m["unit"]) for m in hz.benchmark_spec()["per_layer"]]
    undeclared = set(probe.values) - {key for key, _unit in declared}
    if undeclared:
        raise RuntimeError(f"not in BENCHMARK.json per_layer: {sorted(undeclared)}")
    metrics = {key: (probe.values.get(key, 0), unit) for key, unit in declared}
    return {
        "workload": name, "seed": seed, "metrics": metrics,
        "attempted": probe.attempted, "failed": probe.failed,
        "correct": probe.failed == 0, "notes": probe.notes,
        "calib_checksum": calib.checksum, "calib_mix": wl.calib_mix,
    }
