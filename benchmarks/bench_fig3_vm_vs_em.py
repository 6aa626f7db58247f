"""Figure 3 — CGM sort on OS virtual memory vs. the EM-CGM simulation.

The paper's prototype ran its CGM sorting algorithm (a) naively on top of
the operating system's virtual memory and (b) through the deterministic
simulation with explicit blocked, fully parallel disk I/O.  The VM curve
blows up once the working set exceeds physical memory (4 KB random-access
page faults, one disk arm); the EM-CGM curve stays linear.

We reproduce the mechanism: the same SampleSort program runs on the
``vm`` backend (LRU pager, 4 KB pages) and on the ``seq`` EM backend
(D disks, block size B), with internal memory M fixed while N sweeps
across it.  Reported simulated times use the same 1998-class disk model
for both: a page fault costs one random 4 KB access; a parallel I/O
costs one random B-block access (disks in parallel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.pdm.io_stats import DiskServiceModel
from repro.util.rng import make_rng

from conftest import print_table

V = 8
D = 2
B = 512                      # 4 KB blocks
M = 1 << 15                  # 32k items = 256 KB "physical memory"
SIZES = [1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 17]


def run_point(n: int, seed: int = 1):
    data = make_rng(seed).integers(0, 2**50, n)
    cfg = MachineConfig(N=n, v=V, D=D, B=B, M=M)
    vm = em_sort(data, cfg, engine="vm")
    em = em_sort(data, cfg, engine="seq")
    model = DiskServiceModel()
    fault_cost = model.access_time(4096)
    io_cost = model.parallel_io_time(B)
    return {
        "N": n,
        "cfg": cfg,
        "em_report": em.report,
        "vm_faults": vm.report.page_faults,
        "vm_time_s": vm.report.page_faults * fault_cost,
        "em_ios": em.report.io.parallel_ios,
        "em_time_s": em.report.io.parallel_ios * io_cost,
        "em_blocks": em.report.io.blocks_total,
    }


def test_fig3_vm_blowup_vs_em_linear(bench_store):
    rows = []
    points = [run_point(n) for n in SIZES]
    for p in points:
        rows.append(
            [p["N"], p["vm_faults"], f"{p['vm_time_s']:.2f}", p["em_ios"], f"{p['em_time_s']:.2f}"]
        )
        bench_store.record(
            f"sort/N={p['N']}",
            cfg=p["cfg"],
            report=p["em_report"],
            measured={"vm_faults": p["vm_faults"]},
            timings={"vm_model_s": p["vm_time_s"], "em_model_s": p["em_time_s"]},
        )
    print_table(
        "Figure 3: sorting, virtual memory vs EM-CGM (simulated seconds)",
        ["N", "VM faults", "VM t(s)", "EM par-I/Os", "EM t(s)"],
        rows,
    )

    # shape assertions: EM grows linearly; VM grows super-linearly once
    # N crosses M (working set = contexts + messages > memory)
    small, large = points[0], points[-1]
    ratio_n = large["N"] / small["N"]
    em_growth = large["em_ios"] / max(small["em_ios"], 1)
    assert em_growth < 2.0 * ratio_n  # linear-ish
    vm_growth = large["vm_faults"] / max(small["vm_faults"], 1)
    assert vm_growth > em_growth  # VM deteriorates faster

    # beyond memory, EM-CGM's simulated time beats paging
    beyond = [p for p in points if p["N"] > M]
    assert all(p["em_time_s"] < p["vm_time_s"] for p in beyond)


@pytest.mark.benchmark(group="fig3")
def test_fig3_benchmark_em_sort(benchmark):
    data = make_rng(7).integers(0, 2**50, 1 << 15)
    cfg = MachineConfig(N=data.size, v=V, D=D, B=B, M=M)
    out = benchmark(lambda: em_sort(data, cfg, engine="seq"))
    assert np.array_equal(out.values, np.sort(data))


@pytest.mark.benchmark(group="fig3")
def test_fig3_benchmark_vm_sort(benchmark):
    data = make_rng(7).integers(0, 2**50, 1 << 15)
    cfg = MachineConfig(N=data.size, v=V, D=D, B=B, M=M)
    out = benchmark(lambda: em_sort(data, cfg, engine="vm"))
    assert np.array_equal(out.values, np.sort(data))


def test_fig3_disabled_tracing_sanity():
    """Bench sanity check: the no-op recorder changes nothing.

    With tracing disabled (the default NULL_RECORDER) the engine must
    produce bit-identical accounting to an explicit NullRecorder run, and
    the guarded call sites must never invoke ``emit`` — which is what
    makes the disabled path zero-cost.
    """
    import time

    from repro.obs.bus import NullRecorder

    class ExplodingRecorder(NullRecorder):
        def emit(self, kind, **tags):  # pragma: no cover - must not run
            raise AssertionError("disabled recorder was invoked")

    data = make_rng(11).integers(0, 2**50, 1 << 13)
    cfg = MachineConfig(N=data.size, v=V, D=D, B=B, M=M)

    t0 = time.perf_counter()
    base = em_sort(data, cfg, engine="seq")
    t_base = time.perf_counter() - t0
    t0 = time.perf_counter()
    guarded = em_sort(data, cfg, engine="seq", tracer=ExplodingRecorder())
    t_guarded = time.perf_counter() - t0

    assert np.array_equal(base.values, guarded.values)
    assert base.report.io.parallel_ios == guarded.report.io.parallel_ios
    assert base.report.io.per_disk_blocks == guarded.report.io.per_disk_blocks
    print(
        f"\ndisabled-tracing overhead: baseline {t_base * 1e3:.1f} ms, "
        f"guarded no-op recorder {t_guarded * 1e3:.1f} ms"
    )
