"""Theorem 3 — scalability of the parallel simulation.

Result (6) of the paper: unlike previous EM algorithms, the simulated
ones scale in the number of real processors *and* in the number of
disks.  This bench sorts a fixed input while sweeping p (with v fixed)
and reports the per-processor parallel I/O count — Theorem 3 predicts a
1/p drop — plus the superstep blow-up X = lambda * v/p, and verifies
measured I/O against the theorem's (v/p) * lambda * (mu + h)/(DB)
prediction band.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.core.theory import predicted_parallel_ios
from repro.em.runner import em_sort
from repro.util.rng import make_rng

from conftest import print_table

V, D, B = 8, 2, 64
N = 1 << 15


def test_theorem3_processor_scaling(bench_store):
    data = make_rng(0).integers(0, 2**50, N)
    rows = []
    per_proc = {}
    for p in (1, 2, 4, 8):
        cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)
        res = em_sort(data, cfg, engine="par" if p > 1 else "seq")
        assert np.array_equal(res.values, np.sort(data))
        io_pp = res.report.io_max.parallel_ios
        per_proc[p] = io_pp
        predicted = predicted_parallel_ios(V, p, D, B, res.report.rounds, cfg.mu, cfg.h)
        rows.append(
            [
                p,
                res.report.io.parallel_ios,
                io_pp,
                f"{predicted:.0f}",
                res.report.supersteps,
                res.report.cross_items,
            ]
        )
        bench_store.record(f"sort/p={p}", cfg=cfg, report=res.report)
        assert io_pp <= 4 * predicted
    print_table(
        f"Theorem 3: EM-CGM sort, N={N}, v={V}, p sweep",
        ["p", "total I/Os", "I/Os per proc", "predicted/proc", "supersteps", "net items"],
        rows,
    )
    # near-linear I/O scalability in p
    assert per_proc[2] < 0.65 * per_proc[1]
    assert per_proc[4] < 0.65 * per_proc[2]
    assert per_proc[8] < 0.70 * per_proc[4]


def test_theorem3_superstep_blowup():
    """X = lambda * v/p on the parallel machine (Lemma 4)."""
    data = make_rng(1).integers(0, 2**50, N)
    for p in (2, 4):
        cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)
        res = em_sort(data, cfg, engine="par")
        assert res.report.supersteps == res.report.rounds * (V // p)


def test_theorem3_network_traffic_only_cross_processor():
    """Messages between virtual processors on the same real processor
    stay local: cross-network volume shrinks as p drops."""
    data = make_rng(2).integers(0, 2**50, N)
    cross = {}
    for p in (2, 8):
        cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)
        res = em_sort(data, cfg, engine="par")
        cross[p] = res.report.cross_items
    assert cross[2] < cross[8]


def test_theorem3_workers_backend_bit_identical():
    """Acceptance gate: with ``workers=p`` the multi-process backend must
    report exactly the cost counters of the single-process simulation —
    real parallelism changes wall-clock, never the model."""
    data = make_rng(4).integers(0, 2**50, N)
    for p in (2, 4):
        cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)
        seq = em_sort(data, cfg, engine="par")
        par = em_sort(data, cfg, engine="par", overrides={"workers": p})
        assert np.array_equal(par.values, np.sort(data))
        assert par.report.io.parallel_ios == seq.report.io.parallel_ios
        assert par.report.io.blocks_total == seq.report.io.blocks_total
        assert par.report.context_blocks_io == seq.report.context_blocks_io
        assert par.report.message_blocks_io == seq.report.message_blocks_io
        assert par.report.overflow_blocks == seq.report.overflow_blocks
        assert par.report.io_max.parallel_ios == seq.report.io_max.parallel_ios


@pytest.mark.benchmark(group="theorem3")
@pytest.mark.parametrize("p", [1, 4])
def test_theorem3_benchmark(benchmark, p):
    data = make_rng(3).integers(0, 2**50, N // 4)
    cfg = MachineConfig(N=data.size, v=V, p=p, D=D, B=B)
    out = benchmark(lambda: em_sort(data, cfg, engine="par" if p > 1 else "seq"))
    assert np.array_equal(out.values, np.sort(data))
