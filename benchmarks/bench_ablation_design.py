"""Ablations of the simulation's design choices (DESIGN.md checklist).

The paper's machinery has three load-bearing choices; each ablation
removes one and measures the cost on the same workload:

1. **staggered message matrix** (Figure 2) — vs. a naive one-block-per-
   I/O discipline.  We measure the realized disk utilization: the
   staggered layout keeps I/Os ~D-wide, the naive bound is 1/D of that.
2. **message-slot sizing** — a tight `max_message_items` hint (the mean
   message, N/v^2) forces slot overflows (extra unstructured I/O) as soon
   as the traffic is skewed; the generous default avoids them.
   BalancedRouting removes the need for hints entirely.
3. **balanced routing on benign traffic** — Lemma 2's 2x superstep tax
   when traffic is already balanced: measurable, bounded, and the
   message I/O roughly doubles (each item travels twice).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, make_engine
from repro.util.rng import make_rng

from conftest import print_table

V, D, B = 8, 4, 64
N = 1 << 15


def test_ablation_staggered_layout_utilization(bench_store):
    data = make_rng(0).integers(0, 2**50, N)
    cfg = MachineConfig(N=N, v=V, D=D, B=B)
    res = em_sort(data, cfg, engine="seq")
    io = res.report.io
    naive_ios = io.blocks_total          # 1 block per I/O, the strawman
    perfect = io.blocks_total / D
    bench_store.record(
        "staggered-vs-naive",
        cfg=cfg,
        report=res.report,
        measured={"utilization": io.utilization(D)},
        predicted={"naive_ios": naive_ios, "perfect_ios": perfect},
    )
    print_table(
        "Ablation 1: staggered layout vs one-block-per-I/O (D=4)",
        ["discipline", "parallel I/Os", "utilization"],
        [
            ["naive (1 block/I/O)", naive_ios, f"{1 / D:.0%}"],
            ["staggered (measured)", io.parallel_ios, f"{io.utilization(D):.0%}"],
            ["perfect D-wide", f"{perfect:.0f}", "100%"],
        ],
    )
    assert io.parallel_ios < 0.40 * naive_ios       # > 2.5x better than naive
    assert io.parallel_ios < 1.30 * perfect         # within 30% of perfect


class TightHint:
    """Wrap a program to lie about its largest message."""

    def __init__(self, program, items):
        self._p = program
        self._items = items
        self.name = program.name + "-tight"

    def max_message_items(self, shape):
        return self._items

    def __getattr__(self, name):
        return getattr(self._p, name)


def test_ablation_slot_sizing():
    from repro.algorithms.collectives import partition_array
    from repro.algorithms.sorting import SampleSort

    # a quarter of every processor's keys are one value, so one bucket's
    # messages are twice the mean N/v^2: the tight slot overflows because
    # of the traffic, whatever the serialization envelope happens to be
    data = make_rng(1).integers(0, 2**50, N)
    data[::4] = 1 << 49
    cfg = MachineConfig(N=N, v=V, D=D, B=B)
    inputs = partition_array(data, V)

    rows = []
    results = {}
    for label, prog in [
        ("default hint", SampleSort()),
        ("tight hint (N/v^2)", TightHint(SampleSort(), N // (V * V))),
    ]:
        res = make_engine(cfg, "seq").run(prog, list(inputs))
        assert np.array_equal(np.concatenate(res.outputs), np.sort(data))
        results[label] = res.report
        rows.append(
            [label, res.report.io.parallel_ios, res.report.overflow_blocks]
        )
    bal = make_engine(cfg, "seq", balanced=True).run(
        TightHint(SampleSort(), N // (V * V)), list(inputs)
    )
    rows.append(
        ["tight hint + balanced", bal.report.io.parallel_ios, bal.report.overflow_blocks]
    )
    print_table(
        "Ablation 2: message-slot sizing",
        ["configuration", "parallel I/Os", "overflow blocks"],
        rows,
    )
    assert results["tight hint (N/v^2)"].overflow_blocks > 0
    assert bal.report.overflow_blocks == 0


def test_ablation_balancing_tax_on_benign_traffic():
    data = make_rng(2).integers(0, 2**50, N)
    cfg = MachineConfig(N=N, v=V, D=D, B=B)
    plain = em_sort(data, cfg, engine="seq")
    balanced = em_sort(data, cfg, engine="seq", balanced=True)
    assert np.array_equal(balanced.values, plain.values)
    print_table(
        "Ablation 3: balancing tax when traffic is already balanced",
        ["mode", "parallel I/Os", "message blocks", "supersteps"],
        [
            [
                "direct",
                plain.report.io.parallel_ios,
                plain.report.message_blocks_io,
                plain.report.supersteps,
            ],
            [
                "balanced",
                balanced.report.io.parallel_ios,
                balanced.report.message_blocks_io,
                balanced.report.supersteps,
            ],
        ],
    )
    # each item crosses the disk twice in balanced mode: <= ~3x I/O
    assert balanced.report.supersteps == 2 * plain.report.supersteps
    assert balanced.report.io.parallel_ios < 3.5 * plain.report.io.parallel_ios


@pytest.mark.benchmark(group="ablation")
def test_ablation_benchmark_balanced(benchmark):
    data = make_rng(3).integers(0, 2**50, N // 4)
    cfg = MachineConfig(N=data.size, v=V, D=D, B=B)
    benchmark(lambda: em_sort(data, cfg, engine="seq", balanced=True))
