"""Theorem 1 / Lemma 2 — BalancedRouting's message-size guarantees.

An adversarial h-relation (one processor sends its whole quota to a
single destination) has message sizes anywhere in [0, h]; after
Algorithm 1's two balanced rounds every message lies within
[h/v - (v-1)/2, h/v + (v-1)/2].  This bench drives the word-level
implementation over adversarial inputs, reports the realized min/max
sizes per phase, and shows the engine-level effect: balanced mode
eliminates staggered-slot overflows for skewed traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.cgm.message import Message
from repro.cgm.program import CGMProgram
from repro.core.balanced import (
    balanced_message_bounds,
    phase_a_bin_sizes,
    regroup_phase_b,
    split_phase_a,
)
from repro.em.runner import make_engine

from conftest import print_table


def adversarial_h_relation(v: int, h: int, seed: int):
    """Each processor i sends all h words to processor (i+1) mod v."""
    out = {}
    for i in range(v):
        lengths = np.zeros(v, dtype=np.int64)
        lengths[(i + 1) % v] = h
        out[i] = lengths
    return out


def test_theorem1_bounds_adversarial(bench_store):
    rows = []
    for v in (4, 8, 16):
        h = 64 * v
        lo, hi = balanced_message_bounds(h, v)
        worst_max, worst_min = 0, 10**9
        for i in range(v):
            lengths = np.zeros(v, dtype=np.int64)
            lengths[(i + 1) % v] = h
            sizes = phase_a_bin_sizes(lengths, i)
            worst_max = max(worst_max, int(sizes.max()))
            worst_min = min(worst_min, int(sizes.min()))
        rows.append([v, h, h, f"[{lo:.1f}, {hi:.1f}]", worst_min, worst_max])
        bench_store.record(
            f"adversarial/v={v}",
            measured={"msg_min": worst_min, "msg_max": worst_max},
            predicted={"bound_lo": lo, "bound_hi": hi},
            h=h,
        )
        assert lo <= worst_min and worst_max <= hi
    print_table(
        "Theorem 1: adversarial all-to-one h-relation, phase-A message sizes",
        ["v", "h", "raw max msg", "theorem bound", "measured min", "measured max"],
        rows,
    )


def test_theorem1_end_to_end_sizes():
    """Actual chunk routing (serialized payloads) stays near the bound."""
    v, words = 8, 512
    msgs = [Message(0, 1, np.zeros(words, dtype=np.uint64))]
    phase_a = split_phase_a(msgs, v)
    sizes_a = [m.size_items for m in phase_a]
    # serialized payload adds a small envelope: allow +2 words
    assert max(sizes_a) <= words / v + (v - 1) / 2 + 2
    # regroup at each intermediary separately, as the relay superstep does
    forwarded = []
    for me in range(v):
        mine = [m for m in phase_a if m.dest == me]
        forwarded.extend(regroup_phase_b(mine, me=me))
    assert all(m.size_items >= 1 for m in forwarded)


class SkewedTraffic(CGMProgram):
    """Round 0: processor 0 sends one huge message (overflow bait)."""

    name = "skewed"

    def max_message_items(self, shape):
        return max(1, shape.N // (shape.v * shape.v))  # deliberately tight slots

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid

    def round(self, r, ctx, env):
        if r == 0 and ctx["pid"] == 0:
            env.send(1, np.zeros(env.shape.N // env.v, dtype=np.int64), tag="blob")
        if r == 1:
            ctx["got"] = sum(m.payload.size for m in env.messages(tag="blob"))
        return r >= 1

    def finish(self, ctx):
        return ctx.get("got", 0)


def test_balancing_eliminates_slot_overflow():
    cfg = MachineConfig(N=1 << 14, v=8, D=2, B=32)
    plain = make_engine(cfg, "seq").run(SkewedTraffic(), [None] * 8)
    balanced = make_engine(cfg, "seq", balanced=True).run(SkewedTraffic(), [None] * 8)
    print_table(
        "Lemma 2: staggered-slot overflow blocks, skewed traffic",
        ["mode", "overflow blocks", "supersteps"],
        [
            ["direct", plain.report.overflow_blocks, plain.report.supersteps],
            ["balanced (2 rounds)", balanced.report.overflow_blocks, balanced.report.supersteps],
        ],
    )
    assert plain.report.overflow_blocks > 0
    assert balanced.report.overflow_blocks == 0
    assert balanced.report.supersteps == 2 * plain.report.supersteps
    assert plain.outputs[1] == balanced.outputs[1] == cfg.N // 8


@pytest.mark.benchmark(group="theorem1")
def test_theorem1_benchmark_split(benchmark):
    v = 16
    msgs = [
        Message(0, j, np.arange(256, dtype=np.uint64)) for j in range(v)
    ]
    out = benchmark(lambda: split_phase_a(msgs, v))
    assert len(out) == v
