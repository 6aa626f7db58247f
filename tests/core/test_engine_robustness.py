"""Deeper EM-engine behaviour: overflow handling, parity alternation over
long runs, memory accounting, determinism, context-region reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.cgm.program import CGMProgram, FunctionalProgram
from repro.em.runner import make_engine


class BigMessages(CGMProgram):
    """Sends messages far larger than the advertised slot (overflow path)."""

    name = "big-messages"

    def max_message_items(self, shape):
        return 8  # lie: tiny slots

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid
        ctx["data"] = local_input

    def round(self, r, ctx, env):
        if r == 0:
            env.send((ctx["pid"] + 1) % env.v, ctx["data"], tag="big")
            return False
        (m,) = env.messages(tag="big")
        ctx["got"] = m.payload
        return True

    def finish(self, ctx):
        return ctx["got"]


class PingPong(CGMProgram):
    """Many rounds: exercises the alternating message-matrix parity."""

    name = "ping-pong"

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid
        ctx["acc"] = np.zeros(16, dtype=np.int64)

    def round(self, r, ctx, env):
        for m in env.messages():
            ctx["acc"] = ctx["acc"] + m.payload
        if r < self.rounds:
            env.send((ctx["pid"] + r) % env.v, np.full(16, r, dtype=np.int64))
            return False
        return True

    def finish(self, ctx):
        return ctx["acc"]


class GrowingContext(CGMProgram):
    """Context doubles every round: forces region reallocation on disk."""

    name = "growing-context"

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid
        ctx["blob"] = np.arange(8)

    def round(self, r, ctx, env):
        ctx["blob"] = np.concatenate([ctx["blob"], ctx["blob"]])
        return r >= 5

    def finish(self, ctx):
        return ctx["blob"].size


class TestOverflowPath:
    @pytest.mark.parametrize("kind", ["seq", "par"])
    def test_oversized_messages_survive(self, kind, rng):
        v = 4
        cfg = MachineConfig(N=1 << 12, v=v, p=2 if kind == "par" else 1, D=2, B=32)
        inputs = [rng.integers(0, 2**40, 500) for _ in range(v)]
        res = make_engine(cfg, kind).run(BigMessages(), list(inputs))
        assert res.report.overflow_blocks > 0
        for pid in range(v):
            assert np.array_equal(res.outputs[pid], inputs[(pid - 1) % v])

    def test_overflow_tracks_are_freed(self, rng):
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=32)
        eng = make_engine(cfg, "seq")
        inputs = [rng.integers(0, 2**40, 500) for _ in range(4)]
        eng.run(BigMessages(), list(inputs))
        # after the run only contexts remain on disk; overflow regions freed
        total_tracks = sum(a.tracks_in_use for a in eng.arrays.values())
        ctx_blocks = sum(region[2] for region in eng._ctx_region.values())
        assert total_tracks <= 2 * ctx_blocks + 8

    @pytest.mark.parametrize("kind", ["seq", "par"])
    def test_many_round_overflow_footprint_bounded(self, kind, rng):
        """Regression: freed overflow/context rows are *reused* — over many
        rounds max_track() must plateau instead of growing linearly."""
        v, rounds = 4, 30
        cfg = MachineConfig(N=1 << 12, v=v, p=2 if kind == "par" else 1, D=2, B=32)

        class OverflowEveryRound(CGMProgram):
            name = "overflow-churn"

            def max_message_items(self, shape):
                return 8  # lie: every payload below spills to overflow runs

            def setup(self, ctx, pid, shape, local_input):
                ctx["pid"] = pid
                ctx["data"] = local_input

            def round(self, r, ctx, env):
                for m in env.messages():
                    ctx["data"] = m.payload
                if r < rounds:
                    env.send((ctx["pid"] + 1) % env.v, ctx["data"])
                    return False
                return True

            def finish(self, ctx):
                return ctx["data"]

        # construct the in-process engine directly: the test inspects
        # allocator internals, so the worker backend must not kick in
        from repro.core.par_engine import ParEMEngine

        eng = ParEMEngine(cfg, seq=kind == "seq")
        inputs = [rng.integers(0, 2**40, 400) for _ in range(v)]
        res = eng.run(OverflowEveryRound(), list(inputs))
        assert res.report.overflow_blocks > 0
        base = max(mm.end_track() for mm in eng.matrices.values())
        peak_data_tracks = max(a.max_track() for a in eng.arrays.values()) - base
        # a handful of live contexts + one round's overflow runs; a
        # grow-only allocator would need Omega(rounds) times this space
        per_round_blocks = res.report.overflow_blocks // rounds
        assert peak_data_tracks <= 4 * (per_round_blocks // cfg.D + v + 4)


class TestLongRuns:
    @pytest.mark.parametrize("kind", ["seq", "par"])
    def test_parity_alternation_many_rounds(self, kind):
        v = 4
        cfg = MachineConfig(N=1 << 12, v=v, p=2 if kind == "par" else 1, D=2, B=32)
        res = make_engine(cfg, kind).run(PingPong(rounds=21), [None] * v)
        ref = make_engine(cfg.with_(p=cfg.p), "memory").run(PingPong(rounds=21), [None] * v)
        for a, b in zip(res.outputs, ref.outputs):
            assert np.array_equal(a, b)

    def test_growing_contexts_reallocate(self):
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=32)
        eng = make_engine(cfg, "seq")
        res = eng.run(GrowingContext(), [None] * 4)
        assert res.outputs == [8 * 2**6] * 4
        assert res.report.context_blocks_io > 0


class TestAlgorithm2:
    """``engine="seq"`` is ``ParEMEngine`` at p = 1, named ``seq-em``: the
    same I/O, one real superstep per CGM round where ``par`` counts v/p."""

    def test_seq_is_par_em_at_p_1_with_one_superstep_per_round(self):
        from repro.core.par_engine import ParEMEngine

        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=32)
        seq, par = make_engine(cfg, "seq"), make_engine(cfg, "par")
        assert type(seq) is type(par) is ParEMEngine
        a = seq.run(PingPong(rounds=5), [None] * 4).report
        b = par.run(PingPong(rounds=5), [None] * 4).report
        assert (a.engine, b.engine) == ("seq-em", "par-em")
        assert a.supersteps == a.rounds and b.supersteps == cfg.v * a.rounds
        assert a.io == b.io

    def test_seq_on_several_reals_is_one_line(self):
        from repro.util.validation import ConfigurationError

        with pytest.raises(ConfigurationError) as err:
            make_engine(MachineConfig(N=64, v=4, p=2), "seq")
        assert str(err.value) == "engine 'seq' requires p=1, got p=2"


class TestMemoryAccounting:
    def test_peak_memory_reported(self, rng):
        cfg = MachineConfig(N=1 << 13, v=8, D=2, B=64)
        from repro.em.runner import em_sort

        res = em_sort(rng.integers(0, 2**40, 1 << 13), cfg, engine="seq")
        peak = res.report.peak_memory_items
        # one virtual processor's context + inbox + outbox (with block
        # padding), i.e. Theta(mu) with a modest constant — not Theta(N*v)
        assert cfg.mu <= peak <= 16 * cfg.mu

    def test_memory_scales_with_v(self, rng):
        """More virtual processors -> smaller contexts -> smaller peak."""
        from repro.em.runner import em_sort

        n = 1 << 14
        data = rng.integers(0, 2**40, n)
        peaks = {}
        for v in (4, 16):
            res = em_sort(data, MachineConfig(N=n, v=v, D=2, B=64), engine="seq")
            peaks[v] = res.report.peak_memory_items
        assert peaks[16] < peaks[4]


class TestDeterminism:
    def test_identical_runs_identical_reports(self, rng):
        from repro.em.runner import em_sort

        data = rng.integers(0, 2**40, 1 << 13)
        cfg = MachineConfig(N=data.size, v=8, D=2, B=64, seed=99)
        a = em_sort(data, cfg, engine="seq")
        b = em_sort(data, cfg, engine="seq")
        assert a.report.io.parallel_ios == b.report.io.parallel_ios
        assert a.report.h_history == b.report.h_history
        assert np.array_equal(a.values, b.values)

    def test_engines_agree_on_randomized_program(self):
        """Same cfg.seed -> same coins on every backend (list ranking)."""
        from repro.algorithms.graphs import list_rank

        n = 300
        order = np.random.default_rng(5).permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        for a, b in zip(order[:-1], order[1:]):
            succ[a] = b
        cfg = MachineConfig(N=n, v=4, B=16, seed=7)
        runs = [list_rank(succ, cfg, engine=k) for k in ("memory", "seq", "vm")]
        assert runs[0].total_rounds == runs[1].total_rounds == runs[2].total_rounds


class TestMixedTraffic:
    def test_mixed_tags_and_multiple_messages_per_pair(self):
        def r0(ctx, env):
            env.send((env.pid + 1) % env.v, "a", tag="x")
            env.send((env.pid + 1) % env.v, np.arange(40), tag="y")
            env.send((env.pid + 1) % env.v, {"k": env.pid}, tag="x")

        def r1(ctx, env):
            xs = env.messages(tag="x")
            ys = env.messages(tag="y")
            ctx["n_x"] = len(xs)
            ctx["n_y"] = len(ys)
            ctx["sum"] = int(ys[0].payload.sum())

        prog = FunctionalProgram(
            setup=lambda ctx, pid, shape, inp: None,
            rounds=[r0, r1],
            finish=lambda ctx: (ctx["n_x"], ctx["n_y"], ctx["sum"]),
            name="mixed-tags",
        )
        for kind in ("memory", "seq", "vm"):
            cfg = MachineConfig(N=1 << 10, v=4, D=2, B=16)
            res = make_engine(cfg, kind).run(prog, [None] * 4)
            assert res.outputs == [(2, 1, 780)] * 4, kind


class TestUnsupportedValues:
    """A value outside the item codec's closed type set is a ``TypeError``
    naming the type, raised before a block is written or a counter moves."""

    @staticmethod
    def _io(eng) -> tuple:
        return (
            sum(a.stats.parallel_ios for a in eng.arrays.values()),
            sum(d.blocks_written for a in eng.arrays.values() for d in a.disks),
            sum(m.used for m in eng.memories.values()),
            sum(eng._ctx_io.values()),
            sum(eng._msg_io.values()),
        )

    @pytest.mark.parametrize("kind", ["seq", "par"])
    @pytest.mark.parametrize(
        "leaf", [{1, 2}, object(), np.array([None, 1], dtype=object)],
        ids=["set", "instance", "object-array"],
    )
    def test_context_refused_at_store_time(self, kind, leaf):
        def setup(ctx, pid, shape, local_input):
            ctx["ok"] = np.arange(4)
            ctx["bad"] = {"nested": [leaf]}

        prog = FunctionalProgram(setup, [], lambda ctx: 0)
        cfg = MachineConfig(N=64, v=4, p=2 if kind == "par" else 1, D=2, B=4)
        # in-process under every lane: the assertions read the engine's disks
        eng = make_engine(cfg, kind, overrides={"workers": 0})
        with pytest.raises(TypeError, match="cannot serialize") as err:
            eng.run(prog, [None] * 4)
        assert "\n" not in str(err.value)
        assert self._io(eng) == (0, 0, 0, 0, 0)
        assert eng._ctx_region == {}

    @pytest.mark.parametrize("kind", ["seq", "par"])
    def test_bundle_refused_before_any_of_the_outbox_is_charged(self, kind):
        from repro.cgm.message import Message

        cfg = MachineConfig(N=64, v=4, p=2 if kind == "par" else 1, D=2, B=4)
        eng = make_engine(cfg, kind, overrides={"workers": 0})
        eng.run(FunctionalProgram(lambda ctx, pid, shape, x: None, [], lambda ctx: 0),
                [None] * 4)
        before = self._io(eng)
        # size_items given, as for a payload item_count measures by length:
        # the set is first seen by the bundle encoder
        outbox = [
            Message(0, 1, np.arange(8), "fine"),
            Message(0, 2, [0] * 8 + [{1}], "bad", size_items=9),
        ]
        with pytest.raises(TypeError, match=r"builtins\.set"):
            eng._put_messages(0, outbox)
        assert self._io(eng) == before
        assert not any(eng._staged_meta.values())
