"""Engine driver semantics: superstep isolation, delivery, termination,
differential agreement across all four backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.cgm.engine import InMemoryEngine
from repro.cgm.program import CGMProgram, FunctionalProgram
from repro.em.runner import make_engine
from repro.util.validation import ConfigurationError, SimulationError

from tests.conftest import all_engine_kinds, cfg_for


class EchoRing(CGMProgram):
    """Each proc sends its pid around a ring for `hops` rounds."""

    name = "echo-ring"

    def __init__(self, hops: int = 3) -> None:
        self.hops = hops

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid
        ctx["token"] = pid
        ctx["trace"] = []

    def round(self, r, ctx, env):
        if r > 0:
            (m,) = env.messages()
            ctx["token"] = m.payload
            ctx["trace"] = ctx["trace"] + [m.payload]
        if r < self.hops:
            env.send((ctx["pid"] + 1) % env.v, ctx["token"])
            return False
        return True

    def finish(self, ctx):
        return ctx["trace"]


class TestDriverSemantics:
    def test_ring_traces(self, small_cfg):
        eng = InMemoryEngine(small_cfg)
        res = eng.run(EchoRing(hops=3), [None] * small_cfg.v)
        v = small_cfg.v
        for pid, trace in enumerate(res.outputs):
            assert trace == [(pid - 1) % v, (pid - 2) % v, (pid - 3) % v]

    def test_superstep_isolation(self):
        """A message sent in round r must NOT be readable by a processor
        simulated later in the same round."""

        class SameRoundProbe(CGMProgram):
            name = "probe"

            def setup(self, ctx, pid, shape, local_input):
                ctx["pid"] = pid
                ctx["saw_early"] = False

            def round(self, r, ctx, env):
                if r == 0:
                    if env.messages():
                        ctx["saw_early"] = True  # would prove a leak
                    if ctx["pid"] == 0:
                        env.send(1, "leak?")
                    return False
                return True

            def finish(self, ctx):
                return ctx["saw_early"]

        cfg = MachineConfig(N=1 << 12, v=4)
        for kind in all_engine_kinds():
            res = make_engine(cfg_for(kind, cfg), kind).run(SameRoundProbe(), [None] * 4)
            assert res.outputs == [False] * 4, kind

    def test_wrong_input_count_rejected(self, small_cfg):
        with pytest.raises(ConfigurationError, match="one input slice"):
            InMemoryEngine(small_cfg).run(EchoRing(), [None])

    def test_runaway_program_guarded(self):
        class Forever(CGMProgram):
            name = "forever"

            def setup(self, ctx, pid, shape, local_input):
                ctx["pid"] = pid

            def round(self, r, ctx, env):
                env.send(ctx["pid"], "again")
                return False

            def finish(self, ctx):
                return None

        import repro.cgm.engine as engine_mod

        old = engine_mod.MAX_ROUNDS
        engine_mod.MAX_ROUNDS = 20
        try:
            with pytest.raises(SimulationError, match="exceeded"):
                InMemoryEngine(MachineConfig(N=1 << 10, v=2)).run(Forever(), [None] * 2)
        finally:
            engine_mod.MAX_ROUNDS = old

    def test_send_out_of_range_rejected(self):
        def r0(ctx, env):
            env.send(99, "boom")

        prog = FunctionalProgram(
            setup=lambda ctx, pid, shape, x: None, rounds=[r0], finish=lambda ctx: None
        )
        with pytest.raises(ValueError, match="out of range"):
            InMemoryEngine(MachineConfig(N=1 << 10, v=2)).run(prog, [None] * 2)

    def test_done_with_messages_in_flight_continues(self):
        """All procs report done but one sent a message: the engine must
        run another round to deliver it."""

        class LateSend(CGMProgram):
            name = "late-send"

            def setup(self, ctx, pid, shape, local_input):
                ctx["pid"] = pid
                ctx["got"] = False

            def round(self, r, ctx, env):
                for m in env.messages():
                    ctx["got"] = True
                if r == 0 and ctx["pid"] == 0:
                    env.send(1, "late")
                return True  # claims done immediately

            def finish(self, ctx):
                return ctx["got"]

        res = InMemoryEngine(MachineConfig(N=1 << 10, v=2)).run(LateSend(), [None] * 2)
        assert res.outputs[1] is True

    def test_rounds_counted(self, small_cfg):
        res = InMemoryEngine(small_cfg).run(EchoRing(hops=2), [None] * small_cfg.v)
        assert res.report.rounds == 3  # hops rounds + final quiescent round

    def test_h_history_recorded(self, small_cfg):
        res = InMemoryEngine(small_cfg).run(EchoRing(hops=1), [None] * small_cfg.v)
        assert len(res.report.h_history) == res.report.rounds
        assert res.report.h_history[0] >= 1


class TestDifferentialBackends:
    """The same program must produce identical outputs on every backend."""

    @pytest.mark.parametrize("kind", all_engine_kinds())
    def test_ring_everywhere(self, kind):
        cfg = cfg_for(kind, MachineConfig(N=1 << 12, v=8, D=2, B=32))
        res = make_engine(cfg, kind).run(EchoRing(hops=4), [None] * 8)
        ref = InMemoryEngine(cfg.with_(p=cfg.p)).run(EchoRing(hops=4), [None] * 8)
        assert res.outputs == ref.outputs

    @pytest.mark.parametrize("kind", all_engine_kinds())
    @pytest.mark.parametrize("balanced", [False, True])
    def test_numpy_contexts_roundtrip(self, kind, balanced):
        """Contexts with numpy payloads must survive the disk round trip."""

        def r0(ctx, env):
            ctx["arr"] = ctx["arr"] * 2
            env.send((env.pid + 1) % env.v, ctx["arr"][:10])

        def r1(ctx, env):
            (m,) = env.messages()
            ctx["neighbor"] = m.payload

        prog = FunctionalProgram(
            setup=lambda ctx, pid, shape, x: ctx.update(arr=x),
            rounds=[r0, r1],
            finish=lambda ctx: (ctx["arr"].sum(), ctx["neighbor"].sum()),
            name="roundtrip",
        )
        v = 4
        cfg = cfg_for(kind, MachineConfig(N=1 << 12, v=v, D=2, B=32))
        inputs = [np.arange(100) + 1000 * pid for pid in range(v)]
        res = make_engine(cfg, kind, balanced=balanced).run(prog, list(inputs))
        for pid in range(v):
            expect_arr = (inputs[pid] * 2).sum()
            expect_nb = (inputs[(pid - 1) % v] * 2)[:10].sum()
            assert res.outputs[pid] == (expect_arr, expect_nb), (kind, balanced)


class TestEMAccounting:
    def test_seq_engine_counts_io(self, small_cfg):
        res = make_engine(small_cfg, "seq").run(EchoRing(hops=2), [None] * small_cfg.v)
        assert res.report.io.parallel_ios > 0
        assert res.report.context_blocks_io > 0
        assert res.report.message_blocks_io > 0

    def test_in_memory_engine_no_io(self, small_cfg):
        res = InMemoryEngine(small_cfg).run(EchoRing(hops=2), [None] * small_cfg.v)
        assert res.report.io.parallel_ios == 0

    def test_par_engine_supersteps_blow_up(self):
        """Lemma 4: each CGM round costs v/p real supersteps."""
        cfg = MachineConfig(N=1 << 12, v=8, p=2, D=1, B=32)
        res = make_engine(cfg, "par").run(EchoRing(hops=1), [None] * 8)
        assert res.report.supersteps == res.report.rounds * (8 // 2)

    def test_par_engine_cross_traffic(self):
        cfg = MachineConfig(N=1 << 12, v=8, p=4, D=1, B=32)
        res = make_engine(cfg, "par").run(EchoRing(hops=1), [None] * 8)
        # ring neighbors: half the hops cross real-processor boundaries
        assert 0 < res.report.cross_items <= res.report.comm_items

    def test_vm_engine_counts_faults(self):
        cfg = MachineConfig(N=1 << 14, v=8, M=2048)  # tiny memory
        res = make_engine(cfg, "vm").run(EchoRing(hops=2), [None] * 8)
        assert res.report.page_faults > 0

    def test_balanced_doubles_supersteps(self, small_cfg):
        plain = make_engine(small_cfg, "seq").run(EchoRing(hops=2), [None] * small_cfg.v)
        bal = make_engine(small_cfg, "seq", balanced=True).run(
            EchoRing(hops=2), [None] * small_cfg.v
        )
        assert bal.report.supersteps == 2 * plain.report.supersteps

    def test_seq_requires_p1(self):
        cfg = MachineConfig(N=1 << 12, v=8, p=2)
        with pytest.raises(ConfigurationError, match="p=1"):
            make_engine(cfg, "seq")

    def test_unknown_engine_kind(self, small_cfg):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            make_engine(small_cfg, "quantum")
