"""Tests for CGM list ranking (Group C row 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.graphs import list_rank
from repro.cgm.config import MachineConfig
from repro.util.validation import SimulationError

from tests.conftest import all_engine_kinds, cfg_for


def random_list(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random single linked list over ids 0..n-1; returns (succ, order)."""
    order = np.random.default_rng(seed).permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    for a, b in zip(order[:-1], order[1:]):
        succ[a] = b
    return succ, order


def expected_ranks(order: np.ndarray) -> np.ndarray:
    n = order.size
    out = np.empty(n)
    for i, node in enumerate(order):
        out[node] = n - 1 - i
    return out


class TestListRanking:
    @pytest.mark.parametrize("kind", all_engine_kinds())
    def test_distance_to_tail_all_engines(self, kind):
        n = 400
        succ, order = random_list(n, seed=1)
        cfg = cfg_for(kind, MachineConfig(N=n, v=8, B=16))
        res = list_rank(succ, cfg, engine=kind)
        assert np.array_equal(res.values, expected_ranks(order))

    def test_identity_ordered_list(self):
        n = 128
        succ = np.arange(1, n + 1, dtype=np.int64)
        succ[-1] = -1
        res = list_rank(succ, MachineConfig(N=n, v=4, B=16), engine="memory")
        assert np.array_equal(res.values, np.arange(n)[::-1])

    def test_weighted_suffix_sums(self):
        n = 100
        succ, order = random_list(n, seed=3)
        rng = np.random.default_rng(5)
        w = rng.uniform(-2, 2, n)
        res = list_rank(succ, MachineConfig(N=n, v=4, B=16), weights=w, engine="memory")
        suffix = np.empty(n)
        acc = 0.0
        for node in order[::-1]:
            acc += w[node]
            suffix[node] = acc
        assert np.allclose(res.values, suffix)

    def test_tiny_lists(self):
        for n in (1, 2, 3):
            succ = np.arange(1, n + 1, dtype=np.int64)
            succ[-1] = -1
            res = list_rank(succ, MachineConfig(N=max(n, 2), v=2, B=8)
                            if n >= 2 else MachineConfig(N=2, v=2, B=8),
                            engine="memory") if n >= 2 else None
            if res is not None:
                assert np.array_equal(res.values[:n], np.arange(n)[::-1])

    def test_contraction_round_count_logarithmic(self):
        """Rounds grow ~log(v-fold contraction), not linearly with n."""
        rounds = {}
        for n in (256, 1024, 4096):
            succ, _ = random_list(n, seed=7)
            res = list_rank(succ, MachineConfig(N=n, v=8, B=32), engine="memory")
            rounds[n] = res.total_rounds
        # 16x more data -> at most ~2.5x more rounds (log-ish growth)
        assert rounds[4096] <= 2.5 * rounds[256]

    def test_cycle_detected(self):
        # v=1 gathers immediately, so malformed input is diagnosed cleanly
        succ = np.array([1, 2, 0, -1], dtype=np.int64)  # 0-1-2 form a cycle
        with pytest.raises(SimulationError, match="cycle"):
            list_rank(succ, MachineConfig(N=4, v=1, B=8), engine="memory")

    def test_two_lists_detected(self):
        succ = np.array([1, -1, 3, -1], dtype=np.int64)
        with pytest.raises(SimulationError, match="heads"):
            list_rank(succ, MachineConfig(N=4, v=1, B=8), engine="memory")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), v=st.sampled_from([2, 4, 8, 16]))
    def test_ranking_property(self, seed, v):
        n = 300
        succ, order = random_list(n, seed)
        res = list_rank(succ, MachineConfig(N=n, v=v, B=16, seed=seed), engine="memory")
        assert np.array_equal(res.values, expected_ranks(order))

    def test_deterministic_across_engines(self):
        """Same seed -> identical coin flips -> identical contraction."""
        n = 300
        succ, _ = random_list(n, seed=9)
        cfg = MachineConfig(N=n, v=4, B=16, seed=42)
        a = list_rank(succ, cfg, engine="memory")
        b = list_rank(succ, cfg, engine="seq")
        assert np.array_equal(a.values, b.values)
        assert a.total_rounds == b.total_rounds


# --------------------------------------------------------------------------
# The flat context: ``removed`` is a level array, succ/w are frozen at removal
# --------------------------------------------------------------------------


def _run_program(program, succ, weights, v, engine):
    from repro.algorithms.collectives import partition_array
    from repro.em.runner import em_run

    cfg = MachineConfig(N=succ.size, v=v, B=8)
    inputs = list(zip(partition_array(succ, v), partition_array(weights, v)))
    return em_run(program, inputs, cfg, engine)


class TestFlatContext:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 150),
        v=st.sampled_from([1, 2, 8]),
        threshold=st.sampled_from([None, 2, 10_000]),  # default / many levels / none
        integral=st.booleans(),
    )
    def test_differential_against_memory_engine_and_sequential_reference(
        self, seed, n, v, threshold, integral
    ):
        """Generated lists, non-unit and negative weights: the EM engine's
        ranks are the in-memory engine's bit for bit, and the sequential
        suffix sums — exactly for integral weights (every partial sum is
        exact), to rounding otherwise (contraction adds in another order)."""
        from repro.algorithms.graphs.list_ranking import ListRanking

        n = max(n, v)
        succ, order = random_list(n, seed)
        rng = np.random.default_rng(seed + 1)
        w = rng.integers(-9, 10, n).astype(np.float64) if integral else rng.uniform(-3, 3, n)
        reference = np.empty(n)
        acc = 0.0
        for node in order[::-1]:
            acc += w[node]
            reference[node] = acc
        runs = {
            kind: _run_program(ListRanking(gather_threshold=threshold), succ, w, v, kind)
            for kind in ("memory", "seq")
        }
        ranks = {k: np.concatenate(r.outputs) for k, r in runs.items()}
        assert ranks["seq"].tobytes() == ranks["memory"].tobytes()
        assert runs["seq"].report.rounds == runs["memory"].report.rounds
        if integral:
            assert ranks["seq"].tobytes() == reference.tobytes()
        else:
            assert np.allclose(ranks["seq"], reference)
        if threshold == 10_000:  # gathered at once: nothing was ever spliced
            assert runs["seq"].report.rounds <= 6

    def test_succ_and_weight_of_a_removed_node_never_change(self):
        """The invariant the flat context rests on: once ``removed[i] >= 0``,
        ``succ[i]`` and ``w[i]`` keep the values they had in the round that
        spliced node i out — at every later round boundary, on every
        processor — and the level never changes either."""
        from repro.algorithms.graphs.list_ranking import ListRanking

        frozen: dict[int, dict[int, tuple]] = {}
        boundaries = 0

        class Watched(ListRanking):
            def round(self, r, ctx, env):
                nonlocal boundaries
                done = super().round(r, ctx, env)
                seen = frozen.setdefault(ctx["pid"], {})
                removed, succ, w = ctx["removed"], ctx["succ"], ctx["w"]
                for i in np.nonzero(removed >= 0)[0]:
                    now = (int(removed[i]), int(succ[i]), float(w[i]))
                    assert seen.setdefault(int(i), now) == now, (r, ctx["pid"], i)
                    assert not ctx["alive"][i]
                boundaries += 1
                return done

        n = 600
        succ, order = random_list(n, seed=11)
        w = np.random.default_rng(12).uniform(-2, 2, n)
        res = _run_program(Watched(gather_threshold=4), succ, w, 8, "seq")
        assert boundaries == 8 * res.report.rounds
        assert sum(len(s) for s in frozen.values()) >= n - 4 - 2  # nearly all spliced
        levels = {lvl for s in frozen.values() for lvl, _s, _w in s.values()}
        assert len(levels) > 10  # many contraction levels were exercised

    def test_removed_is_a_level_array(self):
        from repro.algorithms.graphs.list_ranking import ListRanking
        from repro.cgm.program import Context

        ctx = Context()
        cfg = MachineConfig(N=16, v=2, B=4)
        ListRanking().setup(ctx, 1, cfg, (np.arange(8), np.ones(8)))
        assert ctx["removed"].dtype == np.int16 and ctx["removed"].shape == (8,)
        assert (ctx["removed"] == -1).all()


FLAT = (np.ndarray, np.generic, bool, int, float, str)


@pytest.mark.parametrize("op", ["sort", "permute", "transpose", "listrank"])
def test_no_python_container_in_a_stored_context(op, monkeypatch):
    """Every value of every context the EM engine stores is an ndarray, a
    scalar or a str: a context is flat memory plus a few words, swapped as
    raw bytes.  A list, tuple or dict creeping in (``removed`` was one) is
    marshalled node by node, 432 times an op."""
    from repro.core.par_engine import ParEMEngine
    from repro.em import runner

    stored: list[dict] = []
    inner = ParEMEngine._store_context

    def spy(self, pid, ctx):
        stored.append({k: type(v) for k, v in ctx.items()})
        return inner(self, pid, ctx)

    monkeypatch.setattr(ParEMEngine, "_store_context", spy)
    rng = np.random.default_rng(4)
    n = 1 << 10
    cfg = MachineConfig(N=n, v=4, D=2, B=16)
    if op == "listrank":
        list_rank(random_list(n, seed=4)[0], cfg, engine="seq")
    else:
        raw = runner.OPS[op].generate(rng, n)
        runner.em_op(op, raw, cfg, "seq")
    assert len(stored) >= 8
    offenders = {
        (key, tp.__name__)
        for types in stored
        for key, tp in types.items()
        if not (issubclass(tp, FLAT) and type(key) is str)
    }
    assert offenders == set()
