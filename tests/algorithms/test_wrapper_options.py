"""The Group B/C wrappers are a front door, not a fork.

Every ``make_engine`` option reaches the engine through a wrapper exactly
as through a hand-rolled ``em_run`` of the same program (one single-run
wrapper per module is checked against that spelling); the wrappers that
chain several runs forward the same options to every stage, except that
they refuse ``checkpoint=`` / ``resume=`` before anything runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.algorithms.geometry as geo
import repro.algorithms.graphs as graphs
from repro.algorithms.collectives import partition_array
from repro.cgm.config import MachineConfig
from repro.em import runner
from repro.em.runner import em_run
from repro.obs.bus import EventBus
from repro.tune.runtime import RuntimeConfig
from repro.util.validation import ConfigurationError

V = 4


def _list_rank(rng):
    from repro.algorithms.graphs.list_ranking import ListRanking

    n = 400
    order = rng.permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    weights = (succ >= 0).astype(np.float64)
    cfg = MachineConfig(N=n, v=V, D=2, B=16)

    def by_hand(**options):
        inputs = list(zip(partition_array(succ, V), partition_array(weights, V)))
        res = em_run(ListRanking(), inputs, cfg, "seq", **options)
        return np.concatenate(res.outputs), res

    return (lambda **o: graphs.list_rank(succ, cfg, engine="seq", **o)), by_hand


def _connected_components(rng):
    from repro.algorithms.graphs.connectivity import ConnectedComponents

    n = 120
    edges = rng.integers(0, n, (150, 2))
    rows = np.column_stack((np.arange(len(edges)), edges))
    cfg = MachineConfig(N=n, v=V, D=2, B=16)

    def by_hand(**options):
        res = em_run(
            ConnectedComponents(n), partition_array(rows, V), cfg, "seq", **options
        )
        return np.concatenate([o[0] for o in res.outputs]), res

    return (lambda **o: graphs.connected_components(edges, n, cfg, "seq", **o)), by_hand


def _delaunay_2d(rng):
    from repro.algorithms.geometry.delaunay import DelaunayCGM

    n = 200
    pts = rng.random((n, 2))
    rows = np.column_stack((pts, np.arange(n, dtype=np.float64)))
    cfg = MachineConfig(N=rows.size, v=V, D=2, B=32)

    def by_hand(**options):
        res = em_run(
            DelaunayCGM(n_points=n), partition_array(rows, V), cfg, "seq", **options
        )
        return res.outputs[0]["triangles"], res

    return (lambda **o: geo.delaunay_2d(pts, cfg, "seq", **o)), by_hand


def _dominance_counts(rng):
    from repro.algorithms.geometry.dominance import DominanceCount

    n = 150
    pts, w = rng.random((n, 2)), rng.random(n)
    rows = np.column_stack((pts, w, np.arange(n, dtype=np.float64)))
    cfg = MachineConfig(N=rows.size, v=V, D=2, B=32)

    def by_hand(**options):
        res = em_run(DominanceCount(), partition_array(rows, V), cfg, "seq", **options)
        out = np.zeros(n)
        for o in res.outputs:
            for gid, val in o:
                out[int(gid)] = val
        return out, res

    return (lambda **o: geo.dominance_counts(pts, w, cfg, "seq", **o)), by_hand


SINGLE_RUN = [_list_rank, _connected_components, _delaunay_2d, _dominance_counts]


def _agree(got, want_values, want):
    """The wrapper's result is the hand-rolled run's, assembled."""
    assert np.array_equal(np.asarray(got.values), np.asarray(want_values))
    assert [r.io.as_dict() for r in got.reports] == [want.report.io.as_dict()]
    assert got.reports[0].supersteps == want.report.supersteps
    assert got.cfgs == [want.cfg]


def _kinds(tracer) -> list[str]:
    return [e["kind"] for e in tracer.events]


@pytest.mark.parametrize("case", SINGLE_RUN, ids=lambda c: c.__name__.lstrip("_"))
class TestSingleRunWrapperForwardsEveryOption:
    def test_balanced(self, case, rng):
        wrapper, by_hand = case(rng)
        plain, balanced = wrapper(), wrapper(balanced=True)
        _agree(balanced, *by_hand(balanced=True))
        assert balanced.reports[0].supersteps == 2 * plain.reports[0].supersteps
        assert np.array_equal(np.asarray(balanced.values), np.asarray(plain.values))

    @pytest.mark.parametrize("how", ["runtime", "overrides"])
    def test_runtime_and_overrides(self, case, how, rng, tmp_path, monkeypatch):
        """The arena is chosen by argument: the trace shows mmap growth, the
        counters are the RAM run's, and the spill directory is left empty."""
        monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
        wrapper, by_hand = case(rng)
        knobs = {"arena": "mmap", "spill_dir": str(tmp_path)}
        options = (
            {"runtime": RuntimeConfig.resolve(knobs)} if how == "runtime"
            else {"overrides": knobs}
        )
        tracer = EventBus(monitor=False)
        got = wrapper(tracer=tracer, **options)
        _agree(got, *by_hand(**options))
        assert got.reports[0].io.as_dict() == wrapper().reports[0].io.as_dict()
        grows = [e for e in tracer.events if e["kind"] == "arena_grow"]
        assert grows and {e["backend"] for e in grows} == {"mmap"}
        assert _kinds(tracer).count("run_begin") == _kinds(tracer).count("run_end") == 1

    def test_checkpoint_then_resume(self, case, rng, tmp_path):
        wrapper, by_hand = case(rng)
        first = wrapper(checkpoint=str(tmp_path / "wrapper"))
        _agree(first, *by_hand(checkpoint=str(tmp_path / "by_hand")))
        tracer = EventBus(monitor=False)
        resumed = wrapper(
            checkpoint=str(tmp_path / "wrapper"), resume=True, tracer=tracer
        )
        assert "resume" in _kinds(tracer)
        assert np.array_equal(np.asarray(resumed.values), np.asarray(first.values))
        assert resumed.reports[0].io.as_dict() == first.reports[0].io.as_dict()


# ------------------------------------------------- wrappers of several runs

_CYCLE = np.array([(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
_TREE = np.array([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6), (5, 7)])
_CFG = MachineConfig(N=16, v=V, D=2, B=8)


def _separability(rng, **options):
    A = rng.random((40, 2))
    return geo.separability_directions(A, A + [3.0, 0.0], _CFG, "seq", **options)


COMPOSITES = {
    "euler_tour_positions": lambda rng, **o: graphs.euler_tour_positions(
        _TREE, 8, _CFG, engine="seq", **o
    ),
    "tree_measures": lambda rng, **o: graphs.tree_measures(
        _TREE, 8, _CFG, engine="seq", **o
    ),
    "lowest_common_ancestors": lambda rng, **o: graphs.lowest_common_ancestors(
        _TREE, np.array([(3, 4), (4, 7)]), 8, _CFG, engine="seq", **o
    ),
    "separability_directions": _separability,
    "low_high": lambda rng, **o: graphs.low_high(_CYCLE, 8, _CFG, "seq", **o),
    "biconnected_components": lambda rng, **o: graphs.biconnected_components(
        _CYCLE, 8, _CFG, "seq", **o
    ),
    "ear_decomposition": lambda rng, **o: graphs.ear_decomposition(
        _CYCLE, 8, _CFG, "seq", **o
    ),
}


@pytest.mark.parametrize("name", COMPOSITES)
class TestCompositeWrappers:
    @pytest.mark.parametrize("option", [{"checkpoint": "ck"}, {"resume": True}])
    def test_refuses_a_checkpoint_before_running_anything(
        self, name, option, rng, monkeypatch
    ):
        """A snapshot is fingerprinted by program and machine shape, not by
        input: two ``ListRanking`` stages over one directory would resume
        each other's."""

        def no_engine(*args, **kwargs):
            raise AssertionError("a stage ran before the refusal")

        monkeypatch.setattr(runner, "make_engine", no_engine)
        with pytest.raises(ConfigurationError, match=f"^{name} is several engine runs"):
            COMPOSITES[name](rng, **option)

    def test_forwards_the_tracer_and_balanced_to_every_stage(self, name, rng):
        tracer = EventBus(monitor=False)
        plain = COMPOSITES[name](rng)
        res = COMPOSITES[name](rng, tracer=tracer, balanced=True)
        stages = len(res.reports)
        assert stages == len(res.cfgs) == len(plain.reports) > 1
        assert _kinds(tracer).count("run_begin") == stages
        assert _kinds(tracer).count("run_end") == stages
        assert [r.supersteps for r in res.reports] == [
            2 * r.supersteps for r in plain.reports
        ]
        assert res.total_parallel_ios == sum(r.io.parallel_ios for r in res.reports)
