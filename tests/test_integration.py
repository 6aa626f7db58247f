"""Cross-cutting integration tests: whole pipelines on the parallel
engine, balanced mode end-to-end, BSP-conversion vs engine agreement,
and example-script smoke runs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.spatial import Delaunay

import repro.algorithms.geometry as geo
from repro.algorithms.graphs import (
    biconnected_components,
    connected_components,
)
from repro.bsp.conversion import to_em_bsp
from repro.bsp.model import BSPCost, Superstep
from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.slow
class TestParallelEnginePipelines:
    def test_graphs_on_par_engine(self):
        n = 400
        G = nx.gnm_random_graph(n, 700, seed=3)
        comps = list(nx.connected_components(G))
        for a, b in zip(comps, comps[1:]):
            G.add_edge(min(a), min(b))
        edges = np.array(G.edges())
        cfg = MachineConfig(N=n, v=8, p=4, D=2, B=32)
        res = connected_components(edges, n, cfg, engine="par")
        for cc in nx.connected_components(G):
            assert {res.values[u] for u in cc} == {min(cc)}
        bi = biconnected_components(edges, n, cfg, engine="par")
        assert set(bi.extra["articulation_points"]) == set(nx.articulation_points(G))

    def test_geometry_on_par_engine(self, rng):
        pts = rng.random((600, 2))
        cfg = MachineConfig(N=3 * 600, v=8, p=4, D=2, B=32)
        res = geo.delaunay_2d(pts, cfg, engine="par")
        ref = {tuple(sorted(map(int, t))) for t in Delaunay(pts).simplices}
        assert {tuple(t) for t in res.values} == ref

    def test_list_ranking_balanced_on_par(self):
        n = 400
        order = np.random.default_rng(4).permutation(n)
        succ = np.full(n, -1, dtype=np.int64)
        for a, b in zip(order[:-1], order[1:]):
            succ[a] = b
        cfg = MachineConfig(N=n, v=8, p=2, D=2, B=16)
        from repro.algorithms.graphs import list_rank

        res = list_rank(succ, cfg, engine="par", balanced=True)
        expect = np.empty(n)
        for i, node in enumerate(order):
            expect[node] = n - 1 - i
        assert np.array_equal(res.values, expect)


class TestBSPConversionAgreesWithEngine:
    def test_predicted_io_brackets_measured(self, rng):
        """The Section 5 analytic conversion and the executable engine
        must tell the same story about the sort's I/O."""
        n = 1 << 14
        v, p, D, B = 8, 2, 2, 64
        data = rng.integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=v, p=p, D=D, B=B)
        run = em_sort(data, cfg, engine="par")

        profile = BSPCost(
            v=v,
            supersteps=tuple(
                Superstep(w_comp=n / v, h=h) for h in run.report.h_history
            ),
        )
        em = to_em_bsp(profile, p=p, D=D, B=B, mu_items=cfg.mu)
        predicted = em.total_ios / p  # per real processor
        measured = run.report.io_max.parallel_ios
        assert predicted / 6 <= measured <= 6 * predicted

    def test_superstep_counts_match(self, rng):
        n = 1 << 13
        v, p = 8, 4
        cfg = MachineConfig(N=n, v=v, p=p, D=1, B=64)
        run = em_sort(rng.integers(0, 2**40, n), cfg, engine="par")
        profile = BSPCost(
            v=v, supersteps=tuple(Superstep(1.0, h) for h in run.report.h_history)
        )
        em = to_em_bsp(profile, p=p, D=1, B=64, mu_items=cfg.mu)
        assert len(em.supersteps) == run.report.supersteps


@pytest.mark.slow
@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "gis_pipeline.py", "scaling_study.py", "cache_tuning.py", "graph_analysis.py"],
)
def test_examples_run(script):
    out = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip()
