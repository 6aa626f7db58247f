"""Balanced-mode differential tests across the whole algorithm catalogue.

BalancedRouting chunks *serialized* payloads at the word level, so every
payload class the library uses (numpy arrays, dicts of arrays, tuples,
strings, chunk bundles) must survive the split/regroup/reassemble cycle
on the EM backends.  These tests run representative algorithms from all
three Figure 5 groups with ``balanced=True`` and require bit-identical
outputs to the direct runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import Delaunay

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort


class TestBalancedGroupA:
    def test_sort_balanced_matches_direct(self, rng):
        n = 1 << 13
        data = rng.integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=8, D=2, B=64)
        direct = em_sort(data, cfg, engine="seq")
        balanced = em_sort(data, cfg, engine="seq", balanced=True)
        assert np.array_equal(direct.values, balanced.values)

    def test_balanced_message_sizes_tighter(self, rng):
        """After balancing, the h-relation of each physical round stays
        within Theorem 1's band around h/v."""
        n = 1 << 13
        data = rng.integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=8, D=2, B=64)
        res = em_sort(data, cfg, engine="seq", balanced=True)
        assert res.report.overflow_blocks == 0


class TestBalancedGroupB:
    def test_delaunay_balanced(self, rng):
        pts = rng.random((500, 2))
        import repro.algorithms.geometry as geo

        cfg = MachineConfig(N=3 * 500, v=4, D=2, B=32)
        res = geo.delaunay_2d(pts, cfg, engine="seq", balanced=True)
        ref = {tuple(sorted(map(int, t))) for t in Delaunay(pts).simplices}
        assert {tuple(t) for t in res.values} == ref

    def test_dominance_balanced(self, rng):
        import repro.algorithms.geometry as geo
        from repro.algorithms.geometry.dominance import dominance_reference

        pts = rng.random((200, 2))
        w = rng.random(200)
        cfg = MachineConfig(N=4 * 200, v=4, D=2, B=32)
        res = geo.dominance_counts(pts, w, cfg, "seq", balanced=True)
        assert np.allclose(res.values, dominance_reference(pts, w))


class TestBalancedGroupC:
    def test_connected_components_balanced(self):
        import networkx as nx

        from repro.algorithms.graphs import connected_components

        n = 200
        G = nx.gnm_random_graph(n, 300, seed=2)
        cfg = MachineConfig(N=n, v=4, D=2, B=16)
        res = connected_components(np.array(G.edges()), n, cfg, "seq", balanced=True)
        for cc in nx.connected_components(G):
            assert {res.values[u] for u in cc} == {min(cc)}

    def test_expression_eval_balanced(self, rng):
        from repro.algorithms.graphs import expression_eval
        from repro.algorithms.graphs.tree_contraction import eval_expression_direct

        n = 150
        parent = np.full(n, -1, dtype=np.int64)
        op = rng.integers(0, 2, n)
        val = rng.uniform(0.5, 1.5, n)
        child_count = np.zeros(n, dtype=int)
        avail = [0]
        for u in range(1, n):
            k = int(rng.integers(0, len(avail)))
            p = avail[k]
            parent[u] = p
            child_count[p] += 1
            if child_count[p] == 2:
                avail.pop(k)
            avail.append(u)
        cfg = MachineConfig(N=n, v=4, D=2, B=16)
        res = expression_eval(parent, op, val, cfg, "seq", balanced=True)
        expect = eval_expression_direct(parent, op, val, 0)
        assert res.values == pytest.approx(expect, rel=1e-9)

    def test_balanced_on_par_engine(self, rng):
        n = 1 << 12
        data = rng.integers(0, 2**40, n)
        cfg = MachineConfig(N=n, v=8, p=4, D=2, B=32)
        res = em_sort(data, cfg, engine="par", balanced=True)
        assert np.array_equal(res.values, np.sort(data))
        # Lemma 2 + Lemma 4 compose: X = 2 * lambda * v/p
        assert res.report.supersteps == 2 * res.report.rounds * (8 // 4)
