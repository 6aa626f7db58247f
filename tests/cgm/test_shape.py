"""A program sees a shape, not a machine.

Every CGM program under :mod:`repro.algorithms` runs here on two EM-CGM
machines of one shape (N, v, seed) that differ in everything else — p, D,
B, M, and so the engine (Algorithm 2 on one, Algorithm 3 on the other).
What each program's hooks receive is the same :class:`Shape` on both, its
outputs are byte-identical, and so is every counter the CGM algorithm
alone decides: rounds, messages, h-relations and communicated items.
(Parallel I/Os and supersteps are the machine's: they price the same
schedule on different disks and processors.)
"""

from __future__ import annotations

import collections
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import repro.algorithms
import repro.algorithms.geometry as geo
import repro.algorithms.graphs as graphs
from repro.algorithms.collectives import AllGather, AllToAll, Broadcast, PrefixSum
from repro.cgm.config import MachineConfig
from repro.cgm.program import CGMProgram, Shape
from repro.em.runner import em_permute, em_run, em_sort, em_transpose

V, SEED = 4, 7
#: one shape, two machines; in-process, so the hooks run in this interpreter
MACHINES = {
    "seq p=1 D=1 B=8": (dict(p=1, D=1, B=8), {}),
    "par p=2 D=2 B=16": (dict(p=2, D=2, B=16, M=1 << 14), {"overrides": {"workers": 0}}),
}
_HOOKS = ("setup", "extra_setup", "round", "max_message_items")


def _programs() -> set[type]:
    for mod in pkgutil.walk_packages(repro.algorithms.__path__, "repro.algorithms."):
        importlib.import_module(mod.name)  # the wrappers import some lazily
    found, todo = set(), [CGMProgram]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("repro.algorithms"):
                found.add(sub)
                todo.append(sub)
    return found


def _segments(rng, n: int) -> np.ndarray:
    levels = np.linspace(0, 10, n) + rng.uniform(-0.01, 0.01, n)
    x1 = rng.uniform(0, 10, n)
    x2 = x1 + rng.uniform(0.5, 3.0, n)
    return np.column_stack((x1, levels, x2, levels + rng.uniform(-0.005, 0.005, n)))


def _expression_tree(rng, n: int):
    parent = np.full(n, -1, dtype=np.int64)
    kids = np.zeros(n, dtype=int)
    avail = [0]
    for u in range(1, n):
        k = int(rng.integers(0, len(avail)))
        parent[u] = avail[k]
        kids[avail[k]] += 1
        if kids[avail[k]] == 2:
            avail.pop(k)
        avail.append(u)
    return parent, rng.integers(0, 2, n), rng.uniform(0.5, 1.5, n)


def _calls(machine: dict, options: dict) -> list:
    """Every program, through its front door, on *machine*: (values, reports)."""
    rng = np.random.default_rng(2024)

    def cfg(n: int) -> MachineConfig:
        return MachineConfig(N=n, v=V, seed=SEED, **machine)

    def em(res):
        return res.values, [res.report]

    def stage(res):
        return res.values, res.reports

    def run(program, inputs):
        res = em_run(program, inputs, cfg(V), **options)
        return res.outputs, [res.report]

    keys = rng.integers(0, 1 << 40, 4096)
    n_list = 300
    order = rng.permutation(n_list)
    succ = np.full(n_list, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    tree = np.array([(u, int(rng.integers(0, u))) for u in range(1, 60)])
    edges = rng.integers(0, 120, (150, 2))
    pts2, pts3 = rng.random((160, 2)), rng.random((160, 3))
    rects = [(x, y, x + rng.uniform(0.2, 2), y + rng.uniform(0.2, 2))
             for x, y in rng.uniform(0, 8, (40, 2))]
    ivals = np.sort(rng.uniform(0, 10, (60, 2)), axis=1)
    segs = _segments(rng, 40)
    return [
        em(em_sort(keys, cfg(keys.size), **options)),
        em(em_permute(keys[:1024], rng.permutation(1024), cfg(1024), **options)),
        em(em_transpose(rng.integers(0, 99, (32, 64)), cfg(32 * 64), **options)),
        run(Broadcast(root=1), list(range(V))),
        run(AllGather(), [np.arange(p, p + 3) for p in range(V)]),
        run(PrefixSum(), [1.5, 2.0, 3.0, 4.5]),
        run(AllToAll(), [None] * V),
        stage(graphs.list_rank(succ, cfg(n_list), **options)),
        stage(graphs.euler_tour_positions(tree, 60, cfg(118), **options)),
        stage(graphs.connected_components(edges, 120, cfg(120), **options)),
        stage(graphs.scatter_reduce(rng.integers(0, 30, (200, 2)), 30, cfg(30), "sum",
                                    **options)),
        stage(graphs.range_min_queries(
            rng.integers(0, 99, 80), np.array([(q, q, q + 9) for q in range(60)]),
            cfg(80), **options)),
        stage(graphs.expression_eval(*_expression_tree(rng, 150), cfg(150), **options)),
        stage(geo.maxima_3d(pts3, cfg(pts3.size), **options)),
        stage(geo.all_nearest_neighbors(pts2, cfg(pts2.size), **options)),
        stage(geo.dominance_counts(pts2, rng.random(160), cfg(640), **options)),
        stage(geo.convex_hull_2d(pts2, cfg(pts2.size), **options)),
        stage(geo.delaunay_2d(pts2, cfg(480), **options)),
        stage(geo.lower_envelope(segs, cfg(200), **options)),
        stage(geo.union_area(np.array(rects), cfg(200), **options)),
        stage(geo.trapezoidal_decomposition(segs, cfg(200), **options)),
        stage(geo.point_location(segs, rng.uniform(0, 10, (50, 2)), cfg(200), **options)),
        stage(geo.stabbing_queries(ivals, rng.uniform(0, 10, 40), cfg(200), **options)),
        stage(geo.unidirectional_separable(
            pts2[:80], pts2[80:] + [5.0, 0.0], (1, 0), cfg(320), **options)),
    ]


def _cgm_counters(report) -> tuple:
    return (
        report.rounds,
        report.comm_items,
        list(report.h_history),
        [(m.messages, m.h_in, m.h_out, m.comm_items) for m in report.per_round],
    )


@pytest.mark.no_fault_plan
def test_same_shape_same_program_on_any_machine(monkeypatch):
    programs = _programs()
    seen: dict[str, collections.Counter] = {}
    received: list = []

    def spy(hook, fn):
        def wrapped(self, *args):
            if hook == "round":
                shape, key = args[2].shape, (args[2].pid, args[0])
            elif hook == "max_message_items":
                shape, key = args[0], ()
            else:
                shape, key = args[2], (args[1],)
            received.append(shape)
            record[(type(self).__name__, hook, shape, *key)] += 1
            return fn(self, *args)

        return wrapped

    for cls in programs:
        for hook in _HOOKS:
            if hook in vars(cls):
                monkeypatch.setattr(cls, hook, spy(hook, vars(cls)[hook]))

    results = {}
    for label, (machine, options) in MACHINES.items():
        record = seen[label] = collections.Counter()
        results[label] = _calls(machine, options)

    assert received and all(type(s) is Shape for s in received)
    assert {(s.v, s.seed) for s in received} == {(V, SEED)}
    a, b = seen.values()
    assert a == b, "the hooks saw different things on two machines of one shape"
    leaves = {c.__name__ for c in programs if not any(o is not c and issubclass(o, c)
                                                     for o in programs)}
    assert {name for name, *_ in a} == leaves
    (ra, rb) = results.values()
    for (va, reports_a), (vb, reports_b) in zip(ra, rb, strict=True):
        assert pickle.dumps(va) == pickle.dumps(vb)
        assert [_cgm_counters(r) for r in reports_a] == [_cgm_counters(r) for r in reports_b]
        assert {r.engine for r in reports_a} == {"seq-em"}
        assert {r.engine for r in reports_b} == {"par-em"}
