"""Biconnected components and open-ear decomposition (Group C row 2).

Tarjan–Vishkin, assembled from the CGM primitives this package already
provides — exactly the composition the paper's Figure 5 relies on:

1. spanning tree (hook-and-contract connected components),
2. Euler tour -> preorder numbers, subtree sizes, depths (list ranking),
3. ``low``/``high``: for every vertex v the min/max preorder reachable
   from subtree(v) by a single non-tree edge — a scatter-reduce to build
   the per-vertex array in preorder order, then batched subtree
   range-min/range-max queries,
4. the auxiliary graph on tree edges (the two Tarjan–Vishkin rules),
   whose connected components are the biconnected components,
5. ear decomposition (Maon–Schieber–Vishkin): non-tree edges sorted by
   (depth of LCA, id) number the ears; a tree edge joins the smallest
   ear among non-tree edges with exactly one endpoint in its subtree —
   another scatter-reduce + subtree range-min.

Each numbered step is one or more CGM program runs; the glue between
them (index arithmetic on assembled arrays) is O(N) local work.  All
three wrappers chain several runs: ``**options`` are
:func:`repro.em.runner.make_engine`'s, minus ``checkpoint=`` / ``resume=``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import StageResult, refuse_checkpoint
from repro.algorithms.graphs.api import (
    connected_components,
    lowest_common_ancestors,
    range_min_queries,
    scatter_reduce,
    tree_measures,
)
from repro.cgm.config import MachineConfig
from repro.util.validation import ConfigurationError, require

_INF = np.iinfo(np.int64).max


def _subtree_queries(pre: np.ndarray, size: np.ndarray) -> np.ndarray:
    """RMQ query rows (qid=v, pre[v], pre[v]+size[v]-1) for every vertex."""
    n = pre.size
    return np.column_stack((np.arange(n), pre, pre + size - 1))


def low_high(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    engine: str | None = None,
    measures: dict | None = None,
    tree_mask: np.ndarray | None = None,
    **options: Any,
) -> StageResult:
    """low(v)/high(v): min/max preorder reachable from subtree(v) via one
    non-tree edge (including subtree(v)'s own preorders)."""
    refuse_checkpoint("low_high", options)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    stages: list[StageResult] = []
    if measures is None or tree_mask is None:
        cc = connected_components(edges, n_vertices, cfg, engine, **options)
        require(
            np.all(cc.values == cc.values[0]),
            "low/high requires a connected graph",
            ConfigurationError,
        )
        forest = np.asarray(cc.extra["forest"], dtype=np.int64)
        tree_mask = np.zeros(edges.shape[0], dtype=bool)
        tree_mask[forest] = True
        tm = tree_measures(
            edges[forest], n_vertices, cfg, root=0, engine=engine, **options
        )
        measures = tm.values
        stages = [cc, tm]

    pre, size = measures["preorder"], measures["size"]
    nt = edges[~tree_mask]

    # per-vertex min/max of neighbour preorders over non-tree edges,
    # keyed by the vertex's own preorder position
    ident = np.column_stack((pre, pre))
    rows_min = [ident]
    rows_max = [ident]
    if nt.size:
        u, w = nt[:, 0], nt[:, 1]
        rows_min.append(np.column_stack((pre[u], pre[w])))
        rows_min.append(np.column_stack((pre[w], pre[u])))
        rows_max = rows_min.copy()
        rows_max[0] = ident
    amin = scatter_reduce(np.vstack(rows_min), n_vertices, cfg, "min", engine, **options)
    amax = scatter_reduce(np.vstack(rows_max), n_vertices, cfg, "max", engine, **options)

    queries = _subtree_queries(pre, size)
    low_q = range_min_queries(amin.values, queries, cfg, engine=engine, **options)
    high_q = range_min_queries(-amax.values, queries, cfg, engine=engine, **options)

    low = np.empty(n_vertices, dtype=np.int64)
    high = np.empty(n_vertices, dtype=np.int64)
    low[low_q.values[:, 0]] = low_q.values[:, 1]
    high[high_q.values[:, 0]] = -high_q.values[:, 1]
    return StageResult.of(
        {"low": low, "high": high},
        *stages, amin, amax, low_q, high_q,
        measures=measures,
        tree_mask=tree_mask,
    )


def biconnected_components(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Biconnected components of a connected graph.

    Returns per-edge component labels (arbitrary but consistent ints);
    ``extra`` carries articulation points and bridges.
    """
    refuse_checkpoint("biconnected_components", options)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    E = edges.shape[0]
    require(E >= 1, "need at least one edge", ConfigurationError)

    lh = low_high(edges, n_vertices, cfg, engine, **options)
    measures = lh.extra["measures"]
    tree_mask = lh.extra["tree_mask"]
    pre, size, parent = measures["preorder"], measures["size"], measures["parent"]
    low, high = lh.values["low"], lh.values["high"]

    def is_ancestor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (pre[a] <= pre[b]) & (pre[b] < pre[a] + size[a])

    # auxiliary graph: node w represents tree edge (parent(w), w), w != root
    aux_edges = []
    nt = edges[~tree_mask]
    if nt.size:
        u, w = nt[:, 0], nt[:, 1]
        unrelated = ~is_ancestor(u, w) & ~is_ancestor(w, u)
        aux_edges.append(nt[unrelated])
    # rule 2: tree edge (v, w): join e_v and e_w iff subtree(w) escapes
    # subtree(v) via a non-tree edge
    w_all = np.nonzero(parent >= 0)[0]
    v_all = parent[w_all]
    cond = (v_all != 0) | False
    escapes = (low[w_all] < pre[v_all]) | (high[w_all] >= pre[v_all] + size[v_all])
    join = (parent[v_all] >= 0) & escapes
    if join.any():
        aux_edges.append(np.column_stack((v_all[join], w_all[join])))
    del cond

    aux = (
        np.vstack(aux_edges) if aux_edges else np.zeros((0, 2), dtype=np.int64)
    )
    # aux vertices are vertex ids (standing for their parent tree edge);
    # run CC over the full vertex space — unused ids become singletons
    aux_cc = connected_components(aux, n_vertices, cfg, engine, **options)
    comp_of_vertex = aux_cc.values

    # per-edge component labels
    edge_comp = np.empty(E, dtype=np.int64)
    t_idx = np.nonzero(tree_mask)[0]
    for i in t_idx:
        a, b = edges[i]
        child = b if parent[b] == a else a
        edge_comp[i] = comp_of_vertex[child]
    n_idx = np.nonzero(~tree_mask)[0]
    for i in n_idx:
        a, b = edges[i]
        deeper = b if pre[b] > pre[a] else a
        edge_comp[i] = comp_of_vertex[deeper]

    # articulation points: vertices incident to >= 2 components (plus the
    # root special case, covered by the same counting)
    comp_sets: dict[int, set[int]] = {}
    for i in range(E):
        for x in edges[i]:
            comp_sets.setdefault(int(x), set()).add(int(edge_comp[i]))
    articulation = sorted(v for v, s in comp_sets.items() if len(s) >= 2)

    # bridges: components containing exactly one edge
    labels, counts = np.unique(edge_comp, return_counts=True)
    single = set(labels[counts == 1].tolist())
    bridges = sorted(int(i) for i in range(E) if int(edge_comp[i]) in single)

    return StageResult.of(
        edge_comp,
        lh,
        aux_cc,
        articulation_points=articulation,
        bridges=bridges,
        tree_mask=tree_mask,
        measures=measures,
    )


def ear_decomposition(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Ear decomposition of a biconnected graph: ear index per edge.

    Non-tree edges are numbered by (depth of their endpoints' LCA, edge
    id); each defines an ear consisting of itself plus the tree edges it
    is the minimum cover of (Maon–Schieber–Vishkin).  Ear 0 is a cycle;
    every other ear is a simple path whose endpoints lie on smaller ears.
    """
    refuse_checkpoint("ear_decomposition", options)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    E = edges.shape[0]

    cc = connected_components(edges, n_vertices, cfg, engine, **options)
    require(
        np.all(cc.values == cc.values[0]),
        "ear decomposition requires a connected graph",
        ConfigurationError,
    )
    forest = np.asarray(cc.extra["forest"], dtype=np.int64)
    tree_mask = np.zeros(E, dtype=bool)
    tree_mask[forest] = True
    tm = tree_measures(edges[forest], n_vertices, cfg, root=0, engine=engine, **options)
    measures = tm.values
    pre, size, depth = measures["preorder"], measures["size"], measures["depth"]

    nt_idx = np.nonzero(~tree_mask)[0]
    require(nt_idx.size >= 1, "a biconnected graph has a non-tree edge", ConfigurationError)
    nt = edges[nt_idx]

    lca = lowest_common_ancestors(
        edges[forest], nt, n_vertices, cfg, engine=engine, **options
    )
    lca_depth = depth[lca.values]

    # ear numbering: sort non-tree edges by (lca depth, edge id)
    order = np.lexsort((nt_idx, lca_depth))
    ear_of_nt = np.empty(nt_idx.size, dtype=np.int64)
    ear_of_nt[order] = np.arange(nt_idx.size)

    # h(u) = min ear among non-tree edges incident to u, keyed by preorder
    rows = [np.column_stack((pre, np.full(n_vertices, _INF)))]
    rows.append(np.column_stack((pre[nt[:, 0]], ear_of_nt)))
    rows.append(np.column_stack((pre[nt[:, 1]], ear_of_nt)))
    h = scatter_reduce(np.vstack(rows), n_vertices, cfg, "min", engine, **options)

    # ear(tree edge into w) = min h over subtree(w)
    sub = range_min_queries(
        h.values, _subtree_queries(pre, size), cfg, engine=engine, **options
    )
    min_ear = np.empty(n_vertices, dtype=np.int64)
    min_ear[sub.values[:, 0]] = sub.values[:, 1]

    ear = np.empty(E, dtype=np.int64)
    ear[nt_idx] = ear_of_nt
    parent = measures["parent"]
    for i in np.nonzero(tree_mask)[0]:
        a, b = edges[i]
        child = b if parent[b] == a else a
        require(
            min_ear[child] != _INF,
            f"tree edge {i} is covered by no non-tree edge — graph is not "
            "biconnected (it has a bridge)",
            ConfigurationError,
        )
        ear[i] = min_ear[child]

    return StageResult.of(ear, cc, tm, lca, h, sub, tree_mask=tree_mask)
