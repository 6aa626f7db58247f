"""One-call wrappers composing the Group C building blocks.

Each wrapper partitions its input across the ``v`` virtual processors,
runs one or more CGM programs through the selected engine
(:func:`~repro.algorithms.collectives.run_stage`; ``**options`` are
:func:`repro.em.runner.make_engine`'s), and assembles the distributed
outputs.  The :class:`~repro.algorithms.collectives.StageResult` carries
the combined cost reports so benchmarks can sum parallel I/Os across
pipeline stages.  Wrappers that chain several runs forward every option
but ``checkpoint=`` / ``resume=``
(:func:`~repro.algorithms.collectives.refuse_checkpoint`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import StageResult, refuse_checkpoint, run_stage
from repro.algorithms.graphs.euler_tour import EulerTourBuild
from repro.algorithms.graphs.list_ranking import ListRanking
from repro.cgm.config import MachineConfig
from repro.util.validation import ConfigurationError, require


def list_rank(
    succ: np.ndarray,
    cfg: MachineConfig,
    weights: np.ndarray | None = None,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Weighted list ranking: rank[i] = sum of weights from i to the tail.

    *succ* is the full successor array (-1 terminates); unit weights (with
    a zero-weight tail) give the distance-to-tail.
    """
    succ = np.asarray(succ, dtype=np.int64)
    n = succ.size
    if weights is None:
        weights = (succ >= 0).astype(np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    require(weights.size == n, "weights must match succ", ConfigurationError)
    run = run_stage(ListRanking(), (succ, weights), cfg, engine, **options)
    return StageResult.of(np.concatenate(run.values), run)


def euler_tour_positions(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    root: int = 0,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Euler tour of a tree: position of each directed edge in the tour.

    *edges* is an (E, 2) array of undirected tree edges; directed edge
    ``2e`` is edges[e] traversed u->v and ``2e+1`` the reverse.  Returns
    positions in [0, 2E), starting at the root.
    """
    refuse_checkpoint("euler_tour_positions", options)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    E = edges.shape[0]
    require(E >= 1, "need at least one edge", ConfigurationError)
    n_dir = 2 * E
    rows = np.column_stack((np.arange(E), edges))

    build = run_stage(
        EulerTourBuild(n_vertices, root), rows, cfg, engine, n=n_dir, **options
    )
    succ = np.concatenate(build.values)

    rank = list_rank(succ, cfg, engine=engine, **options)
    positions = (n_dir - 1) - rank.values.astype(np.int64)
    return StageResult.of(positions, build, rank, succ=succ)


def tree_measures(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    root: int = 0,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Depth, preorder number, subtree size and parent of every vertex.

    Three list-ranking passes over the Euler tour (positions, depth
    prefix-sums, preorder prefix-sums) — the standard reduction, each pass
    an O(log v)-round CGM computation.
    """
    refuse_checkpoint("tree_measures", options)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    E = edges.shape[0]
    tour = euler_tour_positions(edges, n_vertices, cfg, root, engine, **options)
    pos = tour.values
    succ = tour.extra["succ"]
    n_dir = 2 * E

    # down edge: traversed parent -> child, i.e. before its reversal
    down = pos < pos[np.arange(n_dir) ^ 1]

    # depth prefix sums: +1 on down edges, -1 on up edges
    depth_w = np.where(down, 1.0, -1.0)
    depth_rank = list_rank(succ, cfg, weights=depth_w, engine=engine, **options)
    # inclusive prefix at edge i = total - rank(i) + w(i); total = 0
    depth_prefix = -depth_rank.values + depth_w

    # preorder prefix sums: count down edges
    pre_w = down.astype(np.float64)
    pre_rank = list_rank(succ, cfg, weights=pre_w, engine=engine, **options)
    pre_prefix = E - pre_rank.values + pre_w

    heads = np.empty(n_dir, dtype=np.int64)  # head vertex of each directed edge
    heads[0::2] = edges[:, 1]
    heads[1::2] = edges[:, 0]
    tails = np.empty(n_dir, dtype=np.int64)
    tails[0::2] = edges[:, 0]
    tails[1::2] = edges[:, 1]

    depth = np.zeros(n_vertices, dtype=np.int64)
    preorder = np.zeros(n_vertices, dtype=np.int64)
    size = np.zeros(n_vertices, dtype=np.int64)
    parent = np.full(n_vertices, -1, dtype=np.int64)

    d_idx = np.nonzero(down)[0]
    child = heads[d_idx]
    depth[child] = depth_prefix[d_idx].astype(np.int64)
    preorder[child] = pre_prefix[d_idx].astype(np.int64)
    parent[child] = tails[d_idx]
    # subtree size from the tour span between the down edge and its reversal
    size[child] = (pos[d_idx ^ 1] - pos[d_idx] + 1) // 2
    size[root] = n_vertices
    preorder[root] = 0
    depth[root] = 0

    return StageResult.of(
        {
            "depth": depth,
            "preorder": preorder,
            "size": size,
            "parent": parent,
            "positions": pos,
            "down": down,
        },
        tour,
        depth_rank,
        pre_rank,
    )


def connected_components(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Component id (= minimum vertex id of the component) per vertex.

    *edges* is an (E, 2) array of undirected edges; isolated vertices get
    their own id.  ``extra["forest"]`` holds the spanning-forest edge
    indices.
    """
    from repro.algorithms.graphs.connectivity import ConnectedComponents

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    E = edges.shape[0]
    rows = np.column_stack((np.arange(E), edges))
    run = run_stage(
        ConnectedComponents(n_vertices), rows, cfg, engine, n=n_vertices, **options
    )
    comp = np.concatenate([out[0] for out in run.values])
    forest = sorted(eid for out in run.values for eid in out[1])
    return StageResult.of(comp, run, forest=forest)


def spanning_forest(
    edges: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Indices into *edges* forming a spanning forest (one tree per
    component)."""
    res = connected_components(edges, n_vertices, cfg, engine, **options)
    return StageResult.of(res.extra["forest"], res, comp=res.values)


def scatter_reduce(
    rows: np.ndarray,
    n_keys: int,
    cfg: MachineConfig,
    op: str = "min",
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Fold int64 (key, value) pairs per key (min/max/sum); one round."""
    from repro.algorithms.graphs.scatter import ScatterReduce

    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    run = run_stage(ScatterReduce(op), rows, cfg, engine, n=n_keys, **options)
    return StageResult.of(np.concatenate(run.values)[:n_keys], run)


def range_min_queries(
    values: np.ndarray,
    queries: np.ndarray,
    cfg: MachineConfig,
    payload: np.ndarray | None = None,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Batched RMQ: queries (qid, l, r) -> (qid, min value, payload@argmin)."""
    from repro.algorithms.graphs.rmq import RangeMin

    values = np.asarray(values, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 3)
    if payload is None:
        payload = np.zeros_like(values)
    run = run_stage(RangeMin(), (values, payload, queries), cfg, engine, **options)
    rows = np.vstack([o for o in run.values if o.size]) if queries.size else np.zeros((0, 3), np.int64)
    order = np.argsort(rows[:, 0], kind="stable") if rows.size else slice(None)
    return StageResult.of(rows[order] if rows.size else rows, run)


def lowest_common_ancestors(
    edges: np.ndarray,
    queries: np.ndarray,
    n_vertices: int,
    cfg: MachineConfig,
    root: int = 0,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Batched LCA on a tree: queries (u, w) -> lca vertex.

    The standard reduction: Euler tour -> depth sequence -> range-minimum
    between first occurrences.  Both stages are O(1)/O(log v)-round CGM
    computations.
    """
    refuse_checkpoint("lowest_common_ancestors", options)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    E = edges.shape[0]
    tm = tree_measures(edges, n_vertices, cfg, root, engine, **options)
    vals = tm.values
    pos, down = vals["positions"], vals["down"]
    depth = vals["depth"]

    n_dir = 2 * E
    heads = np.empty(n_dir, dtype=np.int64)
    heads[0::2] = edges[:, 1]
    heads[1::2] = edges[:, 0]

    # Euler vertex sequence with the root prepended at position 0
    seq = np.empty(n_dir + 1, dtype=np.int64)
    seq[0] = root
    order_at = np.empty(n_dir, dtype=np.int64)
    order_at[pos] = np.arange(n_dir)
    seq[1:] = heads[order_at]
    depth_seq = depth[seq]

    first = np.zeros(n_vertices, dtype=np.int64)
    d_idx = np.nonzero(down)[0]
    first[heads[d_idx]] = pos[d_idx] + 1
    first[root] = 0

    lo = np.minimum(first[queries[:, 0]], first[queries[:, 1]])
    hi = np.maximum(first[queries[:, 0]], first[queries[:, 1]])
    qrows = np.column_stack((np.arange(queries.shape[0]), lo, hi))

    rmq = range_min_queries(
        depth_seq, qrows, cfg, payload=seq, engine=engine, **options
    )
    return StageResult.of(rmq.values[:, 2], tm, rmq, measures=vals)


def expression_eval(
    parent: np.ndarray,
    op: np.ndarray,
    leaf_value: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Evaluate a (+, *) expression tree by CGM rake-and-compress.

    ``parent[i] = -1`` marks the root; ``op`` uses OP_ADD / OP_MUL from
    :mod:`repro.algorithms.graphs.tree_contraction`; ``leaf_value`` is
    read at the leaves.
    """
    from repro.algorithms.graphs.tree_contraction import ExpressionEval

    arrays = (np.asarray(parent, dtype=np.int64), np.asarray(op), np.asarray(leaf_value))
    run = run_stage(ExpressionEval(), arrays, cfg, engine, **options)
    return StageResult.of(run.values[0], run)
