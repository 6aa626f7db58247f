"""One-call wrappers for the Group B geometry algorithms.

Each wrapper attaches global ids, partitions the input over the v
virtual processors, runs the CGM program on the chosen backend
(:func:`~repro.algorithms.collectives.run_stage`; ``**options`` are
:func:`repro.em.runner.make_engine`'s), and assembles the distributed
outputs.  All return a :class:`~repro.algorithms.collectives.StageResult`
carrying the cost report(s) so the Figure 5 benchmarks can read parallel
I/O counts.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import StageResult, refuse_checkpoint, run_stage
from repro.cgm.config import MachineConfig


def _with_ids(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    return np.column_stack((arr, np.arange(arr.shape[0], dtype=np.float64)))


def maxima_3d(
    points: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """Indices of the 3D-maximal points (general position assumed)."""
    from repro.algorithms.geometry.maxima import Maxima3D

    run = run_stage(Maxima3D(), _with_ids(points), cfg, engine, **options)
    out = [o for o in run.values if o.size]
    ids = np.sort(np.concatenate([o[:, 3] for o in out]).astype(np.int64)) if out else np.zeros(0, np.int64)
    return StageResult.of(ids, run)


def all_nearest_neighbors(
    points: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """(nn_index, distance) for every 2D point."""
    from repro.algorithms.geometry.neighbors import AllNearestNeighbors

    rows = _with_ids(points)
    run = run_stage(AllNearestNeighbors(), rows, cfg, engine, **options)
    n = rows.shape[0]
    nn = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, np.inf)
    for o in run.values:
        for gid, nnid, d in o:
            nn[int(gid)] = int(nnid)
            dist[int(gid)] = d
    return StageResult.of({"nn": nn, "dist": dist}, run)


def dominance_counts(
    points: np.ndarray,
    weights: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Per point, the total weight of points strictly dominated by it."""
    from repro.algorithms.geometry.dominance import DominanceCount

    pts = np.asarray(points, dtype=np.float64)
    rows = np.column_stack((pts, np.asarray(weights, dtype=np.float64)))
    rows = _with_ids(rows)
    run = run_stage(DominanceCount(), rows, cfg, engine, **options)
    out = np.zeros(rows.shape[0])
    for o in run.values:
        for gid, val in o:
            out[int(gid)] = val
    return StageResult.of(out, run)


def _convex_hull(
    dim: int, points: np.ndarray, cfg: MachineConfig, engine: str | None, options: dict
) -> StageResult:
    from repro.algorithms.geometry.hull import ConvexHullFilter

    run = run_stage(ConvexHullFilter(dim=dim), _with_ids(points), cfg, engine, **options)
    return StageResult.of(run.values[0], run)


def convex_hull_2d(
    points: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """Vertex indices of the 2D convex hull (sorted)."""
    return _convex_hull(2, points, cfg, engine, options)


def convex_hull_3d(
    points: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """Vertex indices of the 3D convex hull (sorted)."""
    return _convex_hull(3, points, cfg, engine, options)


def delaunay_2d(
    points: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    strip_factor: float = 6.0,
    **options: Any,
) -> StageResult:
    """Global Delaunay triangles as sorted id triples (exact; general
    position assumed).  ``extra['fallback']`` reports whether the
    centralized exactness fallback fired."""
    from repro.algorithms.geometry.delaunay import DelaunayCGM

    rows = _with_ids(points)
    program = DelaunayCGM(n_points=rows.shape[0], strip_factor=strip_factor)
    run = run_stage(program, rows, cfg, engine, **options)
    first = run.values[0]
    return StageResult.of(first["triangles"], run, fallback=first["fallback"])


def lower_envelope(
    segments: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """Lower envelope pieces (x_lo, x_hi, seg_id), globally x-sorted and
    merged."""
    from repro.algorithms.geometry.envelope import LowerEnvelope

    run = run_stage(LowerEnvelope(), _with_ids(segments), cfg, engine, **options)
    pieces = [o for o in run.values if o.size]
    if not pieces:
        return StageResult.of(np.zeros((0, 3)), run)
    allp = np.vstack(pieces)
    allp = allp[np.argsort(allp[:, 0], kind="stable")]
    merged: list[list[float]] = []
    for x0, x1, sid in allp:
        if merged and merged[-1][2] == sid and abs(merged[-1][1] - x0) < 1e-12:
            merged[-1][1] = x1
        else:
            merged.append([x0, x1, sid])
    return StageResult.of(np.asarray(merged), run)


def union_area(
    rects: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """Total area of the union of axis-parallel rectangles."""
    from repro.algorithms.geometry.measure import UnionArea

    run = run_stage(UnionArea(), _with_ids(rects), cfg, engine, **options)
    return StageResult.of(run.values[0], run)


def trapezoidal_decomposition(
    segments: np.ndarray, cfg: MachineConfig, engine: str | None = None, **options: Any
) -> StageResult:
    """Trapezoid rows (x_lo, x_hi, below_id, above_id) over all slabs."""
    from repro.algorithms.geometry.trapezoid import TrapezoidalDecomposition

    run = run_stage(
        TrapezoidalDecomposition(), _with_ids(segments), cfg, engine, **options
    )
    traps = [o for o in run.values if o.size]
    out = np.vstack(traps) if traps else np.zeros((0, 4))
    return StageResult.of(out[np.lexsort((out[:, 2], out[:, 0]))] if out.size else out, run)


def point_location(
    segments: np.ndarray,
    queries: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Next element below each query point: array of segment ids (-1 if
    none), indexed by query order."""
    from repro.algorithms.geometry.trapezoid import PointLocation

    seg_rows = _with_ids(segments)
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    q_rows = np.column_stack((q, np.arange(q.shape[0], dtype=np.float64)))
    run = run_stage(PointLocation(), (seg_rows, q_rows), cfg, engine, **options)
    out = np.full(q.shape[0], -1, dtype=np.int64)
    for o in run.values:
        for qid, sid in o:
            out[int(qid)] = int(sid)
    return StageResult.of(out, run)


def stabbing_queries(
    intervals: np.ndarray,
    xs: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Ids of intervals containing each query x (list per query)."""
    from repro.algorithms.geometry.segtree import StabbingQueries

    ivals = _with_ids(intervals)
    xs = np.asarray(xs, dtype=np.float64)
    q_rows = np.column_stack((xs, np.arange(xs.size, dtype=np.float64)))
    run = run_stage(StabbingQueries(), (ivals, q_rows), cfg, engine, **options)
    out: list[list[int]] = [[] for _ in range(xs.size)]
    for answers in run.values:
        for qid, ids in answers:
            out[qid] = sorted(int(i) for i in ids)
    return StageResult.of(out, run)


def unidirectional_separable(
    A: np.ndarray,
    B: np.ndarray,
    direction: tuple[float, float],
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Is max(A.d) < min(B.d)?  Returns (separable, gap)."""
    from repro.algorithms.geometry.separability import UnidirectionalSeparability

    A = np.asarray(A, dtype=np.float64).reshape(-1, 2)
    B = np.asarray(B, dtype=np.float64).reshape(-1, 2)
    program = UnidirectionalSeparability(direction)
    run = run_stage(program, (A, B), cfg, engine, n=A.size + B.size, **options)
    sep, gap = run.values[0]
    return StageResult.of(sep, run, gap=gap)


def separability_directions(
    A: np.ndarray,
    B: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    **options: Any,
) -> StageResult:
    """Multidirectional separability: all strictly separating directions.

    Returns separable flag; ``extra`` holds a witness unit direction and
    the (angle_lo, angle_hi) arc when separable.  Two hull runs, so no
    ``checkpoint=`` / ``resume=``.
    """
    from repro.algorithms.geometry.separability import (
        minkowski_difference_hull,
        separating_arc,
    )

    refuse_checkpoint("separability_directions", options)
    A = np.asarray(A, dtype=np.float64).reshape(-1, 2)
    B = np.asarray(B, dtype=np.float64).reshape(-1, 2)
    ha = convex_hull_2d(A, cfg, engine, **options)
    hb = convex_hull_2d(B, cfg, engine, **options)
    poly = minkowski_difference_hull(A[ha.values], B[hb.values])
    separable, witness, arc = separating_arc(poly)
    return StageResult.of(separable, ha, hb, witness=witness, arc=arc)
