"""Trapezoidal decomposition and batched planar point location
(Figure 5 Group B rows 1-2: trapezoidal decomposition, next element
search, batched planar point location).

Both share the slab skeleton over a set of **non-crossing** segments:

* :class:`TrapezoidalDecomposition` — inside a slab, between two
  consecutive endpoint abscissae the vertical order of the covering
  segments is fixed, so the decomposition there is the stack of
  trapezoids between vertically adjacent segments; adjacent elementary
  intervals whose (below, above) pair coincides merge into one trapezoid.
* :class:`PointLocation` — queries are routed to their x-slab along with
  the segments; the *next element below* a query is the covering segment
  with the largest y(q.x) not exceeding q.y.

General position assumed (no vertical segments, distinct abscissae).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.geometry.envelope import segment_y_at
from repro.algorithms.geometry.slabs import (
    SlabProgram,
    interval_slabs,
    slab_bounds,
    slab_of,
)
from repro.cgm.program import Context, RoundEnv


class TrapezoidalDecomposition(SlabProgram):
    """Input rows: (x1, y1, x2, y2, id).

    Output per slab: trapezoid rows (x_lo, x_hi, below_id, above_id)
    where -1 denotes the unbounded face.  Trapezoids of one slab are
    disjoint and cover slab x-range between segment endpoints.
    """

    name = "trapezoidal-decomposition"

    def sample_keys(self, ctx: Context) -> np.ndarray:
        rows = ctx["rows"]
        if not rows.size:
            return np.zeros(0)
        return np.concatenate([rows[:, 0], rows[:, 2]])

    def route_mask(self, rows, splitters, dest, v):
        return interval_slabs(rows[:, 0], rows[:, 2], splitters, dest)

    def phase_local(self, ctx: Context, env: RoundEnv) -> bool:
        segs = self.gather_slab(env)
        lo, hi = slab_bounds(ctx["splitters"], ctx["pid"])
        out: list[tuple[float, float, int, int]] = []
        if segs.size:
            xlo = max(lo, float(segs[:, 0].min()))
            xhi = min(hi, float(segs[:, 2].max()))
            xs = np.unique(
                np.clip(np.concatenate([segs[:, 0], segs[:, 2], [xlo, xhi]]), xlo, xhi)
            )
            if xs.size >= 2:
                mids = (xs[:-1] + xs[1:]) / 2
                ys = segment_y_at(segs, mids)
                ids = segs[:, 4].astype(np.int64)
                stacks = []
                for j in range(mids.size):
                    col = ys[:, j]
                    covering = np.isfinite(col)
                    order = np.argsort(col[covering], kind="stable")
                    stack = ids[covering][order]
                    # trapezoids: (-1, s0), (s0, s1), ..., (s_last, -1)
                    walls = np.concatenate(([-1], stack, [-1]))
                    stacks.append(list(zip(walls[:-1], walls[1:])))
                # merge adjacent intervals with identical stacks
                start = 0
                for j in range(1, mids.size + 1):
                    if j == mids.size or stacks[j] != stacks[start]:
                        for below, above in stacks[start]:
                            out.append(
                                (float(xs[start]), float(xs[j]), int(below), int(above))
                            )
                        start = j
        ctx["traps"] = np.asarray(out, dtype=np.float64).reshape(-1, 4)
        return True

    def finish(self, ctx: Context):
        return ctx["traps"]


class PointLocation(SlabProgram):
    """Batched next-element search below query points.

    Input per processor: ``(segments, queries)`` — segment rows
    (x1, y1, x2, y2, id) and query rows (qx, qy, qid).  Queries are
    routed to their x-slab together with the covering segments.  Output
    per slab: (qid, below_seg_id) rows, -1 when no segment lies below.
    """

    name = "point-location"

    def setup(self, ctx: Context, pid, shape, local_input) -> None:
        segs, queries = local_input
        super().setup(ctx, pid, shape, np.asarray(segs, dtype=np.float64).reshape(-1, 5))
        ctx["queries"] = np.asarray(queries, dtype=np.float64).reshape(-1, 3)

    def sample_keys(self, ctx: Context) -> np.ndarray:
        rows = ctx["rows"]
        if not rows.size:
            return np.zeros(0)
        return np.concatenate([rows[:, 0], rows[:, 2]])

    def route_mask(self, rows, splitters, dest, v):
        return interval_slabs(rows[:, 0], rows[:, 2], splitters, dest)

    def route_extra(self, ctx: Context, env: RoundEnv, splitters: np.ndarray) -> None:
        queries = ctx.pop("queries")
        if queries.size:
            slabs = slab_of(queries[:, 0], splitters)
            for dest in range(env.v):
                sel = slabs == dest
                if sel.any():
                    env.send(dest, queries[sel], tag="query")

    def phase_local(self, ctx: Context, env: RoundEnv) -> bool:
        segs = self.gather_slab(env)
        msgs = env.messages(tag="query")
        queries = np.vstack([m.payload for m in msgs]) if msgs else np.zeros((0, 3))
        if queries.size:
            if segs.size:
                ys = segment_y_at(segs, queries[:, 0])          # (k, m)
                mask = ys <= queries[:, 1][None, :]
                below = np.where(mask, ys, -np.inf)
                winner = np.argmax(below, axis=0)
                found = np.isfinite(below[winner, np.arange(queries.shape[0])])
                ids = np.where(found, segs[winner, 4].astype(np.int64), -1)
            else:
                ids = np.full(queries.shape[0], -1, dtype=np.int64)
            ctx["answers"] = np.column_stack((queries[:, 2].astype(np.int64), ids))
        else:
            ctx["answers"] = np.zeros((0, 2), dtype=np.int64)
        return True

    def finish(self, ctx: Context):
        return ctx["answers"]


def point_location_reference(segs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Brute-force next-element-below for tests."""
    out = np.full(queries.shape[0], -1, dtype=np.int64)
    for i, (qx, qy, _qid) in enumerate(queries):
        best = -np.inf
        for x1, y1, x2, y2, sid in segs:
            if x1 <= qx <= x2:
                t = (qx - x1) / (x2 - x1) if x2 != x1 else 0.0
                y = y1 + t * (y2 - y1)
                if best < y <= qy:
                    best = y
                    out[i] = int(sid)
    return out
