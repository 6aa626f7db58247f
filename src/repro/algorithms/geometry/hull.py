"""CGM convex hulls in 2D and 3D (Figure 5 Group B row 3).

The paper's source [24] is a randomized CGM hull; we implement the
standard practical variant with the same round structure: every
processor computes the convex hull of its own Theta(N/v) points (an
optimal local algorithm — qhull via scipy) and keeps only its extreme
points; the surviving points — whose expected number is tiny for
non-degenerate inputs (O(log n) for uniform squares, O(n^(1/3)) for
balls) — are gathered and the final hull is computed and broadcast.
Like the paper's source, the performance guarantee is probabilistic
(the filter is always *correct*: a globally extreme point is extreme in
every subset containing it).

Output: the hull vertices' global ids (every processor returns them).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import SimulationError


def _local_extremes(pts: np.ndarray, dim: int) -> np.ndarray:
    """Indices of the extreme points of *pts* (rows: coords..., id).

    Falls back to "keep everything" for degenerate/too-small sets, which
    is always correct.
    """
    if pts.shape[0] <= dim + 1:
        return np.arange(pts.shape[0])
    try:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts[:, :dim])
        return hull.vertices
    except Exception:
        return np.arange(pts.shape[0])


class ConvexHullFilter(CGMProgram):
    """Local-filter + gather hull.  Input rows: (coords..., global-id)."""

    name = "convex-hull"

    def __init__(self, dim: int = 2) -> None:
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        pts = np.asarray(local_input, dtype=np.float64).reshape(-1, self.dim + 1)
        ctx["pid"] = pid
        ctx["pts"] = pts

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            pts = ctx["pts"]
            survivors = pts[_local_extremes(pts, self.dim)] if pts.size else pts
            env.send(0, survivors, tag="survivors")
            return False
        if r == 1:
            if ctx["pid"] == 0:
                gathered = np.vstack(
                    [m.payload for m in env.messages(tag="survivors")]
                )
                if gathered.shape[0] == 0:
                    raise SimulationError("convex hull of an empty point set")
                idx = _local_extremes(gathered, self.dim)
                hull_rows = gathered[idx]
                ids = np.sort(hull_rows[:, self.dim].astype(np.int64))
                for dest in range(env.v):
                    env.send(dest, ids, tag="hull")
            return False
        (msg,) = env.messages(tag="hull")
        ctx["hull_ids"] = msg.payload
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["hull_ids"]
