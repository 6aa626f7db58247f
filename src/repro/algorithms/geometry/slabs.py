"""The slab-partition skeleton shared by the Group B programs.

:class:`SlabProgram` implements the first three CGM rounds every
geometry algorithm here starts with:

* round "sample"    — each processor sends a regular sample of its
  objects' x-keys to processor 0;
* round "splitters" — processor 0 sorts the <= v^2 samples, picks v-1
  splitters and broadcasts them (deterministic regular sampling, like
  the sorting algorithm — no processor's slab receives more than ~2N/v
  objects in expectation for point objects);
* round "route"     — every object is sent to the slab(s) it intersects:
  points go to one slab, intervals/segments to every slab they cross.

Subclasses then take over with their own phase methods, starting at
``phase_local`` (all routed objects delivered).  Helpers for vectorized
routing and slab arithmetic are provided.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape


class SlabProgram(CGMProgram):
    """Base: sample -> splitters -> route, then subclass phases.

    Input per processor: an (k, d) float array of object rows.  The
    sampling key is column ``key_col``; interval objects override
    :meth:`route_slabs` to multicast.
    """

    name = "slab-program"
    key_col = 0

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        rows = np.asarray(local_input, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        ctx["pid"] = pid
        ctx["rows"] = rows
        ctx["phase"] = "sample"
        self.extra_setup(ctx, pid, shape, local_input)

    def extra_setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        """Hook for subclasses (queries, parameters...)."""

    # ------------------------------------------------------------ the skeleton

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        return getattr(self, f"phase_{ctx['phase']}")(ctx, env)

    def phase_sample(self, ctx: Context, env: RoundEnv) -> bool:
        keys = self.sample_keys(ctx)
        n = keys.size
        v = env.v
        if n:
            idx = (np.arange(v, dtype=np.int64) * n) // v
            sample = np.sort(keys)[np.minimum(idx, n - 1)]
        else:
            sample = keys[:0]
        env.send(0, sample, tag="sample")
        ctx["phase"] = "splitters"
        return False

    def sample_keys(self, ctx: Context) -> np.ndarray:
        rows = ctx["rows"]
        return rows[:, self.key_col] if rows.size else np.zeros(0)

    def phase_splitters(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            gathered = np.sort(
                np.concatenate([m.payload for m in env.messages(tag="sample")])
            )
            m = gathered.size
            v = env.v
            if m >= v and v > 1:
                idx = (np.arange(1, v, dtype=np.int64) * m) // v
                splitters = gathered[idx]
            else:
                splitters = gathered[:0]
            for dest in range(v):
                env.send(dest, splitters, tag="splitters")
        ctx["phase"] = "route"
        return False

    def phase_route(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="splitters")
        splitters = msg.payload
        ctx["splitters"] = splitters
        rows = ctx.pop("rows")
        if rows.size:
            for dest in range(env.v):
                sel = self.route_mask(rows, splitters, dest, env.v)
                if sel.any():
                    env.send(dest, rows[sel], tag="slab")
        self.route_extra(ctx, env, splitters)
        ctx["phase"] = "local"
        return False

    def route_extra(self, ctx: Context, env: RoundEnv, splitters: np.ndarray) -> None:
        """Hook: route additional object classes (e.g. query points)."""

    def route_mask(
        self, rows: np.ndarray, splitters: np.ndarray, dest: int, v: int
    ) -> np.ndarray:
        """Which rows belong to slab *dest*?  Default: point objects."""
        return slab_of(rows[:, self.key_col], splitters) == dest

    # subclasses implement phase_local (and any further phases)

    def gather_slab(self, env: RoundEnv) -> np.ndarray:
        msgs = env.messages(tag="slab")
        if not msgs:
            return np.zeros((0, 1))
        return np.vstack([m.payload for m in msgs])


def slab_of(keys: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    """Slab index of each key: slab d covers (splitters[d-1], splitters[d]]."""
    if splitters.size == 0:
        return np.zeros(np.asarray(keys).shape, dtype=np.int64)
    return np.searchsorted(splitters, keys, side="left").astype(np.int64)


def interval_slabs(
    lo: np.ndarray, hi: np.ndarray, splitters: np.ndarray, dest: int
) -> np.ndarray:
    """Mask of intervals [lo, hi] intersecting slab *dest*."""
    v_bounds = slab_bounds(splitters, dest)
    return (hi >= v_bounds[0]) & (lo <= v_bounds[1])


def slab_bounds(splitters: np.ndarray, dest: int) -> tuple[float, float]:
    """(x_lo, x_hi) of slab *dest* (+-inf at the extremes)."""
    lo = -np.inf if dest == 0 else float(splitters[dest - 1])
    hi = np.inf if dest >= splitters.size else float(splitters[dest])
    return lo, hi


def pareto_suffix_max(y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-y representation of the staircase max(z | Y >= y).

    Returns (ys_sorted, best_z) where best_z[i] = max z among points with
    y >= ys_sorted[i]; query via searchsorted.
    """
    order = np.argsort(y, kind="stable")
    ys = y[order]
    zs = z[order]
    best = np.maximum.accumulate(zs[::-1])[::-1]
    return ys, best


class Staircase2D:
    """Incremental (y, z) Pareto staircase for decreasing-x sweeps.

    Kept sorted by y ascending; z is then strictly decreasing.  Queries
    and insertions are O(log k) amortized (dominated predecessors are
    removed on insertion).
    """

    __slots__ = ("ys", "zs")

    def __init__(self) -> None:
        self.ys: list[float] = []
        self.zs: list[float] = []

    def dominates(self, y: float, z: float) -> bool:
        """Does some staircase point (Y, Z) have Y >= y and Z >= z?"""
        import bisect

        i = bisect.bisect_left(self.ys, y)
        return i < len(self.ys) and self.zs[i] >= z

    def insert(self, y: float, z: float) -> None:
        """Insert a non-dominated point, evicting points it dominates."""
        import bisect

        i = bisect.bisect_left(self.ys, y)
        # evict predecessors with z <= z (they have y <= y): contiguous
        j = i
        while j > 0 and self.zs[j - 1] <= z:
            j -= 1
        self.ys[j:i] = [y]
        self.zs[j:i] = [z]


def local_maxima_sweep(pts: np.ndarray) -> np.ndarray:
    """Indices of the 3D-maximal rows of (x, y, z, ...) via x-desc sweep."""
    order = np.argsort(-pts[:, 0], kind="stable")
    stair = Staircase2D()
    keep = []
    for i in order:
        y, z = float(pts[i, 1]), float(pts[i, 2])
        if not stair.dominates(y, z):
            keep.append(i)
            stair.insert(y, z)
    return np.asarray(sorted(keep), dtype=np.int64)


def dominated_mask(
    y: np.ndarray, z: np.ndarray, ref_y: np.ndarray, ref_z: np.ndarray, strict: bool = False
) -> np.ndarray:
    """Which (y, z) points are dominated by some reference point?

    Dominated: exists ref with ref_y >= y and ref_z >= z (non-strict, the
    3D-maxima convention under general position).
    """
    if ref_y.size == 0:
        return np.zeros(y.shape, dtype=bool)
    ys, best = pareto_suffix_max(ref_y, ref_z)
    side = "left" if not strict else "right"
    pos = np.searchsorted(ys, y, side=side)
    best_z = np.where(pos < ys.size, best[np.minimum(pos, ys.size - 1)], -np.inf)
    return best_z >= z
