"""Randomized CGM 2D Delaunay triangulation (Figure 5 Group B row 3).

Slab-partition by x with *boundary strips*, plus an **exact completeness
certificate**:

* each slab triangulates its own points together with strips borrowed
  from the neighbouring slabs and keeps the triangles it can **certify**:
  a triangle is globally Delaunay iff its circumcircle is empty of all
  points, and emptiness is locally checkable when the circumcircle lies
  within the x-range whose points the slab provably holds (own slab
  widened by the strips actually received);
* certified triangles are *always correct*; completeness is checked
  exactly on processor 0 with Euler's relation — a Delaunay
  triangulation of n points with h hull vertices has exactly
  ``2n - 2 - h`` triangles, and h is computed exactly from the gathered
  local hull candidates (a globally extreme point is locally extreme);
* if the certified set is short (strips too narrow — the probabilistic
  caveat the paper itself notes for its randomized source [24]), the
  algorithm falls back to one exact centralized pass.

Assumes general position (no 4 cocircular / 3 collinear points), under
which the Delaunay triangulation is unique.

Output per processor: dict with the global triangle list (sorted id
triples) and whether the fallback fired.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

from repro.algorithms.geometry.slabs import SlabProgram, slab_bounds
from repro.cgm.program import Context, RoundEnv


def _circumcircles(pts: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters (k, 2) and radii (k,) of the given triangles."""
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    ab = b - a
    ac = c - a
    d = 2 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    ab2 = (ab**2).sum(axis=1)
    ac2 = (ac**2).sum(axis=1)
    ux = (ac[:, 1] * ab2 - ab[:, 1] * ac2) / d
    uy = (ab[:, 0] * ac2 - ac[:, 0] * ab2) / d
    center = a + np.column_stack((ux, uy))
    radius = np.linalg.norm(center - a, axis=1)
    return center, radius


def triangles_canonical(tris_ids: np.ndarray) -> set[tuple[int, int, int]]:
    """Canonicalize triangles as sorted vertex-id tuples."""
    return {tuple(sorted(map(int, t))) for t in tris_ids}


class DelaunayCGM(SlabProgram):
    """Input rows: (x, y, global-id)."""

    name = "delaunay-2d"

    def __init__(self, n_points: int, strip_factor: float = 6.0) -> None:
        self.n_points = n_points
        self.strip_factor = strip_factor

    # --------------------------------------- skeleton overrides: global bbox

    def phase_sample(self, ctx: Context, env: RoundEnv) -> bool:
        rows = ctx["rows"]
        if rows.size:
            bbox = (
                float(rows[:, 0].min()),
                float(rows[:, 0].max()),
                float(rows[:, 1].min()),
                float(rows[:, 1].max()),
            )
        else:
            bbox = (np.inf, -np.inf, np.inf, -np.inf)
        env.send(0, bbox, tag="bbox")
        return super().phase_sample(ctx, env)

    def phase_splitters(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            boxes = [m.payload for m in env.messages(tag="bbox")]
            gbbox = (
                min(b[0] for b in boxes),
                max(b[1] for b in boxes),
                min(b[2] for b in boxes),
                max(b[3] for b in boxes),
            )
            for dest in range(env.v):
                env.send(dest, gbbox, tag="gbbox")
        return super().phase_splitters(ctx, env)

    def phase_route(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="gbbox")
        ctx["gbbox"] = msg.payload
        return super().phase_route(ctx, env)

    # ---------------------------------------------------------------- strips

    def phase_local(self, ctx: Context, env: RoundEnv) -> bool:
        pts = self.gather_slab(env)
        ctx["pts"] = pts
        splitters = ctx["splitters"]
        me, v = ctx["pid"], env.v
        lo, hi = slab_bounds(splitters, me)
        xmin, xmax, ymin, ymax = ctx["gbbox"]

        # global typical spacing: the certificate band width everywhere
        area = max((xmax - xmin) * (ymax - ymin), 1e-12)
        strip = self.strip_factor * np.sqrt(area / max(self.n_points, 1))
        ctx["strip"] = strip

        if pts.size:
            # a sender may only claim the extension its own slab actually
            # covers: if the strip is wider than the slab, points further
            # out belong to the *next* slab over and were never forwarded
            if me > 0 and np.isfinite(lo):
                sel = pts[:, 0] <= lo + strip
                covered = strip if not np.isfinite(hi) else min(strip, hi - lo)
                env.send(
                    me - 1, {"pts": pts[sel], "width": covered}, tag="strip-from-right"
                )
            if me < v - 1 and np.isfinite(hi):
                sel = pts[:, 0] >= hi - strip
                covered = strip if not np.isfinite(lo) else min(strip, hi - lo)
                env.send(
                    me + 1, {"pts": pts[sel], "width": covered}, tag="strip-from-left"
                )
            # horizontal boundary bands go to every slab: hull slivers'
            # huge circumdisks intersect the data region only inside these
            hsel = (pts[:, 1] >= ymax - strip) | (pts[:, 1] <= ymin + strip)
            if hsel.any():
                for dest in range(v):
                    if dest != me:
                        env.send(dest, pts[hsel], tag="hstrip")
        else:
            if me > 0:
                env.send(me - 1, {"pts": pts, "width": strip}, tag="strip-from-right")
            if me < v - 1:
                env.send(me + 1, {"pts": pts, "width": strip}, tag="strip-from-left")
        ctx["phase"] = "triangulate"
        return False

    # ------------------------------------------------------------- certify

    def phase_triangulate(self, ctx: Context, env: RoundEnv) -> bool:
        pts = ctx["pts"]
        me = ctx["pid"]
        splitters = ctx["splitters"]
        lo, hi = slab_bounds(splitters, me)

        left_ext = 0.0
        right_ext = 0.0
        strip_pts = []
        for m in env.messages(tag="strip-from-left"):
            strip_pts.append(m.payload["pts"])
            left_ext = m.payload["width"]
        for m in env.messages(tag="strip-from-right"):
            strip_pts.append(m.payload["pts"])
            right_ext = m.payload["width"]
        for m in env.messages(tag="hstrip"):
            strip_pts.append(m.payload)
        all_pts = (
            np.vstack([pts] + [s for s in strip_pts if s.size])
            if pts.size or any(s.size for s in strip_pts)
            else pts
        )
        if all_pts.size:
            # points can arrive twice (e.g. via both a vertical and a
            # horizontal strip): dedupe by id
            _, uniq = np.unique(all_pts[:, 2], return_index=True)
            all_pts = all_pts[uniq]

        certified = np.zeros((0, 3), dtype=np.int64)
        hull_candidates = pts[:0]
        if all_pts.shape[0] >= 3:
            try:
                tri = Delaunay(all_pts[:, :2])
            except Exception:
                tri = None
            if tri is not None:
                simplices = tri.simplices
                centers, radii = _circumcircles(all_pts[:, :2], simplices)
                left = lo - left_ext if np.isfinite(lo) else -np.inf
                right = hi + right_ext if np.isfinite(hi) else np.inf
                ok_x = (centers[:, 0] - radii >= left) & (
                    centers[:, 0] + radii <= right
                )
                # horizontal-band certificates: the circumdisk meets the
                # data region only inside the globally-shared top/bottom
                # band, where this slab holds every point
                _xmin, _xmax, ymin, ymax = ctx["gbbox"]
                strip = ctx["strip"]
                ok_top = centers[:, 1] - radii >= ymax - strip
                ok_bottom = centers[:, 1] + radii <= ymin + strip
                ok = ok_x | ok_top | ok_bottom
                ids = all_pts[:, 2].astype(np.int64)
                certified = np.sort(ids[simplices[ok]], axis=1)
        # hull candidates: local extremes of MY OWN points
        if pts.shape[0] >= 3:
            try:
                hull_candidates = pts[ConvexHull(pts[:, :2]).vertices]
            except Exception:
                hull_candidates = pts
        else:
            hull_candidates = pts

        env.send(0, {"tris": certified, "hull": hull_candidates}, tag="result")
        ctx["phase"] = "merge"
        return False

    # --------------------------------------------------------------- decide

    def phase_merge(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            tris: set[tuple[int, int, int]] = set()
            hull_pts = []
            for m in env.messages(tag="result"):
                tris |= triangles_canonical(m.payload["tris"])
                if m.payload["hull"].size:
                    hull_pts.append(m.payload["hull"])
            hp = np.vstack(hull_pts)
            n_total = ctx["n_total"]
            if hp.shape[0] >= 3:
                h = len(ConvexHull(hp[:, :2]).vertices)
            else:
                h = hp.shape[0]
            expected = 2 * n_total - 2 - h
            complete = len(tris) == expected and n_total >= 3
            ctx["fallback"] = not complete
            if complete:
                out = np.asarray(sorted(tris), dtype=np.int64).reshape(-1, 3)
                for dest in range(env.v):
                    env.send(dest, out, tag="final")
            else:
                for dest in range(env.v):
                    env.send(dest, "need-points", tag="fallback")
        ctx["phase"] = "finalize"
        return False

    def phase_finalize(self, ctx: Context, env: RoundEnv) -> bool:
        if env.messages(tag="fallback"):
            env.send(0, ctx["pts"], tag="allpts")
            ctx["phase"] = "fallback_solve"
            return False
        (msg,) = env.messages(tag="final")
        ctx["result"] = msg.payload
        return True

    def phase_fallback_solve(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            chunks = [m.payload for m in env.messages(tag="allpts") if m.payload.size]
            pts = np.vstack(chunks)
            ids = pts[:, 2].astype(np.int64)
            tri = Delaunay(pts[:, :2])
            out = np.asarray(
                sorted(triangles_canonical(ids[tri.simplices])), dtype=np.int64
            ).reshape(-1, 3)
            for dest in range(env.v):
                env.send(dest, out, tag="final")
        ctx["phase"] = "fallback_recv"
        return False

    def phase_fallback_recv(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="final")
        ctx["result"] = msg.payload
        return True

    # ------------------------------------------------------------------ misc

    def extra_setup(self, ctx: Context, pid, shape, local_input) -> None:
        ctx["n_total"] = self.n_points

    def finish(self, ctx: Context):
        return {
            "triangles": ctx["result"],
            "fallback": bool(ctx.get("fallback", False)),
        }
