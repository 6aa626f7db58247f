"""CGM Euler tour of a tree (Figure 5 Group C row 1).

A tree on n vertices with E = n-1 edges yields 2E directed edges; the
Euler tour visits each exactly once.  The classic construction gives each
directed edge a *successor*:

    succ(u -> v) = (v -> w),  w = the neighbour of v following u in the
                              circular, sorted adjacency order of v,

and rooting at r breaks the circle by giving the edge that would wrap
around back to (r -> first-neighbour) no successor.  The result is a
linked list over directed-edge ids (edge e=(u,v) gets ids 2e for u->v and
2e+1 for v->u, so reversal is ``id ^ 1``), which weighted
:class:`~repro.algorithms.graphs.list_ranking.ListRanking` then converts
into tour positions, vertex depths, preorder numbers and subtree sizes.

This program builds the successor list in lambda = 2 communication
rounds; the machine's ``N`` must be 2E (the directed-edge id space).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import SimulationError


class EulerTourBuild(CGMProgram):
    """Builds the Euler-tour successor list of a tree.

    Input per processor: an (k, 3) int array of rows ``(eid, u, v)`` —
    an arbitrary distribution of the undirected edges.  The constructor
    fixes the vertex-id space size and the root.

    Output per processor: the successor array for its slice of the
    directed-edge id space [0, 2E) (successor id, -1 for the tour tail).
    """

    name = "euler-tour-build"

    def __init__(self, n_vertices: int, root: int = 0) -> None:
        self.n_vertices = n_vertices
        self.root = root

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        edges = np.asarray(local_input, dtype=np.int64).reshape(-1, 3)
        ctx["pid"] = pid
        ctx["edges"] = edges
        ctx["n_dir"] = shape.N  # 2E
        lo, hi = slice_bounds(shape.N, shape.v, pid)
        ctx["lo"] = lo
        ctx["succ"] = np.full(hi - lo, -2, dtype=np.int64)  # -2 = unset

    def _route_by_vertex(self, env: RoundEnv, rows: np.ndarray, tag: str) -> None:
        owners = np.asarray(
            owner_of_index(rows[:, 0], self.n_vertices, env.v), dtype=np.int64
        )
        order = np.argsort(owners, kind="stable")
        rows, owners = rows[order], owners[order]
        bounds = np.searchsorted(owners, np.arange(env.v + 1))
        for d in range(env.v):
            a, b = bounds[d], bounds[d + 1]
            if b > a:
                env.send(d, rows[a:b], tag=tag)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            edges = ctx["edges"]
            if edges.size:
                # directed (u -> v) has id 2e, (v -> u) has id 2e+1; route
                # each directed edge to the owner of its HEAD vertex.
                eid, u, v = edges[:, 0], edges[:, 1], edges[:, 2]
                into_v = np.column_stack((v, u, 2 * eid))        # (head, tail, did)
                into_u = np.column_stack((u, v, 2 * eid + 1))
                self._route_by_vertex(env, np.vstack((into_v, into_u)), tag="adj")
            del ctx["edges"]
            return False

        if r == 1:
            msgs = env.messages(tag="adj")
            rows = (
                np.vstack([m.payload for m in msgs])
                if msgs
                else np.zeros((0, 3), dtype=np.int64)
            )
            out: list[tuple[int, int]] = []
            if rows.size:
                # group by head vertex; neighbours in sorted circular order
                order = np.lexsort((rows[:, 1], rows[:, 0]))
                rows = rows[order]
                heads = rows[:, 0]
                starts = np.concatenate(
                    ([0], np.nonzero(np.diff(heads))[0] + 1, [heads.size])
                )
                for gi in range(starts.size - 1):
                    a, b = starts[gi], starts[gi + 1]
                    x = int(heads[a])
                    dids = rows[a:b, 2]
                    k = b - a
                    for i in range(k):
                        nxt = dids[(i + 1) % k] ^ 1  # (x -> next neighbour)
                        if x == self.root and i == k - 1:
                            nxt = -1  # break the circle: tour tail
                        out.append((int(dids[i]), int(nxt)))
            if out:
                srows = np.asarray(out, dtype=np.int64)
                owners = np.asarray(
                    owner_of_index(srows[:, 0], ctx["n_dir"], env.v), dtype=np.int64
                )
                order = np.argsort(owners, kind="stable")
                srows, owners = srows[order], owners[order]
                bounds = np.searchsorted(owners, np.arange(env.v + 1))
                for d in range(env.v):
                    a, b = bounds[d], bounds[d + 1]
                    if b > a:
                        env.send(d, srows[a:b], tag="succ")
            return False

        rows = [m.payload for m in env.messages(tag="succ")]
        if rows:
            arr = np.vstack(rows)
            ctx["succ"][arr[:, 0] - ctx["lo"]] = arr[:, 1]
        if (ctx["succ"] == -2).any():
            raise SimulationError(
                "some directed edges received no successor — edge ids must "
                "be exactly 0..E-1 and the graph a connected tree"
            )
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["succ"]
