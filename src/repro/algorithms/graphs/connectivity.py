"""CGM connected components and spanning forest (Figure 5 Group C row 2).

Hook-and-contract in the Shiloach–Vishkin style, with the CGM twist the
paper's sources use: once the surviving cross-edge count drops below
N/v the remainder is gathered on processor 0 and finished with a local
union-find, capping the number of rounds.

Every vertex x maintains ``parent[x]`` at its owner; hooking always
attaches a root to a strictly smaller label, so parent chains decrease
and the root of every tree is the **minimum vertex id of its component**
— which is therefore the component id this program outputs.

Per iteration (constant number of h-relations):

1. every live edge looks up the current labels of its endpoints,
2. relabels itself, drops self-loops, and proposes
   ``hook(max(pa,pb) -> min(pa,pb))``; owners apply the smallest proposal
   to root vertices (recording the proposing edge — those edges form the
   spanning forest),
3. one pointer-jumping step shortcuts parent chains,
4. processor 0 tallies surviving cross edges and broadcasts
   continue / gather.

After the gather, vertices resolve their final component by root-finding
with path-halving (O(log depth) rounds).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import SimulationError


class _DSU:
    """Union-find with min-label roots (processor 0's local finish)."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent.setdefault(x, x)
        while p != x:
            gp = self.parent.setdefault(p, p)
            self.parent[x] = gp
            x, p = p, self.parent.setdefault(gp, gp)
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        lo, hi = min(ra, rb), max(ra, rb)
        self.parent[hi] = lo
        return True


class ConnectedComponents(CGMProgram):
    """Connected components + spanning forest of an undirected graph.

    Input per processor: an (k, 3) int64 array of rows ``(eid, a, b)``
    (eids globally unique).  ``shape.N`` must be the vertex-id space size.

    Output per processor: ``(comp_slice, forest_eids)`` — component ids
    for its owned vertex slice and the hook edges it recorded.
    """

    name = "connected-components"

    def __init__(self, n_vertices: int, gather_threshold: int | None = None) -> None:
        self.n_vertices = n_vertices
        self.gather_threshold = gather_threshold

    # ------------------------------------------------------------------ setup

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        edges = np.asarray(local_input, dtype=np.int64).reshape(-1, 3)
        if self.n_vertices != shape.N:
            raise SimulationError("the run's N must equal the vertex-id space size")
        lo, hi = slice_bounds(self.n_vertices, shape.v, pid)
        ctx["pid"] = pid
        ctx["lo"] = lo
        ctx["n"] = self.n_vertices
        ctx["edges"] = edges                      # live edges (eid, a, b) in current labels
        ctx["parent"] = np.arange(lo, hi, dtype=np.int64)
        ctx["forest"] = []                        # eids of hook edges recorded here
        ctx["comp"] = np.full(hi - lo, -1, dtype=np.int64)
        ctx["comp_hint"] = {}                     # root label -> component id
        ctx["phase"] = "query"
        threshold = self.gather_threshold
        if threshold is None:
            threshold = max(4, self.n_vertices // shape.v)
        ctx["threshold"] = threshold

    # ---------------------------------------------------------------- helpers

    def _route(self, env: RoundEnv, ctx: Context, rows: np.ndarray, tag: str) -> None:
        if rows.size == 0:
            return
        owners = np.asarray(
            owner_of_index(rows[:, 0], ctx["n"], env.v), dtype=np.int64
        )
        order = np.argsort(owners, kind="stable")
        rows, owners = rows[order], owners[order]
        bounds = np.searchsorted(owners, np.arange(env.v + 1))
        for d in range(env.v):
            a, b = bounds[d], bounds[d + 1]
            if b > a:
                env.send(d, rows[a:b], tag=tag)

    @staticmethod
    def _rows(env: RoundEnv, tag: str, width: int) -> np.ndarray:
        msgs = env.messages(tag=tag)
        if not msgs:
            return np.zeros((0, width), dtype=np.int64)
        return np.vstack([m.payload for m in msgs]).astype(np.int64)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        return getattr(self, f"_phase_{ctx['phase']}")(ctx, env)

    # --------------------------------------------------------- iteration body

    def _phase_query(self, ctx: Context, env: RoundEnv) -> bool:
        """Ask the owners of edge endpoints for current parent labels."""
        edges = ctx["edges"]
        if edges.size:
            verts = np.unique(edges[:, 1:3])
            rows = np.column_stack((verts, np.full(verts.size, ctx["pid"])))
            self._route(env, ctx, rows, tag="pq")
        ctx["phase"] = "reply"
        return False

    def _phase_reply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "pq", 2)
        if rows.size:
            parents = ctx["parent"][rows[:, 0] - ctx["lo"]]
            for pid_req in np.unique(rows[:, 1]):
                mask = rows[:, 1] == pid_req
                env.send(
                    int(pid_req),
                    np.column_stack((rows[mask, 0], parents[mask])),
                    tag="pr",
                )
        ctx["phase"] = "hook"
        return False

    def _phase_hook(self, ctx: Context, env: RoundEnv) -> bool:
        """Relabel edges, drop self loops; propose hooks (or gather)."""
        rows = self._rows(env, "pr", 2)
        label = {int(vtx): int(par) for vtx, par in rows}
        edges = ctx["edges"]
        if edges.size:
            a = np.array([label[int(x)] for x in edges[:, 1]], dtype=np.int64)
            b = np.array([label[int(x)] for x in edges[:, 2]], dtype=np.int64)
            keep = a != b
            edges = np.column_stack((edges[keep, 0], a[keep], b[keep]))
            ctx["edges"] = edges
        if ctx.get("mode") == "gather":
            if edges.size:
                env.send(0, edges, tag="gedges")
            ctx["phase"] = "solve"
            return False
        if edges.size:
            hi = np.maximum(edges[:, 1], edges[:, 2])
            lo_ = np.minimum(edges[:, 1], edges[:, 2])
            self._route(
                env, ctx, np.column_stack((hi, lo_, edges[:, 0])), tag="hook"
            )
        ctx["phase"] = "jump_send"
        return False

    def _phase_jump_send(self, ctx: Context, env: RoundEnv) -> bool:
        """Apply hook proposals, then flatten trees by pointer jumping.

        The hook labels are roots only because trees are fully flattened
        at the end of every iteration; hooking a root to a *root* that is
        strictly smaller makes mutual hooks (and hence cycles among the
        recorded forest edges) impossible.
        """
        rows = self._rows(env, "hook", 3)
        lo = ctx["lo"]
        parent = ctx["parent"]
        if rows.size:
            # smallest candidate per vertex wins; only roots hook
            order = np.lexsort((rows[:, 1], rows[:, 0]))
            rows = rows[order]
            first = np.concatenate(([True], np.diff(rows[:, 0]) != 0))
            for vtx, cand, eid in rows[first]:
                i = vtx - lo
                if parent[i] == vtx and cand < vtx:
                    parent[i] = cand
                    ctx["forest"].append(int(eid))
        # pointer jump: ask owner(parent[x]) for its parent
        idx = np.nonzero(parent != np.arange(lo, lo + parent.size))[0]
        if idx.size:
            rows = np.column_stack((parent[idx], idx + lo))
            self._route(env, ctx, rows, tag="jq")
        ctx["phase"] = "jump_reply"
        return False

    def _phase_jump_reply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "jq", 2)
        if rows.size:
            gp = ctx["parent"][rows[:, 0] - ctx["lo"]]
            self._route(env, ctx, np.column_stack((rows[:, 1], gp)), tag="jr")
        ctx["phase"] = "jump_apply"
        return False

    def _phase_jump_apply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "jr", 2)
        changed = 0
        if rows.size:
            idx = rows[:, 0] - ctx["lo"]
            before = ctx["parent"][idx]
            ctx["parent"][idx] = rows[:, 1]
            changed = int((before != rows[:, 1]).sum())
        env.send(0, changed, tag="jcount")
        ctx["phase"] = "jump_decide"
        return False

    def _phase_jump_decide(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            total = sum(int(m.payload) for m in env.messages(tag="jcount"))
            decision = "flat" if total == 0 else "again"
            for dest in range(env.v):
                env.send(dest, decision, tag="jdecision")
        ctx["phase"] = "jump_branch"
        return False

    def _phase_jump_branch(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="jdecision")
        if msg.payload == "again":
            # another jump level: re-send grandparent queries
            lo = ctx["lo"]
            parent = ctx["parent"]
            idx = np.nonzero(parent != np.arange(lo, lo + parent.size))[0]
            if idx.size:
                rows = np.column_stack((parent[idx], idx + lo))
                self._route(env, ctx, rows, tag="jq")
            ctx["phase"] = "jump_reply"
            return False
        return self._phase_count(ctx, env)

    def _phase_count(self, ctx: Context, env: RoundEnv) -> bool:
        env.send(0, int(ctx["edges"].shape[0]), tag="ecount")
        ctx["phase"] = "decide"
        return False

    def _phase_decide(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            total = sum(int(m.payload) for m in env.messages(tag="ecount"))
            decision = "gather" if total <= ctx["threshold"] else "contract"
            for dest in range(env.v):
                env.send(dest, decision, tag="decision")
        ctx["phase"] = "branch"
        return False

    def _phase_branch(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="decision")
        if msg.payload == "contract":
            return self._phase_query(ctx, env)
        # gather path: edges still carry the labels of the *previous*
        # relabel — refresh them first, or processor 0's union-find would
        # re-union trees already joined by this iteration's hooks and
        # record duplicate forest edges (creating cycles).
        ctx["mode"] = "gather"
        return self._phase_query(ctx, env)

    # ------------------------------------------------------------- the finish

    def _phase_solve(self, ctx: Context, env: RoundEnv) -> bool:
        """Processor 0: union-find over gathered edges, scatter hints."""
        if ctx["pid"] == 0:
            rows = self._rows(env, "gedges", 3)
            dsu = _DSU()
            for eid, a, b in rows:
                if dsu.union(int(a), int(b)):
                    ctx["forest"].append(int(eid))
            hints = [(x, dsu.find(x)) for x in dsu.parent]
            if hints:
                self._route(
                    env, ctx, np.asarray(hints, dtype=np.int64), tag="hint"
                )
        ctx["phase"] = "resolve_send"
        return False

    def _phase_resolve_send(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "hint", 2)
        hint = ctx["comp_hint"]
        if rows.size:
            for label, comp in rows:
                hint[int(label)] = int(comp)
        lo = ctx["lo"]
        parent, comp = ctx["parent"], ctx["comp"]
        ids = np.arange(lo, lo + parent.size)
        roots = parent == ids
        for i in np.nonzero(roots & (comp < 0))[0]:
            comp[i] = hint.get(int(ids[i]), int(ids[i]))
        unresolved = np.nonzero(comp < 0)[0]
        if unresolved.size:
            rows = np.column_stack((parent[unresolved], unresolved + lo))
            self._route(env, ctx, rows, tag="rq")
        env.send(0, int(unresolved.size), tag="rcount")
        ctx["phase"] = "resolve_reply"
        return False

    def _phase_resolve_reply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "rq", 2)
        if rows.size:
            lo = ctx["lo"]
            idx = rows[:, 0] - lo
            comp = ctx["comp"][idx]
            parent = ctx["parent"][idx]
            # reply (asker, flag, value): resolved components beat parents
            reply = np.column_stack(
                (rows[:, 1], (comp >= 0).astype(np.int64), np.where(comp >= 0, comp, parent))
            )
            self._route(env, ctx, reply, tag="rr")
        if ctx["pid"] == 0:
            pending = sum(int(m.payload) for m in env.messages(tag="rcount"))
            for dest in range(env.v):
                env.send(dest, "done" if pending == 0 else "again", tag="rdecision")
        ctx["phase"] = "resolve_apply"
        return False

    def _phase_resolve_apply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "rr", 2 + 1)
        lo = ctx["lo"]
        if rows.size:
            idx = rows[:, 0] - lo
            resolved = rows[:, 1] == 1
            ctx["comp"][idx[resolved]] = rows[resolved, 2]
            # path halving for the rest
            ctx["parent"][idx[~resolved]] = rows[~resolved, 2]
        (msg,) = env.messages(tag="rdecision")
        if msg.payload == "done" and not (ctx["comp"] < 0).any():
            ctx["phase"] = "done"
            return True
        return self._phase_resolve_send(ctx, env)

    def _phase_done(self, ctx: Context, env: RoundEnv) -> bool:
        return True

    def finish(self, ctx: Context) -> Any:
        if (ctx["comp"] < 0).any():
            raise SimulationError("connected components finished unresolved")
        return ctx["comp"], sorted(ctx["forest"])
