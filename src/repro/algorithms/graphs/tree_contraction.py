"""CGM tree contraction and expression-tree evaluation (Group C).

Miller–Reif rake-and-compress, adapted to the CGM's bulk rounds:

* **rake** — every current leaf sends its edge-function-adjusted value to
  its parent's owner; a parent that has received all children's values
  becomes a leaf itself;
* **compress** — *unary* nodes (exactly one unevaluated child) are chain
  links; an independent set of them (coin heads, parent tails — the same
  symmetry breaking as list ranking) splices out, composing its linear
  edge function into the pending child's;
* **gather** — when at most N/v nodes survive, processor 0 evaluates the
  remainder directly and broadcasts the answer.

Expression trees use operators + and * with values at the leaves.  Every
node u carries a linear *edge function* ``f_u(x) = a_u x + b_u``: the
contribution of u's subtree to u's parent, given u's own still-unknown
value x.  Raking instantiates x; compressing composes two edge functions
through the + / * node between them — the closure property that makes
rake/compress evaluate arithmetic expression trees in a logarithmic
number of phases.

Rounds: O(log v) expected — each rake+compress pair removes a constant
fraction of the live nodes in expectation, and the gather threshold N/v
caps the tail.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import SimulationError

OP_ADD = 0
OP_MUL = 1


def eval_expression_direct(parent, op, leaf_value, root) -> float:
    """Reference sequential evaluation (tests and processor 0 use this)."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for u, p in enumerate(parent):
        if p >= 0:
            children[p].append(u)
    out = np.full(n, np.nan)
    stack = [(int(root), False)]
    while stack:
        u, expanded = stack.pop()
        if expanded:
            if not children[u]:
                out[u] = leaf_value[u]
            else:
                vals = [out[c] for c in children[u]]
                out[u] = sum(vals) if op[u] == OP_ADD else float(np.prod(vals))
        else:
            stack.append((u, True))
            stack.extend((c, False) for c in children[u])
    return float(out[int(root)])


class ExpressionEval(CGMProgram):
    """Evaluate a distributed (+, *) expression tree; every processor
    returns the root value.

    Input per processor (for its vertex slice): ``(parent, op, value)``
    arrays — ``parent[i] = -1`` at the root, ``op`` in {OP_ADD, OP_MUL}
    at internal nodes, ``value`` meaningful at leaves.  ``shape.N`` is the
    vertex-id space size.
    """

    name = "expression-eval"

    def __init__(self, gather_threshold: int | None = None) -> None:
        self.gather_threshold = gather_threshold

    # ------------------------------------------------------------------ setup

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        parent, op, value = local_input
        parent = np.asarray(parent, dtype=np.int64)
        lo, hi = slice_bounds(shape.N, shape.v, pid)
        k = hi - lo
        if parent.size != k:
            raise SimulationError(f"processor {pid}: slice size mismatch")
        ctx["pid"] = pid
        ctx["lo"] = lo
        ctx["n"] = shape.N
        ctx["parent"] = parent.copy()
        ctx["op"] = np.asarray(op, dtype=np.int64).copy()
        ctx["val"] = np.asarray(value, dtype=np.float64).copy()
        ctx["a"] = np.ones(k)
        ctx["b"] = np.zeros(k)
        ctx["pending"] = [[] for _ in range(k)]   # un-evaluated children (gids)
        ctx["had_children"] = np.zeros(k, dtype=bool)
        ctx["ready"] = np.zeros(k)                # op-fold of raked children
        ctx["got"] = np.zeros(k, dtype=np.int64)
        ctx["alive"] = np.ones(k, dtype=bool)
        ctx["root_value"] = None
        ctx["phase"] = "degree"
        threshold = self.gather_threshold
        if threshold is None:
            threshold = max(2, shape.N // shape.v)
        ctx["threshold"] = threshold

    # ---------------------------------------------------------------- helpers

    def _route(self, env: RoundEnv, ctx: Context, rows: np.ndarray, tag: str) -> None:
        if rows.size == 0:
            return
        owners = np.asarray(
            owner_of_index(rows[:, 0].astype(np.int64), ctx["n"], env.v),
            dtype=np.int64,
        )
        order = np.argsort(owners, kind="stable")
        rows, owners = rows[order], owners[order]
        bounds = np.searchsorted(owners, np.arange(env.v + 1))
        for d in range(env.v):
            s, e = bounds[d], bounds[d + 1]
            if e > s:
                env.send(d, rows[s:e], tag=tag)

    @staticmethod
    def _rows(env: RoundEnv, tag: str, width: int) -> np.ndarray:
        msgs = env.messages(tag=tag)
        if not msgs:
            return np.zeros((0, width))
        return np.vstack([m.payload for m in msgs])

    def _node_value(self, ctx: Context, i: int) -> float:
        return float(ctx["ready"][i]) if ctx["had_children"][i] else float(ctx["val"][i])

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        return getattr(self, f"_phase_{ctx['phase']}")(ctx, env)

    # ----------------------------------------------------- degree / schedule

    def _phase_degree(self, ctx: Context, env: RoundEnv) -> bool:
        parent, lo = ctx["parent"], ctx["lo"]
        idx = np.nonzero(parent >= 0)[0]
        if idx.size:
            rows = np.column_stack((parent[idx], idx + lo)).astype(np.int64)
            self._route(env, ctx, rows, tag="child")
        ctx["phase"] = "degree_apply"
        return False

    def _phase_degree_apply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "child", 2).astype(np.int64)
        lo = ctx["lo"]
        for p, c in rows:
            i = int(p) - lo
            ctx["pending"][i].append(int(c))
            ctx["had_children"][i] = True
        env.send(0, int(ctx["alive"].sum()), tag="count")
        ctx["phase"] = "decide"
        return False

    def _phase_decide(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            total = sum(int(m.payload) for m in env.messages(tag="count"))
            decision = "gather" if total <= ctx["threshold"] else "work"
            for dest in range(env.v):
                env.send(dest, decision, tag="decision")
        ctx["phase"] = "rake"
        return False

    # ------------------------------------------------------------------- rake

    def _phase_rake(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="decision")
        if msg.payload == "gather":
            return self._start_gather(ctx, env)

        lo = ctx["lo"]
        parent, alive, pending = ctx["parent"], ctx["alive"], ctx["pending"]
        out = []
        for i in np.nonzero(alive)[0]:
            if pending[i]:
                continue  # still waiting on children
            value = self._node_value(ctx, i)
            p = parent[i]
            alive[i] = False
            if p < 0:
                ctx["root_value"] = value
                continue
            y = ctx["a"][i] * value + ctx["b"][i]
            out.append((float(p), y, float(i + lo)))
        if out:
            self._route(env, ctx, np.asarray(out), tag="rake")
        ctx["phase"] = "rake_apply"
        return False

    def _phase_rake_apply(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._rows(env, "rake", 3)
        lo = ctx["lo"]
        for p, y, child_gid in rows:
            i = int(p) - lo
            if ctx["got"][i] == 0:
                ctx["ready"][i] = y
            else:
                ctx["ready"][i] = (
                    ctx["ready"][i] + y if ctx["op"][i] == OP_ADD else ctx["ready"][i] * y
                )
            ctx["got"][i] += 1
            ctx["pending"][i].remove(int(child_gid))

        # compress setup: unary nodes flip coins; ask parent for its coin
        alive, parent, pending = ctx["alive"], ctx["parent"], ctx["pending"]
        coins: dict[int, bool] = {}
        rows_out = []
        for i in np.nonzero(alive)[0]:
            if len(pending[i]) == 1 and parent[i] >= 0:
                heads = bool(env.rng.random() < 0.5)
                coins[int(i)] = heads
                rows_out.append((int(parent[i]), int(i) + ctx["lo"]))
        ctx["coins"] = coins
        if rows_out:
            self._route(env, ctx, np.asarray(rows_out, dtype=np.int64), tag="coinq")
        ctx["phase"] = "compress_select"
        return False

    # --------------------------------------------------------------- compress

    def _phase_compress_select(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        rows = self._rows(env, "coinq", 2).astype(np.int64)
        coins = ctx["coins"]
        replies = []
        for p, child_gid in rows:
            i = int(p) - lo
            replies.append((int(child_gid), int(coins.get(i, False))))
        if replies:
            self._route(env, ctx, np.asarray(replies, dtype=np.int64), tag="coina")
        ctx["phase"] = "compress_splice"
        return False

    def _phase_compress_splice(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        rows = self._rows(env, "coina", 2).astype(np.int64)
        parent_heads = {int(g): bool(c) for g, c in rows}
        coins = ctx.pop("coins")
        alive, parent, pending = ctx["alive"], ctx["parent"], ctx["pending"]

        child_updates = []   # (c, new_parent, A, B)
        parent_updates = []  # (pp, old_child=me, new_child=c)
        for i, heads in coins.items():
            gid = i + lo
            if not heads or parent_heads.get(gid, False):
                continue
            if not alive[i] or len(pending[i]) != 1 or parent[i] < 0:
                continue
            c = pending[i][0]
            a_i, b_i = float(ctx["a"][i]), float(ctx["b"][i])
            got = int(ctx["got"][i])
            ready = float(ctx["ready"][i])
            if got == 0:
                A, B = a_i, b_i                       # val = f_c(x)
            elif ctx["op"][i] == OP_ADD:
                A, B = a_i, a_i * ready + b_i         # val = ready + f_c(x)
            else:
                A, B = a_i * ready, b_i               # val = ready * f_c(x)
            child_updates.append((float(c), float(parent[i]), A, B))
            parent_updates.append((int(parent[i]), int(gid), int(c)))
            alive[i] = False
        if child_updates:
            self._route(env, ctx, np.asarray(child_updates), tag="splice-c")
        if parent_updates:
            self._route(
                env, ctx, np.asarray(parent_updates, dtype=np.int64), tag="splice-p"
            )
        ctx["phase"] = "apply_count"
        return False

    def _phase_apply_count(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        for c, new_parent, A, B in self._rows(env, "splice-c", 4):
            i = int(c) - lo
            ctx["parent"][i] = int(new_parent)
            ctx["a"][i] = A * ctx["a"][i]
            ctx["b"][i] = A * ctx["b"][i] + B
        for pp, old_child, new_child in self._rows(env, "splice-p", 3).astype(np.int64):
            i = int(pp) - lo
            ctx["pending"][i].remove(int(old_child))
            ctx["pending"][i].append(int(new_child))
        env.send(0, int(ctx["alive"].sum()), tag="count")
        ctx["phase"] = "decide"
        return False

    # ----------------------------------------------------------------- gather

    def _start_gather(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        alive = np.nonzero(ctx["alive"])[0]
        if alive.size:
            rows = np.column_stack(
                (
                    alive + lo,
                    ctx["parent"][alive],
                    ctx["op"][alive],
                    np.where(
                        ctx["had_children"][alive], ctx["ready"][alive], ctx["val"][alive]
                    ),
                    ctx["got"][alive],
                    [len(ctx["pending"][i]) for i in alive],
                    ctx["a"][alive],
                    ctx["b"][alive],
                )
            )
            env.send(0, rows, tag="gathered")
        if ctx["root_value"] is not None:
            env.send(0, float(ctx["root_value"]), tag="rootval")
        ctx["phase"] = "solve"
        return False

    def _phase_solve(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            done = env.messages(tag="rootval")
            if done:
                value = float(done[0].payload)
            else:
                value = self._solve_locally(self._rows(env, "gathered", 8))
            for dest in range(env.v):
                env.send(dest, value, tag="answer")
        ctx["phase"] = "finish"
        return False

    @staticmethod
    def _solve_locally(rows: np.ndarray) -> float:
        ids = rows[:, 0].astype(np.int64)
        pos = {int(u): k for k, u in enumerate(ids)}
        parent = rows[:, 1].astype(np.int64)
        op = rows[:, 2].astype(np.int64)
        acc = rows[:, 3].astype(np.float64)
        got = rows[:, 4].astype(np.int64)
        n_pending = rows[:, 5].astype(np.int64)
        a = rows[:, 6].astype(np.float64)
        b = rows[:, 7].astype(np.float64)

        children: dict[int, list[int]] = {}
        root = -1
        for k, u in enumerate(ids):
            p = int(parent[k])
            if p < 0:
                root = k
            else:
                children.setdefault(pos[p], []).append(k)
        if root < 0:
            raise SimulationError("gathered remainder has no root")

        value = np.full(ids.size, np.nan)
        # evaluate bottom-up over the gathered forest (iterative post-order)
        stack = [(root, False)]
        while stack:
            k, expanded = stack.pop()
            if not expanded:
                stack.append((k, True))
                stack.extend((c, False) for c in children.get(k, []))
                continue
            if n_pending[k] == 0:
                value[k] = acc[k]
                continue
            vals = [a[c] * value[c] + b[c] for c in children.get(k, [])]
            combined = sum(vals) if op[k] == OP_ADD else float(np.prod(vals))
            if got[k] > 0:
                combined = acc[k] + combined if op[k] == OP_ADD else acc[k] * combined
            value[k] = combined
        return float(value[root])

    def _phase_finish(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="answer")
        ctx["root_value"] = float(msg.payload)
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["root_value"]
