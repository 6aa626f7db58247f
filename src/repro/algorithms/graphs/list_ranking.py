"""CGM list ranking by deterministic-schedule randomized contraction.

Figure 5 Group C row 1: list ranking in O((N log v)/(pDB)) I/Os, obtained
by simulating a CGM algorithm with lambda = O(log v) rounds.  The
algorithm is the standard independent-set contraction:

1. build predecessor pointers (one h-relation);
2. repeat: every interior node flips a coin; a node is *spliced out* iff
   it flipped heads and its successor flipped tails (an independent set —
   no two adjacent nodes are ever spliced together); splicing forwards
   the node's edge weight to its predecessor.  Each iteration removes
   ~1/4 of the interior nodes, so after O(log v) iterations at most
   N/v nodes remain;
3. gather the contracted list on processor 0, rank it locally;
4. expand: removed nodes recover their rank level by level in reverse —
   rank(u) = rank(successor-at-removal) + weight-at-removal.

Ranks are **weighted suffix sums**: rank(u) = sum of the weights of the
links from u to the tail.  With unit weights this is the distance to the
tail; with arbitrary weights it computes suffix sums over the list, which
is how the Euler-tour machinery derives depths and preorder numbers.

Node ids are 0..N-1; node i is owned by processor ``owner_of_index(i)``.
Input per processor: ``(succ, weight)`` arrays for its slice (successor
id, or -1 for the tail).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import SimulationError


class ListRanking(CGMProgram):
    """Weighted list ranking (suffix sums along a linked list)."""

    name = "list-ranking"

    def __init__(self, gather_threshold: int | None = None) -> None:
        #: contract until at most this many nodes remain (default N/v)
        self.gather_threshold = gather_threshold

    # ------------------------------------------------------------------ setup

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        succ, weight = local_input
        succ = np.asarray(succ, dtype=np.int64)
        n_nodes = shape.N
        lo, hi = slice_bounds(n_nodes, shape.v, pid)
        if succ.size != hi - lo:
            raise SimulationError(
                f"processor {pid} expected {hi - lo} nodes, got {succ.size}"
            )
        ctx["pid"] = pid
        ctx["lo"] = lo
        ctx["n_nodes"] = n_nodes
        ctx["succ"] = succ.copy()
        ctx["pred"] = np.full(succ.size, -1, dtype=np.int64)
        ctx["w"] = np.asarray(weight, dtype=np.float64).copy()
        ctx["alive"] = np.ones(succ.size, dtype=bool)
        ctx["rank"] = np.full(succ.size, np.nan)
        # contraction level at which the node was spliced out, -1 = never.
        # A spliced node is never written again (its predecessor stays
        # alive — the independent-set rule never selects two neighbours —
        # and after the splice nobody points at it), so succ[i] / w[i]
        # stay its successor and weight at removal.
        ctx["removed"] = np.full(succ.size, -1, dtype=np.int16)
        ctx["phase"] = "setup"
        ctx["level"] = 0             # contraction iteration counter
        threshold = self.gather_threshold
        if threshold is None:
            threshold = max(2, n_nodes // shape.v)
        ctx["threshold"] = threshold

    # ---------------------------------------------------------------- helpers

    @staticmethod
    def _send_grouped(env: RoundEnv, ctx: Context, rows: np.ndarray, tag: str, key_col: int = 0) -> None:
        """Route rows to the owners of the node ids in column *key_col*."""
        if rows.size == 0:
            return
        keys = np.asarray(rows[:, key_col], dtype=np.int64)  # float rows carry ids too
        owners = owner_of_index(keys, ctx["n_nodes"], env.v)
        order = np.argsort(owners, kind="stable")
        rows = rows[order]
        owners = np.asarray(owners)[order]
        bounds = np.searchsorted(owners, np.arange(env.v + 1))
        for d in range(env.v):
            a, b = bounds[d], bounds[d + 1]
            if b > a:
                env.send(d, rows[a:b], tag=tag)

    def _gather_rows(self, env: RoundEnv, tag: str, width: int) -> np.ndarray:
        msgs = env.messages(tag=tag)
        if not msgs:
            return np.zeros((0, width))
        return np.vstack([m.payload for m in msgs])

    # ------------------------------------------------------------------ rounds

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        phase = ctx["phase"]
        handler = getattr(self, f"_phase_{phase}")
        return handler(ctx, env)

    # phase: setup — announce predecessors, report live counts
    def _phase_setup(self, ctx: Context, env: RoundEnv) -> bool:
        succ, lo = ctx["succ"], ctx["lo"]
        idx = np.nonzero(succ >= 0)[0]
        if idx.size:
            rows = np.column_stack((succ[idx], idx + lo)).astype(np.int64)
            self._send_grouped(env, ctx, rows, tag="pred")
        env.send(0, int(ctx["alive"].sum()), tag="count")
        ctx["phase"] = "plan"
        return False

    # phase: plan — receive predecessor notices; proc 0 decides contract/gather
    def _phase_plan(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._gather_rows(env, "pred", 2).astype(np.int64)
        if rows.size:
            ctx["pred"][rows[:, 0] - ctx["lo"]] = rows[:, 1]
        self._decide(ctx, env)
        ctx["phase"] = "coins"
        return False

    def _decide(self, ctx: Context, env: RoundEnv) -> None:
        """Processor 0 tallies live counts and broadcasts the decision."""
        if ctx["pid"] == 0:
            total = sum(int(m.payload) for m in env.messages(tag="count"))
            decision = "gather" if total <= ctx["threshold"] else "contract"
            for dest in range(env.v):
                env.send(dest, decision, tag="decision")

    # phase: coins — act on the decision; flip coins or start the gather
    def _phase_coins(self, ctx: Context, env: RoundEnv) -> bool:
        (msg,) = env.messages(tag="decision")
        if msg.payload == "gather":
            alive = np.nonzero(ctx["alive"])[0]
            lo = ctx["lo"]
            rows = np.column_stack(
                (
                    alive + lo,
                    ctx["succ"][alive],
                    ctx["w"][alive],
                )
            ).astype(np.float64)
            env.send(0, rows, tag="gathered")
            ctx["phase"] = "solve"
            return False

        alive = ctx["alive"]
        coins = np.zeros(alive.size, dtype=bool)
        live_idx = np.nonzero(alive)[0]
        coins[live_idx] = env.rng.random(live_idx.size) < 0.5
        ctx["coins"] = coins
        # tell each predecessor our coin, so it can test H(self) & T(succ)
        has_pred = live_idx[ctx["pred"][live_idx] >= 0]
        if has_pred.size:
            rows = np.column_stack(
                (ctx["pred"][has_pred], coins[has_pred].astype(np.int64))
            ).astype(np.int64)
            self._send_grouped(env, ctx, rows, tag="coin")
        ctx["phase"] = "splice"
        return False

    # phase: splice — select the independent set and send pointer updates
    def _phase_splice(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        succ_coin = np.full(ctx["succ"].size, -1, dtype=np.int64)
        rows = self._gather_rows(env, "coin", 2).astype(np.int64)
        if rows.size:
            succ_coin[rows[:, 0] - lo] = rows[:, 1]

        coins = ctx.pop("coins")
        alive, succ, pred, w = ctx["alive"], ctx["succ"], ctx["pred"], ctx["w"]
        selected = (
            alive
            & coins                      # heads
            & (succ_coin == 0)           # successor flipped tails
            & (pred >= 0)                # not the head
            & (succ >= 0)                # not the tail
        )
        sel = np.nonzero(selected)[0]
        if sel.size:
            ctx["removed"][sel] = ctx["level"]  # read back by the expansion
            # pred.succ <- succ(u); pred.w += w(u)
            pred_rows = np.column_stack((pred[sel], succ[sel], w[sel]))
            self._send_grouped(env, ctx, pred_rows, tag="fix-succ")
            # succ.pred <- pred(u)
            succ_rows = np.column_stack((succ[sel], pred[sel])).astype(np.int64)
            self._send_grouped(env, ctx, succ_rows, tag="fix-pred")
            alive[sel] = False
        ctx["phase"] = "update"
        return False

    # phase: update — apply pointer updates, report live counts
    def _phase_update(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        fix_succ = self._gather_rows(env, "fix-succ", 3)
        if fix_succ.size:
            idx = fix_succ[:, 0].astype(np.int64) - lo
            ctx["succ"][idx] = fix_succ[:, 1].astype(np.int64)
            ctx["w"][idx] += fix_succ[:, 2]
        fix_pred = self._gather_rows(env, "fix-pred", 2).astype(np.int64)
        if fix_pred.size:
            ctx["pred"][fix_pred[:, 0] - lo] = fix_pred[:, 1]
        env.send(0, int(ctx["alive"].sum()), tag="count")
        ctx["level"] += 1
        ctx["phase"] = "replan"
        return False

    # phase: replan — proc 0 broadcasts the next decision
    def _phase_replan(self, ctx: Context, env: RoundEnv) -> bool:
        self._decide(ctx, env)
        ctx["phase"] = "coins"
        return False

    # phase: solve — proc 0 ranks the contracted list, scatters ranks
    def _phase_solve(self, ctx: Context, env: RoundEnv) -> bool:
        if ctx["pid"] == 0:
            rows = self._gather_rows(env, "gathered", 3)
            if rows.size:
                ids = rows[:, 0].astype(np.int64)
                succ = rows[:, 1].astype(np.int64)
                weight = rows[:, 2]
                pos = {int(u): k for k, u in enumerate(ids)}
                # find the head: the live node nobody points to
                pointed = set(int(s) for s in succ if s >= 0)
                heads = [int(u) for u in ids if int(u) not in pointed]
                if len(heads) != 1:
                    raise SimulationError(
                        f"contracted list has {len(heads)} heads — input was "
                        "not a single linked list"
                    )
                # walk head -> tail, then suffix-sum the weights
                order = []
                u = heads[0]
                while u >= 0:
                    order.append(u)
                    u = int(succ[pos[u]])
                if len(order) != ids.size:
                    raise SimulationError("contracted list contains a cycle")
                ranks = {}
                acc = 0.0
                for u in reversed(order):
                    k = pos[u]
                    ranks[u] = acc  # suffix sum *below* u ... adjusted next
                    acc += weight[k]
                # rank(u) = sum of weights from u to tail = acc_after - w? No:
                # define rank(u) = suffix sum of weights starting at u's link
                # chain: rank(tail) = w(tail) (= 0 for unit tail weight 0).
                # We computed ranks[u] = sum of weights of nodes strictly
                # after u in the order; the weight of u's own link belongs
                # to u's rank:
                for u in order:
                    ranks[u] += weight[pos[u]]
                out_rows = np.column_stack(
                    (ids.astype(np.float64), np.array([ranks[int(u)] for u in ids]))
                )
                self._send_grouped(env, ctx, out_rows, tag="rank")
        ctx["phase"] = "ranks"
        return False

    # phase: ranks — receive base ranks; begin the expansion
    def _phase_ranks(self, ctx: Context, env: RoundEnv) -> bool:
        rows = self._gather_rows(env, "rank", 2)
        if rows.size:
            idx = rows[:, 0].astype(np.int64) - ctx["lo"]
            ctx["rank"][idx] = rows[:, 1]
        ctx["expand_level"] = ctx["level"] - 1
        return self._expand_send(ctx, env)

    def _expand_send(self, ctx: Context, env: RoundEnv) -> bool:
        """Send rank queries for nodes removed at the current level."""
        level = ctx["expand_level"]
        if level < 0:
            ctx["phase"] = "done"
            return True
        idx = np.nonzero(ctx["removed"] == level)[0]
        if idx.size:
            rows = np.column_stack((ctx["succ"][idx], idx + ctx["lo"]))
            self._send_grouped(env, ctx, rows, tag="rank-query")
        ctx["phase"] = "expand_reply"
        return False

    # phase: expand_reply — answer rank queries
    def _phase_expand_reply(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        rows = self._gather_rows(env, "rank-query", 2).astype(np.int64)
        if rows.size:
            ranks = ctx["rank"][rows[:, 0] - lo]
            if np.isnan(ranks).any():
                raise SimulationError("rank queried before it was computed")
            reply = np.column_stack((rows[:, 1].astype(np.float64), ranks))
            self._send_grouped(env, ctx, reply, tag="rank-reply")
        ctx["phase"] = "expand_apply"
        return False

    # phase: expand_apply — set ranks of this level, then recurse one level
    def _phase_expand_apply(self, ctx: Context, env: RoundEnv) -> bool:
        lo = ctx["lo"]
        rows = self._gather_rows(env, "rank-reply", 2)
        if rows.size:
            idx = rows[:, 0].astype(np.int64) - lo
            # rank(u) = rank(succ at removal) + weight at removal
            ctx["rank"][idx] = rows[:, 1] + ctx["w"][idx]
        ctx["expand_level"] -= 1
        return self._expand_send(ctx, env)

    def _phase_done(self, ctx: Context, env: RoundEnv) -> bool:
        return True

    # ------------------------------------------------------------------ output

    def finish(self, ctx: Context) -> Any:
        rank = ctx["rank"]
        if np.isnan(rank).any():
            raise SimulationError("list ranking finished with unranked nodes")
        return rank
