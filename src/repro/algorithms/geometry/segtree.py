"""Segment tree construction and batched stabbing queries (Figure 5
Group B row 1: segment tree construction).

:class:`SegmentTree` is a real sequential segment tree (canonical-node
interval storage over the elementary intervals of the endpoint set) —
the optimal local structure the CGM algorithm builds per slab.  The CGM
program routes every interval to the slabs it crosses (clipped) and
every stabbing query to its slab; each slab builds its local tree once
and answers its queries in O(log k + output).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.geometry.slabs import (
    SlabProgram,
    interval_slabs,
    slab_of,
)
from repro.cgm.program import Context, RoundEnv


class SegmentTree:
    """Static segment tree over intervals; stab queries report ids."""

    def __init__(self, intervals: np.ndarray) -> None:
        """*intervals*: rows (lo, hi, id)."""
        intervals = np.asarray(intervals, dtype=np.float64).reshape(-1, 3)
        self.xs = np.unique(np.concatenate([intervals[:, 0], intervals[:, 1]])) if intervals.size else np.zeros(0)
        n_elem = max(1, self.xs.size - 1)
        self.size = 1
        while self.size < n_elem:
            self.size *= 2
        self.nodes: list[list[int]] = [[] for _ in range(2 * self.size)]
        for lo, hi, iid in intervals:
            a = int(np.searchsorted(self.xs, lo))
            b = int(np.searchsorted(self.xs, hi))  # elementary ints [a, b)
            if b <= a:
                b = a + 1
            self._insert(1, 0, self.size, a, min(b, self.size), int(iid))

    def _insert(self, node: int, nlo: int, nhi: int, a: int, b: int, iid: int) -> None:
        if b <= nlo or nhi <= a:
            return
        if a <= nlo and nhi <= b:
            self.nodes[node].append(iid)
            return
        mid = (nlo + nhi) // 2
        self._insert(2 * node, nlo, mid, a, b, iid)
        self._insert(2 * node + 1, mid, nhi, a, b, iid)

    def stab(self, x: float) -> list[int]:
        """Ids of intervals containing x (inclusive ends)."""
        if self.xs.size == 0 or x < self.xs[0] or x > self.xs[-1]:
            return []
        e = int(np.searchsorted(self.xs, x, side="right")) - 1
        e = min(max(e, 0), max(self.xs.size - 2, 0))
        out: list[int] = []
        node = self.size + e
        while node >= 1:
            out.extend(self.nodes[node])
            node //= 2
        return sorted(set(out))

    @property
    def depth(self) -> int:
        import math

        return int(math.log2(self.size)) + 1 if self.size > 1 else 1


class StabbingQueries(SlabProgram):
    """Distributed segment tree + batched stabbing.

    Input per processor: ``(intervals, queries)`` — interval rows
    (lo, hi, id) and query rows (x, qid).  Output per slab: a list of
    ``(qid, ids-array)`` pairs.
    """

    name = "stabbing-queries"

    def setup(self, ctx: Context, pid, shape, local_input) -> None:
        intervals, queries = local_input
        super().setup(
            ctx, pid, shape, np.asarray(intervals, dtype=np.float64).reshape(-1, 3)
        )
        ctx["queries"] = np.asarray(queries, dtype=np.float64).reshape(-1, 2)

    def sample_keys(self, ctx: Context) -> np.ndarray:
        rows = ctx["rows"]
        if not rows.size:
            return np.zeros(0)
        return np.concatenate([rows[:, 0], rows[:, 1]])

    def route_mask(self, rows, splitters, dest, v):
        return interval_slabs(rows[:, 0], rows[:, 1], splitters, dest)

    def route_extra(self, ctx: Context, env: RoundEnv, splitters: np.ndarray) -> None:
        queries = ctx.pop("queries")
        if queries.size:
            slabs = slab_of(queries[:, 0], splitters)
            for dest in range(env.v):
                sel = slabs == dest
                if sel.any():
                    env.send(dest, queries[sel], tag="query")

    def phase_local(self, ctx: Context, env: RoundEnv) -> bool:
        intervals = self.gather_slab(env)
        msgs = env.messages(tag="query")
        queries = np.vstack([m.payload for m in msgs]) if msgs else np.zeros((0, 2))
        tree = SegmentTree(intervals if intervals.size else np.zeros((0, 3)))
        answers = []
        for x, qid in queries:
            answers.append((int(qid), np.asarray(tree.stab(float(x)), dtype=np.int64)))
        ctx["answers"] = answers
        ctx["tree_depth"] = tree.depth
        return True

    def finish(self, ctx: Context):
        return ctx["answers"]


def stabbing_reference(intervals: np.ndarray, xs: np.ndarray) -> list[list[int]]:
    """Brute-force stabbing for tests."""
    out = []
    for x in xs:
        ids = [
            int(iid)
            for lo, hi, iid in intervals
            if lo <= x <= hi
        ]
        out.append(sorted(ids))
    return out
