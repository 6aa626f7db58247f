"""Distributed batched range-minimum queries (the LCA workhorse).

The value array is distributed over the processors in contiguous slabs;
each processor also receives an arbitrary share of the queries.  Constant
number of rounds:

1. every processor broadcasts its slab minimum (an all-gather of v
   entries — v^2 data in total, fine since N >= v^2), and routes each
   query: a query contained in one slab goes to that slab's owner; a
   straddling query sends a *left part* to the owner of its left end and
   a *right part* to the owner of its right end;
2. slab owners answer their (partial) queries directly from local data;
3. the query's home processor combines left part, right part and the
   slab-minimum table for the fully covered slabs in between.

Each array position may carry an int64 payload (for LCA: the vertex
visited at that tour position); the answer returns the payload at the
argmin.  Ties break toward the smaller position.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import SimulationError

_INF = np.iinfo(np.int64).max


class RangeMin(CGMProgram):
    """Batched RMQ over a distributed int64 array with payloads.

    Input per processor: ``(values_slice, payload_slice, queries)`` where
    queries is an (k, 3) array of ``(qid, l, r)`` with 0 <= l <= r < N.
    Output per processor: an (k, 3) array ``(qid, min_value, payload)``
    for the queries it submitted.
    """

    name = "range-min"

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        values, payload, queries = local_input
        values = np.asarray(values, dtype=np.int64)
        payload = (
            np.asarray(payload, dtype=np.int64)
            if payload is not None
            else np.zeros_like(values)
        )
        queries = np.asarray(queries, dtype=np.int64).reshape(-1, 3)
        lo, hi = slice_bounds(shape.N, shape.v, pid)
        if values.size != hi - lo:
            raise SimulationError(f"slab size mismatch on processor {pid}")
        ctx["pid"] = pid
        ctx["lo"] = lo
        ctx["n"] = shape.N
        ctx["values"] = values
        ctx["payload"] = payload
        ctx["queries"] = queries
        ctx["partial"] = {}   # qid -> {"left": (val, pay), "right": ...}
        ctx["answers"] = {}

    # ---------------------------------------------------------------- helpers

    def _local_min(self, ctx: Context, l: int, r: int) -> tuple[int, int]:
        """Min (value, payload) over global [l, r] clipped to this slab."""
        lo = ctx["lo"]
        vals = ctx["values"]
        a = max(0, l - lo)
        b = min(vals.size - 1, r - lo)
        if a > b:
            return _INF, 0
        seg = vals[a : b + 1]
        k = int(np.argmin(seg))
        return int(seg[k]), int(ctx["payload"][a + k])

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        pid, v, n = ctx["pid"], env.v, ctx["n"]

        if r == 0:
            # broadcast slab minimum; route queries
            vals = ctx["values"]
            if vals.size:
                k = int(np.argmin(vals))
                entry = np.array([pid, int(vals[k]), int(ctx["payload"][k])], dtype=np.int64)
            else:
                entry = np.array([pid, _INF, 0], dtype=np.int64)
            for dest in range(v):
                env.send(dest, entry, tag="slabmin")

            buckets: dict[tuple[int, str], list[list[int]]] = {}
            for qid, l, rr in ctx["queries"]:
                if not (0 <= l <= rr < n):
                    raise SimulationError(f"query {qid} out of range: [{l}, {rr}]")
                o_l = int(owner_of_index(int(l), n, v))
                o_r = int(owner_of_index(int(rr), n, v))
                if o_l == o_r:
                    buckets.setdefault((o_l, "in"), []).append([qid, l, rr, pid])
                else:
                    buckets.setdefault((o_l, "left"), []).append([qid, l, rr, pid])
                    buckets.setdefault((o_r, "right"), []).append([qid, l, rr, pid])
            for (dest, kind), rows in sorted(buckets.items()):
                env.send(dest, np.asarray(rows, dtype=np.int64), tag=kind)
            return False

        if r == 1:
            # build the slab-minimum table; answer partial queries
            table_val = np.full(v, _INF, dtype=np.int64)
            table_pay = np.zeros(v, dtype=np.int64)
            for m in env.messages(tag="slabmin"):
                s, val, pay = m.payload
                table_val[int(s)] = val
                table_pay[int(s)] = pay
            ctx["table_val"] = table_val
            ctx["table_pay"] = table_pay

            replies: dict[int, list[list[int]]] = {}
            lo = ctx["lo"]
            hi = lo + ctx["values"].size - 1
            for kind, clip in (
                ("in", lambda l, rr: (l, rr)),
                ("left", lambda l, rr: (l, hi)),
                ("right", lambda l, rr: (lo, rr)),
            ):
                for m in env.messages(tag=kind):
                    for qid, l, rr, home in m.payload:
                        a, b = clip(int(l), int(rr))
                        val, pay = self._local_min(ctx, a, b)
                        code = {"in": 0, "left": 1, "right": 2}[kind]
                        replies.setdefault(int(home), []).append([qid, code, val, pay])
            for home, rows in sorted(replies.items()):
                env.send(home, np.asarray(rows, dtype=np.int64), tag="part")
            return False

        # r == 2: combine
        parts: dict[int, dict[int, tuple[int, int]]] = {}
        for m in env.messages(tag="part"):
            for qid, code, val, pay in m.payload:
                parts.setdefault(int(qid), {})[int(code)] = (int(val), int(pay))
        table_val, table_pay = ctx["table_val"], ctx["table_pay"]
        answers = ctx["answers"]
        for qid, l, rr in ctx["queries"]:
            got = parts.get(int(qid), {})
            if 0 in got:
                answers[int(qid)] = got[0]
                continue
            best = got.get(1, (_INF, 0))
            right = got.get(2, (_INF, 0))
            if right[0] < best[0]:
                best = right
            o_l = int(owner_of_index(int(l), n, env.v))
            o_r = int(owner_of_index(int(rr), n, env.v))
            for s in range(o_l + 1, o_r):
                if table_val[s] < best[0]:
                    best = (int(table_val[s]), int(table_pay[s]))
            answers[int(qid)] = best
        return True

    def finish(self, ctx: Context) -> Any:
        out = [
            (int(qid), *ctx["answers"][int(qid)]) for qid, _l, _r in ctx["queries"]
        ]
        return np.asarray(out, dtype=np.int64).reshape(-1, 3)
