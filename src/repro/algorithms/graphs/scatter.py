"""Scatter-reduce: the one-round 'route and fold' CGM primitive.

Many Group C steps are of the form "for every key, combine contributions
arriving from all over the machine" — per-vertex minima of incident edge
attributes, degree counts, etc.  This program routes ``(key, value)``
rows to the key's owner and folds them with min / max / sum; owners
output the reduced array for their key slice (identity value where no
contribution arrived).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import ConfigurationError

_OPS = {
    "min": (np.minimum, np.iinfo(np.int64).max),
    "max": (np.maximum, np.iinfo(np.int64).min),
    "sum": (np.add, 0),
}


class ScatterReduce(CGMProgram):
    """Reduce (key, value) int64 pairs by key owner. lambda = 1.

    Input per processor: an (k, 2) array of ``(key, value)``; keys live in
    [0, shape.N).  Output per processor: the reduced int64 array for its
    key slice.
    """

    name = "scatter-reduce"

    def __init__(self, op: str = "min") -> None:
        if op not in _OPS:
            raise ConfigurationError(f"op must be one of {sorted(_OPS)}, got {op!r}")
        self.op = op

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        rows = np.asarray(local_input, dtype=np.int64).reshape(-1, 2)
        ctx["pid"] = pid
        ctx["rows"] = rows
        lo, hi = slice_bounds(shape.N, shape.v, pid)
        ctx["lo"] = lo
        _fn, identity = _OPS[self.op]
        ctx["out"] = np.full(hi - lo, identity, dtype=np.int64)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            rows = ctx.pop("rows")
            if rows.size:
                owners = np.asarray(
                    owner_of_index(rows[:, 0], env.shape.N, env.v), dtype=np.int64
                )
                order = np.argsort(owners, kind="stable")
                rows, owners = rows[order], owners[order]
                bounds = np.searchsorted(owners, np.arange(env.v + 1))
                for d in range(env.v):
                    a, b = bounds[d], bounds[d + 1]
                    if b > a:
                        env.send(d, rows[a:b], tag="sr")
            return False
        fn, _identity = _OPS[self.op]
        out, lo = ctx["out"], ctx["lo"]
        for m in env.messages(tag="sr"):
            rows = m.payload
            fn.at(out, rows[:, 0] - lo, rows[:, 1])
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["out"]
