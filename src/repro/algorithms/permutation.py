"""Algorithm 4 — CGMPermute.

Permuting N items costs Theta(N) RAM time but
Theta(min(N/D, (N/DB) log_{M/B}(N/B))) I/Os in the general PDM; in the
coarse grained regime the simulated CGM algorithm does it in O(N/(pDB))
I/Os (Figure 5 Group A row 2).  The CGM algorithm itself is one h-relation:

  round 0   each processor sends (destination-index, value) pairs to the
            processor owning each destination index
  round 1   each processor places arrivals in its local output slice — done

Input per processor i: the pair of arrays (V_i, P_i) — values and their
*global* destination indices.  Output: processor i's slice of the permuted
vector (array_split layout).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import bucket_by_dest, owner_of_index, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape


class CGMPermute(CGMProgram):
    """One-round CGM permutation (Algorithm 4 of the paper)."""

    name = "cgm-permute"

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        values, dest_idx = local_input
        ctx["pid"] = pid
        ctx["values"] = np.asarray(values)
        ctx["dest_idx"] = np.asarray(dest_idx, dtype=np.int64)
        ctx["N"] = shape.N

    def max_message_items(self, shape: Shape) -> int:
        # worst case: an adversarial permutation sends a processor's whole
        # slice to one destination — 2N/v items as (index, value) pairs.
        return 4 * max(1, -(-shape.N // shape.v))

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        pid, v, N = ctx["pid"], env.v, ctx["N"]
        if r == 0:
            values, dest_idx = ctx["values"], ctx["dest_idx"]
            owners = owner_of_index(dest_idx, N, v)
            pairs = np.column_stack((dest_idx, values.astype(np.int64)))
            for dest, rows in bucket_by_dest(np.asarray(owners), pairs, v).items():
                env.send(dest, rows, tag="perm")
            del ctx["values"], ctx["dest_idx"]
            return False

        lo, hi = slice_bounds(N, v, pid)
        out = np.zeros(hi - lo, dtype=np.int64)
        for m in env.messages(tag="perm"):
            rows = m.payload
            if rows.size:
                out[rows[:, 0].astype(np.int64) - lo] = rows[:, 1]
        ctx["out"] = out
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["out"]
