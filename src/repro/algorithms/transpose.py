"""CGMTranspose — one-round CGM matrix transpose.

Transposing a k x ell row-major matrix costs
Theta((N/DB) log_{M/B} min(M,k,ell,N/B)) I/Os in the general PDM; the
simulated CGM algorithm (Figure 5 Group A row 3) does O(N/(pDB)).

Distribution: the k x ell input is split into v contiguous row bands
(array_split over rows); the ell x k output likewise.  Round 0 routes each
local element, *as whole contiguous sub-tiles per destination*, to the
owner of its transposed row; round 1 assembles the local output band.
Like CGMPermute this is a special case of permutation but with the
destination arithmetic computed, not shipped: only (value, flat-output-
offset) pairs cross the network.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.collectives import bucket_by_dest, slice_bounds
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape


class CGMTranspose(CGMProgram):
    """One-round CGM transpose of a k x ell matrix.

    Input per processor: its row band (2-D array) and the band's first
    global row index, as ``(band, row0, k, ell)``.
    """

    name = "cgm-transpose"

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        band, row0, k, ell = local_input
        ctx["pid"] = pid
        ctx["band"] = np.asarray(band)
        ctx["row0"] = int(row0)
        ctx["k"] = int(k)
        ctx["ell"] = int(ell)

    def max_message_items(self, shape: Shape) -> int:
        return 4 * max(1, -(-shape.N // shape.v))

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        pid, v = ctx["pid"], env.v
        k, ell = ctx["k"], ctx["ell"]
        if r == 0:
            band, row0 = ctx["band"], ctx["row0"]
            if band.size:
                rows_local, cols = band.shape
                # element (r0+r, c) -> output position (c, r0+r): flat
                # output index c*k + (r0 + r); owner = owner of output row c.
                rr, cc = np.meshgrid(
                    np.arange(rows_local, dtype=np.int64),
                    np.arange(cols, dtype=np.int64),
                    indexing="ij",
                )
                flat_out = cc.ravel() * k + (row0 + rr.ravel())
                # owner is determined by output *row* c under array_split
                # of the ell output rows:
                owners = owner_of_row(cc.ravel(), ell, v)
                pairs = np.column_stack((flat_out, band.ravel()))
                for dest, rows in bucket_by_dest(owners, pairs, v).items():
                    env.send(dest, rows, tag="tile")
            del ctx["band"]
            return False

        lo_row, hi_row = slice_bounds(ell, v, pid)
        out = np.zeros((hi_row - lo_row) * k, dtype=np.int64)
        base = lo_row * k
        for m in env.messages(tag="tile"):
            rows = m.payload
            if rows.size:
                out[rows[:, 0] - base] = rows[:, 1]
        ctx["out"] = out.reshape(hi_row - lo_row, k) if k else out.reshape(0, 0)
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["out"]


def owner_of_row(row: np.ndarray, n_rows: int, v: int) -> np.ndarray:
    """Owner processor of each output row under the array_split layout."""
    base, extra = divmod(n_rows, v)
    row = np.asarray(row, dtype=np.int64)
    cut = extra * (base + 1)
    if base == 0:
        return np.minimum(row, v - 1)
    return np.where(row < cut, row // (base + 1), extra + (row - cut) // base)
