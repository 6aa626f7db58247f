"""CGM sorting by deterministic regular sampling (Goodrich-style).

The paper obtains its O(N/(pDB)) sorting result (Theorem 4 / Figure 5
Group A row 1) by simulating a deterministic O(1)-round CGM sort [31].
We implement the classic deterministic *sample sort by regular sampling*:

  round 0   sort locally; pick v regular samples; send them to processor 0
  round 1   processor 0 sorts the v^2 samples, selects v-1 global
            splitters, and broadcasts them
  round 2   partition local data by the splitters; all-to-all so bucket j
            lands on processor j
  round 3   merge the received runs locally — done

lambda = O(1) = 4 communication rounds.  Regular sampling guarantees no
processor receives more than 2N/v items, so the h-relation bound holds.
The sample gather requires v^2 <= N/v, i.e. **N >= v^3 (kappa = 3)** —
within the paper's "kappa <= 3 for all problems examined".

Output convention: processor j ends with global sorted run j (ascending
across processors, sizes in [0, 2N/v]).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape


class SampleSort(CGMProgram):
    """Deterministic CGM sample sort.

    Input: one numpy array per processor.  1-D arrays are sorted by value;
    2-D arrays are sorted *as rows* by the ``key_column`` (stable), which
    is how the geometry and graph algorithms sort records (points, edges)
    by a coordinate.
    """

    name = "sample-sort"

    def __init__(self, key_column: int = 0) -> None:
        self.key_column = key_column

    def _keys(self, data: np.ndarray) -> np.ndarray:
        return data if data.ndim == 1 else data[:, self.key_column]

    def _sorted(self, data: np.ndarray) -> np.ndarray:
        """A copy of *data* in stable key order.  Equal integers (and bools)
        are indistinguishable, so sorting the 1-D values directly yields the
        bytes the stable permutation would; rows, floats (-0.0/NaN order)
        and structured dtypes keep the permutation."""
        if data.ndim == 1 and data.dtype.kind in "biu":
            return np.sort(data)
        return data[np.argsort(self._keys(data), kind="stable")]

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        data = np.asarray(local_input)
        ctx["pid"] = pid
        ctx["data"] = data

    def max_message_items(self, shape: Shape) -> int:
        # bucket i->j holds at most ~2N/v^2 items after regular sampling,
        # plus the v^2-sample gather at processor 0.
        per_bucket = 4 * max(1, -(-shape.N // (shape.v * shape.v)))
        samples = shape.v * shape.v
        return max(per_bucket, samples, 64)

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        pid, v = ctx["pid"], env.v
        if r == 0:
            data = ctx["data"] = self._sorted(ctx["data"])
            n = data.shape[0]
            if n:
                # v regular samples: elements at ranks floor(k*n/v), k=0..v-1
                idx = (np.arange(v, dtype=np.int64) * n) // v
                samples = self._keys(data)[idx]
            else:
                samples = self._keys(data)[:0]
            env.send(0, samples, tag="samples")
            return False

        if r == 1:
            if pid == 0:
                gathered = np.concatenate(
                    [m.payload for m in env.messages(tag="samples")]
                )
                gathered.sort(kind="stable")
                m = gathered.size
                if m >= v and v > 1:
                    idx = (np.arange(1, v, dtype=np.int64) * m) // v
                    splitters = gathered[idx]
                else:
                    splitters = gathered[:0]
                for dest in range(v):
                    env.send(dest, splitters, tag="splitters")
            return False

        if r == 2:
            (msg,) = env.messages(tag="splitters")
            splitters = msg.payload
            data = ctx["data"]
            keys = self._keys(data)
            # data is key-sorted: bucket boundaries by binary search
            bounds = np.searchsorted(keys, splitters, side="right")
            bounds = np.concatenate(([0], bounds, [keys.size]))
            for dest in range(v):
                lo, hi = bounds[dest], bounds[dest + 1]
                if hi > lo or dest == pid:
                    env.send(dest, data[lo:hi], tag="bucket")
            ctx["data"] = data[:0]  # handed off
            return False

        runs = [m.payload for m in env.messages(tag="bucket")]
        if runs:
            merged = self._sorted(np.concatenate(runs))
        else:
            merged = ctx["data"][:0]
        ctx["sorted"] = merged
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["sorted"]
