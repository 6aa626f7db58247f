"""A context or an inbox decodes into memory of its own.

The disk engines read a virtual processor's context and its inbox into a
fresh buffer and hand it to the decoded value (:func:`repro.util.items.
decode_owned`): the arrays are writable views of that buffer, not copies.
What must hold is what copies gave: every array a program receives is
writable and shares memory with no other, and a write into one — even
into an array kept from an earlier round and written long after — reaches
neither the stored tracks, nor a later load, nor any other virtual
processor's context or messages.  Held on Algorithm 2, Algorithm 3 in one
interpreter and on two workers, over the RAM and the mmap arena, clean and
under the CI fault plan; and, for the stored tracks, directly on one
engine's disks.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.cgm.program import CGMProgram, Context
from repro.em.runner import em_run, make_engine
from repro.faults.plan import FaultPlan

ROOT = Path(__file__).resolve().parents[2]
CI_PLAN = FaultPlan.from_json(str(ROOT / "benchmarks" / "fault_plans" / "ci_transient.json"))
V, ROUNDS = 4, 4


def _own(pid: int, r: int) -> np.ndarray:
    return np.arange(8, dtype=np.int64) + 100 * pid + r


class Scribbler(CGMProgram):
    """First scribbles over every array it was handed before (this
    interpreter's virtual processors, earlier rounds included), then
    checks what it was handed now."""

    name = "scribbler"

    def __init__(self) -> None:
        self.handed: list[np.ndarray] = []

    def setup(self, ctx, pid, shape, local_input) -> None:
        ctx["pid"] = pid
        ctx["a"] = _own(pid, 0)
        ctx["nest"] = {"b": np.full(3, pid, dtype=np.float32), "c": [np.zeros(2)]}

    def round(self, r, ctx, env) -> bool:
        for a in self.handed:
            a[...] = -7
        pid, inbox = ctx["pid"], env.messages()
        arrays = [ctx["a"], ctx["nest"]["b"], ctx["nest"]["c"][0]]
        arrays += [m.payload[1] for m in inbox]
        assert all(a.flags.writeable for a in arrays)
        assert not any(np.shares_memory(x, y) for x, y in combinations(arrays, 2))
        assert np.array_equal(ctx["a"], _own(pid, r))
        assert np.array_equal(ctx["nest"]["b"], np.full(3, pid + r))
        assert np.array_equal(ctx["nest"]["c"][0], np.zeros(2))
        if r:
            src = (pid - 1) % V
            assert [m.src for m in inbox] == [src]
            assert np.array_equal(inbox[0].payload[1], _own(src, r - 1) * 2)
        self.handed += arrays
        if r + 1 < ROUNDS:
            env.send((pid + 1) % V, ("x", ctx["a"] * 2))
        ctx["a"] += 1  # the context's own update: this one must persist
        ctx["nest"]["b"] += 1
        return r + 1 >= ROUNDS

    def finish(self, ctx: Context):
        return ctx["pid"], ctx["a"]


LANES = {
    "seq": (dict(p=1), {}),
    "par": (dict(p=2), {"workers": 0}),
    "par-workers2": (dict(p=2), {"workers": 2}),
}


@pytest.mark.no_fault_plan
@pytest.mark.parametrize("faults", [None, CI_PLAN], ids=["clean", "ci_transient"])
@pytest.mark.parametrize("arena", ["ram", "mmap"])
@pytest.mark.parametrize("lane", list(LANES))
def test_no_array_a_program_writes_reaches_another(lane, arena, faults, worker_leak_guard):
    machine, overrides = LANES[lane]
    cfg = MachineConfig(N=256, v=V, D=2, B=8, **machine)
    res = em_run(Scribbler(), [None] * V, cfg, "seq" if lane == "seq" else "par",
                 faults=faults, overrides={"arena": arena, **overrides})
    assert res.report.rounds == ROUNDS
    for pid, a in res.outputs:
        assert np.array_equal(a, _own(pid, ROUNDS))
        # an output outlives the run: it holds no context's buffer (a
        # worker's outputs arrive as views of the frame that carried them)
        assert a.flags.owndata or lane == "par-workers2"


@pytest.mark.no_fault_plan
@pytest.mark.parametrize("faults", [None, CI_PLAN], ids=["clean", "ci_transient"])
@pytest.mark.parametrize("arena", ["ram", "mmap"])
def test_a_loaded_context_owns_its_buffer(arena, faults):
    """On one engine's disks: the arrays of a loaded context are writable
    views of one fresh buffer, no two overlap, and scribbling over them
    changes neither the tracks nor the next load."""
    cfg = MachineConfig(N=256, v=V, D=2, B=8)
    eng = make_engine(cfg, "seq", faults=faults, overrides={"arena": arena})
    eng._rt = eng.runtime
    eng._start(Scribbler())
    try:
        ctx = Context(pid=1, a=np.arange(50), b=np.ones((3, 4), dtype=">u2"),
                      nest=[np.zeros(7, dtype=np.int8), {"k": np.full(2, 9.5)}])
        eng._store_context(1, ctx)
        tracks = [d.snapshot_tracks() for d in eng.arrays[0].disks]
        first = eng._load_context(1)
        arrays = [first["a"], first["b"], first["nest"][0], first["nest"][1]["k"]]
        assert all(a.flags.writeable and not a.flags.owndata for a in arrays)
        assert len({id(a.base) for a in arrays}) == 1  # one buffer, handed over
        assert not any(np.shares_memory(x, y) for x, y in combinations(arrays, 2))
        for a in arrays:
            a[...] = 3
        assert [d.snapshot_tracks() for d in eng.arrays[0].disks] == tracks
        again = eng._load_context(1)
        for key in ("a", "b"):
            assert np.array_equal(again[key], ctx[key]) and again[key].dtype == ctx[key].dtype
        assert np.array_equal(again["nest"][1]["k"], ctx["nest"][1]["k"])
        assert not np.shares_memory(again["a"], first["a"])
    finally:
        for arr in eng.arrays.values():
            arr.close()
