"""Property tests: every engine delivers the same inbox.

The satellite edge cases of the balanced-routing fixes — empty payloads,
pid-0 senders (whose chunks used to fall through ``me or 0``), duplicate
tags to one destination (slot bundling), and messages exactly filling a
staggered slot — are pinned with explicit examples, and hypothesis
explores arbitrary outbox shapes around them.  The delivered inboxes
(source, tag, h-relation charge, exact payload bytes) must agree between
the in-memory reference, Algorithm 2 (seq), and Algorithm 3 (par), with
and without Algorithm 1's balanced routing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cgm.config import MachineConfig
from repro.cgm.program import CGMProgram
from repro.em.runner import em_run

V = 4
SLOT_ITEMS = 16  # what the program advertises: one staggered slot's worth

# one send: (src, dest, payload kind, tag)
_send = st.tuples(
    st.integers(0, V - 1),
    st.integers(0, V - 1),
    st.sampled_from(["empty", "tiny", "slotfill", "oversize"]),
    st.sampled_from([None, "a", "b"]),
)
_outbox = st.lists(_send, max_size=12)


def _payload(kind: str, src: int, dest: int) -> np.ndarray:
    if kind == "empty":
        return np.array([], dtype=np.int64)
    if kind == "tiny":
        return np.array([src * V + dest], dtype=np.int64)
    if kind == "slotfill":
        # exactly the advertised slot capacity, in items
        return np.arange(SLOT_ITEMS, dtype=np.int64) + src
    return np.arange(4 * SLOT_ITEMS, dtype=np.int64) * (src + 1)  # overflow


class _Exchange(CGMProgram):
    name = "exchange-property"

    def __init__(self, sends):
        self.sends = sends

    def max_message_items(self, shape):
        return SLOT_ITEMS

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid

    def round(self, r, ctx, env):
        if r == 0:
            for src, dest, kind, tag in self.sends:
                if src == ctx["pid"]:
                    env.send(dest, _payload(kind, src, dest), tag=tag)
            return False
        ctx["inbox"] = sorted(
            (m.src, m.tag or "", m.size_items, m.payload.tobytes())
            for m in env.messages()
        )
        return True

    def finish(self, ctx):
        return ctx["inbox"]


def _deliver(sends, kind: str, balanced: bool):
    cfg = MachineConfig(N=1 << 12, v=V, p=2 if kind == "par" else 1, D=2, B=32)
    res = em_run(_Exchange(sends), [None] * V, cfg, kind, balanced=balanced)
    return res.outputs


@settings(max_examples=40, deadline=None)
@given(sends=_outbox)
@example(sends=[(0, 1, "empty", None)])                       # pid-0 sender
@example(sends=[(0, 0, "tiny", "a"), (0, 0, "tiny", "a")])    # self + dup tags
@example(sends=[(1, 2, "slotfill", None)])                    # exact slot fill
@example(sends=[(0, 3, "oversize", "a"), (2, 3, "empty", "a")])
@example(
    sends=[(s, d, "tiny", "a") for s in range(V) for d in range(V)]
)  # all-to-all
def test_direct_routing_delivery_agrees(sends):
    ref = _deliver(sends, "memory", balanced=False)
    assert _deliver(sends, "seq", balanced=False) == ref
    assert _deliver(sends, "par", balanced=False) == ref


@settings(max_examples=40, deadline=None)
@given(sends=_outbox)
@example(sends=[(0, 1, "empty", None)])
@example(sends=[(0, 0, "tiny", "a"), (0, 0, "tiny", "a")])
@example(sends=[(1, 2, "slotfill", None)])
@example(sends=[(0, 3, "oversize", "a"), (2, 3, "empty", "a")])
@example(
    sends=[(0, d, "tiny", t) for d in range(V) for t in ("a", "b")]
)  # chunk traffic regrouped *at* processor 0
def test_balanced_routing_delivery_agrees(sends):
    """Balanced mode must deliver the same messages — same sources, tags,
    payload bytes, and (preserved, not recomputed) size_items charges."""
    ref = _deliver(sends, "memory", balanced=False)
    assert _deliver(sends, "memory", balanced=True) == ref
    assert _deliver(sends, "seq", balanced=True) == ref
    assert _deliver(sends, "par", balanced=True) == ref
