"""Property tests for Algorithm 1 (BalancedRouting).

Two guarantees are fuzzed with hypothesis:

* **Theorem 1** — for an arbitrary h-relation, every message of both
  balanced rounds has size within ``[h/v - (v-1)/2, h/v + (v-1)/2]``
  (with ``h`` the sender's/receiver's actual word total, which is at
  most the h-relation bound).
* **Round-trip** — split → route → regroup → route → reassemble
  reconstructs every original payload bit-exactly, for arbitrary byte
  strings and numpy payloads, including empty and non-word-aligned ones.

The deterministic hypothesis profile registered in ``tests/conftest.py``
keeps the explored examples identical across runs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cgm.message import Message
from repro.core.balanced import (
    balanced_message_bounds,
    phase_a_bin_sizes,
    reassemble,
    regroup_phase_b,
    split_phase_a,
)

# -- strategies ------------------------------------------------------------

vs = st.integers(min_value=1, max_value=9)


@st.composite
def length_matrices(draw):
    """(v, L) with L[i, j] = word length of msg_ij, an arbitrary pattern."""
    v = draw(vs)
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=v * v,
            max_size=v * v,
        )
    )
    return v, np.array(flat, dtype=np.int64).reshape(v, v)


def round_b_message_sizes(L: np.ndarray) -> np.ndarray:
    """S[b, k] = words the intermediate b forwards to final destination k.

    Message ``msg_ik`` deals word ``l`` to bin ``(i + k + l) mod v``, so
    bin b receives ``floor(L/v)`` words plus one extra when
    ``(b - i - k) mod v < L mod v`` — summed over sources i.
    """
    v = L.shape[0]
    S = np.zeros((v, v), dtype=np.int64)
    for b in range(v):
        for k in range(v):
            for i in range(v):
                q, rem = divmod(int(L[i, k]), v)
                S[b, k] += q + ((b - i - k) % v < rem)
    return S


# -- Theorem 1 -------------------------------------------------------------


@given(length_matrices())
def test_theorem1_round_a_message_bounds(case):
    """Every Superstep-A message (one bin at one source) is within
    h_i/v ± (v-1)/2, where h_i is what source i actually sends."""
    v, L = case
    for i in range(v):
        h_i = int(L[i].sum())
        lo, hi = balanced_message_bounds(h_i, v)
        sizes = phase_a_bin_sizes(L[i], src=i)
        assert int(sizes.sum()) == h_i  # dealing loses nothing
        assert sizes.min() >= lo - 1e-9, (v, i, sizes, lo)
        assert sizes.max() <= hi + 1e-9, (v, i, sizes, hi)


@given(length_matrices())
def test_theorem1_round_b_message_bounds(case):
    """Every Superstep-B message (one intermediate to one destination) is
    within h_k/v ± (v-1)/2, where h_k is what destination k receives."""
    v, L = case
    S = round_b_message_sizes(L)
    for k in range(v):
        h_k = int(L[:, k].sum())
        lo, hi = balanced_message_bounds(h_k, v)
        assert int(S[:, k].sum()) == h_k
        assert S[:, k].min() >= lo - 1e-9, (v, k, S[:, k], lo)
        assert S[:, k].max() <= hi + 1e-9, (v, k, S[:, k], hi)


def test_theorem1_bound_is_tight():
    """An adversarial remainder pattern attains exactly h/v + (v-1)/2,
    so the envelope cannot be narrowed (matches the paper's analysis)."""
    v = 5
    # message to dest j sized so that bin 0 catches every extra word:
    # rem_j chosen as (v - j) mod v puts bin 0 first in each deal order.
    lengths = np.array([(v - j) % v for j in range(v)], dtype=np.int64)
    sizes = phase_a_bin_sizes(lengths, src=0)
    h = int(lengths.sum())
    _, hi = balanced_message_bounds(h, v)
    assert sizes.max() == hi


# -- round-trip ------------------------------------------------------------

payloads = st.one_of(
    st.binary(min_size=0, max_size=300),
    st.binary(min_size=0, max_size=300).map(
        lambda b: np.frombuffer(b[: len(b) - len(b) % 8], dtype=np.uint64)
    ),
    st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=40),
)


@st.composite
def exchanges(draw):
    """A full communication round: per-source outboxes with random payloads."""
    v = draw(st.integers(min_value=1, max_value=5))
    outboxes = []
    for i in range(v):
        n = draw(st.integers(min_value=0, max_value=4))
        msgs = [
            Message(
                src=i,
                dest=draw(st.integers(min_value=0, max_value=v - 1)),
                payload=draw(payloads),
                tag=draw(st.none() | st.just("app")),
            )
            for _ in range(n)
        ]
        outboxes.append(msgs)
    return v, outboxes


def _route(messages: list[Message], v: int) -> list[list[Message]]:
    inboxes: list[list[Message]] = [[] for _ in range(v)]
    for m in messages:
        inboxes[m.dest].append(m)
    return inboxes


def _canon(payload):
    if isinstance(payload, np.ndarray):
        return ("nd", payload.dtype.str, payload.tobytes())
    if isinstance(payload, list):
        return ("py", "list", tuple(payload))
    return ("py", type(payload).__name__, payload)


@given(exchanges())
def test_balanced_roundtrip_bit_exact(case):
    v, outboxes = case
    # phase A at every source, deliver to intermediates
    phase_a = [m for out in outboxes for m in split_phase_a(out, v)]
    mid_in = _route(phase_a, v)
    # phase B at every intermediate, deliver to final destinations
    phase_b = [m for b in range(v) for m in regroup_phase_b(mid_in[b], b)]
    final_in = _route(phase_b, v)
    # reassemble and compare against what was originally sent
    for k in range(v):
        got = reassemble(final_in[k])
        want = [m for out in outboxes for m in out if m.dest == k]
        got_keyed = {(m.src, _canon(m.payload), m.tag) for m in got}
        want_keyed = {(m.src, _canon(m.payload), m.tag) for m in want}
        assert got_keyed == want_keyed


@given(exchanges())
def test_balanced_preserves_total_words(case):
    """Neither balanced round drops or duplicates words: per destination,
    the reassembled message count equals the sent message count."""
    v, outboxes = case
    phase_a = [m for out in outboxes for m in split_phase_a(out, v)]
    mid_in = _route(phase_a, v)
    phase_b = [m for b in range(v) for m in regroup_phase_b(mid_in[b], b)]
    final_in = _route(phase_b, v)
    got = sum(len(reassemble(final_in[k])) for k in range(v))
    want = sum(len(out) for out in outboxes)
    assert got == want
