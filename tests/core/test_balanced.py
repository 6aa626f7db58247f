"""Tests for Algorithm 1 (BalancedRouting) — Theorem 1's bounds, Lemma 1/2
arithmetic, and exact end-to-end chunk round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.message import Message
from repro.core.balanced import (
    CHUNK_TAG,
    balanced_message_bounds,
    lemma1_min_problem_size,
    lemma2_feasible,
    phase_a_bin_sizes,
    reassemble,
    regroup_phase_b,
    split_phase_a,
)


def route_end_to_end(outboxes: dict[int, list[Message]], v: int):
    """Drive both supersteps by hand, returning inboxes and phase sizes."""
    phase_a_inbox: dict[int, list[Message]] = {b: [] for b in range(v)}
    for src, msgs in outboxes.items():
        for m in split_phase_a(msgs, v):
            phase_a_inbox[m.dest].append(m)
    phase_a_sizes = [
        m.size_items for msgs in outboxes.values() for m in split_phase_a(msgs, v)
    ]
    final_inbox: dict[int, list[Message]] = {k: [] for k in range(v)}
    phase_b_sizes = []
    for b in range(v):
        for fm in regroup_phase_b(phase_a_inbox[b], b):
            phase_b_sizes.append(fm.size_items)
            final_inbox[fm.dest].append(fm)
    delivered = {k: reassemble(final_inbox[k]) for k in range(v)}
    return delivered, phase_a_sizes, phase_b_sizes


class TestEndToEndDelivery:
    def test_all_payloads_arrive_intact(self):
        v = 5
        rng = np.random.default_rng(7)
        outboxes = {}
        expected: dict[int, dict[int, np.ndarray]] = {k: {} for k in range(v)}
        for i in range(v):
            msgs = []
            for j in range(v):
                payload = rng.integers(0, 1 << 50, rng.integers(1, 200))
                msgs.append(Message(i, j, payload, tag="app"))
                expected[j][i] = payload
            outboxes[i] = msgs
        delivered, _, _ = route_end_to_end(outboxes, v)
        for k in range(v):
            got = {m.src: m.payload for m in delivered[k]}
            assert set(got) == set(expected[k])
            for i, payload in expected[k].items():
                assert np.array_equal(got[i], payload)
                assert delivered[k][0].tag == "app"

    def test_object_payloads_survive(self):
        v = 3
        outboxes = {
            0: [Message(0, 2, {"list": [1, 2, 3], "s": "hello"})],
            1: [Message(1, 2, ("tuple", None, 4.5))],
            2: [],
        }
        delivered, _, _ = route_end_to_end(outboxes, v)
        got = {m.src: m.payload for m in delivered[2]}
        assert got[0] == {"list": [1, 2, 3], "s": "hello"}
        assert got[1] == ("tuple", None, 4.5)

    def test_multiple_messages_same_pair_preserved(self):
        v = 3
        outboxes = {
            0: [Message(0, 1, np.arange(10)), Message(0, 1, np.arange(20, 30))],
            1: [],
            2: [],
        }
        delivered, _, _ = route_end_to_end(outboxes, v)
        payloads = sorted((m.payload.tolist() for m in delivered[1]))
        assert payloads == [list(range(10)), list(range(20, 30))]

    def test_empty_round_trivial(self):
        delivered, a, b = route_end_to_end({0: [], 1: []}, 2)
        assert all(not msgs for msgs in delivered.values())
        assert a == [] and b == []

    def test_v_equals_one(self):
        delivered, _, _ = route_end_to_end({0: [Message(0, 0, np.arange(5))]}, 1)
        assert np.array_equal(delivered[0][0].payload, np.arange(5))

    def test_passthrough_of_unbalanced_messages(self):
        direct = Message(0, 1, "direct", tag="x")
        out = reassemble([direct])
        assert out == [direct]

    def test_regroup_rejects_non_chunk(self):
        with pytest.raises(ValueError):
            regroup_phase_b([Message(0, 1, "not a chunk", tag="app")], 1)


class TestTheorem1Bounds:
    @settings(max_examples=60, deadline=None)
    @given(
        v=st.integers(2, 12),
        seed=st.integers(0, 10_000),
    )
    def test_phase_sizes_within_theorem1(self, v: int, seed: int):
        """Each processor sends exactly h items split arbitrarily; both
        phases' message sizes must lie in [h/v - (v-1)/2, h/v + (v-1)/2]."""
        rng = np.random.default_rng(seed)
        h = v * int(rng.integers(v, 8 * v))  # divisible by v for exactness
        outboxes = {}
        for i in range(v):
            # adversarial split of h words into v messages
            cuts = np.sort(rng.integers(0, h + 1, v - 1))
            lengths = np.diff(np.concatenate(([0], cuts, [h])))
            msgs = []
            for j, ln in enumerate(lengths):
                payload = np.zeros(int(ln), dtype=np.uint64)
                m = Message(i, j, payload)
                # measure at the word level exactly like the theorem:
                m.size_items = int(ln)
                msgs.append(m)
            outboxes[i] = msgs

        # use the pure arithmetic (exact, no serialization envelope)
        lo, hi = balanced_message_bounds(h, v)
        for i in range(v):
            lengths = np.zeros(v, dtype=np.int64)
            for m in outboxes[i]:
                lengths[m.dest] += m.size_items
            sizes = phase_a_bin_sizes(lengths, i)
            assert sizes.sum() == h
            assert sizes.max() <= hi + 1e-9
            assert sizes.min() >= lo - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(v=st.integers(2, 10), seed=st.integers(0, 999))
    def test_phase_b_superbin_sizes(self, v: int, seed: int):
        """Phase-B message (superbin) sizes obey the same Theorem 1 bound
        when every processor receives at most h."""
        rng = np.random.default_rng(seed)
        h = v * int(rng.integers(v, 6 * v))
        # every destination receives exactly h in total, split arbitrarily
        # across sources: columns sum to h
        matrix = np.zeros((v, v), dtype=np.int64)
        for j in range(v):
            cuts = np.sort(rng.integers(0, h + 1, v - 1))
            matrix[:, j] = np.diff(np.concatenate(([0], cuts, [h])))
        # superbin b for destination k collects, from every source i, the
        # words of msg_{i,k} dealt to bin b: counts via phase_a arithmetic
        lo, hi = balanced_message_bounds(h, v)
        for k in range(v):
            superbin = np.zeros(v, dtype=np.int64)
            for i in range(v):
                ln = int(matrix[i, k])
                q, rem = divmod(ln, v)
                superbin += q
                if rem:
                    start = (i + k) % v
                    extra = (np.arange(rem) + start) % v
                    np.add.at(superbin, extra, 1)
            assert superbin.sum() == h
            assert superbin.max() <= hi + 1e-9
            assert superbin.min() >= lo - 1e-9


class TestLemmas:
    def test_lemma1_monotone(self):
        assert lemma1_min_problem_size(4, 64) < lemma1_min_problem_size(8, 64)
        assert lemma1_min_problem_size(4, 64) < lemma1_min_problem_size(4, 128)

    def test_lemma1_formula(self):
        v, b = 5, 10
        assert lemma1_min_problem_size(v, b) == v * v * b + v * v * (v - 1) // 2

    def test_lemma2_feasibility(self):
        assert lemma2_feasible(10_000, 4, 64)
        assert not lemma2_feasible(100, 8, 64)
        # exactly Lemma 1's size: 4 * 4 * 64 + 4 * 4 * 3 // 2 = 1048
        assert lemma2_feasible(1048, 4, 64) and not lemma2_feasible(1047, 4, 64)

    def test_bounds_symmetry(self):
        lo, hi = balanced_message_bounds(1000, 10)
        assert lo == pytest.approx(100 - 4.5)
        assert hi == pytest.approx(100 + 4.5)


class TestPhaseABinSizesExactness:
    @settings(max_examples=50, deadline=None)
    @given(
        v=st.integers(2, 8),
        src=st.integers(0, 7),
        seed=st.integers(0, 999),
    )
    def test_arithmetic_matches_actual_chunking(self, v, src, seed):
        """phase_a_bin_sizes must agree with the real word-dealing of
        split_phase_a (measured in whole words of serialized payloads)."""
        src = src % v
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 40, v)
        msgs = []
        word_lengths = np.zeros(v, dtype=np.int64)
        for j in range(v):
            payload = rng.integers(0, 100, int(lengths[j]))
            m = Message(src, j, payload)
            msgs.append(m)
        chunks_per_bin = np.zeros(v, dtype=np.int64)
        for bm in split_phase_a(msgs, v):
            assert bm.tag == CHUNK_TAG
            for _start, _stop, _tag, f in bm.payload.index:
                # f[8] the chunk's words, f[1] its message's destination,
                # f[5] that message's words (items.chunk_node)
                chunks_per_bin[bm.dest] += f[8]
                word_lengths[f[1]] = f[5]
        predicted = phase_a_bin_sizes(word_lengths, src)
        assert np.array_equal(chunks_per_bin, predicted)
