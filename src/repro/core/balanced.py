"""Algorithm 1 — BalancedRouting — and its Theorem 1 guarantees.

A CGM communication round is an h-relation, but nothing bounds the size of
*individual* messages; the staggered disk layout needs fixed-size slots and
blocked I/O needs messages of Omega(B) items.  BalancedRouting fixes this
deterministically in two rounds:

* **Superstep A** — each source processor ``i`` cuts every outgoing message
  ``msg_ij`` into words and deals word ``l`` of ``msg_ij`` into local bin
  ``(i + j + l) mod v``; bin ``b`` is sent to intermediate processor ``b``.
* **Superstep B** — each intermediate processor regroups the chunks it
  received by final destination and forwards them.

Theorem 1: both rounds' messages have sizes within
``[h/v - (v-1)/2, h/v + (v-1)/2]`` where ``h`` is the h-relation bound.

This module implements the transform at the word (8-byte item) level over
*serialized* payloads, so it works for arbitrary message contents and the
engines can run any CGM program in balanced mode.  Pure size-arithmetic
helpers (used by property tests and the Theorem 1 bench) are provided
alongside.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.cgm.message import Message
from repro.util.items import ITEM_BYTES, deserialize, serialize

#: tag marking engine-internal balanced-routing traffic.
CHUNK_TAG = "__balanced_chunk__"


@dataclass
class Chunk:
    """A word-interleaved slice of one original message.

    Words ``l`` of the original message with ``l % v == first % v`` —
    i.e. the strided slice ``words[first::v]`` — plus the metadata needed
    to reassemble: originating processor, per-source message sequence
    number, total word count and exact byte length of the serialized
    payload, the application tag, and the original h-relation charge
    (``size_items``) so the rebuilt message charges the same as the
    direct-routed one.
    """

    src: int
    fdest: int
    msg_seq: int
    first: int
    stride: int
    total_words: int
    nbytes: int
    tag: str | None
    size_items: int
    words: np.ndarray  # uint64, the strided slice

    @property
    def n_words(self) -> int:
        return int(self.words.size)


def _payload_to_words(payload: object) -> tuple[np.ndarray, int]:
    """Serialize *payload* and view it as uint64 words (zero-padded)."""
    raw = serialize(payload)
    nbytes = len(raw)
    padded = raw.ljust(-(-nbytes // ITEM_BYTES) * ITEM_BYTES, b"\x00")
    return np.frombuffer(padded, dtype=np.uint64), nbytes


def _words_to_payload(words: np.ndarray, nbytes: int) -> object:
    return deserialize(words.tobytes()[:nbytes])


def split_phase_a(outbox: list[Message], v: int) -> list[Message]:
    """Superstep A: deal each message's words into v round-robin bins.

    Returns one Message per non-empty bin, addressed to the intermediate
    processor; its payload is the list of chunks bound for that bin.
    """
    bins: dict[int, list[Chunk]] = defaultdict(list)
    for seq, m in enumerate(outbox):
        words, nbytes = _payload_to_words(m.payload)
        total = int(words.size)
        i, j = m.src, m.dest
        # All v strided slices words[first::v] in one pass: pad to a
        # multiple of v, then column `first` of the (k, v) view is exactly
        # that slice.  One contiguous transpose copy replaces v strided
        # copies; values are bit-identical to the slice-per-bin loop.
        if total:
            k = -(-total // v)
            padded = np.empty(k * v, dtype=np.uint64)
            padded[:total] = words
            padded[total:] = 0
            cols = np.ascontiguousarray(padded.reshape(k, v).T)
        for b in range(v):
            # words l with (i + j + l) % v == b  <=>  l % v == (b - i - j) % v
            first = (b - i - j) % v
            n_piece = (total - first + v - 1) // v if total > first else 0
            if n_piece == 0 and total > 0:
                continue
            piece = cols[first, :n_piece] if total else words[first::v].copy()
            bins[b].append(
                Chunk(
                    i, j, seq, first, v, total, nbytes, m.tag,
                    m.size_items, piece,
                )
            )
    out: list[Message] = []
    for b, chunks in sorted(bins.items()):
        size = sum(c.n_words for c in chunks)
        out.append(
            Message(
                src=chunks[0].src,
                dest=b,
                payload=chunks,
                tag=CHUNK_TAG,
                size_items=max(1, size),
            )
        )
    return out


def regroup_phase_b(received: list[Message], me: int | None = None) -> list[Message]:
    """Superstep B: regroup chunks by final destination and forward.

    *received* are the phase-A messages that arrived at one intermediate
    processor; the result is one message per final destination.  *me* is
    that intermediate processor's pid — the source of every forwarded
    message.  When omitted it is taken from the received messages'
    destination field, which is only possible for a non-empty *received*;
    an empty input simply forwards nothing.
    """
    if not received:
        return []
    by_fdest: dict[int, list[Chunk]] = defaultdict(list)
    for m in received:
        if m.tag != CHUNK_TAG:
            raise ValueError("regroup_phase_b fed a non-chunk message")
        if me is None:
            me = m.dest
        elif m.dest != me:
            raise ValueError(
                f"regroup_phase_b fed chunk traffic for processor {m.dest} "
                f"while regrouping at processor {me}"
            )
        for c in m.payload:
            by_fdest[c.fdest].append(c)
    out: list[Message] = []
    for k, chunks in sorted(by_fdest.items()):
        size = sum(c.n_words for c in chunks)
        out.append(
            Message(src=me, dest=k, payload=chunks, tag=CHUNK_TAG, size_items=max(1, size))
        )
    return out


def reassemble(inbox: list[Message]) -> list[Message]:
    """Final destination: reconstruct the original messages from chunks.

    Non-chunk messages pass through untouched, so engines can mix balanced
    and direct traffic.
    """
    passthrough = [m for m in inbox if m.tag != CHUNK_TAG]
    groups: dict[tuple[int, int], list[Chunk]] = defaultdict(list)
    for m in inbox:
        if m.tag != CHUNK_TAG:
            continue
        for c in m.payload:
            groups[(c.src, c.msg_seq)].append(c)
    rebuilt: list[Message] = []
    for (src, _seq), chunks in sorted(groups.items()):
        # each group carries its own destination and original h-relation
        # charge; other groups in the same inbox must not bleed into it
        ref = chunks[0]
        words = np.zeros(ref.total_words, dtype=np.uint64)
        for c in chunks:
            words[c.first :: c.stride] = c.words
        payload = _words_to_payload(words, ref.nbytes)
        rebuilt.append(Message(src, ref.fdest, payload, ref.tag, ref.size_items))
    return passthrough + rebuilt


# --------------------------------------------------------------------------
# Pure size arithmetic — Theorem 1, Lemma 1, Lemma 2
# --------------------------------------------------------------------------


def phase_a_bin_sizes(msg_lengths: np.ndarray, src: int) -> np.ndarray:
    """Bin sizes produced at *src* by Superstep A's round-robin dealing.

    *msg_lengths[j]* is the word length of ``msg_{src,j}``.  Returns an
    array of v bin sizes.  This is exact — the same arithmetic the chunk
    splitter performs — and is what the hypothesis tests check Theorem 1
    against.
    """
    v = len(msg_lengths)
    lengths = np.asarray(msg_lengths, dtype=np.int64)
    rem = lengths % v
    # every bin gets floor(length_j / v) words from message j; the first
    # rem_j bins in dealing order — (src + j + 0..rem_j-1) mod v — get one
    # extra.  Bin b's dealing-order offset for message j is
    # (b - src - j) mod v, so the extra lands iff that offset < rem_j.
    offsets = (
        np.arange(v, dtype=np.int64)[None, :]
        - src
        - np.arange(v, dtype=np.int64)[:, None]
    ) % v
    return (lengths // v).sum() + (offsets < rem[:, None]).sum(axis=0)


def balanced_message_bounds(h: int, v: int) -> tuple[float, float]:
    """Theorem 1: [min, max] message size of both balanced rounds."""
    lo = h / v - (v - 1) / 2
    hi = h / v + (v - 1) / 2
    return lo, hi


def lemma1_min_problem_size(v: int, b_min: int) -> int:
    """Lemma 1: smallest N guaranteeing minimum message size *b_min*."""
    return v * v * b_min + (v * v * (v - 1)) // 2


def lemma2_feasible(N: int, v: int, B: int) -> bool:
    """Lemma 2's precondition: N >= v^2 B + v^2 (v-1) / 2."""
    return N >= lemma1_min_problem_size(v, B)
