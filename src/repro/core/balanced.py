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
engines can run any CGM program in balanced mode.  A bin is bytes from
split to reassembly (:class:`ChunkBundle`): the ``C`` nodes of its
chunks (:func:`repro.util.items.chunk_node` names their fields), written
once, forwarded as views of the intermediary's read, read in place at
the destination.  Pure size-arithmetic helpers (used by property tests and
the Theorem 1 bench) are provided alongside.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.cgm.message import Message
from repro.util.items import ITEM_BYTES, chunk_index, chunk_list, chunk_node, decode_owned, encode

#: tag marking engine-internal balanced-routing traffic.
CHUNK_TAG = "__balanced_chunk__"


class ChunkBundle:
    """The payload of one balanced-routing message: its list of chunks as
    *pieces* of ``nbytes`` bytes (:func:`repro.util.items.chunk_list`),
    and ``index``, where each chunk's node lies in ``raw``, their join
    (:func:`repro.util.items.chunk_index`, parsed on first use)."""

    __slots__ = ("pieces", "nbytes", "_index")

    def __init__(self, pieces: list, nbytes: int, index: "list | None" = None) -> None:
        self.pieces = pieces
        self.nbytes = nbytes
        self._index = index

    @classmethod
    def from_item(cls, data) -> "ChunkBundle":
        """The bundle stored in *data*, padding ignored, as a view of it:
        *data* is the bundle's from here on (an engine hands over its
        fresh read).  Bytes that are not a list of chunks raise
        :func:`~repro.util.items.chunk_index`'s one-line ``ValueError``."""
        end, index = chunk_index(data)
        return cls([memoryview(data)[:end]], end, index)

    @property
    def raw(self):
        """The bundle's bytes in one buffer (pieces are joined once)."""
        if len(self.pieces) > 1:
            self.pieces = [b"".join(self.pieces)]
        return self.pieces[0]

    @property
    def index(self) -> list:
        if self._index is None:
            self._index = chunk_index(self.raw)[1]
        return self._index


def split_phase_a(outbox: list[Message], v: int) -> list[Message]:
    """Superstep A: deal each message's words into v round-robin bins.

    Returns one Message per non-empty bin, addressed to the intermediate
    processor; its payload is the :class:`ChunkBundle` of the chunks
    bound for that bin, written node by node.
    """
    bins: dict[int, list] = defaultdict(list)  # bin -> its node pieces
    srcs: dict[int, int] = {}
    for seq, m in enumerate(outbox):
        pieces, nbytes = encode(m.payload)
        total = -(-nbytes // ITEM_BYTES)
        i, j = m.src, m.dest
        # All v strided slices words[first::v] in one pass: zero-pad to a
        # multiple of v words; row `first` of the (v, k) transpose is then
        # exactly that slice, contiguous in `cols`.
        k = -(-total // v)
        padded = np.empty(k * v, dtype=np.uint64)
        at = padded.view(np.uint8)
        for piece in pieces:
            at[: len(piece)] = np.frombuffer(piece, np.uint8)
            at = at[len(piece) :]
        at[:] = 0
        cols = memoryview(np.ascontiguousarray(padded.reshape(k, v).T)).cast("B")
        for b in range(v):
            # words l with (i + j + l) % v == b  <=>  l % v == (b - i - j) % v
            first = (b - i - j) % v
            n_piece = (total - first + v - 1) // v if total > first else 0
            if n_piece == 0 and total > 0:
                continue
            fields = (i, j, seq, first, v, total, nbytes, m.size_items, n_piece)
            words = cols[8 * k * first : 8 * (k * first + n_piece)]
            bins[b] += (chunk_node(fields, m.tag), words)
            srcs.setdefault(b, i)
    return [
        Message(srcs[b], b, ChunkBundle(*chunk_list(len(parts) // 2, parts)), CHUNK_TAG,
                max(1, sum(map(len, parts[1::2])) // ITEM_BYTES))
        for b, parts in sorted(bins.items())
    ]


def regroup_phase_b(received: list[Message], me: int) -> list[Message]:
    """Superstep B: regroup chunks by final destination and forward.

    *received* are the phase-A messages that arrived at intermediate
    processor *me*, the source of every forwarded message; the result is
    one message per final destination, whose bundle joins the received
    chunks' node bytes in arrival order.
    """
    nodes: dict[int, list] = defaultdict(list)
    words: dict[int, int] = defaultdict(int)
    for m in received:
        if m.tag != CHUNK_TAG:
            raise ValueError("regroup_phase_b fed a non-chunk message")
        if m.dest != me:
            raise ValueError(
                f"regroup_phase_b fed chunk traffic for processor {m.dest} "
                f"while regrouping at processor {me}"
            )
        raw = memoryview(m.payload.raw)
        for start, stop, _tag, f in m.payload.index:
            nodes[f[1]].append(raw[start:stop])
            words[f[1]] += f[8]
    return [
        Message(me, k, ChunkBundle(*chunk_list(len(nodes[k]), nodes[k])), CHUNK_TAG,
                max(1, words[k]))
        for k in sorted(nodes)
    ]


def reassemble(inbox: list[Message]) -> list[Message]:
    """Final destination: reconstruct the original messages from chunks.

    Each chunk's words go from its bundle's bytes straight into the
    strided slots of its message's word buffer, and each payload is
    decoded once.  Non-chunk messages pass through untouched, so engines
    can mix balanced and direct traffic.
    """
    passthrough = [m for m in inbox if m.tag != CHUNK_TAG]
    groups: dict[tuple[int, int], list] = defaultdict(list)
    for m in inbox:
        if m.tag != CHUNK_TAG:
            continue
        raw = m.payload.raw
        for _start, stop, tag, f in m.payload.index:
            groups[(f[0], f[2])].append((raw, stop, tag, f))
    rebuilt: list[Message] = []
    for (src, _seq), chunks in sorted(groups.items()):
        # each group carries its own destination and original h-relation
        # charge; other groups in the same inbox must not bleed into it
        _raw, _stop, tag, ref = chunks[0]
        words = np.zeros(ref[5], dtype=np.uint64)
        for raw, stop, _tag, f in chunks:
            words[f[3] :: f[4]] = np.frombuffer(raw, np.uint64, f[8], stop - 8 * f[8])
        # the word buffer is this message's alone: its arrays are views of it
        payload = decode_owned(memoryview(words).cast("B")[: ref[6]])
        rebuilt.append(Message(src, ref[1], payload, tag, ref[7]))
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
