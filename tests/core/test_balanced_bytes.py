"""Balanced routing moves chunk bytes, and they are the bytes chunks had.

The routing path cuts each message into ``C`` nodes written straight into
its bin's item, forwards node bytes at the intermediary and reassembles
from the bundle bytes.  The oracle is the object-based routing it
replaced, frozen below (``ref_*``, over its own chunk record): every
phase-A and phase-B bundle must equal the reference's list of chunks,
written node by node from the record by the format table of
``repro.util.items``, byte for byte, and every reassembled message must
match the reference's.  A second group feeds the hostile chunk runs of
``tests/util/test_items.py`` through the bundle reader the engines use,
and pins a balanced sort's output and counters to the object-based parent.
"""

from __future__ import annotations

import hashlib
import struct
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cgm.config import MachineConfig
from repro.cgm.message import Message
from repro.cgm.program import CGMProgram
from repro.core.balanced import (
    CHUNK_TAG,
    ChunkBundle,
    reassemble,
    regroup_phase_b,
    split_phase_a,
)
from repro.em.runner import em_run, em_sort
from repro.util.items import ITEM_BYTES, deserialize, serialize
from tests.util import test_items

# ---------------------------------------------- the object-based reference


@dataclass
class Chunk:
    """Words ``first::stride`` of message ``msg_seq`` from ``src`` to
    ``fdest``, with what reassembly needs: the payload's word and byte
    lengths, the application tag and the h-relation charge."""

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


def ref_bytes(chunks: list[Chunk]) -> bytes:
    """The item of *chunks*, spelled out from the format table: a list
    head, then per chunk ``C``, eight ``i64`` fields and the word count,
    the tag node and the words."""
    body = [b"[", bytes((len(chunks),)) if len(chunks) < 0xFF
            else b"\xff" + struct.pack("<I", len(chunks))]
    for c in chunks:
        body += [b"C", struct.pack("<8qQ", c.src, c.fdest, c.msg_seq, c.first, c.stride,
                                   c.total_words, c.nbytes, c.size_items, c.n_words),
                 serialize(c.tag)[9:], c.words.tobytes()]
    return struct.pack("<cQ", b"T", sum(map(len, body))) + b"".join(body)


def ref_records(bundle: ChunkBundle) -> list[Chunk]:
    """The records a bundle's index describes; the words a copy."""
    return [
        Chunk(*f[:7], tag, f[7],
              np.frombuffer(bundle.raw, np.uint64, f[8], stop - 8 * f[8]).copy())
        for _start, stop, tag, f in bundle.index
    ]


def _payload_to_words(payload: object) -> tuple[np.ndarray, int]:
    raw = serialize(payload)
    nbytes = len(raw)
    padded = raw.ljust(-(-nbytes // ITEM_BYTES) * ITEM_BYTES, b"\x00")
    return np.frombuffer(padded, dtype=np.uint64), nbytes


def ref_split(outbox: list[Message], v: int) -> list[Message]:
    bins: dict[int, list[Chunk]] = defaultdict(list)
    for seq, m in enumerate(outbox):
        words, nbytes = _payload_to_words(m.payload)
        total = int(words.size)
        i, j = m.src, m.dest
        if total:
            k = -(-total // v)
            padded = np.empty(k * v, dtype=np.uint64)
            padded[:total] = words
            padded[total:] = 0
            cols = np.ascontiguousarray(padded.reshape(k, v).T)
        for b in range(v):
            first = (b - i - j) % v
            n_piece = (total - first + v - 1) // v if total > first else 0
            if n_piece == 0 and total > 0:
                continue
            piece = cols[first, :n_piece] if total else words[first::v].copy()
            bins[b].append(
                Chunk(i, j, seq, first, v, total, nbytes, m.tag, m.size_items, piece)
            )
    out: list[Message] = []
    for b, chunks in sorted(bins.items()):
        size = sum(c.n_words for c in chunks)
        out.append(Message(chunks[0].src, b, chunks, CHUNK_TAG, max(1, size)))
    return out


def ref_regroup(received: list[Message], me: int) -> list[Message]:
    by_fdest: dict[int, list[Chunk]] = defaultdict(list)
    for m in received:
        for c in m.payload:
            by_fdest[c.fdest].append(c)
    out: list[Message] = []
    for k, chunks in sorted(by_fdest.items()):
        size = sum(c.n_words for c in chunks)
        out.append(Message(me, k, chunks, CHUNK_TAG, max(1, size)))
    return out


def ref_reassemble(inbox: list[Message]) -> list[Message]:
    passthrough = [m for m in inbox if m.tag != CHUNK_TAG]
    groups: dict[tuple[int, int], list[Chunk]] = defaultdict(list)
    for m in inbox:
        if m.tag != CHUNK_TAG:
            continue
        for c in m.payload:
            groups[(c.src, c.msg_seq)].append(c)
    rebuilt: list[Message] = []
    for (src, _seq), chunks in sorted(groups.items()):
        ref = chunks[0]
        words = np.zeros(ref.total_words, dtype=np.uint64)
        for c in chunks:
            words[c.first :: c.stride] = c.words
        payload = deserialize(words.tobytes()[: ref.nbytes])
        rebuilt.append(Message(src, ref.fdest, payload, ref.tag, ref.size_items))
    return passthrough + rebuilt


# ------------------------------------------------------------- the oracle

payloads = (
    st.binary(max_size=1) | st.binary(max_size=70)     # empty, 1-byte, unaligned
    | hnp.arrays(np.int64, st.integers(0, 40)) | st.text(max_size=12)
    | st.lists(st.integers(-(2**40), 2**40), max_size=6) | st.none()
)
tags = (
    st.none() | st.text("abcXYZ_", max_size=6)
    | st.sampled_from(["é", "日本", "🙂", "naïve"])
)


@st.composite
def exchanges(draw):
    """(v, one outbox per source) in one of three traffic shapes."""
    v = draw(st.integers(2, 16))
    shape = draw(st.sampled_from(["any", "all_to_one", "pid0_only"]))
    sink = draw(st.integers(0, v - 1))
    outboxes = []
    for i in range(v):
        msgs = []
        if shape != "pid0_only" or i == 0:
            for _ in range(draw(st.integers(0, 4))):
                dest = sink if shape == "all_to_one" else draw(st.integers(0, v - 1))
                msgs.append(Message(i, dest, draw(payloads), draw(tags)))
        outboxes.append(msgs)
    return v, outboxes


def _head(m: Message) -> tuple:
    return (m.src, m.dest, m.tag, m.size_items)


def _stored(m: Message) -> Message:
    """*m* as an engine reads it back: its bytes block-padded, the index
    parsed by the bundle reader."""
    raw = m.payload.raw
    pad = bytes(-len(raw) % 64)
    return Message(m.src, m.dest, ChunkBundle.from_item(raw + pad), m.tag, m.size_items)


def _check_bundles(got: list[Message], want: list[Message]) -> None:
    assert [_head(m) for m in got] == [_head(m) for m in want]
    for g, w in zip(got, want):
        assert g.payload.raw == ref_bytes(w.payload)


def _route(msgs: list[Message], v: int) -> list[list[Message]]:
    boxes: list[list[Message]] = [[] for _ in range(v)]
    for m in msgs:
        boxes[m.dest].append(m)
    return boxes


def _check_routing(v: int, outboxes: list[list[Message]]) -> None:
    phase_a, ref_a = [], []
    for out in outboxes:
        got, want = split_phase_a(out, v), ref_split(out, v)
        _check_bundles(got, want)
        for m in got:  # the index read back re-encodes to the same bytes
            assert ref_bytes(ref_records(m.payload)) == m.payload.raw
        phase_a += got
        ref_a += want
    mid, ref_mid = _route(phase_a, v), _route(ref_a, v)
    phase_b, ref_b = [], []
    for b in range(v):
        want = ref_regroup(ref_mid[b], b) if ref_mid[b] else []
        # the in-memory engines' bundles and the disk engines' read-backs
        _check_bundles(regroup_phase_b(mid[b], me=b), want)
        got = regroup_phase_b([_stored(m) for m in mid[b]], me=b)
        _check_bundles(got, want)
        phase_b += got
        ref_b += want
    final, ref_final = _route(phase_b, v), _route(ref_b, v)
    for k in range(v):
        for box in (final[k], [_stored(m) for m in final[k]]):
            got, want = reassemble(box), ref_reassemble(ref_final[k])
            assert [_head(m) for m in got] == [_head(m) for m in want]
            for g, w in zip(got, want):
                assert serialize(g.payload) == serialize(w.payload)


@given(exchanges())
def test_bundles_are_the_bytes_of_the_chunk_lists(case):
    _check_routing(*case)


def test_a_bin_of_255_or_more_chunks_has_a_five_byte_count():
    # each message gives a bin at most one chunk: 300 messages, 300 chunks
    outboxes = [
        [Message(0, j % 2, bytes(j % 13), "t" if j % 3 else None) for j in range(300)],
        [Message(1, 0, np.arange(j, dtype=np.int64)) for j in range(260)],
    ]
    assert max(len(m.payload.index) for m in split_phase_a(outboxes[0], 2)) >= 0xFF
    _check_routing(2, outboxes)


# ------------------------------------------------------------ hostile bytes

#: the cases of ``test_a_hostile_chunk_run_is_the_parents_error``: bodies
#: and the message the per-node decoder gave for each
HOSTILE = test_items.TestFormat2Refusals.test_a_hostile_chunk_run_is_the_parents_error
HOSTILE = HOSTILE.pytestmark[0].args[1]


def _item(body: bytes) -> bytes:
    return struct.pack("<cQ", b"T", len(body)) + body


@pytest.mark.parametrize("body, message", HOSTILE)
def test_the_bundle_reader_gives_the_parents_error(body, message):
    """``ChunkBundle.from_item`` is what the disk engines call on a stored
    balanced-routing bundle."""
    assert len(HOSTILE) == 10
    with pytest.raises(ValueError) as err:
        ChunkBundle.from_item(_item(body) + bytes(7))
    assert str(err.value) == f"corrupt item: {message}"


_A = b"".join(test_items.CHUNK_A)


@pytest.mark.parametrize("data", [
    _item(b"[\xff" + struct.pack("<I", 1000) + _A[:40]),  # more entries than bytes
    _item(b"[\x01" + _A)[:-1],                            # the item cut short
    struct.pack("<cQ", b"P", 3) + b"abc",                 # format 1
    b"T\x01",
], ids=["entries", "cut", "format1", "header"])
def test_the_bundle_reader_raises_what_deserialize_raises(data):
    with pytest.raises(ValueError) as want:
        deserialize(data)
    with pytest.raises(ValueError) as got:
        ChunkBundle.from_item(data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("data, message", [
    (_item(b"[\x02" + _A), "truncated node"),                 # one node short
    (_item(b"[\x01" + _A + b"n"), "1 stray bytes after the value"),
], ids=["short", "stray"])
def test_the_bundle_reader_names_its_own_run_faults(data, message):
    """What ``deserialize`` said of these bytes while it still decoded
    ``C`` nodes; it now stops at the first one as an unknown tag."""
    with pytest.raises(ValueError) as err:
        ChunkBundle.from_item(data)
    assert str(err.value) == f"corrupt item: {message}"


def test_the_bundle_reader_refuses_a_well_formed_item_of_something_else():
    for data in (_item(b"[\x02" + _A + b"\x31\x07"), _item(b"(\x01" + _A),
                 serialize([7]), serialize("x")):
        with pytest.raises(ValueError) as err:
            ChunkBundle.from_item(data)
        assert str(err.value) == "corrupt item: not a list of Chunks"
    assert ChunkBundle.from_item(serialize([]) + bytes(3)).index == []


#: em_sort's output sha256 and counters at the object-based parent
#: (N=2^13, v=8, D=2, B=64, balanced, seed 37), identical on every engine
#: below but for supersteps (Lemma 4: v/p per round on par)
PARENT_SHA = "e7807c0cf4bedb08ad901cdb5ad13be67a10e8a7abd00acf9b9354c49574604b"
PARENT_IO = {
    "parallel_ios": 1258, "blocks_read": 1221, "blocks_written": 1221,
    "read_ops": 629, "write_ops": 629, "per_disk_blocks": [1258, 1184],
    "width_histogram": [0, 74, 1184], "D": 2,
}


@pytest.mark.usefixtures("worker_leak_guard")
@pytest.mark.parametrize("engine, p, workers, supersteps", [
    ("seq", 1, 0, 8), ("par", 4, 0, 16), ("par", 4, 2, 16),
])
def test_balanced_runs_build_no_chunk(engine, p, workers, supersteps):
    """Routing has no chunk type to build (bundles are bytes from split to
    reassembly), and a balanced sort still gives the parent's output."""
    from repro.core import balanced

    assert not hasattr(balanced, "Chunk")
    data = np.random.default_rng(37).integers(0, 2**40, 1 << 13)
    cfg = MachineConfig(N=1 << 13, v=8, p=p, D=2, B=64)
    res = em_sort(data, cfg, engine=engine, balanced=True,
                  overrides={"workers": workers})
    values = np.ascontiguousarray(res.values).tobytes()
    assert hashlib.sha256(values).hexdigest() == PARENT_SHA
    r = res.report
    assert r.io.as_dict() == PARENT_IO
    assert (r.message_blocks_io, r.context_blocks_io, r.overflow_blocks) == (1344, 1098, 0)
    assert (r.supersteps, r.comm_items) == (supersteps, 8312)


class _ReservedTag(CGMProgram):
    """Sends one array to the next processor under the routing's tag."""

    name = "reserved-tag"

    def setup(self, ctx, pid, cfg, local_input):
        ctx["got"] = None

    def round(self, r, ctx, env):
        if r == 0:
            env.send((env.pid + 1) % env.v, np.arange(5) + env.pid, tag=CHUNK_TAG)
            return False
        ctx["got"] = [(m.src, m.tag, m.payload.tolist()) for m in env.messages()]
        return True

    def finish(self, ctx):
        return ctx["got"]


@pytest.mark.parametrize("engine", ["memory", "seq", "par"])
def test_an_unbalanced_program_message_may_use_the_reserved_tag(engine):
    cfg = MachineConfig(N=64, v=4, p=2 if engine == "par" else 1, D=2, B=8)
    res = em_run(_ReservedTag(), [None] * 4, cfg, engine)
    assert res.outputs == [
        [((pid - 1) % 4, CHUNK_TAG, list(range((pid - 1) % 4, (pid - 1) % 4 + 5)))]
        for pid in range(4)
    ]
