"""Data round-trips through the staggered message matrix on real simulated
disks.

``tests/core/test_layouts.py`` checks the *geometry* (addresses don't
collide, the stagger formula matches the paper).  Here we drive actual
bytes through :class:`DiskArray` at those addresses and read them back:

* every ``msg_ij`` written into a matrix copy is recovered exactly via the
  destination's inbox read;
* the two matrix copies alternate by superstep parity without clobbering
  each other — the engines' analog of Observation 2's consecutive /
  staggered format alternation;
* with ``gcd(slot, D) = 1`` the DiskWrite-style FIFO batching achieves
  *full* D-parallelism on writes, and inbox reads are consecutive runs;
* oversized messages take the consecutive-format overflow run through the
  real engine and still arrive intact.
"""

from __future__ import annotations

import numpy as np

from repro.cgm.config import MachineConfig
from repro.cgm.program import CGMProgram
from repro.core.layouts import MessageMatrix
from repro.em.runner import make_engine
from repro.pdm.disk_array import DiskArray

B = 4  # items per block -> 32 bytes per block/track
BLOCK_BYTES = B * 8


def _payload(src: int, dest: int, nblocks: int, marker: int = 0) -> bytes:
    return bytes([(marker + 16 * src + dest) % 256]) * (nblocks * BLOCK_BYTES)


def _write_matrix(arr, mm, sizes, parity, marker=0):
    """Write every msg_ij (src-major, as the paper's senders do)."""
    placements = []
    for src in range(mm.n_src):
        for dest in range(mm.n_dest):
            n = sizes[src][dest]
            if n == 0:
                continue
            data = _payload(src, dest, n, marker)
            addrs = mm.message_addresses(src, dest, n, parity)
            placements.extend(
                (d, t, data[q * BLOCK_BYTES : (q + 1) * BLOCK_BYTES])
                for q, (d, t) in enumerate(addrs)
            )
    arr.write_blocks(placements)


def _read_inbox(arr, mm, sizes, dest, parity) -> bytes:
    by_src = [(s, sizes[s][dest]) for s in range(mm.n_src) if sizes[s][dest]]
    addrs = mm.inbox_addresses(dest, by_src, parity)
    return b"".join(arr.read_blocks(addrs))


class TestStaggeredRoundTrip:
    def test_every_message_recovered(self):
        v, D = 4, 2
        mm = MessageMatrix(n_src=v, n_dest=v, D=D, slot_blocks=2)
        arr = DiskArray(D=D, B=B)
        # ragged sizes, incl. empty messages
        sizes = [[(src + dest) % 3 for dest in range(v)] for src in range(v)]
        _write_matrix(arr, mm, sizes, parity=0)
        for dest in range(v):
            got = _read_inbox(arr, mm, sizes, dest, parity=0)
            want = b"".join(
                _payload(src, dest, sizes[src][dest])
                for src in range(v)
                if sizes[src][dest]
            )
            assert got == want

    def test_parity_copies_do_not_clobber(self):
        """Observation 2: round r writes copy ``r % 2`` while round r-1 is
        read from the other copy; three rounds of writes prove the copies
        are disjoint and reusable."""
        v, D = 3, 2
        mm = MessageMatrix(n_src=v, n_dest=v, D=D, slot_blocks=1)
        arr = DiskArray(D=D, B=B)
        full = [[1] * v for _ in range(v)]

        _write_matrix(arr, mm, full, parity=0, marker=0xA0)
        _write_matrix(arr, mm, full, parity=1, marker=0xB1)
        # round-0 data survives the round-1 writes
        for dest in range(v):
            assert _read_inbox(arr, mm, full, dest, 0) == b"".join(
                _payload(s, dest, 1, 0xA0) for s in range(v)
            )
        # round 2 reuses copy 0; copy 1 is untouched
        _write_matrix(arr, mm, full, parity=2, marker=0xC2)
        for dest in range(v):
            assert _read_inbox(arr, mm, full, dest, 0) == b"".join(
                _payload(s, dest, 1, 0xC2) for s in range(v)
            )
            assert _read_inbox(arr, mm, full, dest, 1) == b"".join(
                _payload(s, dest, 1, 0xB1) for s in range(v)
            )

    def test_full_parallel_writes_and_reads(self):
        """gcd(slot, D) = 1 and slot-full messages: the FIFO write batching
        and the consecutive inbox reads both touch all D disks every op."""
        v, D, slot = 8, 4, 3
        mm = MessageMatrix(n_src=v, n_dest=v, D=D, slot_blocks=slot)
        arr = DiskArray(D=D, B=B)
        full = [[slot] * v for _ in range(v)]
        _write_matrix(arr, mm, full, parity=0)
        assert sum(arr.stats.width_histogram[:D]) == 0, arr.stats.width_histogram
        assert arr.stats.parallel_ios == v * v * slot // D  # optimal count
        before = arr.stats.snapshot()
        for dest in range(v):
            _read_inbox(arr, mm, full, dest, parity=0)
        reads = arr.stats.delta_since(before)
        assert sum(reads.width_histogram[:D]) == 0, reads.width_histogram
        # every disk serviced the same number of blocks overall
        assert len(set(arr.stats.per_disk_blocks)) == 1


class _Oversized(CGMProgram):
    """Advertises 4-item messages, sends ~N/v-item ones (overflow path)."""

    name = "oversized"

    def max_message_items(self, shape):
        return 4

    def setup(self, ctx, pid, shape, local_input):
        ctx["pid"] = pid
        ctx["data"] = local_input

    def round(self, r, ctx, env):
        if r == 0:
            env.send((ctx["pid"] + 1) % env.v, ctx["data"], tag="x")
            return False
        (m,) = env.messages(tag="x")
        ctx["got"] = m.payload
        return True

    def finish(self, ctx):
        return ctx["got"]


class TestOverflowRun:
    def test_overflow_blocks_counted_and_data_intact(self):
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=16)
        rng = np.random.default_rng(9)
        inputs = [rng.integers(0, 2**40, cfg.N // cfg.v) for _ in range(cfg.v)]
        res = make_engine(cfg, "seq").run(_Oversized(), inputs)
        assert res.report.overflow_blocks > 0
        for pid, out in enumerate(res.outputs):
            assert np.array_equal(out, inputs[(pid - 1) % cfg.v])

    def test_overflow_is_traced_with_its_layout(self):
        from repro.obs.bus import EventBus

        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=16)
        rng = np.random.default_rng(9)
        inputs = [rng.integers(0, 2**40, cfg.N // cfg.v) for _ in range(cfg.v)]
        tr = EventBus(monitor=False)
        make_engine(cfg, "seq", tracer=tr).run(_Oversized(), inputs)
        layouts = {
            e.get("layout")
            for e in tr.events
            if e["kind"] in ("message_write", "message_read")
        }
        assert "overflow" in layouts
