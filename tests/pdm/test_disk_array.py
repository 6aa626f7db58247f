"""Tests for the PDM disk-array substrate: the one-track-per-disk rule,
FIFO batching, counters, and data integrity."""

from __future__ import annotations

import pytest

from repro.pdm.arena import TrackArena
from repro.pdm.block import pack_blocks, unpack_blocks
from repro.pdm.disk import Disk
from repro.pdm.disk_array import DiskArray, IOOp
from repro.util.validation import SimulationError


def blk(byte: int, B: int = 4) -> bytes:
    return bytes([byte]) * (B * 8)


def one_disk() -> Disk:
    return Disk(0, TrackArena(1, 8))


class TestDisk:
    def test_write_read_roundtrip(self):
        d = one_disk()
        d.write(3, b"abc")
        assert d.read(3) == b"abc"

    def test_read_unwritten_track_is_error(self):
        d = one_disk()
        with pytest.raises(SimulationError, match="unwritten track"):
            d.read(7)

    def test_negative_track_rejected(self):
        with pytest.raises(SimulationError):
            one_disk().write(-1, b"x")

    def test_counters(self):
        d = one_disk()
        d.write(0, b"a")
        d.write(1, b"b")
        d.read(0)
        assert d.blocks_written == 2
        assert d.blocks_read == 1
        assert d.tracks_in_use == 2

    def test_free_releases_track(self):
        d = one_disk()
        d.write(0, b"a")
        d.free(0)
        assert d.tracks_in_use == 0
        with pytest.raises(SimulationError):
            d.read(0)

    def test_max_track(self):
        d = one_disk()
        assert d.max_track() == -1
        d.write(9, b"x")
        assert d.max_track() == 9


class TestParallelIORule:
    def test_one_op_many_disks_counts_once(self):
        arr = DiskArray(D=4, B=4)
        ops = [IOOp(d, 0, blk(d)) for d in range(4)]
        arr.parallel_io(ops)
        assert arr.stats.parallel_ios == 1
        assert arr.stats.blocks_written == 4

    def test_two_tracks_same_disk_rejected(self):
        arr = DiskArray(D=4, B=4)
        with pytest.raises(SimulationError, match="touches disk 1 twice"):
            arr.parallel_io([IOOp(1, 0, blk(0)), IOOp(1, 1, blk(1))])

    def test_disk_out_of_range_rejected(self):
        arr = DiskArray(D=2, B=4)
        with pytest.raises(SimulationError, match="out of range"):
            arr.parallel_io([IOOp(5, 0, blk(0))])

    def test_mixed_read_write_in_one_op(self):
        arr = DiskArray(D=2, B=4)
        arr.parallel_io([IOOp(0, 0, blk(1))])
        out = arr.parallel_io([IOOp(0, 0), IOOp(1, 0, blk(2))])
        assert out == [blk(1)]
        assert arr.stats.read_ops == 1
        # the second op both read and wrote
        assert arr.stats.write_ops == 2

    def test_partial_op_costs_same(self):
        """PDM: an op touching 1 of D disks still costs one parallel I/O."""
        arr = DiskArray(D=8, B=4)
        arr.parallel_io([IOOp(3, 0, blk(0))])
        assert arr.stats.parallel_ios == 1
        assert arr.stats.utilization(8) == pytest.approx(1 / 8)

    def test_empty_op_is_free(self):
        arr = DiskArray(D=2, B=4)
        assert arr.parallel_io([]) == []
        assert arr.stats.parallel_ios == 0


class TestFIFOBatching:
    def test_conflict_free_run_is_one_io(self):
        arr = DiskArray(D=4, B=4)
        placements = [(d, 0, blk(d)) for d in range(4)]
        assert arr.write_blocks(placements) == 1

    def test_conflict_starts_new_cycle(self):
        """The paper's DiskWrite: strictly FIFO, cut at first disk conflict."""
        arr = DiskArray(D=4, B=4)
        placements = [
            (0, 0, blk(0)),
            (1, 0, blk(1)),
            (0, 1, blk(2)),  # conflicts with first
            (2, 0, blk(3)),
        ]
        assert arr.write_blocks(placements) == 2
        assert arr.stats.parallel_ios == 2

    def test_fifo_order_preserved(self):
        """A later non-conflicting block must NOT jump the queue ahead of a
        conflicting one (strict FIFO, per the paper)."""
        arr = DiskArray(D=2, B=4)
        placements = [
            (0, 0, blk(0)),
            (0, 1, blk(1)),  # conflict -> cycle break
            (1, 0, blk(2)),
        ]
        # cycles: [disk0], [disk0, disk1] -> 2 ops, not 1
        assert arr.write_blocks(placements) == 2

    def test_round_trip_with_read_batching(self):
        arr = DiskArray(D=3, B=4)
        data = {(d, t): bytes([d * 16 + t]) * 32 for d in range(3) for t in range(4)}
        arr.write_blocks([(d, t, v) for (d, t), v in sorted(data.items())])
        addrs = sorted(data)
        out = arr.read_blocks([(d, t) for d, t in addrs])
        assert out == [data[a] for a in addrs]

    def test_full_stripe_write_read_costs(self):
        """n blocks striped over D disks: ceil(n/D) I/Os each way."""
        D, n = 4, 13
        arr = DiskArray(D=D, B=4)
        placements = [(i % D, i // D, blk(i % 251)) for i in range(n)]
        w = arr.write_blocks(placements)
        assert w == -(-n // D)
        arr.read_blocks([(i % D, i // D) for i in range(n)])
        assert arr.stats.parallel_ios == 2 * -(-n // D)


class TestPackBlocks:
    def test_pack_unpack_roundtrip(self):
        data = bytes(range(256)) * 3
        blocks = pack_blocks(data, B=8)
        assert all(len(b) == 64 for b in blocks)
        assert unpack_blocks(blocks)[: len(data)] == data

    def test_empty_input_no_blocks(self):
        assert pack_blocks(b"", 8) == []

    def test_single_byte_pads_to_one_block(self):
        blocks = pack_blocks(b"x", B=4)
        assert len(blocks) == 1
        assert blocks[0] == b"x" + b"\x00" * 31

    def test_exact_multiple_no_extra_block(self):
        assert len(pack_blocks(b"a" * 64, B=4)) == 2

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            pack_blocks(b"abc", 0)


class TestLoadBalance:
    def test_striped_writes_balanced(self):
        D = 4
        arr = DiskArray(D=D, B=4)
        arr.write_blocks([(i % D, i // D, blk(0)) for i in range(40)])
        lo, hi = arr.load_balance()
        assert hi - lo <= 1
