"""FaultyDiskArray behavior: retries, torn writes, degraded mode, and the
two-ledger invariant (logical IOStats identical to a clean run).  Every
access goes through the run API: the array's per-op entry points refuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import (
    SHADOW_BASE,
    DiskFault,
    FaultStats,
    FaultyDiskArray,
)
from repro.faults.plan import DiskDeath, FaultPlan, RetryPolicy, ScheduledFault
from repro.pdm.block import BlockRun, Runs
from repro.pdm.disk_array import DiskArray, IOOp
from repro.util.validation import SimulationError

D, B = 4, 8
BB = 8 * B  #: bytes per block


def make_array(plan: FaultPlan, real: int = 0, d: int = D) -> FaultyDiskArray:
    return FaultyDiskArray(d, B, plan.injector_for(real), real=real)


def stripe(n: int, track: int = 0, disk: int = 0) -> Runs:
    """*n* blocks striped from ``(disk, track)``: block i on disk
    ``(disk + i) % D``, as the consecutive layout places them."""
    return Runs(track, ((disk, n),))


def write(arr, runs: Runs, data: bytes) -> int:
    return arr.write_run(runs, BlockRun(data, runs.nblocks, BB))


def read(arr, runs: Runs) -> bytes:
    return bytes(arr.read_run(runs))


def fill(arr, blocks=32, seed=0) -> bytes:
    data = np.random.default_rng(seed).bytes(blocks * BB)
    write(arr, stripe(blocks), data)
    return data


class TestTransients:
    PLAN = FaultPlan(
        seed=3, p_transient_read=0.2, p_transient_write=0.2,
        retry=RetryPolicy(max_retries=8),
    )

    def test_data_survives_retries(self):
        arr = make_array(self.PLAN)
        data = fill(arr)
        assert read(arr, stripe(32)) == data
        assert arr.injector.stats.retries > 0
        assert arr.injector.stats.retried_accesses > 0

    def test_logical_ledger_matches_clean_run(self):
        faulty, clean = make_array(self.PLAN), DiskArray(D, B)
        for arr in (faulty, clean):
            fill(arr)
            read(arr, stripe(32))
        assert faulty.stats.as_dict() == clean.stats.as_dict()
        assert faulty.injector.stats.any  # the physical ledger saw the faults

    def test_deterministic_across_instances(self):
        a, b = make_array(self.PLAN), make_array(self.PLAN)
        fill(a), fill(b)
        assert a.injector.stats.as_dict() == b.injector.stats.as_dict()

    def test_retries_exhausted_raises(self):
        plan = FaultPlan(
            seed=1, p_transient_write=1.0, retry=RetryPolicy(max_retries=2)
        )
        arr = make_array(plan)
        with pytest.raises(DiskFault, match="after 2 retries"):
            write(arr, stripe(1), b"x" * BB)

    def test_modeled_backoff_accumulates(self):
        plan = FaultPlan(
            seed=3, p_transient_write=0.3,
            retry=RetryPolicy(max_retries=8, backoff_s=0.01),
        )
        arr = make_array(plan)
        fill(arr)
        st = arr.injector.stats
        assert st.retries > 0
        assert st.backoff_s >= 0.01 * st.retries  # linear backoff grows per attempt


class TestScheduled:
    def test_fires_at_exact_coordinate(self):
        plan = FaultPlan(
            schedule=(ScheduledFault(real=0, op=1, disk=2, kind="transient_write"),)
        )
        arr = make_array(plan)
        write(arr, stripe(D), bytes(D * BB))  # op 0: clean
        assert arr.injector.stats.transient_write_faults == 0
        write(arr, stripe(D, track=1), bytes(D * BB))  # op 1: fault
        assert arr.injector.stats.transient_write_faults == 1
        assert arr.injector.stats.retries == 1

    def test_other_real_unaffected(self):
        plan = FaultPlan(
            schedule=(ScheduledFault(real=1, op=0, disk=0, kind="transient_write"),)
        )
        arr = make_array(plan, real=0)
        write(arr, stripe(1), bytes(BB))
        assert not arr.injector.stats.any

    def test_zero_probability_plan_makes_no_rng_draws(self):
        plan = FaultPlan(schedule=(ScheduledFault(0, 5, 0, "transient_read"),))
        arr = make_array(plan)
        before = arr.injector._rng.bit_generator.state
        fill(arr)
        assert arr.injector._rng.bit_generator.state == before


class TestTornWrites:
    def test_retry_overwrites_the_tear(self):
        plan = FaultPlan(
            schedule=(ScheduledFault(real=0, op=0, disk=0, kind="torn_write"),)
        )
        arr = make_array(plan)
        block = bytes(range(BB))
        write(arr, stripe(1), block)
        assert arr.injector.stats.torn_writes == 1
        assert read(arr, stripe(1)) == block

    def test_unretried_tear_leaves_corrupt_prefix(self):
        plan = FaultPlan(
            schedule=(ScheduledFault(real=0, op=0, disk=0, kind="torn_write"),),
            retry=RetryPolicy(max_retries=0),
        )
        arr = make_array(plan)
        block = bytes(range(BB))
        with pytest.raises(DiskFault):
            write(arr, stripe(1), block)
        # the half-written prefix is on the platter — the crash hazard
        # checkpoint verification exists for
        assert arr.disks[0].snapshot_tracks()[0] == block[: len(block) // 2]


class TestDiskDeath:
    PLAN = FaultPlan(dead_disks=(DiskDeath(real=0, disk=1, after_op=8),))

    def test_degraded_mode_preserves_data(self):
        arr = make_array(self.PLAN)
        data = fill(arr)  # 32 blocks in 8 parallel I/Os -> death due at op 8
        assert read(arr, stripe(32)) == data
        st = arr.injector.stats
        assert st.dead_disks == 1
        assert st.migrated_blocks == 8  # disk 1 held 8 of the 32 blocks
        assert st.degraded_ios > 0 and st.remapped_accesses > 0

    def test_dead_disk_holds_nothing(self):
        arr = make_array(self.PLAN)
        fill(arr)
        read(arr, stripe(32))
        assert arr.disks[1].snapshot_tracks() == {}

    def test_shadow_tracks_live_on_survivors(self):
        arr = make_array(self.PLAN)
        fill(arr)
        read(arr, stripe(1, disk=1))
        inj = arr.injector
        pdisk, ptrack = inj.remap[(1, 0)]
        assert pdisk != 1 and ptrack >= SHADOW_BASE
        assert ptrack in arr.disks[pdisk].snapshot_tracks()

    def test_lost_width_accounting(self):
        arr = make_array(self.PLAN)
        fill(arr)
        st0 = arr.injector.stats.lost_width
        # a full-stripe read must now squeeze D logical tracks onto D-1
        # survivors: at least one unit of parallelism is lost
        read(arr, stripe(D))
        assert arr.injector.stats.lost_width > st0
        # logical ledger still records a full-width I/O
        assert arr.stats.width_histogram[D] > 0

    def test_second_death_remigrates_hosted_blocks(self):
        plan = FaultPlan(
            dead_disks=(
                DiskDeath(real=0, disk=1, after_op=8),
                DiskDeath(real=0, disk=2, after_op=9),
            )
        )
        arr = make_array(plan)
        data = fill(arr)
        assert read(arr, stripe(32)) == data
        assert arr.injector.stats.dead_disks == 2
        assert arr.disks[1].snapshot_tracks() == {} and arr.disks[2].snapshot_tracks() == {}

    def test_all_disks_dead_raises(self):
        plan = FaultPlan(
            dead_disks=tuple(DiskDeath(real=0, disk=d, after_op=0) for d in range(2))
        )
        arr = make_array(plan, d=2)
        with pytest.raises(DiskFault, match="no\\s+survivors"):
            write(arr, stripe(1), bytes(BB))

    def test_free_blocks_follows_remap(self):
        arr = make_array(self.PLAN)
        fill(arr)
        read(arr, stripe(1, disk=1))  # forces the remap entry
        pdisk, ptrack = arr.injector.remap[(1, 0)]
        arr.free_blocks([(1, 0)])
        assert ptrack not in arr.disks[pdisk].snapshot_tracks()


class TestPerOpEntryPointsRefuse:
    """A direct call cannot move a block around the injector's plan, nor
    can a batch that breaks the PDM rule."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda a: a.parallel_io([IOOp(0, 0, bytes(BB))]),
            lambda a: a.write_blocks([(0, 0, bytes(BB))]),
            lambda a: a.read_blocks([(0, 0)]),
            lambda a: a.parallel_io([IOOp(0, 0, bytes(BB)), IOOp(0, 1, bytes(BB))]),
            lambda a: a.parallel_io([IOOp(D, 0, bytes(BB))]),
        ],
        ids=[
            "parallel_io", "write_blocks", "read_blocks",
            "two_tracks_same_disk", "disk_out_of_range",
        ],
    )
    def test_one_line_naming_the_real_processor(self, call):
        arr = make_array(FaultPlan(p_transient_read=0.5), real=3)
        with pytest.raises(SimulationError) as err:
            call(arr)
        assert type(err.value) is SimulationError
        assert "\n" not in str(err.value) and "real processor 3" in str(err.value)
        assert arr.tracks_in_use == 0 and arr.stats.parallel_ios == 0
        assert arr.injector.op_index == 0 and not arr.injector.stats.any


class TestStateRoundTrip:
    PLAN = FaultPlan(
        seed=11, p_transient_read=0.3, p_transient_write=0.3,
        retry=RetryPolicy(max_retries=8),
        dead_disks=(DiskDeath(real=0, disk=3, after_op=12),),
    )

    def test_restore_replays_identically(self):
        a = make_array(self.PLAN)
        fill(a)
        saved = a.injector.state()
        tracks_before = [d.snapshot_tracks() for d in a.disks]

        first = read(a, stripe(32))
        stats_first = a.injector.stats.as_dict()

        # rebuild the array at the snapshot and replay the same accesses
        b = make_array(self.PLAN)
        b.injector.restore(saved)
        for disk, tracks in zip(b.disks, tracks_before):
            disk.restore_tracks(tracks)
        second = read(b, stripe(32))
        assert second == first
        assert b.injector.stats.as_dict() == stats_first

    def test_state_is_a_deep_snapshot(self):
        arr = make_array(self.PLAN)
        saved = arr.injector.state()
        fill(arr)
        assert saved["op_index"] == 0
        assert not saved["stats"].any


class TestFaultStats:
    def test_merge_sums_fields(self):
        a = FaultStats(retries=2, torn_writes=1, backoff_s=0.5)
        a.merge(FaultStats(retries=3, dead_disks=1, backoff_s=0.25))
        assert a.retries == 5 and a.torn_writes == 1 and a.dead_disks == 1
        assert a.backoff_s == 0.75

    def test_any_and_summary(self):
        assert not FaultStats().any
        st = FaultStats(retries=4, retried_accesses=3)
        assert st.any
        assert "4 retries (3 accesses)" in st.summary()
