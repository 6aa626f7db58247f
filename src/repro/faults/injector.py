"""Fault injection at the parallel-disk layer.

:class:`FaultyDiskArray` is a drop-in :class:`~repro.pdm.disk_array.DiskArray`
whose physical track accesses can fail according to a
:class:`~repro.faults.plan.FaultPlan`:

* **transient** read/write failures — the access fails, the retry policy
  re-attempts it (each retry may fault again, so an unlucky streak can
  still exhaust the policy and raise :class:`DiskFault`);
* **torn writes** — a corrupted prefix of the block is committed before
  the failure is reported, so a crash between the tear and the successful
  retry leaves garbage on the track (exactly the hazard checkpoint
  verification exists for);
* **disk deaths** — after a scheduled parallel-I/O count the disk stops
  answering; in *degraded mode* its blocks are migrated onto the
  survivors and all later accesses are remapped there.

Cost accounting stays honest on two separate ledgers.  The **logical**
ledger (:class:`~repro.pdm.io_stats.IOStats`) is untouched: it records the
PDM schedule the engine issued, so fault-injected runs remain bit-identical
to clean runs in every model counter, which is what lets an entire test
suite run under injection.  The **physical** ledger (:class:`FaultStats`)
records what the faults cost on top: retries, modeled backoff seconds,
degraded I/Os, migrated blocks and the parallelism width lost to remapping.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.pdm.arena import Extent
from repro.pdm.disk_array import DiskArray, IOOp, Segment, check_segments
from repro.util.validation import SimulationError

#: logical tracks remapped off a dead disk live in this shadow range on the
#: survivors, keyed uniquely by (logical disk, logical track).
SHADOW_BASE = 1 << 40


class DiskFault(SimulationError):
    """A disk access failed permanently (retries exhausted or no survivors)."""


@dataclass
class FaultStats:
    """Physical-layer fault accounting for one or more disk arrays."""

    transient_read_faults: int = 0   #: injected read failures
    transient_write_faults: int = 0  #: injected write failures
    torn_writes: int = 0             #: writes that committed a corrupt prefix
    retries: int = 0                 #: re-attempted single-track accesses
    retried_accesses: int = 0        #: accesses that needed >= 1 retry
    backoff_s: float = 0.0           #: modeled retry backoff time
    dead_disks: int = 0              #: disks declared dead
    migrated_blocks: int = 0         #: blocks evacuated from dead disks
    migration_ios: int = 0           #: modeled parallel I/Os spent migrating
    degraded_ios: int = 0            #: parallel I/Os that touched a remap
    remapped_accesses: int = 0       #: single-track accesses served by a survivor
    lost_width: int = 0              #: disk-parallelism lost to remapping

    def merge(self, other: "FaultStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def any(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    def summary(self) -> str:
        return (
            f"{self.retries} retries ({self.retried_accesses} accesses), "
            f"{self.torn_writes} torn writes, {self.dead_disks} dead disks, "
            f"{self.degraded_ios} degraded I/Os (width lost {self.lost_width})"
        )


class FaultInjector:
    """Per-real-processor fault decisions, deterministic and checkpointable.

    One injector belongs to exactly one :class:`FaultyDiskArray`.  All of
    its mutable state — RNG, parallel-I/O index, dead-disk set, the remap
    table of evacuated tracks and the statistics — round-trips through
    :meth:`state` / :meth:`restore` so a checkpointed run resumes the fault
    sequence bit-identically.
    """

    def __init__(self, plan: FaultPlan, real: int) -> None:
        self.plan = plan
        self.real = real
        self.retry = plan.retry
        self.stats = FaultStats()
        self.op_index = 0  #: parallel I/Os issued by the owning array
        self._rng = np.random.default_rng(np.random.SeedSequence([plan.seed, real]))
        #: (op, disk) -> kind, for this real's scheduled faults
        self._schedule = {
            (s.op, s.disk): s.kind for s in plan.schedule if s.real == real
        }
        #: disk -> after_op, deaths not yet applied
        self._pending_death = {
            d.disk: d.after_op for d in plan.dead_disks if d.real == real
        }
        self.dead: set[int] = set()
        #: (logical disk, logical track) -> (physical disk, physical track)
        self.remap: dict[tuple[int, int], tuple[int, int]] = {}

    # -- decisions -----------------------------------------------------------

    def next_op(self) -> int:
        """Advance to the next parallel I/O; returns its index."""
        idx = self.op_index
        self.op_index += 1
        return idx

    def due_deaths(self, op_idx: int) -> list[int]:
        """Disks whose scheduled death is due at *op_idx* (and clear them)."""
        due = sorted(d for d, after in self._pending_death.items() if op_idx >= after)
        for d in due:
            del self._pending_death[d]
        return due

    def draw_fault(self, op: IOOp, op_idx: int, attempt: int) -> str | None:
        """The fault (if any) striking this access attempt.

        Scheduled faults fire on the first attempt only; probabilistic
        faults are drawn independently per attempt.
        """
        if attempt == 0:
            kind = self._schedule.get((op_idx, op.disk))
            if kind is not None:
                return kind
        plan = self.plan
        if op.is_write:
            if plan.p_torn_write and self._rng.random() < plan.p_torn_write:
                return "torn_write"
            if plan.p_transient_write and self._rng.random() < plan.p_transient_write:
                return "transient_write"
        elif plan.p_transient_read and self._rng.random() < plan.p_transient_read:
            return "transient_read"
        return None

    def record_fault(self, kind: str) -> None:
        if kind == "transient_read":
            self.stats.transient_read_faults += 1
        elif kind == "transient_write":
            self.stats.transient_write_faults += 1
        else:
            self.stats.torn_writes += 1

    # -- degraded-mode remapping ---------------------------------------------

    def survivors(self, D: int) -> list[int]:
        return [d for d in range(D) if d not in self.dead]

    def shadow_track(self, disk: int, track: int, D: int) -> int:
        """Unique shadow address for logical ``(disk, track)``."""
        return SHADOW_BASE + track * D + disk

    def resolve(self, disk: int, track: int, D: int) -> tuple[int, int, bool]:
        """Physical ``(disk, track, remapped)`` serving a logical address.

        The first access to a not-yet-evacuated address on a dead disk
        assigns (and records) its shadow home on a survivor.
        """
        if disk not in self.dead:
            return disk, track, False
        key = (disk, track)
        home = self.remap.get(key)
        if home is None:
            alive = self.survivors(D)
            home = (
                alive[(disk + track) % len(alive)],
                self.shadow_track(disk, track, D),
            )
            self.remap[key] = home
        self.stats.remapped_accesses += 1
        return home[0], home[1], True

    def peek(self, disk: int, track: int, D: int) -> tuple[int, int]:
        """Like :meth:`resolve` but cost-free (used by deallocation)."""
        if disk not in self.dead:
            return disk, track
        home = self.remap.get((disk, track))
        if home is not None:
            return home
        alive = self.survivors(D)
        return alive[(disk + track) % len(alive)], self.shadow_track(disk, track, D)

    # -- checkpointing --------------------------------------------------------

    def state(self) -> dict[str, Any]:
        return {
            "rng": self._rng.bit_generator.state,
            "op_index": self.op_index,
            "pending_death": dict(self._pending_death),
            "dead": sorted(self.dead),
            "remap": dict(self.remap),
            "stats": FaultStats(**self.stats.as_dict()),
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._rng.bit_generator.state = state["rng"]
        self.op_index = state["op_index"]
        self._pending_death = dict(state["pending_death"])
        self.dead = set(state["dead"])
        self.remap = dict(state["remap"])
        self.stats = FaultStats(**state["stats"].as_dict())


class FaultyDiskArray(DiskArray):
    """A disk array whose physical accesses obey a fault plan.

    The logical PDM schedule (batch validation, :class:`IOStats`) and the
    arena storage are inherited unchanged from :class:`DiskArray`; only the
    *service* of each single-track access goes through the injector.  Faults
    resolve, retry and tear every access individually, so the run API is
    serviced by the per-op loop: the same placements, in the same order,
    through :meth:`write_blocks` / :meth:`read_blocks`.
    """

    def __init__(
        self,
        D: int,
        B: int,
        injector: FaultInjector,
        tracer=None,
        real: int = 0,
        runtime=None,
    ) -> None:
        super().__init__(D, B, tracer=tracer, real=real, runtime=runtime)
        self.injector = injector

    def write_stream(self, segments: Sequence[Segment]) -> int:
        check_segments(segments)
        placements: list[tuple[int, int, bytes]] = []
        for runs, run in segments:
            disks, tracks = runs.expand(self.D)
            placements.extend(zip(disks.tolist(), tracks.tolist(), run.to_blocks()))
        return self.write_blocks(placements)

    def _gather(self, extents: Sequence[Extent], base: int, rows: np.ndarray) -> bool:
        return False

    # -- core operation ------------------------------------------------------

    def parallel_io(self, ops: list[IOOp]) -> list[bytes]:
        if not ops:
            return []
        touched = self._check_batch(ops)
        inj = self.injector
        op_idx = inj.next_op()
        for dead in inj.due_deaths(op_idx):
            self._kill_disk(dead, op_idx)

        out: list[bytes] = []
        n_read = n_written = 0
        physical: set[int] = set()
        remapped = False
        for op in ops:
            pdisk, ptrack, moved = inj.resolve(op.disk, op.track, self.D)
            remapped |= moved
            physical.add(pdisk)
            data = self._service(op, pdisk, ptrack, op_idx)
            if op.is_write:
                n_written += 1
            else:
                out.append(data)  # type: ignore[arg-type]
                n_read += 1
        if remapped:
            inj.stats.degraded_ios += 1
            lost = len(touched) - len(physical)
            if lost > 0:
                inj.stats.lost_width += lost
        self.stats.record(n_read, n_written, sorted(touched), self.D)
        return out

    def _service(self, op: IOOp, pdisk: int, ptrack: int, op_idx: int) -> bytes | None:
        """One single-track access with transient-fault retries."""
        inj = self.injector
        attempt = 0
        while True:
            kind = inj.draw_fault(op, op_idx, attempt)
            if kind is None:
                if attempt:
                    inj.stats.retried_accesses += 1
                if op.is_write:
                    self.disks[pdisk].write(ptrack, op.data)  # type: ignore[arg-type]
                    return None
                return self.disks[pdisk].read(ptrack)
            inj.record_fault(kind)
            if kind == "torn_write":
                # the tear commits a corrupt prefix before failing; the
                # retry (if granted) overwrites it with the full block
                assert op.data is not None
                self.disks[pdisk].write(ptrack, op.data[: max(1, len(op.data) // 2)])
            if self._tracer is not None and self._tracer.enabled:
                self._tracer.emit(
                    "io_fault",
                    real=self._real,
                    disk=op.disk,
                    track=op.track,
                    op=op_idx,
                    fault=kind,
                    attempt=attempt,
                )
            if attempt >= inj.retry.max_retries:
                raise DiskFault(
                    f"{kind} on disk {op.disk} track {op.track} of real "
                    f"processor {self._real} persists after "
                    f"{inj.retry.max_retries} retries (parallel I/O #{op_idx})"
                )
            attempt += 1
            inj.stats.retries += 1
            inj.stats.backoff_s += inj.retry.backoff_s * attempt

    # -- degraded mode -------------------------------------------------------

    def _kill_disk(self, dead: int, op_idx: int) -> None:
        """Declare *dead* failed and evacuate its blocks onto survivors."""
        inj = self.injector
        inj.dead.add(dead)
        alive = inj.survivors(self.D)
        if not alive:
            raise DiskFault(
                f"disk {dead} of real processor {self._real} died and no "
                f"survivors remain (D={self.D})"
            )
        tracks = self.disks[dead].snapshot_tracks()
        # every physical block on the dead device must move: its native
        # tracks plus any shadow blocks it hosted for earlier casualties
        victims: list[tuple[tuple[int, int], int]] = []
        for key, (pd, pt) in list(inj.remap.items()):
            if pd == dead:
                victims.append((key, pt))
        for t in tracks:
            if t < SHADOW_BASE:
                victims.append(((dead, t), t))
        victims.sort(key=lambda item: item[1])
        # moved through the arena, not Disk.write: evacuation is modeled in
        # FaultStats.migration_ios, never in the per-disk block counters
        for i, (key, ptrack) in enumerate(victims):
            new_disk = alive[i % len(alive)]
            new_track = inj.shadow_track(key[0], key[1], self.D)
            self._arena.put(new_disk, new_track, tracks[ptrack])
            inj.remap[key] = (new_disk, new_track)
        self.disks[dead].restore_tracks({})
        inj.stats.dead_disks += 1
        inj.stats.migrated_blocks += len(victims)
        inj.stats.migration_ios += -(-len(victims) // len(alive)) if victims else 0
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.emit(
                "disk_dead",
                real=self._real,
                disk=dead,
                op=op_idx,
                migrated_blocks=len(victims),
                survivors=len(alive),
            )

    def free_blocks(self, addresses: list[tuple[int, int]]) -> None:
        inj = self.injector
        for disk, track in addresses:
            pdisk, ptrack = inj.peek(disk, track, self.D)
            self.disks[pdisk].free(ptrack)


def collect_fault_stats(arrays) -> FaultStats | None:
    """Merged fault statistics of the fault-injected arrays, or ``None``
    when no array carries an injector (a clean run)."""
    merged: FaultStats | None = None
    for arr in arrays:
        inj = getattr(arr, "injector", None)
        if inj is None:
            continue
        if merged is None:
            merged = FaultStats()
        merged.merge(inj.stats)
    return merged
