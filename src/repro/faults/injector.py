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

A fault is a decision over a planned stream, not a second I/O path.  The
array moves planned streams only (``write_stream`` / ``write_run`` /
``read_run``); its per-op entry points (``parallel_io`` and the
``write_blocks`` / ``read_blocks`` that batch into it) refuse, so nothing
reaches the disks around a decision.  Each stream goes first to
:meth:`FaultInjector.decide` as its batch widths and logical addresses,
which applies due deaths, scheduled faults, drawn faults and retries in
the order one access at a time would, and answers with the dead-disk
translations and, when retries run out, where the stream stops.  The
bytes then move as a clean run's do (:meth:`DiskArray._transfer`: one
arena scatter or gather, a run one slice) while every disk is alive;
once one has died, and for a stream cut short, they go one track at a
time, each to the disk and track that serves it.

Cost accounting stays honest on two separate ledgers.  The **logical**
ledger (:class:`~repro.pdm.io_stats.IOStats`) is untouched: it records the
PDM schedule the engine issued, so fault-injected runs remain bit-identical
to clean runs in every model counter, which is what lets an entire test
suite run under injection.  The **physical** ledger (:class:`FaultStats`)
records what the faults cost on top: retries, modeled backoff seconds,
degraded I/Os, migrated blocks and the parallelism width lost to remapping.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, NoReturn

import numpy as np

from repro.faults.plan import FaultPlan
from repro.pdm.block import Runs
from repro.pdm.disk_array import BatchPlan, DiskArray, IOOp
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


@dataclass
class Decision:
    """What :meth:`FaultInjector.decide` made of one stream."""

    stop: int  #: leading positions serviced (all of them unless *fault*)
    fault: DiskFault | None = None  #: raise once the first *stop* are stored
    torn: bool = False  #: position *stop* is left holding a torn prefix


class _Draws:
    """The injector's uniforms, drawn ahead in bulk and handed out one
    access attempt at a time; ``hits[write]`` lists where a read or write
    attempt would fault.  :meth:`close` rewinds the generator to just past
    the last uniform handed out, as if each were drawn by its attempt."""

    CHUNK = 1 << 15  #: uniforms drawn per refill

    def __init__(self, rng: np.random.Generator, plan: FaultPlan) -> None:
        self.rng, self.plan, self.cur, self.u = rng, plan, 0, np.zeros(0)
        self._refill(0)

    def _refill(self, n: int) -> None:
        """Draw ahead so that the next *n* uniforms, and one more, are in."""
        more = self.rng.random(max(n + 2, self.CHUNK))
        u = self.u = np.concatenate([self.u[self.cur :], more])
        p, self.cur = self.plan, 0
        # a write draws for a tear, then (if it did not tear) for a transient
        second = u[1:] if p.p_torn_write else u[:-1]
        write = (u[:-1] < p.p_torn_write) | (second < p.p_transient_write)
        read = u[:-1] < p.p_transient_read
        self.hits = (np.flatnonzero(read).tolist(), np.flatnonzero(write).tolist())

    def attempt(self, write: bool, stride: int) -> str | None:
        """Hand out one attempt's *stride* draws; the fault it suffers."""
        if self.cur + stride + 1 >= len(self.u):
            self._refill(stride)
        u, x, p = self.u, self.cur, self.plan
        self.cur += stride
        if not write:
            return "transient_read" if u[x] < p.p_transient_read else None
        if p.p_torn_write:
            if u[x] < p.p_torn_write:
                self.cur = x + 1  # a tear draws once
                return "torn_write"
            x += 1
        return "transient_write" if u[x] < p.p_transient_write else None

    def skip(self, count: int, write: bool, stride: int) -> tuple[int, str | None]:
        """Hand out the draws of the next *count* accesses up to the first
        whose first attempt faults: how many were clean, and that fault."""
        if self.cur + count * stride + 1 >= len(self.u):
            self._refill(count * stride)
        cur, hits = self.cur, self.hits[write]
        i = bisect.bisect_left(hits, cur)
        while i < len(hits) and hits[i] < cur + count * stride:
            if (hits[i] - cur) % stride == 0:
                self.cur = hits[i]
                return (hits[i] - cur) // stride, self.attempt(write, stride)
            i += 1
        self.cur = cur + count * stride
        return count, None

    def close(self) -> None:
        self.rng.bit_generator.advance(self.cur - len(self.u))


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
        self._scheduled = sorted(self._schedule)
        #: uniforms a clean attempt draws, for a read and for a write
        self._strides = (
            int(bool(plan.p_transient_read)),
            int(bool(plan.p_torn_write)) + int(bool(plan.p_transient_write)),
        )
        #: disk -> after_op, deaths not yet applied
        self._pending_death = {
            d.disk: d.after_op for d in plan.dead_disks if d.real == real
        }
        self.dead: set[int] = set()
        #: (logical disk, logical track) -> (physical disk, physical track)
        self.remap: dict[tuple[int, int], tuple[int, int]] = {}
        self._draws: _Draws | None = None

    @property
    def quiet(self) -> bool:
        """Nothing left in the plan can touch an access: no draws, no
        scheduled fault, no pending death and no dead disk."""
        busy = self._schedule or self._pending_death or self.dead
        return not (self.plan.probabilistic or busy)

    # -- decisions -----------------------------------------------------------

    def decide(
        self,
        arr: "FaultyDiskArray",
        widths: np.ndarray,
        disks: np.ndarray,
        tracks: np.ndarray,
        write: bool,
        kill: Callable[[int, int, int], None],
    ) -> Decision:
        """Decide one stream of ``len(widths)`` parallel I/Os of *arr*.

        The k-th I/O makes ``widths[k]`` accesses; *disks* / *tracks* are
        the logical addresses of all of them in stream order and *write*
        says whether the stream writes them or reads them.  At
        each I/O the deaths due are applied first, through ``kill(disk,
        op, position)`` (the caller stores the accesses before *position*
        before the disk's blocks migrate).  Then every access takes its
        scheduled fault or its drawn one and retries until it succeeds or
        the retry policy gives up, which ends the stream there.
        """
        nb, op0, D = len(widths), self.op_index, arr.D
        ends = widths.cumsum()
        dec = Decision(stop=len(disks))
        stride, st, tracer = self._strides[write], self.stats, arr._tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        draws = self._draws
        if draws is None and self.plan.probabilistic:
            draws = self._draws = _Draws(self._rng, self.plan)

        def retry(pos: int, kind: str | None) -> bool:
            """Retry the access at *pos*, whose first attempt suffered
            *kind*; ``False`` when the policy gives up first."""
            attempt, last = 0, self.retry.max_retries
            while kind is not None:
                if kind == "transient_read":
                    st.transient_read_faults += 1
                elif kind == "transient_write":
                    st.transient_write_faults += 1
                else:
                    st.torn_writes += 1
                    if write:  # commits a corrupt prefix, which a retry overwrites
                        pdisk = self.peek(int(disks[pos]), int(tracks[pos]), D)[0]
                        arr.disks[pdisk].blocks_written += 1
                        dec.torn = True
                if tracer is not None or attempt == last:
                    disk, track = int(disks[pos]), int(tracks[pos])
                    op = op0 + int(ends.searchsorted(pos, "right"))
                    if tracer is not None:
                        tracer.emit(
                            "io_fault",
                            real=arr._real,
                            disk=disk,
                            track=track,
                            op=op,
                            fault=kind,
                            attempt=attempt,
                        )
                    if attempt == last:
                        dec.stop = pos
                        dec.fault = DiskFault(
                            f"{kind} on disk {disk} track {track} of real "
                            f"processor {arr._real} persists after "
                            f"{last} retries (parallel I/O #{op})"
                        )
                        return False
                attempt += 1
                st.retries += 1
                st.backoff_s += self.retry.backoff_s * attempt
                kind = draws.attempt(write, stride) if draws else None
            dec.torn = False
            st.retried_accesses += 1
            return True

        def scan(lo: int, b: int, e: int) -> int | None:
            """Fault the accesses of I/Os ``b`` to ``e - 1``, which start
            at position *lo*; where the retries ran out, or ``None``."""
            # a scheduled fault strikes the first attempt at (op, logical
            # disk): list them in stream order, I/O by I/O
            marks: list[tuple[int, str | None]] = []
            seen, at = -1, bisect.bisect_left(self._scheduled, (op0 + b, -1))
            for op, _disk in self._scheduled[at:]:
                if op >= op0 + e:
                    break
                if op == seen:
                    continue
                seen, k = op, op - op0
                for pos in range(int(ends[k] - widths[k]), int(ends[k])):
                    kind = self._schedule.get((op, int(disks[pos])))
                    if kind is not None:
                        marks.append((pos, kind))
            marks.append((int(ends[e - 1]), None))
            i = lo
            for mark, kind in marks:
                # skip to the stream's next drawn fault
                while draws is not None and stride and i < mark:
                    clean, drawn = draws.skip(mark - i, write, stride)
                    i += clean
                    if drawn is not None and not retry(i, drawn):
                        return i
                    i += 1
                if kind is not None and not retry(mark, kind):
                    return mark
                i = mark + 1
            return None

        def degrade(lo: int, b: int, e: int, stop: int | None) -> None:
            """Serve the accesses of I/Os ``b`` to ``e - 1`` that reach a
            dead disk from a survivor, up to *stop*, and count each I/O
            that completed with one: degraded, and the width it lost."""
            hi = int(ends[e - 1]) if stop is None else stop + 1
            phys = disks[lo:hi].astype(np.int64)
            hit = np.flatnonzero(np.isin(phys, list(self.dead)))
            for i in hit.tolist():
                phys[i] = self.resolve(int(phys[i]), int(tracks[lo + i]), D)[0]
            if stop is not None:
                e = int(ends.searchsorted(stop, "right"))
            io = np.repeat(np.arange(e - b), widths[b:e])
            hit = np.unique(io[hit[hit < len(io)]])
            pairs = np.unique(io * D + phys[: len(io)])  # (I/O, physical disk)
            served = np.bincount(pairs // D, minlength=e - b)
            st.degraded_ios += len(hit)
            st.lost_width += int((widths[b:e][hit] - served[hit]).sum())

        b = 0
        while b < nb:
            lo = int(ends[b - 1]) if b else 0
            self.op_index, e = op0 + b + 1, nb
            pending = self._pending_death
            if pending:
                due = sorted(d for d, after in pending.items() if op0 + b >= after)
                for dead in due:
                    del pending[dead]
                for dead in due:
                    kill(dead, op0 + b, lo)
                # the I/Os up to the next death share one dead-disk set
                if pending:
                    e = min(nb, min(pending.values()) - op0)
            stop = scan(lo, b, e)
            if self.dead:
                degrade(lo, b, e, stop)
            if stop is not None:
                self.op_index = op0 + int(ends.searchsorted(stop, "right")) + 1
                break
            b = e
        else:
            self.op_index = op0 + nb
        return dec

    def survivors(self, D: int) -> list[int]:
        return [d for d in range(D) if d not in self.dead]

    def shadow_track(self, disk: int, track: int, D: int) -> int:
        """Unique shadow address for logical ``(disk, track)``."""
        return SHADOW_BASE + track * D + disk

    def resolve(self, disk: int, track: int, D: int) -> tuple[int, int]:
        """The survivor's shadow track serving an access to dead *disk*;
        the first access to a not-yet-evacuated address records it."""
        home = self.remap[disk, track] = self.peek(disk, track, D)
        self.stats.remapped_accesses += 1
        return home

    def peek(self, disk: int, track: int, D: int) -> tuple[int, int]:
        """Physical ``(disk, track)`` serving a logical address, cost-free
        and recording nothing."""
        if disk not in self.dead:
            return disk, track
        home = self.remap.get((disk, track))
        if home is not None:
            return home
        alive = self.survivors(D)
        return alive[(disk + track) % len(alive)], self.shadow_track(disk, track, D)

    # -- checkpointing --------------------------------------------------------

    def state(self) -> dict[str, Any]:
        if self._draws is not None:  # the generator as if drawn one by one
            self._draws.close()
            self._draws = None
        return {
            "rng": self._rng.bit_generator.state,
            "op_index": self.op_index,
            "pending_death": dict(self._pending_death),
            "dead": sorted(self.dead),
            "remap": dict(self.remap),
            "stats": FaultStats(**self.stats.as_dict()),
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._draws = None
        self._rng.bit_generator.state = state["rng"]
        self.op_index = state["op_index"]
        self._pending_death = dict(state["pending_death"])
        self.dead = set(state["dead"])
        self.remap = dict(state["remap"])
        self.stats = FaultStats(**state["stats"].as_dict())


class FaultyDiskArray(DiskArray):
    """A disk array whose physical accesses obey a fault plan.

    The logical PDM schedule (:class:`IOStats`) and the arena storage are
    inherited unchanged from :class:`DiskArray`.  Each planned stream is
    decided once by the injector; its bytes then move like a clean run's.
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

    # -- core operation ------------------------------------------------------

    _direct = False

    def parallel_io(self, ops: list[IOOp]) -> list[bytes]:
        raise SimulationError(
            f"the fault-injected disks of real processor {self._real} move "
            "planned streams only (write_stream / write_run / read_run), "
            "not a per-op parallel_io"
        )

    def _transfer(
        self, plan: BatchPlan, base: int, rows: np.ndarray, *, write: bool
    ) -> None:
        inj = self.injector
        if inj.quiet:
            inj.op_index += plan.nops
            super()._transfer(plan, base, rows, write=write)
            return
        disks, tracks, done = plan.disks, base + plan.tracks.astype(np.int64), 0

        def kill(dead: int, op: int, pos: int) -> None:
            nonlocal done
            self._by_track(rows, self._homes(disks, tracks, range(done, pos)), write)
            done = pos
            self._kill_disk(dead, op)

        try:
            dec = inj.decide(self, plan.widths, disks, tracks, write, kill)
        except DiskFault:  # a death left no survivor
            self._record_prefix(plan.widths, disks, done, write)
            raise
        if dec.fault is None and not inj.dead:
            # every disk alive and no fault: the stream moves like a clean one
            super()._transfer(plan, base, rows, write=write)
            return
        # a dead disk's blocks served by survivors, or a stream cut by a
        # fault: one track at a time, in order, under the one decision
        self._by_track(rows, self._homes(disks, tracks, range(done, dec.stop)), write)
        self._record_prefix(plan.widths, disks, dec.stop, write)
        if dec.fault is not None:
            at = dec.stop
            self._fail(dec, int(disks[at]), int(tracks[at]), rows[at].tobytes())

    def try_gather(self, runs: Runs, out: np.ndarray) -> bool:
        return False  # every read is decided: finish_read goes to read_run

    def _homes(
        self, disks: np.ndarray, tracks: np.ndarray, idx: Iterable[int]
    ) -> list[tuple[int, int, int]]:
        """``(position, disk, track)`` serving the accesses at *idx*."""
        peek, D, at = self.injector.peek, self.D, np.asarray(idx, dtype=np.int64)
        where = zip(at.tolist(), disks[at].tolist(), tracks[at].tolist())
        return [(i, *peek(d, t, D)) for i, d, t in where]

    def _fail(self, dec: Decision, disk: int, track: int, block: bytes) -> NoReturn:
        """Raise the decision's fault, leaving the torn prefix of *block*
        at the logical ``(disk, track)`` where the retries ran out."""
        assert dec.fault is not None
        if dec.torn:  # stored: the tear counted its block
            pdisk, ptrack = self.injector.peek(disk, track, self.D)
            self._arena.put(pdisk, ptrack, block[: max(1, len(block) // 2)])
        raise dec.fault

    def _record_prefix(
        self, widths: np.ndarray, disks: np.ndarray, upto: int, write: bool
    ) -> None:
        """Count the parallel I/Os wholly inside the first *upto* accesses
        of a stream moved track by track, one by one."""
        lo = 0
        for w in widths.tolist():
            if lo + w > upto:
                break
            touched = sorted(set(disks[lo : lo + w].tolist()))
            self.stats.record(0 if write else w, w if write else 0, touched, self.D)
            lo += w

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

