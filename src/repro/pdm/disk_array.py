"""A bank of D disks honoring the PDM parallel-I/O rule.

The only way to move data is :meth:`DiskArray.parallel_io`, which takes a
batch of per-disk track operations and enforces the model's invariant: **at
most one track per disk per operation**.  Everything above this layer
(consecutive layout, staggered message matrix, the DiskWrite FIFO) is
responsible for scheduling conflict-free batches; the array will refuse a
batch that violates the rule, so a mis-scheduled layout fails loudly in the
tests instead of silently undercounting I/O.

Bulk streams have one storage (the shared
:class:`~repro.pdm.arena.TrackArena`) and two spellings:

* :meth:`write_run` / :meth:`write_stream` / :meth:`read_run` — the run
  API the engines use: the stream's :class:`BatchPlan` (greedy batch
  boundaries via :func:`greedy_batch_widths`, the per-disk and width
  histograms, and each disk's positions in the stream as one extent) is
  planned once per distinct disk-index stream and memoised, data moves
  as one arena scatter/gather over those extents, and the plan is folded
  in with :meth:`IOStats.record_batch`.
* :meth:`write_blocks` / :meth:`read_blocks` — the PDM specification:
  greedy FIFO batching into per-op :class:`IOOp` lists, one
  :meth:`parallel_io` per batch, one Python iteration per block.  The
  fault injector services every access through this loop, overflow runs
  and the EM baselines call it directly, and the hypothesis suites hold
  the run API to it: counters, batch widths and stored bytes are
  bit-identical.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.pdm.disk import Disk
from repro.pdm.arena import Extent
from repro.pdm.fastpath import BlockRun
from repro.pdm.mmap_arena import make_arena
from repro.pdm.io_stats import IOStats
from repro.util.items import ITEM_BYTES
from repro.util.validation import SimulationError, require

if TYPE_CHECKING:  # pragma: no cover - layering: pdm stays engine-free
    from repro.obs.trace import TraceRecorder
    from repro.tune.runtime import RuntimeConfig

#: One run-API write/read segment: parallel arrays of disk and track
#: indices plus the run of blocks addressed by them.
Segment = tuple[np.ndarray, np.ndarray, BlockRun]


@dataclass(frozen=True)
class IOOp:
    """One track access within a parallel I/O.

    ``data is None`` means *read*; otherwise the bytes are written.
    """

    disk: int
    track: int
    data: bytes | None = None

    @property
    def is_write(self) -> bool:
        return self.data is not None


def greedy_batch_widths(disks: np.ndarray, D: int) -> tuple[int, np.ndarray]:
    """Batch widths of the greedy FIFO packing over a disk-index stream.

    Replicates exactly the cut points of :meth:`DiskArray.write_blocks`:
    scan the stream in order, flush the open batch the moment a disk
    repeats within it.  Returns ``(n_batches, widths)`` where ``widths[k]``
    is the number of ops in batch ``k`` (all ``<= D``).

    The consecutive layout produces perfectly striped streams
    (``disks[i] = (disks[0] + i) % D``); that common case collapses to
    arithmetic.  General streams use the previous-occurrence trick: with
    ``prev[i]`` the index of the prior op on the same disk (-1 if none), a
    batch starting at ``b`` ends before the first ``i`` with
    ``max(prev[b..i]) >= b`` — found by binary search over the running
    maximum, which is sorted because ``prev[i] < i``.
    """
    n = int(disks.size)
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    if D == 1:
        return n, np.ones(n, dtype=np.int64)
    first = int(disks[0])
    striped = (first + np.arange(n, dtype=np.int64)) % D
    if np.array_equal(disks, striped):
        nbatches = -(-n // D)
        widths = np.full(nbatches, D, dtype=np.int64)
        if n % D:
            widths[-1] = n % D
        return nbatches, widths
    order = np.argsort(disks, kind="stable")
    sorted_disks = disks[order]
    prev = np.full(n, -1, dtype=np.int64)
    same = sorted_disks[1:] == sorted_disks[:-1]
    prev[order[1:][same]] = order[:-1][same]
    running_max = np.maximum.accumulate(prev).tolist()
    # bisect on a plain list beats np.searchsorted per call by ~10x at the
    # few-hundred-element sizes a stream produces
    bounds = [0]
    b = 0
    while True:
        nxt = bisect.bisect_left(running_max, b)
        if nxt >= n:
            break
        bounds.append(nxt)
        b = nxt
    bounds.append(n)
    return len(bounds) - 1, np.diff(np.asarray(bounds, dtype=np.int64))


@dataclass(frozen=True)
class BatchPlan:
    """What one disk-index stream costs and where it goes: the accounting
    delta of its greedy FIFO batching plus each disk's positions in the
    stream, both pure functions of ``(D, disks)``."""

    nops: int                       #: parallel I/Os
    per_disk: tuple[int, ...]       #: blocks serviced by each disk
    width_counts: tuple[int, ...]   #: batches touching exactly w disks
    #: stream positions per disk, for the arena; no part of a plan's identity
    split: tuple[Extent, ...] = field(default=(), compare=False)


def _extent(idx: np.ndarray) -> Extent:
    """Ascending stream positions as a slice when they are evenly spaced
    (every single-extent stream of the consecutive and staggered layouts),
    else as a read-only index array: memoised plans are shared."""
    if idx.size == 0:
        return None
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if (np.diff(idx) == step).all():
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    idx.flags.writeable = False
    return idx


def _build_plan(D: int, stream: bytes) -> BatchPlan:
    disks = np.frombuffer(stream, dtype=np.int64)
    if disks.size and (int(disks.min()) < 0 or int(disks.max()) >= D):
        bad = int(disks[(disks < 0) | (disks >= D)][0])
        raise SimulationError(f"disk index {bad} out of range 0..{D - 1}")
    nops, widths = greedy_batch_widths(disks, D)
    per_disk = np.bincount(disks, minlength=D)
    width_counts = np.bincount(widths, minlength=D + 1)[: D + 1]
    split = tuple(_extent(np.flatnonzero(disks == d)) for d in range(D))
    return BatchPlan(
        nops, tuple(per_disk.tolist()), tuple(width_counts.tolist()), split
    )


#: ``(D, disks.tobytes()) -> BatchPlan``.  The layouts alternate with period
#: two (Observation 2), so a run replays few distinct streams (126 in the
#: 1,624 calls of a ``rounds_listrank`` op); a hit means these exact bytes
#: already passed the disk-range check, so only the track check (tracks are
#: not part of the key) runs per call.  A raising build stores nothing.
batch_plan = lru_cache(maxsize=256)(_build_plan)

#: Longer streams are planned afresh: their keys and index-array extents
#: would dominate the memo (256 x 2 x 32 KiB at most as it is) and planning
#: is small beside moving them.
PLAN_MEMO_MAX_BLOCKS = 4096


def check_segments(segments: Sequence[Segment]) -> None:
    """Refuse a write stream whose address arrays and run disagree in
    length, naming the segment, before anything is stored or counted."""
    for i, (disks, tracks, run) in enumerate(segments):
        if not len(disks) == len(tracks) == run.nblocks:
            raise SimulationError(
                f"write_stream segment {i}: {len(disks)} disks and "
                f"{len(tracks)} tracks address a run of {run.nblocks} blocks"
            )


class DiskArray:
    """D simulated disks owned by one (real) processor."""

    def __init__(
        self,
        D: int,
        B: int,
        tracer: "TraceRecorder | None" = None,
        real: int = 0,
        runtime: "RuntimeConfig | None" = None,
    ) -> None:
        require(D >= 1, f"need at least one disk, got D={D}")
        require(B >= 1, f"block size must be positive, got B={B}")
        self.D = D
        self.B = B
        self.block_bytes = B * ITEM_BYTES
        self._tracer = tracer
        self._real = int(real)
        self._arena = make_arena(D, self.block_bytes, runtime=runtime)
        if tracer is not None and tracer.enabled:
            # storage telemetry: one event per growth of a disk's rows
            self._arena.on_grow = self._record_arena_grow
        self.disks = [Disk(d, arena=self._arena) for d in range(D)]
        self.stats = IOStats(D=D)
        #: write_stream's staging rows; grows to the longest stream written
        self._stage = np.empty(0, dtype=np.uint8)

    def _record_arena_grow(self, disk: int, cap: int) -> None:
        """Arena growth callback -> one ``arena_grow`` trace event."""
        arena, tracer = self._arena, self._tracer
        if tracer is None:
            return
        tracer.emit(
            "arena_grow",
            real=self._real,
            disk=disk,
            tracks=cap,
            nbytes=cap * self.block_bytes,
            resident_nbytes=arena.resident_nbytes(),
            spill_nbytes=arena.spill_nbytes(),
            backend="mmap" if getattr(arena, "spill_dir", None) else "ram",
        )

    # -- core operation ----------------------------------------------------

    def parallel_io(self, ops: list[IOOp]) -> list[bytes]:
        """Execute one parallel I/O operation.

        *ops* may mix reads and writes (the model allows any one-track-per-
        disk access pattern).  Returns the data of the read ops, in the
        order they appear in *ops*.
        """
        if not ops:
            return []
        touched = self._check_batch(ops)

        out: list[bytes] = []
        n_read = n_written = 0
        for op in ops:
            if op.is_write:
                self.disks[op.disk].write(op.track, op.data)  # type: ignore[arg-type]
                n_written += 1
            else:
                out.append(self.disks[op.disk].read(op.track))
                n_read += 1
        self.stats.record(n_read, n_written, sorted(touched), self.D)
        return out

    def _check_batch(self, ops: list[IOOp]) -> set[int]:
        """Enforce the one-track-per-disk rule; returns the disks touched."""
        touched: set[int] = set()
        for op in ops:
            if not (0 <= op.disk < self.D):
                raise SimulationError(f"disk index {op.disk} out of range 0..{self.D - 1}")
            if op.disk in touched:
                raise SimulationError(
                    f"parallel I/O touches disk {op.disk} twice — the PDM "
                    "allows at most one track per disk per operation"
                )
            touched.add(op.disk)
        return touched

    # -- bulk helpers (each issues ceil(n/D) parallel I/Os) -----------------

    def write_blocks(self, placements: list[tuple[int, int, bytes]]) -> int:
        """Write blocks at explicit ``(disk, track)`` addresses, greedily
        packing consecutive conflict-free runs into parallel I/Os (FIFO
        order is preserved, as in the paper's DiskWrite procedure).

        Returns the number of parallel I/O operations used.
        """
        ops_used = 0
        batch: list[IOOp] = []
        used: set[int] = set()
        for disk, track, data in placements:
            if disk in used:
                self.parallel_io(batch)
                ops_used += 1
                batch, used = [], set()
            batch.append(IOOp(disk, track, data))
            used.add(disk)
        if batch:
            self.parallel_io(batch)
            ops_used += 1
        return ops_used

    def read_blocks(self, addresses: list[tuple[int, int]]) -> list[bytes]:
        """Read blocks at explicit ``(disk, track)`` addresses, batching
        conflict-free runs exactly like :meth:`write_blocks`."""
        out: list[bytes] = []
        batch: list[IOOp] = []
        used: set[int] = set()
        for disk, track in addresses:
            if disk in used:
                out.extend(self.parallel_io(batch))
                batch, used = [], set()
            batch.append(IOOp(disk, track))
            used.add(disk)
        if batch:
            out.extend(self.parallel_io(batch))
        return out

    def free_blocks(self, addresses: Iterable[tuple[int, int]]) -> None:
        """Release tracks (no I/O cost — deallocation is bookkeeping)."""
        for disk, track in addresses:
            self.disks[disk].free(track)

    # -- vectorized bulk path ----------------------------------------------

    def write_run(self, disks: np.ndarray, tracks: np.ndarray, run: BlockRun) -> int:
        """Write one :class:`BlockRun` at vectorized addresses.

        Semantically identical to :meth:`write_blocks` over the zipped
        placements; returns the number of parallel I/Os used.
        """
        return self.write_stream([(disks, tracks, run)])

    def write_stream(self, segments: Sequence[Segment]) -> int:
        """Write several runs as **one** FIFO stream.

        Greedy batching spans segment boundaries (the engine concatenates
        all bundles destined for one owner before batching).  The runs are
        copied into one staging buffer — each run's implicit tail
        zero-filled, as ``pack_blocks`` pads it — and stored with a single
        arena scatter.  Returns parallel I/Os used.
        """
        check_segments(segments)
        segments = [s for s in segments if s[2].nblocks]
        if not segments:
            return 0
        if len(segments) == 1:
            all_disks = np.asarray(segments[0][0], dtype=np.int64)
            all_tracks = np.asarray(segments[0][1], dtype=np.int64)
        else:
            all_disks = np.concatenate(
                [np.asarray(s[0], dtype=np.int64) for s in segments]
            )
            all_tracks = np.concatenate(
                [np.asarray(s[1], dtype=np.int64) for s in segments]
            )
        plan = self._plan(all_disks, all_tracks)

        bb = self.block_bytes
        total = int(all_disks.size)
        if self._stage.size < total * bb:
            self._stage = np.empty(total * bb, dtype=np.uint8)
        flat = self._stage[: total * bb]
        pos = 0
        for _disks, _tracks, run in segments:
            buf = run.buf
            view = (
                buf if isinstance(buf, np.ndarray) else np.frombuffer(buf, dtype=np.uint8)
            ).reshape(-1)
            end = pos + run.nblocks * bb
            flat[pos : pos + view.size] = view
            flat[pos + view.size : end] = 0
            pos = end
        self._arena.scatter(plan.split, all_tracks, flat.reshape(total, bb))
        self._record(plan, total, write=True)
        return plan.nops

    def read_run(
        self, disks: np.ndarray, tracks: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Read blocks at vectorized addresses into one contiguous buffer.

        Returns a ``uint8`` array of ``n * block_bytes`` bytes (a view of
        *out* when given, so callers can pool the allocation).  Batching
        and counters match :meth:`read_blocks` exactly; sparse or odd-sized
        tracks fall back to that per-track loop transparently.
        """
        disks = np.asarray(disks, dtype=np.int64)
        tracks = np.asarray(tracks, dtype=np.int64)
        n = int(disks.size)
        bb = self.block_bytes
        if out is None:
            out = np.empty(n * bb, dtype=np.uint8)
        elif out.size < n * bb:
            raise SimulationError(
                f"read_run: out buffer of {out.size} bytes cannot hold "
                f"{n} blocks of {bb} bytes"
            )
        flat = out[: n * bb]
        plan = self._plan(disks, tracks)
        if n == 0:
            return flat
        if self._gather(plan.split, tracks, flat.reshape(n, bb)):
            self._record(plan, n, write=False)
            return flat
        # Per-track loop: side-dict tracks, short rows, the canonical
        # unwritten-track error, and every access of a fault-injected array.
        blocks = self.read_blocks(list(zip(disks.tolist(), tracks.tolist())))
        pos = 0
        for block in blocks:
            chunk = np.frombuffer(block, dtype=np.uint8)
            flat[pos : pos + chunk.size] = chunk
            if chunk.size < bb:
                flat[pos + chunk.size : pos + bb] = 0
            pos += bb
        return flat

    # -- unused here: benchmarks/e2e/layers.py::_DISK_ARRAY_IO getattrs these two

    def try_gather(
        self, disks: np.ndarray, tracks: np.ndarray, out: np.ndarray
    ) -> bool:
        """Speculatively gather blocks into *out* without any accounting.

        The prefetch worker thread calls this off the main thread, so it
        must never raise and never touch ``stats`` or per-disk counters —
        those are mutated by :meth:`finish_read` on the consuming thread,
        which keeps IOStats single-threaded and bit-identical to the
        synchronous path.  Returns ``True`` only when every block was
        copied out of the dense arena; any fallback condition (side-dict
        tracks, bad addresses, unwritten tracks) returns ``False`` and
        leaves the work to :meth:`finish_read`.
        """
        try:
            plan = self._plan(disks, tracks)
        except SimulationError:
            return False
        n = int(disks.size)
        rows = out[: n * self.block_bytes].reshape(n, self.block_bytes)
        return self._gather(plan.split, tracks, rows)

    def finish_read(
        self,
        disks: np.ndarray,
        tracks: np.ndarray,
        out: np.ndarray,
        hit: bool,
    ) -> np.ndarray:
        """Complete a speculative gather on the consuming thread.

        On a *hit* the data already sits in *out*; only the deferred
        accounting runs (same address checks, batch plan and counter
        updates as :meth:`read_run`).  On a miss this simply performs the
        synchronous :meth:`read_run`, which re-raises canonical errors.
        """
        if not hit:
            return self.read_run(disks, tracks, out=out)
        n = int(disks.size)
        self._record(self._plan(disks, tracks), n, write=False)
        return out[: n * self.block_bytes]

    def _gather(
        self, split: Sequence[Extent], tracks: np.ndarray, rows: np.ndarray
    ) -> bool:
        """Dense gather of whole runs; ``False`` sends the caller to the
        per-track loop (which ``FaultyDiskArray`` does unconditionally)."""
        return self._arena.gather(split, tracks, rows)

    def _plan(self, disks: np.ndarray, tracks: np.ndarray) -> BatchPlan:
        """Validate one address stream and return its memoised plan.

        Raises before anything is stored or counted: a length mismatch,
        then the first out-of-range disk, then the first negative track.
        """
        if disks.size != tracks.size:
            raise SimulationError(
                f"address stream of {disks.size} disks but {tracks.size} tracks"
            )
        build = batch_plan if disks.size <= PLAN_MEMO_MAX_BLOCKS else _build_plan
        plan = build(self.D, np.asarray(disks, dtype=np.int64).tobytes())
        if tracks.size and int(tracks.min()) < 0:
            bad_i = int(np.flatnonzero(tracks < 0)[0])
            raise SimulationError(
                f"negative track {int(tracks[bad_i])} on disk {int(disks[bad_i])}"
            )
        return plan

    def _record(self, plan: BatchPlan, n: int, *, write: bool) -> None:
        """Fold one serviced stream of *n* blocks into the counters."""
        nops = plan.nops
        self.stats.record_batch(
            nops=nops,
            n_read=0 if write else n,
            n_written=n if write else 0,
            read_ops=0 if write else nops,
            write_ops=nops if write else 0,
            per_disk=plan.per_disk,
            width_counts=plan.width_counts,
            D=self.D,
        )
        for disk, count in zip(self.disks, plan.per_disk):
            if write:
                disk.blocks_written += count
            else:
                disk.blocks_read += count

    # -- lifecycle / inspection ----------------------------------------------

    def close(self) -> None:
        """Release arena storage (deletes mmap spill files, if any)."""
        self._arena.close()

    @property
    def tracks_in_use(self) -> int:
        return sum(d.tracks_in_use for d in self.disks)

    def max_track(self) -> int:
        return max((d.max_track() for d in self.disks), default=-1)

    def load_balance(self) -> tuple[int, int]:
        """(min, max) blocks serviced per disk over the whole run."""
        per = self.stats.per_disk_blocks or [0] * self.D
        return min(per), max(per)
