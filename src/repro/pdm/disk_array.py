"""A bank of D disks honoring the PDM parallel-I/O rule.

The only way to move data is :meth:`DiskArray.parallel_io`, which takes a
batch of per-disk track operations and enforces the model's invariant: **at
most one track per disk per operation**.  Everything above this layer
(consecutive layout, staggered message matrix, the DiskWrite FIFO) is
responsible for scheduling conflict-free batches; the array will refuse a
batch that violates the rule, so a mis-scheduled layout fails loudly in the
tests instead of silently undercounting I/O.

Bulk streams have one storage (the shared
:class:`~repro.pdm.arena.TrackArena`, one linear row space ``track·D +
disk``) and two spellings:

* :meth:`write_run` / :meth:`write_stream` / :meth:`read_run` — the run
  API the engines use.  A stream is addressed by
  :class:`~repro.pdm.block.Runs` — a base track and a short list of linear
  runs, which is all the consecutive and staggered layouts ever produce —
  so its address is arithmetic: the stream's :class:`BatchPlan` (greedy
  batch boundaries via :func:`greedy_batch_widths`, the per-disk and width
  histograms, and the runs as linear pieces) is planned once per distinct
  run pattern and memoised on that small key, data moves as one arena
  scatter/gather — a run is one slice of the row space — and the plan is
  folded in with :meth:`IOStats.record_batch`.
* :meth:`write_blocks` / :meth:`read_blocks` — the PDM specification, at
  arbitrary ``(disk, track)`` placements: greedy FIFO batching into per-op
  :class:`IOOp` lists, one :meth:`parallel_io` per batch, one Python
  iteration per block.  The EM baselines call it directly, and the
  hypothesis suites hold the run API to it: counters, batch widths and
  stored bytes are bit-identical.  No engine path enters this loop.  A
  fault-injected array (:mod:`repro.faults.injector`) decides planned
  streams only: its faults over a stream's plan, then the bytes through
  the same scatter/gather; its ``parallel_io``, so this loop too, refuses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.pdm.disk import Disk
from repro.pdm.arena import Piece, TrackArena
from repro.pdm.block import BlockRun, Runs
from repro.pdm.mmap_arena import make_arena
from repro.pdm.io_stats import IOStats
from repro.util.items import ITEM_BYTES
from repro.util.validation import SimulationError, require

if TYPE_CHECKING:  # pragma: no cover - layering: pdm stays engine-free
    from repro.obs.bus import EventBus, NullRecorder
    from repro.tune.runtime import RuntimeConfig

#: One run-API write segment: where the blocks go and the run holding them.
Segment = tuple[Runs, BlockRun]

#: Bytes from which a write stream reaches the arena as its runs' pieces;
#: a smaller one's join and scatter cost less than a move per run
_JOIN_FLOOR = 16 << 10


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


_NO_INTS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class BatchPlan:
    """What one run pattern costs and where it goes: the accounting delta
    of its greedy FIFO batching plus the stream's runs as linear pieces,
    both pure functions of ``(D, runs)``."""

    nops: int                       #: parallel I/Os
    per_disk: tuple[int, ...]       #: blocks serviced by each disk
    width_counts: tuple[int, ...]   #: batches touching exactly w disks
    #: the runs as ``(stream row, linear row above the base track's first,
    #: blocks)`` in stream order, for the arena; no part of a plan's identity
    pieces: tuple[Piece, ...] = field(default=(), compare=False)
    #: the stream in order — the ops of each parallel I/O, and each block's
    #: disk and track (relative to the base) — for a fault plan to decide over
    widths: np.ndarray = field(default_factory=lambda: _NO_INTS, compare=False)
    disks: np.ndarray = field(default_factory=lambda: _NO_INTS, compare=False)
    tracks: np.ndarray = field(default_factory=lambda: _NO_INTS, compare=False)


def _build_plan(D: int, runs: tuple[tuple[int, int], ...]) -> BatchPlan:
    disks, tracks = Runs(0, runs).expand(D)
    nops, widths = greedy_batch_widths(disks, D)
    per_disk = np.bincount(disks, minlength=D)
    width_counts = np.bincount(widths, minlength=D + 1)[: D + 1]
    pieces: list[Piece] = []
    row = 0
    for lin0, n in runs:
        lin0, n = int(lin0), int(n)
        if pieces and pieces[-1][1] + pieces[-1][2] == lin0:
            # abuts the previous run (a message filling its slot): one slice
            r, lin, m = pieces[-1]
            pieces[-1] = (r, lin, m + n)
        elif n:
            pieces.append((row, lin0, n))
        row += n
    # the memo keeps these arrays for every pattern: the narrowest dtypes
    return BatchPlan(
        nops,
        tuple(per_disk.tolist()),
        tuple(width_counts.tolist()),
        tuple(pieces),
        widths.astype(np.int32),
        disks.astype(np.min_scalar_type(D - 1)),
        tracks.astype(np.int32),
    )


#: ``(D, ((lin0, nblocks), ...)) -> BatchPlan``, the runs shifted down by
#: whole tracks until the lowest starts in track 0 (``lin0 mod D`` for a
#: single run).  The layouts alternate with period two (Observation 2), so a
#: run replays few distinct patterns; key and plan are O(runs) whatever the
#: stream's length, so every stream is memoised.
batch_plan = lru_cache(maxsize=256)(_build_plan)


def check_segments(segments: Sequence[Segment]) -> None:
    """Refuse a write stream whose addresses and run disagree in length,
    naming the segment, before anything is stored or counted."""
    for i, (runs, run) in enumerate(segments):
        if runs.nblocks != run.nblocks:
            raise SimulationError(
                f"write_stream segment {i}: {runs.nblocks} addresses "
                f"for a run of {run.nblocks} blocks"
            )


def _arena_grow_event(
    tracer: "EventBus | NullRecorder", real: int, arena: TrackArena, chunk: int,
    rows: int,
) -> None:
    """Arena growth hook -> one ``arena_grow`` trace event per added chunk
    (``disk`` carries the chunk's number: see the event table in
    :mod:`repro.obs.bus`)."""
    tracer.emit(
        "arena_grow",
        real=real,
        disk=chunk,
        tracks=rows // arena.D,
        nbytes=rows * arena.block_bytes,
        resident_nbytes=arena.resident_nbytes(),
        spill_nbytes=arena.spill_nbytes(),
        backend="mmap" if getattr(arena, "spill_dir", None) else "ram",
    )


class DiskArray:
    """D simulated disks owned by one (real) processor."""

    #: large streams reach the arena as pieces (a faulted one needs rows)
    _direct = True

    def __init__(
        self,
        D: int,
        B: int,
        tracer: "EventBus | NullRecorder | None" = None,
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
            # storage telemetry: one event per chunk the arena adds.  The
            # hook holds no reference to this array: an array<->arena cycle
            # would keep a traced run's tracks alive until a cyclic collection
            self._arena.on_grow = partial(_arena_grow_event, tracer, self._real)
        self.disks = [Disk(d, arena=self._arena) for d in range(D)]
        self.stats = IOStats(D=D)
        #: write_stream's padding: a run's implicit tail is under a block
        self._zeros = memoryview(bytes(self.block_bytes))

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

    def write_run(self, runs: Runs, run: BlockRun) -> int:
        """Write one :class:`BlockRun` at the addresses *runs*.

        Semantically identical to :meth:`write_blocks` over the expanded
        placements; returns the number of parallel I/Os used.
        """
        return self.write_stream([(runs, run)])

    def write_stream(self, segments: Sequence[Segment]) -> int:
        """Write several runs as **one** FIFO stream.

        Greedy batching spans segment boundaries (the engine concatenates
        all bundles destined for one owner before batching).  Each run's
        implicit tail is zero-filled, as ``pack_blocks`` pads it.  A stream
        of :data:`_JOIN_FLOOR` bytes or more whose runs are each one stretch
        of rows hands every run's pieces to the arena as they are
        (:meth:`TrackArena.write_rows`); a smaller one is joined into one
        buffer and stored with a single arena scatter.  Returns parallel
        I/Os used.
        """
        check_segments(segments)
        bb, D = self.block_bytes, self.D
        stream, rows, parts, nblocks = [], [], [], 0
        for runs, run in segments:
            if run.nblocks:
                bufs, pad = run.pieces, run.nblocks * bb - run.nbytes
                if pad:
                    bufs = [*bufs, self._zeros[:pad] if pad <= bb else bytes(pad)]
                stream.append(runs)
                rows.append((runs.base * D + runs.runs[0][0], run.nblocks, bufs))
                parts += bufs
                nblocks += run.nblocks
        if not stream:
            return 0
        plan, base = self._plan(stream)
        if (self._direct and nblocks * bb >= _JOIN_FLOOR
                and all(len(runs.runs) == 1 for runs in stream)
                and self._arena.write_rows(rows)):
            self._record(plan, nblocks, write=True)
        else:
            flat = np.frombuffer(b"".join(parts), dtype=np.uint8)
            self._transfer(plan, base, flat.reshape(-1, bb), write=True)
        return plan.nops

    def read_run(self, runs: Runs, out: np.ndarray | None = None) -> np.ndarray:
        """Read the blocks at *runs* into one contiguous buffer.

        Returns a ``uint8`` array of ``n * block_bytes`` bytes (a view of
        *out* when given, so callers can pool the allocation).  Batching
        and counters match :meth:`read_blocks` exactly; sparse or odd-sized
        tracks fall back to that per-track loop transparently.
        """
        n = runs.nblocks
        bb = self.block_bytes
        if out is None:
            out = np.empty(n * bb, dtype=np.uint8)
        elif out.size < n * bb:
            raise SimulationError(
                f"read_run: out buffer of {out.size} bytes cannot hold "
                f"{n} blocks of {bb} bytes"
            )
        flat = out[: n * bb]
        if n == 0:
            return flat
        plan, base = self._plan([runs])
        self._transfer(plan, base, flat.reshape(n, bb), write=False)
        return flat

    def _transfer(
        self, plan: BatchPlan, base: int, rows: np.ndarray, *, write: bool
    ) -> None:
        """Move one planned stream between its *rows* and the tracks, and
        count it: one arena scatter or gather.  ``FaultyDiskArray`` calls
        this for a stream its injector let through whole."""
        if write:
            self._arena.scatter(plan.pieces, base, rows)
        elif not self._arena.gather(plan.pieces, base, rows):
            # side-dict tracks, short rows and the canonical unwritten-track
            # error: track by track, each counted on its disk
            tracks = (base + plan.tracks.astype(np.int64)).tolist()
            homes = zip(range(len(rows)), plan.disks.tolist(), tracks)
            self._by_track(rows, homes, False)
            self.stats.record_batch(plan, len(rows), write=False, D=self.D)
            return
        self._record(plan, len(rows), write=write)

    def _by_track(
        self, rows: np.ndarray, homes: Iterable[tuple[int, int, int]], write: bool
    ) -> None:
        """Move the stream *rows* at ``(position, disk, track)`` *homes*
        one track at a time, each counted on the disk that serves it."""
        for i, disk, track in homes:
            if write:
                self.disks[disk].write(track, rows[i].tobytes())
            else:
                block = self.disks[disk].read(track)
                rows[i, : len(block)] = np.frombuffer(block, dtype=np.uint8)
                rows[i, len(block) :] = 0

    # -- unused here: benchmarks/e2e/layers.py::_DISK_ARRAY_IO getattrs these two

    def try_gather(self, runs: Runs, out: np.ndarray) -> bool:
        """Speculatively gather blocks into *out* without any accounting.

        Never touches ``stats`` or per-disk counters — those are mutated
        by :meth:`finish_read`.  Returns ``True`` only when every block was
        copied out of the dense arena; any fallback condition (side-dict
        tracks, short or unwritten tracks) returns ``False`` and leaves the
        work to :meth:`finish_read`.
        """
        n = runs.nblocks
        plan, base = self._plan([runs])
        rows = out[: n * self.block_bytes].reshape(n, self.block_bytes)
        return self._arena.gather(plan.pieces, base, rows)

    def finish_read(self, runs: Runs, out: np.ndarray, hit: bool) -> np.ndarray:
        """Complete a speculative gather.

        On a *hit* the data already sits in *out*; only the deferred
        accounting runs (same batch plan and counter updates as
        :meth:`read_run`).  On a miss this simply performs the synchronous
        :meth:`read_run`, which re-raises canonical errors.
        """
        if not hit:
            return self.read_run(runs, out=out)
        n = runs.nblocks
        self._record(self._plan([runs])[0], n, write=False)
        return out[: n * self.block_bytes]

    def _plan(self, stream: Sequence[Runs]) -> tuple[BatchPlan, int]:
        """The memoised plan of one address stream and the track its
        pieces count from.  Nothing here can fail: a :class:`Runs` was
        checked when it was built, and its disks are ``mod D`` of this
        array's own ``D``."""
        D = self.D
        lins = [
            (runs.base * D + lin0, n) for runs in stream for lin0, n in runs.runs if n
        ]
        base = min(lins)[0] // D if lins else 0
        return batch_plan(D, tuple((lin - base * D, n) for lin, n in lins)), base

    def _record(self, plan: BatchPlan, n: int, *, write: bool) -> None:
        """Fold one serviced stream of *n* blocks into the counters."""
        self.stats.record_batch(plan, n, write=write, D=self.D)
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
