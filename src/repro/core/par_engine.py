"""Algorithm 3 — ParCompoundSuperstep — the p-processor EM simulation.

Each of the ``p`` real processors owns a :class:`DiskArray` of ``D`` disks
and ``M`` items of internal memory and simulates ``v/p`` virtual
processors.  One CGM compound superstep becomes ``v/p`` real compound
supersteps (Lemma 4's superstep blow-up): for each locally simulated
virtual processor the engine

(a) reads its context from the local disks (consecutive format),
(b) reads its incoming message blocks from the local disks,
(c) runs the program's round callback,
(d) routes generated messages to the destination's *real* processor —
    traffic whose source and destination real processors differ is charged
    to the network at ``g`` per item — where they are written to the
    destination's disks in the staggered format of Figure 2: a message for
    the source's own real at once, any other at the round's exchange (the
    network step), where each real's array takes its incoming bundles per
    source pid ascending, and
(e) writes the (possibly changed) context back (consecutive format).

Messages larger than the staggered layout's fixed slot (possible only for
unbalanced programs that underestimate ``max_message_items``) spill into a
consecutive-format *overflow run*; the spilled blocks are counted in
``CostReport.overflow_blocks`` so benchmarks can verify the balanced mode
eliminates them.

All cost accounting is per-real-processor with per-superstep maxima, so
the reported parallel times are what a true p-machine would exhibit.

A :class:`ParEMEngine` is one *slice* of that machine: the real
processors ``plan[worker_id]``, their disks and their virtual processors.
By default the plan has one slice owning every real, step (d) never leaves
the interpreter and :meth:`ParEMEngine._exchange` only stages the slice's
own cross-real bundles.  With more than one worker the
:mod:`repro.core.workers` coordinator builds one slice per worker process,
hands each a transport as ``net``, and folds the slices' counters back
into an identical :class:`CostReport` — the round loop
(:meth:`Engine._execute_round`), the routing and the stats fold are the
same code either way.
"""

from __future__ import annotations

from operator import itemgetter

from repro.cgm.config import MachineConfig
from repro.cgm.engine import Engine
from repro.cgm.message import Message
from repro.cgm.metrics import CostReport
from repro.cgm.program import CGMProgram, Context
from repro.core.balanced import CHUNK_TAG, ChunkBundle
from repro.core.layouts import (
    MessageMatrix,
    RegionAllocator,
    consecutive_addresses,
    consecutive_addresses_np,
)
from repro.faults.injector import FaultStats, FaultyDiskArray
from repro.pdm.block import BlockRun, blocks_for_bytes
from repro.pdm.disk_array import DiskArray, Segment
from repro.pdm.io_stats import IOStats
from repro.pdm.memory import InternalMemory
from repro.util.items import ITEM_BYTES, decode_owned, deserialize, serialize
from repro.util.validation import require

#: serialization envelope allowance when converting an item bound to blocks.
_SLOT_OVERHEAD_BYTES = 256


#: In-memory record of one on-disk message (the v^2-size 'message matrix
#: directory' the paper keeps in internal memory): ``(src, nblocks, parts,
#: overflow)``.  ``parts`` lists the (tag, size_items) of each application
#: message coalesced into this physical slot message — the paper's model
#: has one message per (src, dest) pair per superstep (msg_ij), so when a
#: program sends several to one destination they share the slot as a
#: bundle; ``overflow`` is None, or the run's explicit [(disk, track)]
#: addresses.
_MetaEntry = tuple[int, int, list, "list | None"]


class ParEMEngine(Engine):
    """p-processor external-memory backend (Algorithm 3).

    *plan* partitions the real processors over machine slices and
    *worker_id* names the slice this engine simulates; *net* is the
    :class:`~repro.core.transport.base.Transport` joining it to the
    others.  The defaults are the whole machine in one slice, which has
    no peers and needs no transport.

    *seq* makes it Algorithm 2 (``engine="seq"``, named ``seq-em``): the
    same machinery at p = 1, counting one real compound superstep per
    CGM round where Algorithm 3 counts v/p.
    """

    name = "par-em"
    supports_checkpoint = True
    supports_faults = True

    def __init__(
        self,
        cfg: MachineConfig,
        balanced: bool = False,
        tracer=None,
        plan: "list[list[int]] | None" = None,
        worker_id: int = 0,
        net=None,
        seq: bool = False,
    ) -> None:
        require(not seq or cfg.p == 1, f"engine 'seq' requires p=1, got p={cfg.p}")
        super().__init__(cfg, balanced=balanced, tracer=tracer)
        if seq:
            self.name = "seq-em"
        self._seq = seq
        if plan is None:
            plan = [list(range(cfg.p))]
        self.worker_id = worker_id
        self.net = net
        #: real processors whose disks/memory live in this interpreter,
        #: and the virtual processors they simulate
        self._reals = list(plan[worker_id])
        vpr = cfg.vprocs_per_real
        self._pids = [
            pid for r in self._reals for pid in range(r * vpr, (r + 1) * vpr)
        ]
        self._real_worker = {r: w for w, reals in enumerate(plan) for r in reals}
        #: bundles for other reals buffered until the next exchange,
        #: per slice owning the destination (this one included)
        self._outgoing: dict[int, list] = {w: [] for w in range(len(plan))}
        #: the run ends after this round (set by its last exchange)
        self._halt = False

    # ----------------------------------------------------------------- set-up

    def _start(self, program: CGMProgram) -> None:
        cfg = self.cfg
        self.vpr = cfg.vprocs_per_real

        slot_items = program.max_message_items(self.shape)
        envelope = _SLOT_OVERHEAD_BYTES
        if self.balanced:
            # Lemma 2: balanced messages carry at most ~2N/v^2 words, but
            # a chunk bundle adds per-chunk metadata (one chunk per
            # original message routed through the bin)
            slot_items = max(slot_items, cfg.max_balanced_message_items)
            envelope += (cfg.v + 4) * 160
        max_msg_bytes = slot_items * ITEM_BYTES + envelope
        self.slot_blocks = max(1, -(-max_msg_bytes // (cfg.B * ITEM_BYTES)))

        self._block_bytes = cfg.B * ITEM_BYTES

        # storage is keyed by real-processor id: a slice instantiates
        # only the reals it owns
        reals = self._reals
        self.arrays = {r: self._make_array(r) for r in reals}
        self.memories = {r: InternalMemory(cfg.M) for r in reals}
        self.matrices = {
            r: MessageMatrix(cfg.v, self.vpr, cfg.D, self.slot_blocks, base_track=0)
            for r in reals
        }
        self.allocators = {
            r: RegionAllocator(cfg.D, self.matrices[r].end_track()) for r in reals
        }

        v = cfg.v
        # context directory: pid -> (start_track, rows, nblocks)
        self._ctx_region: dict[int, tuple[int, int, int]] = {}
        # message directories for the two alternating matrix copies
        self._staged_meta: dict[int, list[_MetaEntry]] = {pid: [] for pid in range(v)}
        self._ready_meta: dict[int, list[_MetaEntry]] = {pid: [] for pid in range(v)}
        self._staged_parity = 0
        self._ready_parity = 1

        self._charged: dict[int, int] = {}
        self._ctx_blocks_io = 0
        self._msg_blocks_io = 0
        self._overflow_blocks = 0

    def _make_array(self, real: int) -> DiskArray:
        """The disk array of one real processor — fault-injected when a
        plan is active, plain otherwise."""
        cfg = self.cfg
        # the tracer rides along for storage-level telemetry (the arena
        # growth events of the out-of-core path) and the injector's
        # io_fault events; logical I/O events stay at the engine layer
        kw = dict(tracer=self.tracer, real=real, runtime=self._rt)
        if self.faults is None:
            return DiskArray(cfg.D, cfg.B, **kw)
        return FaultyDiskArray(cfg.D, cfg.B, self.faults.injector_for(real), **kw)

    # ------------------------------------------------------------- ownership

    def _local_pids(self) -> list[int]:
        return self._pids

    def _owner(self, pid: int) -> int:
        return pid // self.vpr

    def _local(self, pid: int) -> int:
        return pid % self.vpr

    # ------------------------------------------------------------- contexts

    def _store_context(self, pid: int, ctx: Context) -> None:
        owner = self._owner(pid)
        array, alloc = self.arrays[owner], self.allocators[owner]
        # an unsupported value raises here, before a block is written
        raw = serialize(ctx)
        nblocks = blocks_for_bytes(len(raw), self.cfg.B)
        region = self._ctx_region.get(pid)
        if region is None or region[1] * self.cfg.D < nblocks:
            if region is not None:
                # free the outgrown region's tracks on disk and in the
                # allocator, so a later context can reuse the rows
                old = consecutive_addresses(region[2], self.cfg.D, region[0])
                array.free_blocks(old)
                alloc.free(region[0], region[1])
            start, rows = alloc.alloc(max(nblocks, 1))
            region = (start, rows, nblocks)
        else:
            region = (region[0], region[1], nblocks)
        self._ctx_region[pid] = region
        array.write_run(
            consecutive_addresses_np(nblocks, region[0]),
            BlockRun(raw, nblocks, self._block_bytes),
        )
        self._ctx_blocks_io += nblocks
        self._charge(pid, nblocks * self.cfg.B)
        if self.tracer.enabled:
            self.tracer.emit(
                "context_write",
                pid=pid,
                real=owner,
                blocks=nblocks,
                layout="consecutive",
            )

    def _load_context(self, pid: int, decode=decode_owned) -> Context:
        owner = self._owner(pid)
        array = self.arrays[owner]
        start, _rows, nblocks = self._ctx_region[pid]
        flat = array.read_run(consecutive_addresses_np(nblocks, start))
        self._ctx_blocks_io += nblocks
        self._charge(pid, nblocks * self.cfg.B)
        if self.tracer.enabled:
            self.tracer.emit(
                "context_read",
                pid=pid,
                real=owner,
                blocks=nblocks,
                layout="consecutive",
            )
        # a fresh buffer, handed over: the context's arrays are views of
        # it, so a program writing into one writes only this context
        return Context(decode(flat))

    def _collect_outputs(self, program: CGMProgram) -> list:
        # what finish returns outlives the run: its context is decoded
        # into copies, so a small output does not hold a whole context
        outputs = []
        for pid in self._local_pids():
            outputs.append(program.finish(self._load_context(pid, deserialize)))
            self._release(pid)
        return outputs

    # ------------------------------------------------------------- messages

    def _bundle_outbox(
        self, src_pid: int, msgs: list[Message]
    ) -> list[tuple[int, list, BlockRun]]:
        """Coalesce an outbox into one serialized bundle per destination.

        One physical slot message per destination (the paper's msg_ij):
        several application messages to one destination share the slot.
        Returns ``(dest, parts, payload)`` triples in FIFO destination
        order — the payload a zero-copy :class:`BlockRun` over the
        serialized bytes (a :class:`ChunkBundle`'s as they are).
        Serialization buffers are charged to the *source* real
        processor's internal memory.
        """
        by_dest: dict[int, list[Message]] = {}
        for m in msgs:
            by_dest.setdefault(m.dest, []).append(m)
        bundles: list[tuple[int, list, BlockRun]] = []
        B, bb, total = self.cfg.B, self._block_bytes, 0
        for dest in sorted(by_dest):
            group = by_dest[dest]
            if len(group) == 1:
                payload_obj = group[0].payload
            else:
                payload_obj = [(m.tag, m.payload) for m in group]
            parts = [(m.tag, m.size_items) for m in group]
            bundle = type(payload_obj) is ChunkBundle
            raw = payload_obj.raw if bundle else serialize(payload_obj)
            nblocks = blocks_for_bytes(len(raw), B)
            bundles.append((dest, parts, BlockRun(raw, nblocks, bb)))
            total += nblocks
        # charged once the whole outbox has encoded: an unsupported payload
        # raises above with no counter advanced
        self._charge(src_pid, total * B)
        return bundles

    def _stage_bundles(
        self, src_pid: int, bundles: list[tuple[int, list, BlockRun]]
    ) -> None:
        """Address one source's bundles on their destination's disks,
        record the directory entries and write them: one FIFO stream per
        owning real processor (batching spans bundle boundaries, exactly as
        ``write_blocks`` over the concatenated placement list does).

        Runs where the destination's storage lives — from
        :meth:`_put_messages` for the source's own real, from
        :meth:`_exchange` for every other — which keeps the per-owner
        write batching (and hence ``parallel_ios``) identical under any
        plan.
        """
        D, vpr, slot_blocks = self.cfg.D, self.vpr, self.slot_blocks
        parity, staged, traced = self._staged_parity, self._staged_meta, self.tracer.enabled
        by_owner: dict[int, list[Segment]] = {}
        for dest, parts, payload in bundles:
            nblocks = payload.nblocks
            owner = dest // vpr
            if nblocks <= slot_blocks:
                runs = self.matrices[owner].message_addresses_np(
                    src_pid, dest % vpr, nblocks, parity
                )
                overflow = None
            else:
                start, _rows = self.allocators[owner].alloc(nblocks)
                runs = consecutive_addresses_np(nblocks, start)
                overflow = consecutive_addresses(nblocks, D, start)
                self._overflow_blocks += nblocks
            by_owner.setdefault(owner, []).append((runs, payload))
            staged[dest].append((src_pid, nblocks, parts, overflow))
            self._msg_blocks_io += nblocks
            if traced:
                self.tracer.emit(
                    "message_write",
                    src=src_pid,
                    dest=dest,
                    real=owner,
                    blocks=nblocks,
                    layout="overflow" if overflow else "staggered",
                    parity=parity,
                )
        for owner, batch in by_owner.items():
            self.arrays[owner].write_stream(batch)

    def _put_messages(self, src_pid: int, msgs: list[Message]) -> None:
        """Step (d): bundles for the source's own real are staged on its
        disks now; a bundle for any other real — serialized here, *at the
        source*, memory charged to the source real — waits in
        ``_outgoing`` (keyed by the slice owning that real, this one
        included) for the next :meth:`_exchange`."""
        real = self._owner(src_pid)
        local = []
        for bundle in self._bundle_outbox(src_pid, msgs):
            owner = self._owner(bundle[0])
            if owner == real:
                local.append(bundle)
            else:
                self._outgoing[self._real_worker[owner]].append((src_pid, bundle))
        self._stage_bundles(src_pid, local)
        self._release(src_pid)

    def _exchange(self, r: int, phase: int, done: bool) -> None:
        """Where step (d)'s cross-real traffic reaches its real's disks —
        the one point for it, under any plan.  With peers (``net``), send
        each peer slice exactly one packet, tagged ``(round, phase,
        src_worker)`` (empty packets included), and wait for one from each:
        the barrier that stands in for the paper's network.  The packets
        carry each slice's *done* and whether it sent a bundle this phase:
        every round empties every inbox, so after the last exchange "none
        sent" is "no message pending", and every slice decides the halt
        alike.  Then this slice's own deferred bundles and the peers' are
        staged per source pid ascending, one DiskWrite batch per
        destination real — so each real's array meets the same accesses in
        the same order whichever slice hosts the sender."""
        outgoing = self._outgoing
        self._outgoing = {w: [] for w in outgoing}
        sent = any(outgoing.values()) or any(self._staged_meta.values())
        items = outgoing.pop(self.worker_id)
        if self.net is not None:
            remote, done, sent = self.net.exchange(outgoing, r, phase, done, sent)
            items += remote
            self._halt = done and not sent
        by_src: dict[int, list] = {}
        for src_pid, bundle in items:
            by_src.setdefault(src_pid, []).append(bundle)
        for src_pid in sorted(by_src):
            self._stage_bundles(src_pid, by_src[src_pid])

    def _take_inbox(self, pid: int) -> list[Message]:
        entries = self._ready_meta[pid]
        if not entries:
            return []
        self._ready_meta[pid] = []
        owner = self._owner(pid)
        array, bb, traced = self.arrays[owner], self._block_bytes, self.tracer.enabled

        entries.sort(key=itemgetter(0))
        slot_entries = [e for e in entries if e[3] is None]
        runs = self.matrices[owner].inbox_addresses_np(
            self._local(pid), [e[:2] for e in slot_entries], self._ready_parity
        )
        total = runs.nblocks
        # fresh, like a context's: the payloads' arrays are views of it
        flat = array.read_run(runs)
        self._msg_blocks_io += total
        if traced and total:
            self.tracer.emit(
                "message_read",
                pid=pid,
                real=owner,
                blocks=total,
                layout="staggered",
                sources=len(slot_entries),
                parity=self._ready_parity,
            )

        msgs: list[Message] = []
        balanced = self.balanced

        def unbundle(src: int, parts: list, stored) -> None:
            if len(parts) == 1:
                tag, size = parts[0]
                # balanced traffic stays bytes until it is reassembled
                bundle = balanced and tag == CHUNK_TAG
                payload = (ChunkBundle.from_item if bundle else decode_owned)(stored)
                msgs.append(Message(src, pid, payload, tag, size))
            else:
                for (tag, size), (_t, payload) in zip(parts, decode_owned(stored)):
                    msgs.append(Message(src, pid, payload, tag, size))

        cursor = 0
        for src, nblocks, parts, _overflow in slot_entries:
            unbundle(src, parts, flat[cursor * bb : (cursor + nblocks) * bb])
            cursor += nblocks
        alloc = self.allocators[owner]
        for src, nblocks, parts, overflow in entries:
            if overflow is None:
                continue
            # overflow runs start on disk 0, so the first address carries
            # the run's start track
            start = overflow[0][1]
            flat = array.read_run(consecutive_addresses_np(nblocks, start))
            array.free_blocks(overflow)
            alloc.free(start, alloc.rows_for(nblocks))
            self._msg_blocks_io += nblocks
            if traced:
                self.tracer.emit(
                    "message_read",
                    pid=pid,
                    real=owner,
                    blocks=nblocks,
                    layout="overflow",
                    sources=1,
                )
            unbundle(src, parts, flat)
        # one charge for the whole inbox: nothing is released in between
        self._charge(pid, sum(e[1] for e in entries) * self.cfg.B)
        msgs.sort(key=lambda m: (m.src, m.tag or ""))
        return msgs

    def _flip(self) -> None:
        for pid, staged in self._staged_meta.items():
            if staged:
                self._ready_meta[pid].extend(staged)
                self._staged_meta[pid] = []
        self._staged_parity, self._ready_parity = (
            self._ready_parity,
            self._staged_parity,
        )

    def _pending_messages(self) -> bool:
        return any(self._ready_meta.values())

    # ---------------------------------------------------------- checkpointing

    @staticmethod
    def _snapshot_array(arr: DiskArray) -> dict:
        # snapshot_tracks yields plain dict[int, bytes] per disk whatever
        # the arena backend, so checkpoints stay portable across them
        return {
            "tracks": [d.snapshot_tracks() for d in arr.disks],
            "reads": [d.blocks_read for d in arr.disks],
            "writes": [d.blocks_written for d in arr.disks],
            "stats": arr.stats.snapshot(),
            "injector": arr.injector.state() if isinstance(arr, FaultyDiskArray) else None,
        }

    @staticmethod
    def _restore_array(arr: DiskArray, snap: dict) -> None:
        for disk, tracks, reads, writes in zip(
            arr.disks, snap["tracks"], snap["reads"], snap["writes"]
        ):
            disk.restore_tracks(tracks)
            disk.blocks_read = reads
            disk.blocks_written = writes
        arr.stats = snap["stats"].snapshot()
        if snap["injector"] is not None:
            # the checkpoint fingerprint pins the fault plan, so an
            # injector-carrying snapshot always meets a FaultyDiskArray
            arr.injector.restore(snap["injector"])  # type: ignore[attr-defined]

    @staticmethod
    def _meta_to_tuple(e: _MetaEntry) -> tuple:
        src, nblocks, parts, overflow = e
        return (src, nblocks, list(parts), overflow)

    def _snapshot_backend(self) -> dict:
        """Canonical between-round state, keyed by real id / pid.

        The same shape is produced whether the reals live in one
        interpreter or are merged from worker processes, which is what
        makes snapshots portable across backends and worker counts.
        """
        return {
            "arrays": {r: self._snapshot_array(a) for r, a in self.arrays.items()},
            "memories": {r: (m.used, m.peak) for r, m in self.memories.items()},
            "allocators": {
                r: (a._cursor, list(a._free)) for r, a in self.allocators.items()
            },
            "ctx_region": dict(self._ctx_region),
            "staged_meta": {
                pid: [self._meta_to_tuple(e) for e in lst]
                for pid, lst in self._staged_meta.items()
                if lst
            },
            "ready_meta": {
                pid: [self._meta_to_tuple(e) for e in lst]
                for pid, lst in self._ready_meta.items()
                if lst
            },
            "parities": (self._staged_parity, self._ready_parity),
            "charged": dict(self._charged),
            "ctx_io": self._ctx_blocks_io,
            "msg_io": self._msg_blocks_io,
            "ovf": self._overflow_blocks,
        }

    @staticmethod
    def merge_backends(parts: "list[dict]") -> dict:
        """Fold the slices' :meth:`_snapshot_backend` dicts (ascending
        slice order) into the one-slice shape.  The rule reads the value,
        not the key: the per-real and per-pid maps of different slices are
        disjoint and union, the block totals add, and what every slice
        agrees on (the parities) passes through."""
        merged: dict = {}
        for part in parts:
            for key, val in part.items():
                if isinstance(val, dict):
                    merged.setdefault(key, {}).update(val)
                elif isinstance(val, int):
                    merged[key] = merged.get(key, 0) + val
                else:
                    merged[key] = val
        return merged

    @staticmethod
    def split_backend(backend: dict, worker: int) -> dict:
        """What slice *worker* restores from a merged snapshot.  The maps
        go to every slice whole (:meth:`_restore_backend` keeps its own
        reals and pids); the block totals cannot be split per real, so
        slice 0 carries them and the others start at zero — the final
        sums stay exact under any worker count."""
        if worker == 0:
            return backend
        return {k: 0 if isinstance(v, int) else v for k, v in backend.items()}

    def _restore_backend(self, backend: dict) -> None:
        for r, arr in self.arrays.items():
            self._restore_array(arr, backend["arrays"][r])
        for r, mem in self.memories.items():
            mem.used, mem.peak = backend["memories"][r]
        for r, alloc in self.allocators.items():
            cursor, free = backend["allocators"][r]
            alloc._cursor = cursor
            alloc._free = list(free)
        local = set(self._local_pids())
        self._ctx_region = {
            pid: region
            for pid, region in backend["ctx_region"].items()
            if pid in local
        }
        v = self.cfg.v
        self._staged_meta = {pid: [] for pid in range(v)}
        self._ready_meta = {pid: [] for pid in range(v)}
        for name, store in (
            ("staged_meta", self._staged_meta),
            ("ready_meta", self._ready_meta),
        ):
            for pid, entries in backend[name].items():
                if pid in local:
                    store[pid] = [tuple(t) for t in entries]
        self._staged_parity, self._ready_parity = backend["parities"]
        self._charged = {
            pid: n for pid, n in backend["charged"].items() if pid in local
        }
        self._ctx_blocks_io = backend["ctx_io"]
        self._msg_blocks_io = backend["msg_io"]
        self._overflow_blocks = backend["ovf"]

    # ------------------------------------------------------------- accounting

    def _charge(self, pid: int, items: int) -> None:
        owner = self._owner(pid)
        self.memories[owner].charge(items)
        self._charged[pid] = self._charged.get(pid, 0) + items

    def _release(self, pid: int) -> None:
        owner = self._owner(pid)
        self.memories[owner].release(self._charged.pop(pid, 0))

    def _supersteps_per_round(self) -> int:
        # Lemma 4: one CGM round costs v/p real compound supersteps
        # (Algorithm 2 counts its round as one)
        return 1 if self._seq else self.vpr

    def _io_totals(self) -> IOStats:
        total = IOStats(D=self.cfg.D)
        for array in self.arrays.values():
            total.merge(array.stats)
        return total

    def _final_stats(self) -> dict:
        """This slice's end-of-run counters, the unit :func:`fold_final_stats`
        folds: per-real ``IOStats``, memory peaks and fault statistics
        (none on a clean run) and the block totals."""
        return {
            "io_by_real": {r: a.stats for r, a in self.arrays.items()},
            "mem_peaks": {r: m.peak for r, m in self.memories.items()},
            "ctx_io": self._ctx_blocks_io,
            "msg_io": self._msg_blocks_io,
            "ovf": self._overflow_blocks,
            "faults_by_real": {
                r: a.injector.stats
                for r, a in self.arrays.items()
                if isinstance(a, FaultyDiskArray)
            },
        }

    def _finalize(self, report: CostReport) -> None:
        fold_final_stats(report, [self._final_stats()])


def fold_final_stats(report: CostReport, parts: list[dict]) -> None:
    """Fold the slices' :meth:`ParEMEngine._final_stats` into *report*:
    one part for the in-process run, one per worker for the coordinator."""
    io_by_real: dict[int, IOStats] = {}
    mem_peaks: dict[int, int] = {}
    faults_by_real: dict[int, FaultStats] = {}
    ctx_io = msg_io = ovf = 0
    for part in parts:
        io_by_real.update(part["io_by_real"])
        mem_peaks.update(part["mem_peaks"])
        faults_by_real.update(part["faults_by_real"])
        ctx_io += part["ctx_io"]
        msg_io += part["msg_io"]
        ovf += part["ovf"]
    # ascending real-id order, so the io_max tie-break (first strict
    # maximum) and the float sum of backoff_s are the same however the
    # reals were partitioned
    if faults_by_real:
        report.fault_stats = FaultStats()
        for r in sorted(faults_by_real):
            report.fault_stats.merge(faults_by_real[r])
    io_max = None
    for r in sorted(io_by_real):
        st = io_by_real[r]
        report.io.merge(st)
        if io_max is None or st.parallel_ios > io_max.parallel_ios:
            io_max = st
    report.io_max = io_max.snapshot() if io_max else report.io.snapshot()
    report.peak_memory_items = max(mem_peaks.values(), default=0)
    report.context_blocks_io = ctx_io
    report.message_blocks_io = msg_io
    report.overflow_blocks = ovf
