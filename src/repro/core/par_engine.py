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

from itertools import chain
from operator import itemgetter
from typing import Iterator

import numpy as np

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
from repro.faults.checkpoint import Checkpoint, CheckpointError, open_section
from repro.faults.injector import FaultStats, FaultyDiskArray
from repro.pdm.arena import MAX_DIRECT_TRACK
from repro.pdm.block import BlockRun, blocks_for_bytes
from repro.pdm.disk_array import DiskArray, Segment
from repro.pdm.io_stats import IOStats
from repro.pdm.memory import InternalMemory
from repro.util.items import ITEM_BYTES, decode_owned, deserialize, encode, serialize
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
        # blocks moved for contexts and messages, and spilled to overflow
        # runs, per real: a checkpoint section carries its real's counts
        self._ctx_io = dict.fromkeys(reals, 0)
        self._msg_io = dict.fromkeys(reals, 0)
        self._ovf = dict.fromkeys(reals, 0)

    def _close(self) -> None:
        for array in getattr(self, "arrays", {}).values():
            array.close()

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
        pieces, nbytes = encode(ctx)
        nblocks = blocks_for_bytes(nbytes, self.cfg.B)
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
            BlockRun(pieces, nblocks, self._block_bytes, nbytes),
        )
        self._ctx_io[owner] += nblocks
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
        self._ctx_io[owner] += nblocks
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
        order — the payload a :class:`BlockRun` over the encoder's pieces
        (a :class:`ChunkBundle`'s as they are).  A bundle for another real
        waits for the exchange, joined: it pins no buffer it would view (a
        whole inbox read) and holds the bytes the program's arrays had.
        Serialization buffers are charged to the *source* real
        processor's internal memory.
        """
        by_dest: dict[int, list[Message]] = {}
        for m in msgs:
            by_dest.setdefault(m.dest, []).append(m)
        bundles: list[tuple[int, list, BlockRun]] = []
        B, bb, total, vpr = self.cfg.B, self._block_bytes, 0, self.vpr
        for dest in sorted(by_dest):
            group = by_dest[dest]
            if len(group) == 1:
                payload_obj = group[0].payload
            else:
                payload_obj = [(m.tag, m.payload) for m in group]
            parts = [(m.tag, m.size_items) for m in group]
            if type(payload_obj) is ChunkBundle:
                pieces, nbytes = payload_obj.pieces, payload_obj.nbytes
            else:
                pieces, nbytes = encode(payload_obj)
            if dest // vpr != src_pid // vpr and len(pieces) > 1:
                pieces = [b"".join(pieces)]
            nblocks = blocks_for_bytes(nbytes, B)
            bundles.append((dest, parts, BlockRun(pieces, nblocks, bb, nbytes)))
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
                self._ovf[owner] += nblocks
            by_owner.setdefault(owner, []).append((runs, payload))
            staged[dest].append((src_pid, nblocks, parts, overflow))
            self._msg_io[owner] += nblocks
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
        self._msg_io[owner] += total
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
            self._msg_io[owner] += nblocks
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

    def _section(self, real: int, rngs: list) -> tuple[int, Iterator]:
        """Real *real*'s checkpoint section → ``(nbytes, buffers)``: its
        bookkeeping as one format-2 item, the arena's table of live rows
        first, then those rows, full stride, as the arena hands them over."""
        arr, vpr = self.arrays[real], self.vpr
        arena = arr._arena
        rows, lens = arena.live_rows()
        alloc, mem = self.allocators[real], self.memories[real]
        fault = arr.injector.state() if isinstance(arr, FaultyDiskArray) else None
        item = {
            "rows": rows,
            "lens": lens,
            "side": arena._side,
            "disks": [(d.blocks_read, d.blocks_written) for d in arr.disks],
            "stats": arr.stats.as_dict(),
            "injector": fault and {**fault, "stats": fault["stats"].as_dict()},
            "memory": (mem.used, mem.peak),
            "allocator": (alloc._cursor, alloc._free),
            "blocks": (self._ctx_io[real], self._msg_io[real], self._ovf[real]),
            "parities": (self._staged_parity, self._ready_parity),
            "pids": {
                pid: (self._ctx_region.get(pid), self._staged_meta[pid],
                      self._ready_meta[pid], self._charged.get(pid, 0),
                      rngs[pid].bit_generator.state)
                for pid in range(real * vpr, (real + 1) * vpr)
            },
        }
        head = serialize(item)
        nbytes = len(head) + rows.size * arena.block_bytes
        return nbytes, chain((head,), arena.row_buffers(rows))

    def _save_checkpoint(self, r: int, rngs: list, boundary: dict, meta: dict) -> str:
        boundary["sections"] = [self._section(real, rngs) for real in self._reals]
        return self.checkpoint.save(r, boundary, meta)

    def _restore_checkpoint(self, ckpt: Checkpoint, rngs: list) -> None:
        """Rewind this slice's reals, freshly started, to their sections of
        the verified *ckpt*.  A section whose item has the wrong shape is
        one :class:`CheckpointError`, whichever field is off."""
        for real in self._reals:
            try:
                self._restore_real(real, ckpt.sections[real], rngs)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                raise CheckpointError(
                    f"real {real}'s checkpoint section does not decode: {exc!r}"
                ) from None

    def _restore_real(self, real: int, section: tuple, rngs: list) -> None:
        arr, D = self.arrays[real], self.cfg.D
        with open_section(section) as (item, nbytes, read):
            rows, lens, side = item["rows"], item["lens"], item["side"]
            # ascending rows inside the row space, as many as the bytes
            if (rows.dtype.kind != "i" or rows.ndim != 1 or lens.shape != rows.shape
                    or len(side) != D or rows.size * arr._arena.block_bytes != nbytes
                    or np.any(np.diff(rows, prepend=-1) <= 0)
                    or rows.size and rows[-1] >= MAX_DIRECT_TRACK * D):
                raise CheckpointError(f"real {real}'s checkpoint section: bad rows")
            arr._arena.load(rows, lens, side, read)
        for disk, (reads, writes) in zip(arr.disks, item["disks"]):
            disk.blocks_read, disk.blocks_written = reads, writes
        arr.stats = IOStats(**item["stats"])
        fault = item["injector"]
        if fault is not None:
            # the fingerprint pins the fault plan, so a section with
            # injector state always meets a FaultyDiskArray
            fault["stats"] = FaultStats(**fault["stats"])
            arr.injector.restore(fault)  # type: ignore[attr-defined]
        mem, alloc = self.memories[real], self.allocators[real]
        mem.used, mem.peak = item["memory"]
        alloc._cursor, free = item["allocator"]
        alloc._free = list(free)
        self._ctx_io[real], self._msg_io[real], self._ovf[real] = item["blocks"]
        self._staged_parity, self._ready_parity = item["parities"]
        for pid, (region, staged, ready, charged, rng) in item["pids"].items():
            if region is not None:
                self._ctx_region[pid] = region
            self._staged_meta[pid], self._ready_meta[pid] = staged, ready
            if charged:
                self._charged[pid] = charged
            rngs[pid].bit_generator.state = rng

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
        """This slice's end-of-run counters by real, the unit
        :func:`fold_final_stats` folds: ``IOStats``, memory peak, context,
        message and overflow blocks, fault statistics (None when clean)."""
        faults = {r: a.injector.stats for r, a in self.arrays.items()
                  if isinstance(a, FaultyDiskArray)}
        return {"reals": {
            r: (a.stats, self.memories[r].peak, self._ctx_io[r], self._msg_io[r],
                self._ovf[r], faults.get(r))
            for r, a in self.arrays.items()
        }}

    def _finalize(self, report: CostReport) -> None:
        fold_final_stats(report, [self._final_stats()])


def fold_final_stats(report: CostReport, parts: list[dict]) -> None:
    """Fold the slices' :meth:`ParEMEngine._final_stats` into *report* —
    one part for the in-process run, one per slice for the coordinator —
    in ascending real order, so the io_max tie-break (the first maximum)
    and the float sum of backoff_s are the same however the reals were
    partitioned."""
    reals = [st for _r, st in sorted(
        (kv for part in parts for kv in part["reals"].items()), key=itemgetter(0))]
    for st in reals:
        report.io.merge(st[0])
    ios = [st[0] for st in reals] or [report.io]
    report.io_max = max(ios, key=lambda io: io.parallel_ios).snapshot()
    report.peak_memory_items = max((st[1] for st in reals), default=0)
    report.context_blocks_io = sum(st[2] for st in reals)
    report.message_blocks_io = sum(st[3] for st in reals)
    report.overflow_blocks = sum(st[4] for st in reals)
    faults = [st[5] for st in reals if st[5] is not None]
    if faults:
        report.fault_stats = FaultStats()
        for stats in faults:
            report.fault_stats.merge(stats)
