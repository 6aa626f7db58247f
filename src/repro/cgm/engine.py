"""Engine driver: executes a :class:`CGMProgram` round by round.

:class:`Engine` owns the driver loop shared by all backends; subclasses
only implement *where contexts and messages live between rounds*:

* :class:`InMemoryEngine` (here) keeps everything in Python objects — this
  is the reference CGM machine with unbounded memory;
* :class:`repro.core.par_engine.ParEMEngine` implements Algorithm 3
  (p-processor external-memory simulation) and, built for ``engine="seq"``,
  Algorithm 2 (its p = 1 case);
* :class:`repro.core.vm_engine.VMEngine` replays the in-memory execution
  through an LRU pager (the Figure 3 "virtual memory" baseline).

An engine is built from a :class:`MachineConfig` and is the only code
that turns it into the :class:`~repro.cgm.program.Shape` a program sees
(``cfg.shape``): ``setup``, ``RoundEnv`` and ``max_message_items`` take
the shape, and the virtual processors' RNGs are seeded from it.

The loop runs until every virtual processor's :meth:`CGMProgram.round`
returns True **and** no messages are in flight; messages sent in round r
are delivered in round r+1.

With ``balanced=True`` every communication round is routed through the
paper's Algorithm 1 (BalancedRouting): the engine splits each message into
word-level chunks in a first balanced h-relation, regroups them at
intermediate processors in an engine-internal *relay superstep*, and
reassembles original payloads at the final destination.  This doubles the
number of communication supersteps (Lemma 2) but bounds every physical
message into [h/v - (v-1)/2, h/v + (v-1)/2].
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.cgm.config import MachineConfig
from repro.cgm.message import Message
from repro.cgm.metrics import CostReport, RoundMetrics
from repro.cgm.program import CGMProgram, Context, RoundEnv
from repro.obs.bus import NULL_RECORDER, EventBus, NullRecorder
from repro.util.items import ITEM_FORMAT_VERSION
from repro.util.rng import spawn_rngs
from repro.util.validation import ConfigurationError, PreemptedError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.faults.checkpoint import Checkpoint, CheckpointManager
    from repro.faults.plan import FaultPlan
    from repro.tune.runtime import RuntimeConfig

#: hard guard against non-terminating programs.
MAX_ROUNDS = 10_000


@dataclass
class RunResult:
    """Outputs plus cost accounting of one engine execution."""

    outputs: list[Any]
    report: CostReport
    cfg: MachineConfig

    def output(self, pid: int) -> Any:
        return self.outputs[pid]


@dataclass
class RoundStep:
    """Accounting accumulated while executing one CGM round.

    Produced by :meth:`Engine._execute_round` (and, in the multi-process
    backend, merged from per-worker partial steps) and folded into a
    :class:`RoundMetrics` by the driver loop.
    """

    sent: list[int]              #: items sent, per virtual processor
    recv: list[int]              #: items received, per virtual processor
    per_real_wall: list[float]   #: round-callback wall time, per real proc
    messages: int = 0            #: point-to-point messages this round
    comm_items: int = 0          #: total items communicated
    cross_items: int = 0         #: items crossing real-processor boundaries
    all_done: bool = True        #: every executed processor returned True
    io: Any = None               #: IOStats delta of the round, or None
    #: a worker fleet's exchange traffic this round, per node (traced runs)
    transport: Any = None

    @classmethod
    def empty(cls, v: int, p: int) -> "RoundStep":
        return cls(sent=[0] * v, recv=[0] * v, per_real_wall=[0.0] * p)

    def merge(self, other: "RoundStep") -> None:
        """Fold another slice's step of the same round into this one."""
        for mine, theirs in (
            (self.sent, other.sent),
            (self.recv, other.recv),
            (self.per_real_wall, other.per_real_wall),
        ):
            for i, x in enumerate(theirs):
                mine[i] += x
        self.messages += other.messages
        self.comm_items += other.comm_items
        self.cross_items += other.cross_items
        self.all_done &= other.all_done
        if self.io is None:
            self.io = other.io
        elif other.io is not None:
            self.io.merge(other.io)


class Engine:
    """Template driver; subclasses provide the storage backend."""

    name = "abstract"
    #: backends whose between-round state can be checkpointed set this
    #: True and implement ``_save_checkpoint``/``_restore_checkpoint``.
    supports_checkpoint = False
    #: backends whose disk arrays accept a fault plan set this True.
    supports_faults = False
    #: backends that recover from the newest checkpoint while a run is
    #: live (the process backend re-dispatches a round after a worker
    #: death) set this True: under a checkpoint manager the run loop then
    #: persists every boundary, whether or not a probe fires.
    persists_every_round = False
    #: OS worker processes simulating the reals (``run_begin``'s
    #: ``workers`` tag): 0 means this interpreter holds the whole machine.
    n_workers = 0

    def __init__(
        self,
        cfg: MachineConfig,
        balanced: bool = False,
        tracer: EventBus | NullRecorder | None = None,
    ) -> None:
        self.cfg = cfg
        #: all the program sees of the machine
        self.shape = cfg.shape
        self.balanced = balanced
        #: trace recorder; defaults to the zero-cost disabled singleton.
        #: Call sites must guard on ``self.tracer.enabled`` so the disabled
        #: path never constructs an event payload.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        #: resilience knobs, set post-construction (see repro.em.runner):
        #: the fault plan applied to the disk arrays, the checkpoint
        #: manager persisting round-boundary snapshots, and whether this
        #: run restores from the newest snapshot instead of setting up.
        self.faults: "FaultPlan | None" = None
        self.checkpoint: "CheckpointManager | None" = None
        self.resume = False
        #: per-run knob snapshot (repro.tune.runtime.RuntimeConfig), set
        #: post-construction by make_engine / the tuner; ``None`` means
        #: run() resolves the environment once at run start.  All knob
        #: consumption during a run goes through the snapshot, so flipping
        #: an env var mid-run (or between runs sharing this engine) can
        #: never half-apply.
        self.runtime: "RuntimeConfig | None" = None
        self._rt: "RuntimeConfig | None" = None
        #: optional preemption probe, set post-construction (the job
        #: server's worker pool).  Polled at every round boundary; a run
        #: that carries one persists a snapshot only when it fires — all
        #: state is on the simulated disks at a boundary, so the snapshot
        #: taken then is the one a resume needs — and then aborts with
        #: :class:`~repro.util.validation.PreemptedError`, so with a
        #: checkpoint manager attached the run resumes bit-identically.
        #: A run without a probe cannot be asked, so it persists every
        #: boundary.
        self.preempt: "Callable[[], bool] | None" = None

    # ------------------------------------------------------------------ hooks

    def _start(self, program: CGMProgram) -> None:
        """Allocate backend structures before setup."""
        raise NotImplementedError

    def _store_context(self, pid: int, ctx: Context) -> None:
        raise NotImplementedError

    def _load_context(self, pid: int) -> Context:
        raise NotImplementedError

    def _put_messages(self, src_pid: int, msgs: list[Message]) -> None:
        """Persist *msgs* for the **next** superstep (write side)."""
        raise NotImplementedError

    def _release(self, pid: int) -> None:
        """Free what *pid* holds of its real's internal memory (EM ledger)."""

    def _take_inbox(self, pid: int) -> list[Message]:
        """Remove and return messages delivered to *pid* (read side)."""
        raise NotImplementedError

    def _flip(self) -> None:
        """Superstep barrier: make messages written this superstep readable.

        Superstep semantics require double buffering — a message sent in
        round r must not be visible to a processor simulated later in the
        same round.  On the EM backends this corresponds to the two
        alternating bands of the message matrix (Observation 2).
        """
        raise NotImplementedError

    def _pending_messages(self) -> bool:
        """Any messages awaiting delivery (read side, after a flip)?"""
        raise NotImplementedError

    def _exchange(self, r: int, phase: int, done: bool) -> None:
        """Called immediately before each :meth:`_flip` of round *r*
        (*phase* 0 after the compound-superstep loop, 1 after the balanced
        relay; *done*: all processors run here are done).  The EM backends
        stage step (d)'s cross-real traffic here, and a slice with peers
        moves it and learns the halt (:meth:`ParEMEngine._exchange`)."""

    def _finalize(self, report: CostReport) -> None:
        """Fold backend counters into the report."""

    def _run_end_tags(self) -> dict[str, int]:
        """Backend-specific tags for ``run_end`` (the VM pager's page size)."""
        return {}

    def _save_checkpoint(self, r: int, rngs: list, boundary: dict, meta: dict) -> str:
        """Persist the *boundary* after round *r* (whether the run
        finished there, its report so far) with every real's section, its
        virtual processors' RNG states among them, and the fingerprint
        *meta*, in one ``self.checkpoint.save`` → the path."""
        raise NotImplementedError(f"{self.name} engine cannot checkpoint")

    def _restore_checkpoint(self, ckpt: "Checkpoint", rngs: list) -> None:
        """Rewind the freshly started backend to the verified *ckpt*."""
        raise NotImplementedError(f"{self.name} engine cannot checkpoint")

    def _supersteps_per_round(self) -> int:
        """Real-machine supersteps consumed per CGM round."""
        return 1

    def _io_totals(self) -> "object | None":
        """Current aggregated :class:`IOStats` across real processors, or
        ``None`` for backends that issue no disk I/O.  Used for per-round
        I/O deltas (``RoundMetrics.io``) and superstep trace events."""
        return None

    def _local_pids(self) -> "range | list[int]":
        """Virtual processors simulated by *this* interpreter: all of
        them, unless the backend is one slice of a partitioned machine
        (:class:`~repro.core.par_engine.ParEMEngine` with a plan)."""
        return range(self.cfg.v)

    # ------------------------------------------------- per-round execution

    def _setup_contexts(self, program: CGMProgram, inputs: list[Any]) -> None:
        """Initialize and persist every virtual processor's context."""
        for pid in self._local_pids():
            ctx = Context()
            program.setup(ctx, pid, self.shape, inputs[pid])
            self._store_context(pid, ctx)
            self._release(pid)

    def _run_vproc(
        self,
        program: CGMProgram,
        r: int,
        pid: int,
        rng,
        step: RoundStep,
    ) -> None:
        """Simulate one virtual processor's compound superstep: load its
        context and inbox, run the program's round callback, persist the
        context and route the outbox — accumulating into *step*."""
        from repro.core import balanced as bal  # local import: avoid cycle

        cfg = self.cfg
        vpr = cfg.vprocs_per_real
        real = pid // vpr
        tr = self.tracer
        ctx = self._load_context(pid)
        raw_inbox = self._take_inbox(pid)
        if self.balanced and raw_inbox:
            inbox = bal.reassemble(raw_inbox)
        else:
            inbox = raw_inbox
        for m in inbox:
            step.recv[pid] += m.size_items
        env = RoundEnv(pid, r, self.shape, inbox, rng)
        t0 = time.perf_counter()
        done = program.round(r, ctx, env)
        wall = time.perf_counter() - t0
        step.per_real_wall[real] += wall
        step.all_done &= bool(done)
        self._store_context(pid, ctx)

        outbox = env.outbox
        step.messages += len(outbox)
        for m in outbox:
            step.sent[pid] += m.size_items
            step.comm_items += m.size_items
            if (m.dest // vpr) != real:
                step.cross_items += m.size_items
                if tr.enabled:
                    tr.emit(
                        "network_transfer",
                        src=m.src,
                        dest=m.dest,
                        src_real=real,
                        dest_real=m.dest // vpr,
                        items=m.size_items,
                    )
        if tr.enabled:
            tr.emit(
                "compute_round",
                pid=pid,
                real=real,
                round=r,
                wall_s=wall,
                done=bool(done),
            )
        if self.balanced and outbox:
            outbox = bal.split_phase_a(outbox, cfg.v)
        self._put_messages(pid, outbox)

    def _execute_round(self, program: CGMProgram, r: int, rngs: list) -> RoundStep:
        """Run one full CGM round over this interpreter's virtual
        processors: their compound supersteps -> exchange -> flip, then
        (in balanced mode) relay -> exchange -> flip.  This is the only
        round loop: a worker process runs it over its slice, round after
        round, and the multi-process *coordinator* overrides it only to
        gather the workers' reports of the round."""
        cfg = self.cfg
        step = RoundStep.empty(cfg.v, cfg.p)
        io_before = self._io_totals()
        for pid in self._local_pids():
            self._run_vproc(program, r, pid, rngs[pid], step)
        self._exchange(r, 0, step.all_done)
        self._flip()
        if self.balanced:
            self._relay_superstep()
            self._exchange(r, 1, step.all_done)
            self._flip()
        io_after = self._io_totals()
        if io_after is not None:
            step.io = (
                io_after.delta_since(io_before) if io_before else io_after.snapshot()
            )
        return step

    def _collect_outputs(self, program: CGMProgram) -> list[Any]:
        """Extract every virtual processor's output after the last round."""
        outputs = []
        for pid in self._local_pids():
            outputs.append(program.finish(self._load_context(pid)))
            self._release(pid)
        return outputs

    # -------------------------------------------------------- checkpointing

    def _ckpt_meta(self, program: CGMProgram) -> dict[str, Any]:
        """Run fingerprint stored in every checkpoint header.

        Resume requires an exact match, so a snapshot can never silently
        continue under a different program, machine shape, routing mode or
        fault plan.  ``workers`` is deliberately excluded: the in-process
        and multi-process par backends simulate the identical machine
        (both are named ``par-em``), so snapshots are portable between
        them and across worker counts.  ``item_format`` is the version of
        the bytes on the snapshotted disks: a checkpoint written under
        another format is refused here, before any track is decoded.
        """
        cfg = self.cfg
        return {
            "item_format": ITEM_FORMAT_VERSION,
            "engine": self.name,
            "program": program.name,
            "balanced": self.balanced,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "cfg": {
                "N": cfg.N, "v": cfg.v, "p": cfg.p,
                "D": cfg.D, "B": cfg.B, "M": cfg.M, "seed": cfg.seed,
            },
        }

    def _write_checkpoint(
        self,
        program: CGMProgram,
        r: int,
        report: CostReport,
        rngs: list,
        finished: bool,
        persist: bool,
    ) -> None:
        """Write the boundary after round *r* through the checkpoint
        manager when *persist* (or the backend persists every round)."""
        if self.checkpoint is None or not (persist or self.persists_every_round):
            return
        boundary = {"finished": finished, "report": report}
        path = self._save_checkpoint(r, rngs, boundary, self._ckpt_meta(program))
        if self.tracer.enabled:
            self.tracer.emit("checkpoint", round=r, finished=finished, path=path)

    def _resume_from_checkpoint(
        self, program: CGMProgram, rngs: list
    ) -> tuple[int, bool, CostReport]:
        """Restore the newest checkpoint → (next round, finished, report)."""
        assert self.checkpoint is not None
        ckpt = self.checkpoint.load(self._ckpt_meta(program))
        report = CostReport.from_dict(ckpt.report)
        self._restore_checkpoint(ckpt, rngs)
        if self.tracer.enabled:
            self.tracer.emit(
                "resume", round=ckpt.round, finished=ckpt.finished, path=ckpt.path
            )
        return ckpt.round + 1, ckpt.finished, report

    # ------------------------------------------------------------------ driver

    def _close(self) -> None:
        """Release the backend's storage (an mmap arena's spill dir)."""

    def run(self, program: CGMProgram, inputs: list[Any]) -> RunResult:
        """Execute *program* on *inputs*.  A run that raises releases its
        storage before the exception leaves (a caller holding the
        traceback holds the engine); a finished one keeps it for
        inspection until :meth:`_close` or garbage collection."""
        try:
            return self._run(program, inputs)
        except BaseException:
            self._close()
            raise

    def _run(self, program: CGMProgram, inputs: list[Any]) -> RunResult:
        cfg = self.cfg
        v = cfg.v
        if len(inputs) != v:
            raise ConfigurationError(
                f"need one input slice per virtual processor: got {len(inputs)}, v={v}"
            )
        if not self.supports_checkpoint and (self.checkpoint is not None or self.resume):
            raise ConfigurationError(
                f"the {self.name!r} engine does not support checkpoint/resume "
                "(use the seq/par EM backends)"
            )
        if not self.supports_faults and self.faults is not None:
            raise ConfigurationError(
                f"the {self.name!r} engine does not support fault injection "
                "(use the seq/par EM backends)"
            )
        if self.resume and self.checkpoint is None:
            raise ConfigurationError("--resume requires a checkpoint directory")

        rngs = spawn_rngs(self.shape.seed, v)
        report = CostReport(engine=self.name)
        if self.runtime is not None:
            self._rt = self.runtime
        else:
            from repro.tune.runtime import current

            self._rt = current()
        self._start(program)
        tr = self.tracer
        if tr.enabled:
            tr.emit(
                "run_begin",
                engine=self.name,
                program=program.name,
                N=cfg.N,
                v=cfg.v,
                p=cfg.p,
                D=cfg.D,
                B=cfg.B,
                M=cfg.M,
                workers=self.n_workers,
                balanced=self.balanced,
            )

        finished = False
        if self.resume:
            r, finished, report = self._resume_from_checkpoint(program, rngs)
        else:
            r = 0
            self._setup_contexts(program, inputs)
            # an initial snapshot (round -1) makes even a crash in the
            # very first round recoverable
            self._write_checkpoint(
                program, -1, report, rngs, False, persist=self.preempt is None
            )

        while not finished:
            if tr.enabled:
                tr.emit("superstep_begin", superstep=report.supersteps, round=r)

            t_round = time.perf_counter()
            step = self._execute_round(program, r, rngs)
            round_wall_s = time.perf_counter() - t_round

            rm = RoundMetrics(r)
            rm.messages = step.messages
            rm.comm_items = step.comm_items
            rm.cross_items = step.cross_items
            rm.h_in = max(step.recv, default=0)
            rm.h_out = max(step.sent, default=0)
            rm.comp_wall_s = max(step.per_real_wall)
            if step.io is not None:
                rm.io = step.io
            all_done = step.all_done
            report.add_round(rm)
            report.supersteps += self._supersteps_per_round() * (2 if self.balanced else 1)
            if tr.enabled:
                tr.emit(
                    "superstep_end",
                    superstep=report.supersteps,
                    round=r,
                    h_in=rm.h_in,
                    h_out=rm.h_out,
                    parallel_ios=rm.io.parallel_ios,
                    blocks=rm.io.blocks_total,
                    comm_items=rm.comm_items,
                    cross_items=rm.cross_items,
                    width_hist=list(rm.io.width_histogram) or None,
                    wall_s=round_wall_s,
                    **({"transport": step.transport} if step.transport else {}),
                )
            finished = all_done and not self._pending_messages()
            preempted = not finished and self.preempt is not None and self.preempt()
            self._write_checkpoint(
                program, r, report, rngs, finished,
                persist=self.preempt is None or preempted,
            )
            if preempted:
                # the snapshot for round r is on disk now, so the
                # preempted run resumes bit-identically from round r + 1
                if tr.enabled:
                    tr.emit(
                        "preempt",
                        round=r,
                        resumable=self.checkpoint is not None,
                    )
                raise PreemptedError(
                    f"run preempted after round {r}"
                    + (
                        " (checkpointed; resume to continue)"
                        if self.checkpoint is not None
                        else " (no checkpoint directory — progress lost)"
                    )
                )
            r += 1
            if not finished and r > MAX_ROUNDS:
                raise SimulationError(
                    f"program {program.name!r} exceeded {MAX_ROUNDS} rounds — "
                    "missing termination?"
                )

        outputs = self._collect_outputs(program)
        self._finalize(report)
        if tr.enabled:
            fs = report.fault_stats
            if fs is not None and fs.any:
                # physical, like io_fault: a plan that injected nothing
                # leaves the event stream of a clean run
                tr.emit("fault_stats", **fs.as_dict())
            tr.emit(
                "run_end",
                engine=self.name,
                rounds=report.rounds,
                supersteps=report.supersteps,
                parallel_ios=report.io.parallel_ios,
                cross_items=report.cross_items,
                peak_memory_items=report.peak_memory_items,
                context_blocks=report.context_blocks_io,
                message_blocks=report.message_blocks_io,
                overflow_blocks=report.overflow_blocks,
                page_faults=report.page_faults,
                **self._run_end_tags(),
            )
        return RunResult(outputs, report, cfg)

    def _relay_superstep(self) -> None:
        """Balanced routing phase B: regroup chunks at intermediate procs.

        Engine-internal — no program code runs, no contexts are loaded.
        """
        from repro.core import balanced as bal

        for pid in self._local_pids():
            chunks = self._take_inbox(pid)
            if not chunks:
                continue
            forwarded = bal.regroup_phase_b(chunks, me=pid)
            self._put_messages(pid, forwarded)


class InMemoryEngine(Engine):
    """Reference backend: contexts and inboxes live in Python dicts.

    This is the "pure CGM" machine the paper's algorithms are designed
    for; the EM engines are differentially tested against it.
    """

    name = "in-memory"

    def _start(self, program: CGMProgram) -> None:
        self._contexts: dict[int, Context] = {}
        v = self.cfg.v
        self._ready: dict[int, list[Message]] = {pid: [] for pid in range(v)}
        self._staged: dict[int, list[Message]] = {pid: [] for pid in range(v)}

    def _store_context(self, pid: int, ctx: Context) -> None:
        self._contexts[pid] = ctx

    def _load_context(self, pid: int) -> Context:
        return self._contexts[pid]

    def _put_messages(self, src_pid: int, msgs: list[Message]) -> None:
        for m in msgs:
            self._staged[m.dest].append(m)

    def _take_inbox(self, pid: int) -> list[Message]:
        msgs = self._ready[pid]
        self._ready[pid] = []
        return msgs

    def _flip(self) -> None:
        # staged messages become deliverable; anything still unread in
        # `ready` was ignored by its recipient this round and is dropped,
        # matching superstep semantics (a message lives one superstep).
        for pid, staged in self._staged.items():
            if staged:
                self._ready[pid].extend(staged)
                self._staged[pid] = []

    def _pending_messages(self) -> bool:
        return any(self._ready.values())
