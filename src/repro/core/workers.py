"""Multi-core execution of Algorithm 3: one OS process per real-processor
group.

:class:`ProcessParEngine` is the opt-in (``workers`` knob > 1) backend that
runs the p real processors of ParCompoundSuperstep concurrently: the
reals are partitioned contiguously into ``n_workers`` (at most p) slices,
and each slice is one :class:`~repro.core.par_engine.ParEMEngine` — the
same engine the in-process run uses, constructed with the plan, its
``worker_id`` and a transport, so it instantiates only its share of the
disks, memories, message matrices and allocators.  The coordinator
simulates slice 0 itself, as Algorithm 3 has no master, and forks or
dials one worker session for each other slice: ``workers=k`` is k
processes.  Slice 0's inputs and outputs never cross a socket.

Self-clocked rounds: after ``setup`` or ``restore`` each worker runs
:meth:`Engine._execute_round`, the one round loop, over its slice round
after round with no command between (:func:`clock_rounds`); the
coordinator runs the same loop over slice 0 once per round of
:meth:`Engine.run`.  A slice's ``_exchange`` hook
(:meth:`~repro.core.par_engine.ParEMEngine._exchange`) is where step
(d)'s cross-real traffic leaves the process and is staged — the round's
only barrier — and its last packets carry the flags every slice decides
the halt from.  Each worker streams one report per round (its
:class:`RoundStep`, trace events, traffic, and under a checkpoint manager
its boundary snapshot); the coordinator merges slice 0's step and the
reports in ascending worker order, persists snapshots and recovers from
crashes.

Determinism: every ``CostReport`` counter the coordinator reports, the
physical fault ledger (``FaultStats``) included, is bit-identical to the
single-process simulation.  A real's array sees its own virtual
processors' accesses in loop order, then every cross-real bundle at the
exchange, by source pid, whichever slice hosts the sender — so a fault
plan's draws land on the same accesses under any partition.  The
staggered-slot geometry is pure arithmetic in (src, dest, nblocks,
parity); overflow runs use consecutive format anchored on disk 0, so
DiskWrite/DiskRead batching — and hence ``parallel_ios`` — depends only
on block *counts*, never on which track the allocator handed out; inbox
delivery is sorted by source pid; and all remaining counters are
order-independent sums or per-real maxima, folded in ascending real
order.  Workers are forked (``fork`` is required: a platform without it
gets a one-line :class:`~repro.util.validation.ConfigurationError`), so a
worker inherits the interpreter state — serialization is byte-identical
and programs need not be picklable.

One worker session: what a worker *is* does not depend on where it runs.
:func:`serve_session` is a worker; a forked child runs it on its end of a
``socket.socketpair()`` (:class:`LocalFleet`), a ``repro node`` daemon on
an accepted TCP connection after the handshake
(:class:`~repro.core.transport.tcp.TcpFleet`), and the coordinator's end
is one class (:class:`~repro.core.transport.tcp.Fleet`) either way — so
checkpoints, fault recovery and every logical counter cannot depend on
the ``REPRO_TRANSPORT`` spelling: ``memory`` (also spelled ``shm``) is
the local fleet, ``tcp`` the remote.  Every packet, bulk payloads
included, rides its frame: a forked worker's straight to its peer on
their own socketpair, slice 0's on the session sockets, a tcp worker's
to another worker through the coordinator's relay.
"""

from __future__ import annotations

import ctypes
import itertools
import multiprocessing as mp
import os
import queue
import shutil
import socket
import tempfile
import threading
import traceback
from typing import Any

from repro.cgm.config import MachineConfig
from repro.cgm.engine import Engine, RoundStep
from repro.cgm.metrics import CostReport
from repro.cgm.program import CGMProgram
from repro.core.par_engine import ParEMEngine, fold_final_stats
from repro.core.transport.base import (
    POLL_S,
    TransportAbort,
    TransportError,
    recv_frame,
    require_nodes,
    send_frame,
)
from repro.core.transport.session import SessionTransport
from repro.core.transport.tcp import Fleet, TcpFleet, hang_up
from repro.obs.bus import EventBus, replay_events
from repro.pdm.io_stats import IOStats
from repro.util.rng import spawn_rngs
from repro.util.validation import ConfigurationError, SimulationError

#: empty poll cycles tolerated after a worker is seen dead.
_DEAD_GRACE = 8

try:  # glibc's: return the free pages of the heap to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError):  # pragma: no cover - another libc
    _malloc_trim = None


def partition_reals(p: int, n_workers: int) -> list[list[int]]:
    """Contiguous split of real processors 0..p-1 over the workers."""
    base, extra = divmod(p, n_workers)
    plan, nxt = [], 0
    for w in range(n_workers):
        k = base + (1 if w < extra else 0)
        plan.append(list(range(nxt, nxt + k)))
        nxt += k
    return plan


def _worker_failed(w: int, payload: str) -> SimulationError:
    """A worker-reported exception in one line, its traceback the cause."""
    err = SimulationError(f"worker {w} failed: {payload.strip().splitlines()[-1]}")
    err.__cause__ = SimulationError(f"worker {w} traceback:\n{payload}")
    return err


class WorkerCrashed(SimulationError):
    """A worker *process* died without reporting a result.

    Distinct from a worker-reported exception (which stays a plain
    :class:`SimulationError`): only process death is the transient,
    checkpoint-recoverable condition the coordinator re-dispatches on.
    """

    def __init__(self, workers: list[int], kind: str) -> None:
        super().__init__(
            f"worker(s) {workers} died without reporting a result for {kind!r}"
        )
        self.workers = workers


def clock_rounds(eng: ParEMEngine, program: CGMProgram, r: int, rngs, boundary) -> None:
    """Run slice *eng* from round *r* to the halt its last exchange agreed
    (:meth:`ParEMEngine._exchange`); *boundary(step)* sees each round's
    step, and a true return stops the slice there."""
    while True:
        step = eng._execute_round(program, r, rngs)
        if boundary(step) or eng._halt:
            return
        r += 1


def build_slice(
    session: dict[str, Any], worker_id: int, net, tracer
) -> ParEMEngine:
    """Slice *worker_id* of *session*'s machine, started: a worker's, or
    slice 0 in the coordinator."""
    eng = ParEMEngine(session["cfg"], session["balanced"], tracer=tracer,
                      plan=session["plan"], worker_id=worker_id, net=net)
    eng.faults = session["faults"]
    eng._rt = session["runtime"]
    eng._start(session["program"])
    return eng


def slice_snapshot(eng: ParEMEngine, rngs: list) -> dict[str, Any]:
    """A slice's part of a boundary snapshot: its backend and the RNG
    states of its virtual processors."""
    return {
        "backend": eng._snapshot_backend(),
        "rng": {pid: rngs[pid].bit_generator.state for pid in eng._local_pids()},
    }


def round_report(eng: ParEMEngine, step: RoundStep, tracer, snapshot) -> dict:
    """What a slice reports of a round: its step, halt and pending flags,
    trace events and exchange traffic (counted afresh from here on)."""
    net = eng.net
    report = {
        "step": step,
        "pending": eng._pending_messages(),
        "halt": eng._halt,
        "events": tracer.drain() if tracer else [],
        "packets": {"sent": net.packets_sent, "recv": net.packets_received},
        "bytes": net.bytes_received,
        "snapshot": snapshot,
    }
    net.packets_sent = net.packets_received = net.bytes_received = 0
    return report


def final_report(eng: ParEMEngine, program: CGMProgram, tracer) -> dict:
    """What a slice reports at the end: its outputs, final stats and
    trace events."""
    return {
        "outputs": dict(zip(eng._local_pids(), eng._collect_outputs(program))),
        **eng._final_stats(),
        "events": tracer.drain() if tracer else [],
    }


def run_worker_session(
    worker_id: int,
    session: dict[str, Any],
    cmd_get,
    cmd_waiting,
    reply,
    net: SessionTransport,
) -> None:
    """One worker's command loop (called by :func:`serve_session` only).

    Commands: ``("setup",)``, ``("restore", backend, rng_states,
    next_round)``, ``("finish",)``, ``("stop",)``.  ``setup`` builds the
    contexts from ``session["inputs"][worker_id]``, the slice's inputs by
    pid, which rode the session: a forked worker inherited them, a node
    got them in its hello.  After
    ``setup`` (from round 0) or ``restore`` (from *next_round*, ``None``
    for a finished run) the worker clocks its own rounds, one ``"round"``
    report each, and stops at a boundary where *cmd_waiting()* — a
    command or EOF — says the coordinator stopped listening.  *cmd_get*
    blocks for the next command, *reply(kind, payload)* ships a result
    back, and *net* is this worker's
    :class:`~repro.core.transport.session.SessionTransport`.

    ``session["runtime"]`` is the coordinator's per-run
    :class:`~repro.tune.runtime.RuntimeConfig` snapshot — workers never
    consult their own environment, so every process of one run agrees on
    the knob values even if environments differ across machines.

    Exceptions propagate to the caller, which owns error reporting.
    """
    program: CGMProgram = session["program"]
    # no opener event is emitted here, so the bus ships the same flat
    # dicts the coordinator threads into its own spans
    tracer = EventBus(monitor=False) if session["trace_enabled"] else None
    eng = build_slice(session, worker_id, net, tracer)
    rngs = spawn_rngs(eng.shape.seed, eng.shape.v)

    def snapshot() -> "dict | None":
        return slice_snapshot(eng, rngs) if session["snapshots"] else None

    def boundary(step: RoundStep) -> bool:
        reply("round", round_report(eng, step, tracer, snapshot()))
        return cmd_waiting()

    try:
        while True:
            cmd = cmd_get()
            op = cmd[0]
            if op == "setup":
                eng._setup_contexts(program, session["inputs"][worker_id])
                reply("setup", {"snapshot": snapshot()})
                clock_rounds(eng, program, 0, rngs, boundary)
            elif op == "restore":
                _op, backend, rng_states, next_round = cmd
                eng._restore_backend(backend)
                for pid, state in rng_states.items():
                    rngs[pid].bit_generator.state = state
                reply("restore", None)
                if next_round is not None:
                    clock_rounds(eng, program, next_round, rngs, boundary)
            elif op == "finish":
                reply("final", final_report(eng, program, tracer))
            elif op == "stop":
                return
            else:  # pragma: no cover - protocol bug
                raise SimulationError(f"unknown worker command {op!r}")
    finally:
        # nobody else will: a forked child leaves through os._exit and a
        # node daemon lives on, so an mmap arena's spill dir would outlast
        # the session
        eng._close()


def serve_session(
    sock: socket.socket, worker_id: int, session: dict[str, Any], peers=None
) -> None:
    """Be worker *worker_id* of *session* on *sock* until told to stop.

    One reader thread per socket (*sock*, and each of a forked worker's
    *peers*, ``{worker: socket}``) splits frames into commands and
    packets; the command loop answers with ``("result", ...)`` frames and
    exchanges through the one
    :class:`~repro.core.transport.session.SessionTransport`.  EOF on
    *sock* ends the session wherever it waits, EOF on a peer socket once
    it waits for a packet, and neither replies — a dead peer reads as a
    crash.  Any other failure is reported as an ``("error", traceback)``
    result.  Every socket is closed on every path.
    """
    peers = peers or {}
    wlock = threading.Lock()
    cmd_q: queue.Queue = queue.Queue()
    inbox: queue.Queue = queue.Queue()

    def read_loop(conn: socket.socket, ends: tuple) -> None:
        try:
            while True:
                frame, nbytes = recv_frame(conn, sized=True)
                if frame[0] == "cmd":
                    cmd_q.put(frame[1])
                elif frame[0] == "pkt":
                    inbox.put((frame[1:], nbytes))
        except (TransportError, OSError):
            pass
        finally:
            for q in ends:
                q.put(None)

    def next_command() -> tuple:
        cmd = cmd_q.get()
        if cmd is None:
            raise TransportAbort("coordinator hung up")
        return cmd

    sources = [(sock, (cmd_q, inbox))] + [(p, (inbox,)) for p in peers.values()]
    readers = [
        threading.Thread(target=read_loop, args=src, daemon=True,
                         name=f"repro-session-reader-{worker_id}")
        for src in sources
    ]
    for reader in readers:
        reader.start()
    try:
        run_worker_session(
            worker_id,
            session,
            cmd_get=next_command,
            cmd_waiting=lambda: not cmd_q.empty(),
            reply=lambda kind, payload: send_frame(
                sock, ("result", worker_id, kind, payload), wlock
            ),
            net=SessionTransport(worker_id, sock, wlock, inbox, peers),
        )
    except TransportAbort:
        pass
    except BaseException:
        try:
            send_frame(
                sock, ("result", worker_id, "error", traceback.format_exc()), wlock
            )
        except (TransportError, OSError):
            pass
    finally:
        for conn in [sock, *peers.values()]:
            hang_up(conn)
        for reader in readers:
            reader.join(timeout=2.0)


#: held while a fleet creates its sockets and forks, so that no other
#: fleet of this process (the service pool runs jobs on threads) forks in
#: between and hands *its* children a copy of a worker-side socket end
_FORK_LOCK = threading.Lock()


def _forked_worker(
    worker_id: int, session: dict[str, Any], pairs: dict, mesh: dict
) -> None:
    """Child entry point: keep only this worker's ends of its own pairs."""
    for w, (ours, theirs) in pairs.items():
        ours.close()
        if w != worker_id:
            for end in [theirs, *mesh[w].values()]:
                end.close()
    serve_session(pairs[worker_id][1], worker_id, session, mesh[worker_id])


class LocalFleet(Fleet):
    """Sessions in forked children of this process, one per worker, each
    on one end of a ``socket.socketpair()``, plus one socketpair per pair
    of workers that carries their packet frames directly (bulk payloads
    included), so the coordinator relays nothing.

    Under the mmap arena the fleet owns one spill base per start, and the
    children's spill dirs go under it, slice 0's too: a child killed hard
    never removes its own, so :meth:`_reap` removes the base once they are
    joined."""

    kind = "memory"

    def __init__(self, n_sessions: int) -> None:
        super().__init__([f"local/{w}" for w in range(1, n_sessions + 1)])
        self._procs: list = []
        self._spill_base: "str | None" = None

    def _open(self, session: dict[str, Any]) -> dict[str, Any]:
        try:
            ctx = mp.get_context("fork")
        except ValueError:
            raise ConfigurationError(
                "workers > 1 needs the 'fork' start method, which this platform lacks"
            ) from None
        rt = session["runtime"]
        if rt.arena == "mmap":
            if rt.spill_dir:
                os.makedirs(rt.spill_dir, exist_ok=True)
            self._spill_base = tempfile.mkdtemp(prefix="repro-arena-", dir=rt.spill_dir)
            session = {**session, "runtime": rt.replace(spill_dir=self._spill_base)}
        # a child starts with every resident page of this process's heap:
        # what slice 0 freed in the run before goes back to the system first
        if _malloc_trim is not None:
            _malloc_trim(0)
        with _FORK_LOCK:
            pairs = {w: socket.socketpair() for w in self.workers}
            #: mesh[i][j] is worker i's end of its socketpair with worker j
            mesh: dict[int, dict] = {w: {} for w in self.workers}
            for i, j in itertools.combinations(self.workers, 2):
                mesh[i][j], mesh[j][i] = socket.socketpair()
            for conn in self._conns:
                conn.sock = pairs[conn.worker_id][0]
            try:
                for w in self.workers:
                    proc = ctx.Process(
                        target=_forked_worker,
                        args=(w, session, pairs, mesh),
                        daemon=True,
                    )
                    proc.start()
                    self._procs.append(proc)
            finally:
                for w in self.workers:
                    for end in [pairs[w][1], *mesh[w].values()]:
                        end.close()
        return session

    def _reap(self) -> None:
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs = []
        if self._spill_base is not None:
            shutil.rmtree(self._spill_base, ignore_errors=True)
            self._spill_base = None

    def alive(self, w: int) -> bool:
        # the process is asked too: EOF alone cannot be trusted while any
        # other process may hold a duplicate of the worker's socket end
        return super().alive(w) and bool(self._procs) and self._procs[w - 1].is_alive()


class ProcessParEngine(Engine):
    """Coordinator of the multi-core Algorithm 3 backend, and its slice 0.

    Drives the shared :meth:`Engine.run` loop: each round it runs slice 0
    (a :class:`ParEMEngine` whose transport is the fleet) and merges its
    step with the reports of the rounds the worker sessions clock
    themselves; the resulting :class:`CostReport` is bit-identical to
    :class:`ParEMEngine`'s while wall-clock scales with the core count.
    Only a worker session can die (:class:`WorkerCrashed`, healed from the
    last boundary snapshot); what slice 0 raises ends the run as a plain
    :class:`SimulationError`.
    """

    #: cost cross-checks and the bench store key off the engine name, and
    #: the worker backend models the same machine, so it keeps "par-em".
    name = "par-em"
    supports_checkpoint = True
    supports_faults = True
    #: ``_recover`` rewinds a respawned fleet to ``_last_ckpt``
    snapshot_every_round = True

    def __init__(
        self,
        cfg: MachineConfig,
        n_workers: int,
        balanced: bool = False,
        tracer=None,
    ) -> None:
        super().__init__(cfg, balanced=balanced, tracer=tracer)
        self.n_workers = n_workers
        #: the slices of the worker sessions
        self._remote = range(1, n_workers)
        self._fleet = None
        self._local: "ParEMEngine | None" = None
        #: the run's inputs until the sessions set up from them
        self._inputs: "list | None" = None
        self._restarts = 0
        #: each worker's latest report (its boundary snapshot rides it)
        self._reports: dict[int, Any] = {}

    # ------------------------------------------------------------ lifecycle

    def _start(self, program: CGMProgram) -> None:
        cfg, rt = self.cfg, self._rt
        self._plan = partition_reals(cfg.p, self.n_workers)
        vpr = cfg.vprocs_per_real
        #: the virtual processors of each slice's (contiguous) reals
        self._pids = [range(rs[0] * vpr, (rs[-1] + 1) * vpr) for rs in self._plan]
        session = {
            "cfg": cfg,
            "balanced": self.balanced,
            "trace_enabled": self.tracer.enabled,
            "plan": self._plan,
            "program": program,
            "faults": self.faults,
            "runtime": rt,
            "snapshots": self.checkpoint is not None,
            # each session's slice of the inputs, by pid
            "inputs": {w: {pid: self._inputs[pid] for pid in self._pids[w]}
                       for w in self._remote} if self._inputs else {},
        }
        #: replies of workers that ran ahead, for the next gather
        self._ahead: list[tuple] = []
        if self._fleet is None:
            # one fleet per run: crash recovery stops and starts it again;
            # forked local sessions, or sessions on the REPRO_NODES daemons
            n = self.n_workers - 1
            tcp = rt.transport == "tcp"
            self._fleet = TcpFleet(require_nodes(rt.nodes), n) if tcp else LocalFleet(n)
        fleet = self._fleet
        fleet.start(session)
        # built after the fork, so no child inherits slice 0's arrays, and
        # under the fleet's spill base, which its reap removes
        self._bus = EventBus(monitor=False) if self.tracer.enabled else None
        self._local = build_slice(fleet.session, 0, fleet, self._bus)
        if self.tracer.enabled and fleet.kind == "tcp":
            self.tracer.emit(
                "transport_connect",
                transport=fleet.kind,
                nodes=[fleet.node_label(w) for w in self._remote],
            )

    def run(self, program: CGMProgram, inputs: list[Any]):
        self._inputs = None if self.resume else inputs
        try:
            return super().run(program, inputs)
        finally:
            self._inputs = None
            self._shutdown()

    def _shutdown(self, force: bool = False) -> None:
        if self._local is not None:
            self._local._close()
            self._local = None
        if self._fleet is not None:
            self._fleet.stop(force)
        # what slice 0 freed goes back to the system with it
        if _malloc_trim is not None:
            _malloc_trim(0)

    # ---------------------------------------------------------- round hooks

    def _gather(self, kind: str) -> dict[int, Any]:
        """One reply of *kind* from every worker session, keyed by worker
        id.

        Workers clock their own rounds, so one may report again before a
        slower peer's reply is in: that reply waits, in order, for the
        next gather."""
        got: dict[int, Any] = {}
        ahead, self._ahead = self._ahead, []
        dead_cycles = 0
        while len(got) < len(self._remote):
            if ahead:
                w, k, payload = ahead.pop(0)
            else:
                try:
                    w, k, payload = self._fleet.result(timeout=POLL_S)
                except queue.Empty:
                    awaited_dead = [
                        w
                        for w in self._remote
                        if w not in got and not self._fleet.alive(w)
                    ]
                    if awaited_dead:
                        dead_cycles += 1
                        if dead_cycles >= _DEAD_GRACE:
                            self._fleet.request_abort()
                            # a failure a worker reported outranks the
                            # crash of a peer it may have caused
                            for a in self._ahead:
                                if a[1] == "error":
                                    raise _worker_failed(a[0], a[2])
                            raise WorkerCrashed(awaited_dead, kind)
                    continue
            if w in got:
                # a later reply, an error of a later round included: the
                # others' replies of this round are still on their way
                self._ahead.append((w, k, payload))
                continue
            if k == "error":
                self._fleet.request_abort()
                raise _worker_failed(w, payload)
            if k != kind:  # pragma: no cover - protocol bug
                raise SimulationError(f"worker {w} sent {k!r}, expected {kind!r}")
            got[w] = payload
        self._ahead.extend(ahead)
        return got

    def _on_slice0(self, kind: str, fn, *args):
        """*fn(*args)* on slice 0.  A session that ends under its exchange
        is what the gather of *kind* finds: an error a worker reported, or
        a crash.  Anything else slice 0 raises stops the fleet, and an
        exception that is not a :class:`SimulationError` becomes one, as a
        worker's does."""
        try:
            return fn(*args)
        except TransportAbort:
            self._gather(kind)
            dead = [w for w in self._remote if not self._fleet.alive(w)]
            raise WorkerCrashed(dead, kind) from None
        except SimulationError:
            self._fleet.request_abort()
            raise
        except Exception:
            self._fleet.request_abort()
            raise _worker_failed(0, traceback.format_exc())

    def _setup_contexts(self, program: CGMProgram, inputs: list[Any]) -> None:
        self._fleet.broadcast(("setup",))
        self._inputs = None  # a respawned fleet restores instead
        self._on_slice0("setup", self._local._setup_contexts, program, inputs)
        self._reports = self._gather("setup")

    def _execute_round(self, program: CGMProgram, r: int, rngs: list) -> RoundStep:
        """Run slice 0's round *r* and merge its step with the workers'
        reports of it, in slice order."""
        while True:
            try:
                mine = self._on_slice0(
                    "round", self._local._execute_round, program, r, rngs
                )
                reports = self._gather("round")
                break
            except WorkerCrashed as exc:
                self._recover(program, r, rngs, exc)
        reports[0] = round_report(self._local, mine, self._bus, None)
        self._reports = reports
        cfg = self.cfg
        step = RoundStep.empty(cfg.v, cfg.p)
        step.io = IOStats(D=cfg.D)
        self._pending = any(report["pending"] for report in reports.values())
        for w in sorted(reports):
            payload = reports[w]
            step.merge(payload["step"])
            replay_events(
                self.tracer, payload["events"], worker=w,
                **self._fleet.event_tags(w),
            )
        finished = step.all_done and not self._pending
        if any(report["halt"] != finished for report in reports.values()):
            raise SimulationError(f"protocol error: a slice's halt after round {r} "
                                  f"is not the merged one ({finished})")
        if self.tracer.enabled:
            step.transport = self._round_traffic(reports)
        return step

    def _recover(
        self, program: CGMProgram, r: int, rngs: list, exc: WorkerCrashed
    ) -> None:
        """Respawn the worker fleet, rebuild slice 0 and rewind both to the
        last checkpoint, from where they run the crashed round again."""
        cm = self.checkpoint
        snap = self._last_ckpt
        if cm is None or snap is None:
            raise exc
        if self._restarts >= cm.max_restarts:
            raise SimulationError(
                f"giving up after {self._restarts} worker restarts: {exc}"
            ) from exc
        self._restarts += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "worker_redispatch",
                round=r,
                dead_workers=exc.workers,
                restart=self._restarts,
                from_round=snap["round"],
            )
        self._shutdown(force=True)
        self._start(program)
        self._restore_state(snap, rngs)

    def _round_traffic(self, results: dict[int, Any]) -> dict[str, Any]:
        """The round's packets and received frame bytes per slice node."""
        fleet = self._fleet
        packets: dict[str, dict[str, int]] = {}
        nbytes: dict[str, int] = {}
        for w in sorted(results):
            label = fleet.node_label(w)
            node = packets.setdefault(label, {"sent": 0, "recv": 0})
            for direction, n in results[w]["packets"].items():
                node[direction] += n
            nbytes[label] = nbytes.get(label, 0) + results[w]["bytes"]
        return {"kind": fleet.kind, "packets": packets, "bytes": nbytes}

    def _pending_messages(self) -> bool:
        return self._pending

    def _supersteps_per_round(self) -> int:
        # Lemma 4, same as ParEMEngine: v/p real supersteps per CGM round.
        return self.cfg.vprocs_per_real

    # ---------------------------------------------------------- checkpointing

    def _snapshot_state(self, rngs: list) -> dict[str, Any]:
        """Merge slice 0's backend and RNG states with the slices the
        workers shipped with their latest reports into the canonical shape
        :class:`ParEMEngine` produces."""
        parts = [slice_snapshot(self._local, rngs)]
        parts += [self._reports[w]["snapshot"] for w in self._remote]
        rng_states: list = [None] * self.cfg.v
        for part in parts:
            for pid, state in part["rng"].items():
                rng_states[pid] = state
        backend = ParEMEngine.merge_backends([part["backend"] for part in parts])
        return {"backend": backend, "rng_states": rng_states}

    def _restore_state(self, snap: dict[str, Any], rngs: list) -> None:
        """Scatter a merged snapshot back over slice 0 and the worker
        fleet, which runs on from the round after it."""
        backend, states = snap["backend"], snap["rng_states"]
        next_round = None if snap["finished"] else snap["round"] + 1
        for w in self._remote:
            part = ParEMEngine.split_backend(backend, w)
            local_rng = {pid: states[pid] for pid in self._pids[w]}
            self._fleet.send(w, ("restore", part, local_rng, next_round))
        self._local._restore_backend(ParEMEngine.split_backend(backend, 0))
        for pid in self._pids[0]:
            rngs[pid].bit_generator.state = states[pid]
        self._gather("restore")

    # ------------------------------------------------------------- wrap-up

    def _collect_outputs(self, program: CGMProgram) -> list[Any]:
        self._fleet.broadcast(("finish",))
        mine = self._on_slice0("final", final_report, self._local, program, self._bus)
        finals = {0: mine, **self._gather("final")}
        outputs: dict[int, Any] = {}
        self._finals = [finals[w] for w in sorted(finals)]
        for w in sorted(finals):
            outputs.update(finals[w]["outputs"])
            replay_events(
                self.tracer, finals[w]["events"], worker=w,
                **self._fleet.event_tags(w),
            )
        return [outputs[pid] for pid in range(self.cfg.v)]

    def _finalize(self, report: CostReport) -> None:
        fold_final_stats(report, self._finals)
