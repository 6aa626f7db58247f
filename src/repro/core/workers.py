"""Multi-core execution of Algorithm 3: one OS process per real-processor
group.

:class:`ProcessParEngine` is the opt-in (``cfg.workers > 1``) backend that
finally runs the p real processors of ParCompoundSuperstep concurrently:
the coordinator partitions the reals contiguously over ``min(workers, p)``
worker processes, and each worker builds one
:class:`~repro.core.par_engine.ParEMEngine` *slice* of the machine — the
same engine the in-process run uses, constructed with the coordinator's
``plan``, its ``worker_id`` and a transport, so it instantiates only its
share of the disks, memories, message matrices and allocators.

Round protocol (one iteration of the driver loop):

1. the coordinator broadcasts ``("round", r)`` to every worker;
2. each worker runs :meth:`Engine._execute_round` over its slice — the one
   round loop; its ``_exchange`` hook
   (:meth:`ParEMEngine._exchange <repro.core.par_engine.ParEMEngine._exchange>`)
   is where step (d) traffic for another worker's reals leaves the
   process, once before each ``_flip()``;
3. each worker ships its :class:`RoundStep` (I/O counters, h-relation
   sizes, wall times) and its drained trace events to the coordinator,
   which folds the steps with :meth:`RoundStep.merge` in ascending
   worker order into one per-round record.

The coordinator is a different *role*, not a different machine: fan-out,
reply gathering, crash recovery and snapshot scatter/gather live here;
everything that simulates lives in the slice.

Determinism: every ``CostReport`` counter the coordinator reports is
bit-identical to the single-process simulation.  The staggered-slot
geometry is pure arithmetic in (src, dest, nblocks, parity); overflow runs
use consecutive format anchored on disk 0, so DiskWrite/DiskRead batching
— and hence ``parallel_ios`` — depends only on block *counts*, never on
which track the allocator handed out; inbox delivery is sorted by source
pid; and all remaining counters are order-independent sums or per-real
maxima.  The different allocator interleaving across processes can move
regions to different tracks, but no counter observes track numbers.
Workers are forked (``fork`` is required: a platform without it gets a
one-line :class:`~repro.util.validation.ConfigurationError`), so a
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
the local fleet, ``tcp`` the remote.  There is one local carrier: every
packet, bulk payloads included, rides its frame through the relay.
"""

from __future__ import annotations

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
    Transport,
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


def partition_reals(p: int, n_workers: int) -> list[list[int]]:
    """Contiguous split of real processors 0..p-1 over the workers."""
    base, extra = divmod(p, n_workers)
    plan, nxt = [], 0
    for w in range(n_workers):
        k = base + (1 if w < extra else 0)
        plan.append(list(range(nxt, nxt + k)))
        nxt += k
    return plan


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


def run_worker_session(
    worker_id: int,
    session: dict[str, Any],
    cmd_get,
    reply,
    net: Transport,
) -> None:
    """One worker's command loop (called by :func:`serve_session` only).

    Commands: ``("setup", {pid: input})``, ``("round", r)``, ``("finish",)``,
    ``("snapshot",)``, ``("restore", backend, rng_states)``, ``("stop",)``.
    *cmd_get* blocks for the next coordinator command, *reply(kind,
    payload)* ships a result back, and *net* is this worker's
    :class:`~repro.core.transport.base.Transport`.

    ``session["runtime"]`` is the coordinator's per-run
    :class:`~repro.tune.runtime.RuntimeConfig` snapshot — workers never
    consult their own environment, so every process of one run agrees on
    the knob values even if environments differ across machines.

    Exceptions propagate to the caller, which owns error reporting.
    """
    cfg: MachineConfig = session["cfg"]
    program: CGMProgram = session["program"]
    runtime = session["runtime"]
    # no opener event is emitted here, so the bus ships the same flat
    # dicts the coordinator threads into its own spans
    tracer = EventBus(monitor=False) if session["trace_enabled"] else None
    eng = ParEMEngine(
        cfg,
        session["balanced"],
        validate=False,
        tracer=tracer,
        plan=session["plan"],
        worker_id=worker_id,
        net=net,
    )
    eng._max_message_items = session["max_message_items"]
    eng.faults = session["faults"]
    eng.runtime = runtime
    eng._rt = runtime
    eng._start(program)
    rngs = spawn_rngs(cfg.seed, cfg.v)
    try:
        while True:
            cmd = cmd_get()
            op = cmd[0]
            if op == "setup":
                eng._setup_contexts(program, cmd[1])
                reply("setup", None)
            elif op == "round":
                # the one round loop, over this slice; its _exchange hook
                # is where the slice meets its peers
                payload = {
                    "step": eng._execute_round(program, cmd[1], rngs),
                    "pending": eng._pending_messages(),
                    "events": tracer.drain() if tracer else [],
                }
                reply("round", payload)
            elif op == "finish":
                outputs = {
                    pid: program.finish(eng._load_context(pid))
                    for pid in eng._local_pids()
                }
                payload = {
                    "outputs": outputs,
                    **eng._final_stats(),
                    "transport": {
                        "sent": net.packets_sent,
                        "recv": net.packets_received,
                    },
                    "events": tracer.drain() if tracer else [],
                }
                reply("final", payload)
            elif op == "snapshot":
                payload = {
                    "backend": eng._snapshot_backend(),
                    "rng": {
                        pid: rngs[pid].bit_generator.state
                        for pid in eng._local_pids()
                    },
                }
                reply("snapshot", payload)
            elif op == "restore":
                eng._restore_backend(cmd[1])
                for pid, state in cmd[2].items():
                    rngs[pid].bit_generator.state = state
                reply("restore", None)
            elif op == "stop":
                return
            else:  # pragma: no cover - protocol bug
                raise SimulationError(f"unknown worker command {op!r}")
    finally:
        # nobody else will: a forked child leaves through os._exit and a
        # node daemon lives on, so an mmap arena's spill dir would outlast
        # the session (the tracer's on_grow hook makes an array<->arena
        # cycle that refcounting alone never frees)
        for array in eng.arrays.values():
            array.close()


def serve_session(
    sock: socket.socket, worker_id: int, session: dict[str, Any]
) -> None:
    """Be worker *worker_id* of *session* on *sock* until told to stop.

    A reader thread splits the coordinator's frames into commands and
    peer packets; the command loop answers with ``("result", ...)``
    frames and exchanges through the one
    :class:`~repro.core.transport.session.SessionTransport`.  EOF on the
    socket — the coordinator (or the hosting daemon) hanging up — ends
    the session wherever it waits; any other failure is reported as an
    ``("error", traceback)`` result.  The socket is closed on every path.
    """
    wlock = threading.Lock()
    cmd_q: queue.Queue = queue.Queue()
    inbox: queue.Queue = queue.Queue()

    def read_loop() -> None:
        try:
            while True:
                frame = recv_frame(sock)
                if frame[0] == "cmd":
                    cmd_q.put(frame[1])
                elif frame[0] == "pkt":
                    inbox.put(frame[1:])
        except (TransportError, OSError):
            pass
        finally:
            cmd_q.put(None)
            inbox.put(None)

    def next_command() -> tuple:
        cmd = cmd_q.get()
        if cmd is None:
            raise TransportAbort("coordinator hung up")
        return cmd

    reader = threading.Thread(
        target=read_loop, daemon=True, name=f"repro-session-reader-{worker_id}"
    )
    reader.start()
    try:
        run_worker_session(
            worker_id,
            session,
            cmd_get=next_command,
            reply=lambda kind, payload: send_frame(
                sock, ("result", worker_id, kind, payload), wlock
            ),
            net=SessionTransport(worker_id, sock, wlock, inbox),
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
        hang_up(sock)
        reader.join(timeout=2.0)


#: held while a fleet creates its sockets and forks, so that no other
#: fleet of this process (the service pool runs jobs on threads) forks in
#: between and hands *its* children a copy of a worker-side socket end
_FORK_LOCK = threading.Lock()


def _forked_worker(worker_id: int, session: dict[str, Any], pairs: list) -> None:
    """Child entry point: keep only this worker's end of its own pair."""
    for w, (ours, theirs) in enumerate(pairs):
        ours.close()
        if w != worker_id:
            theirs.close()
    serve_session(pairs[worker_id][1], worker_id, session)


class LocalFleet(Fleet):
    """Sessions in forked children of this process, one per worker, each
    on one end of a ``socket.socketpair()``.  This is the one local
    carrier: bulk payloads ride their packet frames like everything else.

    Under the mmap arena the fleet owns one spill base per start, and the
    children's spill dirs go under it: a child killed hard never removes
    its own, so :meth:`_reap` removes the base once they are joined."""

    kind = "memory"

    def __init__(self, n_workers: int) -> None:
        super().__init__([f"local/{w}" for w in range(n_workers)])
        self._procs: list = []
        self._spill_base: "str | None" = None

    def _open(self, session: dict[str, Any]) -> None:
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
        with _FORK_LOCK:
            pairs = [socket.socketpair() for _ in self._conns]
            for conn, (ours, _theirs) in zip(self._conns, pairs):
                conn.sock = ours
            try:
                for conn in self._conns:
                    proc = ctx.Process(
                        target=_forked_worker,
                        args=(conn.worker_id, session, pairs),
                        daemon=True,
                    )
                    proc.start()
                    self._procs.append(proc)
            finally:
                for _ours, theirs in pairs:
                    theirs.close()

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
        return super().alive(w) and bool(self._procs) and self._procs[w].is_alive()


def make_fleet(runtime, n_workers: int) -> Fleet:
    """Fleet for the run's ``REPRO_TRANSPORT``: forked local sessions, or
    sessions on the ``REPRO_NODES`` daemons."""
    if getattr(runtime, "transport", None) == "tcp":
        return TcpFleet(require_nodes(runtime.nodes), n_workers)
    return LocalFleet(n_workers)


class ProcessParEngine(Engine):
    """Coordinator of the multi-core Algorithm 3 backend.

    Drives the shared :meth:`Engine.run` loop but delegates every round to
    the worker processes and merges their per-round accounting; the
    resulting :class:`CostReport` is bit-identical to
    :class:`ParEMEngine`'s while wall-clock scales with the core count.
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
        balanced: bool = False,
        validate: bool = True,
        tracer=None,
        metrics=None,
    ) -> None:
        super().__init__(
            cfg, balanced=balanced, validate=validate, tracer=tracer, metrics=metrics
        )
        self.n_workers = max(1, min(cfg.workers or cfg.p, cfg.p))
        self._fleet = None
        self._pending = False
        self._restarts = 0

    # ------------------------------------------------------------ lifecycle

    def _start(self, program: CGMProgram) -> None:
        cfg = self.cfg
        self._plan = partition_reals(cfg.p, self.n_workers)
        session = {
            "cfg": cfg,
            "balanced": self.balanced,
            "trace_enabled": self.tracer.enabled,
            "plan": self._plan,
            "program": program,
            "max_message_items": self._max_message_items,
            "faults": self.faults,
            "runtime": self._rt,
        }
        if self._fleet is None:
            # one fleet per run: crash recovery stops and starts it again
            self._fleet = make_fleet(self._rt, self.n_workers)
        self._fleet.start(session)
        if self.tracer.enabled and self._fleet.kind == "tcp":
            self.tracer.emit(
                "transport_connect",
                transport=self._fleet.kind,
                nodes=[self._fleet.node_label(w) for w in range(self.n_workers)],
            )

    def run(self, program: CGMProgram, inputs: list[Any]):
        try:
            return super().run(program, inputs)
        finally:
            self._shutdown()

    def _shutdown(self, force: bool = False) -> None:
        if self._fleet is not None:
            self._fleet.stop(force)

    # ---------------------------------------------------------- round hooks

    def _gather(self, kind: str) -> dict[int, Any]:
        """One reply of *kind* from every worker, keyed by worker id."""
        got: dict[int, Any] = {}
        dead_cycles = 0
        while len(got) < self.n_workers:
            try:
                w, k, payload = self._fleet.result(timeout=POLL_S)
            except queue.Empty:
                awaited_dead = [
                    w
                    for w in range(self.n_workers)
                    if w not in got and not self._fleet.alive(w)
                ]
                if awaited_dead:
                    dead_cycles += 1
                    if dead_cycles >= _DEAD_GRACE:
                        self._fleet.request_abort()
                        raise WorkerCrashed(awaited_dead, kind)
                continue
            if k == "error":
                self._fleet.request_abort()
                raise SimulationError(f"worker {w} failed:\n{payload}")
            if k != kind:  # pragma: no cover - protocol bug
                raise SimulationError(f"worker {w} sent {k!r}, expected {kind!r}")
            got[w] = payload
        return got

    def _setup_contexts(self, program: CGMProgram, inputs: list[Any]) -> None:
        vpr = self.cfg.vprocs_per_real
        for w in range(self.n_workers):
            local = {
                pid: inputs[pid]
                for real in self._plan[w]
                for pid in range(real * vpr, (real + 1) * vpr)
            }
            self._fleet.send(w, ("setup", local))
        self._gather("setup")

    def _execute_round(self, program: CGMProgram, r: int, rngs: list) -> RoundStep:
        while True:
            try:
                return self._dispatch_round(r)
            except WorkerCrashed as exc:
                self._recover(program, r, exc)

    def _recover(self, program: CGMProgram, r: int, exc: WorkerCrashed) -> None:
        """Respawn the worker fleet and rewind it to the last checkpoint,
        so the crashed round can be re-dispatched."""
        cm = self.checkpoint
        snap = self._last_ckpt
        if cm is None or snap is None:
            raise exc
        if self._restarts >= cm.max_restarts:
            raise SimulationError(
                f"giving up after {self._restarts} worker restarts: {exc}"
            ) from exc
        if snap["round"] != r - 1:
            raise SimulationError(
                f"cannot re-dispatch round {r}: last checkpoint is for "
                f"round {snap['round']}"
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
        self._restore_state(snap, rngs=[])

    def _dispatch_round(self, r: int) -> RoundStep:
        cfg = self.cfg
        self._fleet.broadcast(("round", r))
        results = self._gather("round")
        step = RoundStep.empty(cfg.v, cfg.p)
        step.io = IOStats(D=cfg.D)
        self._pending = False
        for w in sorted(results):
            payload = results[w]
            step.merge(payload["step"])
            self._pending |= payload["pending"]
            replay_events(
                self.tracer, payload["events"], worker=w,
                **self._fleet.event_tags(w),
            )
        return step

    def _pending_messages(self) -> bool:
        return self._pending

    def _supersteps_per_round(self) -> int:
        # Lemma 4, same as ParEMEngine: v/p real supersteps per CGM round.
        return self.cfg.vprocs_per_real

    # ---------------------------------------------------------- checkpointing

    def _snapshot_state(self, rngs: list) -> dict[str, Any]:
        """Gather each worker's backend slice and RNG states and merge
        them into the same canonical shape :class:`ParEMEngine` produces."""
        self._fleet.broadcast(("snapshot",))
        results = [reply for _w, reply in sorted(self._gather("snapshot").items())]
        rng_states: list = [None] * self.cfg.v
        for reply in results:
            for pid, state in reply["rng"].items():
                rng_states[pid] = state
        backend = ParEMEngine.merge_backends([reply["backend"] for reply in results])
        return {"backend": backend, "rng_states": rng_states}

    def _restore_state(self, snap: dict[str, Any], rngs: list) -> None:
        """Scatter a merged snapshot back over the worker fleet."""
        backend = snap["backend"]
        vpr = self.cfg.vprocs_per_real
        for w in range(self.n_workers):
            part = ParEMEngine.split_backend(backend, w)
            local_rng = {
                pid: snap["rng_states"][pid]
                for real in self._plan[w]
                for pid in range(real * vpr, (real + 1) * vpr)
            }
            self._fleet.send(w, ("restore", part, local_rng))
        self._gather("restore")
        self._pending = any(bool(v) for v in backend["ready_meta"].values())

    # ------------------------------------------------------------- wrap-up

    def _collect_outputs(self, program: CGMProgram) -> list[Any]:
        self._fleet.broadcast(("finish",))
        finals = self._gather("final")
        outputs: dict[int, Any] = {}
        self._finals = finals
        for w in sorted(finals):
            outputs.update(finals[w]["outputs"])
            replay_events(
                self.tracer, finals[w]["events"], worker=w,
                **self._fleet.event_tags(w),
            )
        return [outputs[pid] for pid in range(self.cfg.v)]

    def _finalize(self, report: CostReport) -> None:
        fold_final_stats(
            self, report, [self._finals[w] for w in sorted(self._finals)]
        )
        self._emit_transport_metrics()

    def _emit_transport_metrics(self) -> None:
        """``repro_transport_*``: per-worker packet counts and relayed
        bytes (the fleet's relay counters), labelled by node."""
        mx = self.metrics
        if not mx.enabled or self._fleet is None:
            return
        kind = self._fleet.kind
        packets = mx.counter(
            "repro_transport_packets_total", "worker-exchange packets by node"
        )
        for w in sorted(self._finals):
            tp = self._finals[w].get("transport")
            if not tp:
                continue
            node = self._fleet.node_label(w)
            packets.labels(transport=kind, node=node, direction="sent").inc(
                tp["sent"]
            )
            packets.labels(transport=kind, node=node, direction="recv").inc(
                tp["recv"]
            )
        bytes_total = mx.counter(
            "repro_transport_bytes_total",
            "bytes of relayed exchange frames by destination node "
            "(host:port, or local/<w> for a forked worker)",
        )
        for node, s in self._fleet.stats().items():
            bytes_total.labels(transport=kind, node=node).inc(s["bytes"])
