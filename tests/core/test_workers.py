"""The multi-core worker backend (repro.core.workers): partitioning,
counter bit-identity vs. the single-process simulation, trace merging,
output correctness, failure propagation, spill-dir and shared-memory
cleanup, what fork + sockets can get wrong — and the machine *slices*
themselves, driven in threads without any process."""

from __future__ import annotations

import os
import queue
import signal
import socket
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.cgm.metrics import CostReport
from repro.cgm.program import CGMProgram
from repro.core.par_engine import ParEMEngine, fold_final_stats
from repro.core.transport import Transport, TransportAbort
from repro.core import workers
from repro.core.transport.base import POLL_S
from repro.core.workers import ProcessParEngine, partition_reals
from repro.em.runner import em_run, em_sort, make_engine
from repro.obs.bus import EventBus
from repro.pdm.io_stats import IOStats
from repro.tune.runtime import RuntimeConfig, current
from repro.util.rng import make_rng, spawn_rngs
from repro.util.validation import SimulationError

pytestmark = pytest.mark.usefixtures("worker_leak_guard")

V, D, B = 8, 2, 64
N = 1 << 14


def _counters(report) -> dict:
    return {
        "parallel_ios": report.io.parallel_ios,
        "blocks_total": report.io.blocks_total,
        "io_dict": report.io.as_dict(),
        "io_max": report.io_max.parallel_ios,
        "context_blocks_io": report.context_blocks_io,
        "message_blocks_io": report.message_blocks_io,
        "overflow_blocks": report.overflow_blocks,
        "peak_memory": report.peak_memory_items,
        "comm_items": report.comm_items,
        "cross_items": report.cross_items,
        "rounds": report.rounds,
        "supersteps": report.supersteps,
        "h_history": report.h_history,
    }


class TestPartition:
    def test_even_split(self):
        assert partition_reals(4, 2) == [[0, 1], [2, 3]]

    def test_uneven_split_front_loads(self):
        assert partition_reals(5, 2) == [[0, 1, 2], [3, 4]]

    def test_one_worker(self):
        assert partition_reals(3, 1) == [[0, 1, 2]]

    def test_worker_per_real(self):
        assert partition_reals(3, 3) == [[0], [1], [2]]


class TestDispatch:
    def test_runner_selects_process_backend(self):
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        eng = make_engine(cfg, "par", overrides={"workers": 2})
        assert isinstance(eng, ProcessParEngine)

    def test_default_stays_in_process(self, monkeypatch):
        from repro.core.par_engine import ParEMEngine

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        # the tcp transport implies the worker coordinator, so the ambient
        # distributed-lane environment must not leak into this default
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        monkeypatch.delenv("REPRO_NODES", raising=False)
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        eng = make_engine(cfg, "par")
        assert type(eng) is ParEMEngine

    def test_env_var_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        assert isinstance(make_engine(cfg, "par"), ProcessParEngine)

    def test_p1_never_multiprocess(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        cfg = MachineConfig(N=N, v=V, p=1, D=D, B=B)
        assert not isinstance(make_engine(cfg, "seq"), ProcessParEngine)

    def test_workers_capped_at_p(self):
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        eng = make_engine(cfg, "par", overrides={"workers": 16})
        assert eng.n_workers == 2


class TestBitIdentity:
    @pytest.mark.parametrize("p", [2, 4])
    def test_sort_counters_match_sequential(self, p):
        data = make_rng(0).integers(0, 2**50, N)
        cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)
        seq = em_sort(data, cfg, engine="par")
        par = em_sort(data, cfg, engine="par", overrides={"workers": p})
        assert np.array_equal(par.values, np.sort(data))
        assert _counters(seq.report) == _counters(par.report)

    def test_fewer_workers_than_reals(self):
        """workers=2 over p=4: each worker simulates two real processors."""
        data = make_rng(1).integers(0, 2**50, N)
        cfg = MachineConfig(N=N, v=V, p=4, D=D, B=B)
        seq = em_sort(data, cfg, engine="par")
        par = em_sort(data, cfg, engine="par", overrides={"workers": 2})
        assert np.array_equal(par.values, np.sort(data))
        assert _counters(seq.report) == _counters(par.report)

    def test_balanced_mode_matches(self):
        data = make_rng(2).integers(0, 2**50, N)
        cfg = MachineConfig(N=N, v=V, p=4, D=D, B=B)
        seq = em_sort(data, cfg, engine="par", balanced=True)
        par = em_sort(
            data, cfg, engine="par", balanced=True, overrides={"workers": 4}
        )
        assert np.array_equal(par.values, np.sort(data))
        assert _counters(seq.report) == _counters(par.report)

    def test_per_round_io_deltas_match(self):
        data = make_rng(3).integers(0, 2**50, N)
        cfg = MachineConfig(N=N, v=V, p=4, D=D, B=B)
        seq = em_sort(data, cfg, engine="par")
        par = em_sort(data, cfg, engine="par", overrides={"workers": 4})
        for a, b in zip(seq.report.per_round, par.report.per_round):
            assert a.io.as_dict() == b.io.as_dict()
            assert (a.h_in, a.h_out, a.messages, a.comm_items) == (
                b.h_in,
                b.h_out,
                b.messages,
                b.comm_items,
            )


class TestTraces:
    def test_event_counts_match_and_workers_are_tagged(self):
        data = make_rng(4).integers(0, 2**50, N)
        cfg = MachineConfig(N=N, v=V, p=4, D=D, B=B)
        t_seq, t_par = EventBus(monitor=False), EventBus(monitor=False)
        em_sort(data, cfg, engine="par", tracer=t_seq)
        em_sort(data, cfg, engine="par", tracer=t_par, overrides={"workers": 4})
        a, b = t_seq.counts(), t_par.counts()
        # physical fault events (the --fault-plan injection lane) are not
        # part of the logical schedule: allocation order inside a shared
        # message region differs across backends, so the per-attempt fault
        # draws — unlike every logical counter — may diverge slightly.
        # arena_grow is likewise physical: the in-process engine grows D*p
        # arenas in one interpreter while each worker process grows its
        # own, so the event counts differ by construction
        for c in (a, b):
            for kind in ("io_fault", "arena_grow"):
                c.pop(kind, None)
        assert a == b
        worker_side = {"compute_round", "context_read", "context_write",
                       "message_read", "message_write", "network_transfer",
                       "io_fault", "disk_dead", "arena_grow"}
        for ev in t_par.events:
            assert ("worker" in ev) == (ev["kind"] in worker_side), ev
        workers_seen = {ev["worker"] for ev in t_par.events if "worker" in ev}
        assert workers_seen == {0, 1, 2, 3}

    def test_run_begin_records_workers(self):
        tr = EventBus(monitor=False)
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        em_sort(make_rng(5).integers(0, 2**40, N), cfg, engine="par", tracer=tr,
                overrides={"workers": 2})
        begin = [ev for ev in tr.events if ev["kind"] == "run_begin"]
        assert begin and begin[0]["workers"] == 2


class _Boom(CGMProgram):
    name = "boom"
    kappa = 1.0

    def max_message_items(self, cfg):
        return 8

    def setup(self, ctx, pid, cfg, local_input):
        ctx["pid"] = pid

    def round(self, r, ctx, env):
        if ctx["pid"] == env.v - 1:
            raise RuntimeError("deliberate failure in the last vproc")
        return True

    def finish(self, ctx):
        return None


def assert_workers_reaped(eng) -> None:
    """Whatever the transport, no worker is left running after a run."""
    fleet = eng._fleet
    if hasattr(fleet, "_procs"):  # local backends hold the process list
        assert fleet._procs == []
    assert not any(fleet.alive(w) for w in range(fleet.n_workers))


class TestFailureHandling:
    def test_worker_exception_propagates_and_cleans_up(self):
        cfg = MachineConfig(N=1 << 12, v=4, p=4, D=D, B=32)
        eng = make_engine(cfg, "par", overrides={"workers": 4})
        with pytest.raises(SimulationError, match="deliberate failure"):
            eng.run(_Boom(), [None] * 4)
        assert_workers_reaped(eng)

    def test_processes_reaped_after_success(self):
        cfg = MachineConfig(N=1 << 12, v=4, p=2, D=D, B=32)
        eng = make_engine(cfg, "par", overrides={"workers": 2})
        data = make_rng(6).integers(0, 2**40, 1 << 12)
        eng.run(SampleSort(), partition_array(data, 4))
        assert_workers_reaped(eng)


class _InboxRecorder(CGMProgram):
    """Round 0 sends a fixed tricky outbox; round 1 records the inbox."""

    name = "inbox-recorder"
    kappa = 1.0

    def max_message_items(self, cfg):
        return 16

    def setup(self, ctx, pid, cfg, local_input):
        ctx["pid"] = pid

    def round(self, r, ctx, env):
        pid = ctx["pid"]
        if r == 0:
            env.send((pid + 1) % env.v, np.array([], dtype=np.int64), tag="empty")
            env.send((pid + 1) % env.v, np.arange(16) + pid, tag="dup")
            env.send((pid + 1) % env.v, np.arange(16) * pid, tag="dup")
            if pid == 0:
                env.send(env.v - 1, np.full(64, 7), tag="big")
            return False
        ctx["inbox"] = sorted(
            (m.src, m.tag, m.size_items, m.payload.tobytes())
            for m in env.messages()
        )
        return True

    def finish(self, ctx):
        return ctx["inbox"]


class TestDelivery:
    @pytest.mark.parametrize("balanced", [False, True])
    def test_inboxes_identical_to_sequential(self, balanced):
        cfg = MachineConfig(N=1 << 12, v=4, p=4, D=D, B=32)
        ref = em_run(_InboxRecorder(), [None] * 4, cfg, "par", balanced=balanced)
        got = em_run(
            _InboxRecorder(), [None] * 4, cfg, "par",
            balanced=balanced, overrides={"workers": 4},
        )
        assert got.outputs == ref.outputs
        assert got.report.io.as_dict() == ref.report.io.as_dict()


class TestSharedMemoryTransport:
    """``shm`` is kept as a spelling of the one local carrier, ``memory``:
    forked workers on socketpairs, every packet, bulk payloads included,
    framed through the coordinator's relay.  Asking for ``shm`` must be
    indistinguishable from the in-process run and from ``memory``."""

    @pytest.mark.parametrize(
        "transport", ["shm", "memory"], ids=["forced-shm", "no-shm"]
    )
    def test_transport_choice_is_invisible(self, transport):
        data = make_rng(11).integers(0, 2**40, N)
        cfg = MachineConfig(N=N, v=V, p=4, D=D, B=B)
        ref = em_sort(data, cfg, engine="par")
        got = em_sort(
            data, cfg, engine="par",
            overrides={"workers": 4, "transport": transport},
        )
        assert np.array_equal(got.values, ref.values)
        assert _counters(got.report) == _counters(ref.report)

    def test_forced_shm_matches_forced_queue(self):
        data = make_rng(12).integers(0, 2**40, N)
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        shm = em_sort(
            data, cfg, engine="par", overrides={"workers": 2, "transport": "shm"}
        )
        queued = em_sort(
            data, cfg, engine="par", overrides={"workers": 2, "transport": "memory"}
        )
        assert np.array_equal(shm.values, queued.values)
        assert _counters(shm.report) == _counters(queued.report)


class _BoomInRoundOne(_Boom):
    name = "boom-in-round-one"

    def round(self, r, ctx, env):
        if r == 0:
            return False
        return super().round(r, ctx, env)


class TestSpillDirs:
    """Worker sessions close their arenas on every exit path: a forked
    child leaves through ``os._exit``, so nothing else would delete an
    mmap arena's spill dir, traced or not."""

    def _runtime(self, spill_dir):
        return RuntimeConfig.resolve(
            overrides={"workers": 2, "transport": "shm", "arena": "mmap",
                       "spill_dir": str(spill_dir)},
            environ={},
        )

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_worker_sessions_leave_no_spill_dirs(self, tmp_path, traced):
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        data = make_rng(13).integers(0, 2**40, N)
        res = em_run(
            SampleSort(), partition_array(data, V), cfg, "par",
            runtime=self._runtime(tmp_path),
            tracer=EventBus(monitor=False) if traced else None,
        )
        assert np.array_equal(np.concatenate(res.outputs), np.sort(data))
        assert os.listdir(tmp_path) == []

    def test_failing_program_leaves_no_spill_dirs(self, tmp_path):
        cfg = MachineConfig(N=1 << 12, v=4, p=2, D=D, B=32)
        with pytest.raises(SimulationError, match="deliberate failure"):
            em_run(
                _BoomInRoundOne(), [None] * 4, cfg, "par",
                runtime=self._runtime(tmp_path), tracer=EventBus(monitor=False),
            )
        assert os.listdir(tmp_path) == []

    def test_a_killed_worker_leaves_no_spill_dir(self, tmp_path, monkeypatch):
        """A child that dies hard runs no ``finally`` and only it knew its
        ``mkdtemp`` names: its spill dir lives under the fleet's base,
        which the fleet removes once its children are joined."""
        monkeypatch.setattr(workers, "_DEAD_GRACE", 2)
        spill, flag = tmp_path / "spill", tmp_path / "die"
        flag.write_text("1")
        cfg = MachineConfig(N=N, v=V, p=2, D=D, B=B)
        data = make_rng(13).integers(0, 2**40, N)
        res = em_run(
            _DiesOnce(1, 0, str(flag)), partition_array(data, V), cfg, "par",
            runtime=self._runtime(spill), checkpoint=str(tmp_path / "ck"),
        )
        assert not flag.exists(), "the crash never fired"
        assert np.array_equal(np.concatenate(res.outputs), np.sort(data))
        assert os.listdir(spill) == []


# ---------------------------------------------------------------- slices
#
# A worker is nothing but a ParEMEngine built with a plan, a worker id and
# a transport, so the exchange code is reachable without forking: the
# harness below plays the coordinator for slices living in threads of this
# process, joined by a stand-in transport over plain queue.Queues — no
# process, no socket, only Transport's two primitives.


class QueueTransport(Transport):
    """Peer-to-peer ``queue.Queue`` inboxes shared by the slices' threads;
    a packet is the bare items list, as on a session socket."""

    def __init__(self, worker_id, inboxes, abort):
        super().__init__(worker_id)
        self.inboxes = inboxes
        self.abort = abort

    def send_packet(self, dest, r, phase, wire):
        self.inboxes[dest].put((r, phase, self.worker_id, wire))

    def recv_packet(self, what):
        while not self.abort.is_set():
            try:
                return self.inboxes[self.worker_id].get(timeout=0.05)
            except queue.Empty:
                continue
        raise TransportAbort(f"aborted while waiting for {what}")


def _run_slices(program, inputs, cfg, plan, balanced):
    """Drive one :class:`ParEMEngine` slice per *plan* entry, each round in
    one thread per slice -> (outputs, per-round merged steps, report)."""
    abort = threading.Event()
    inboxes = [queue.Queue() for _ in plan]
    rt = current()
    engines, rngs = [], []
    for w in range(len(plan)):
        eng = ParEMEngine(
            cfg, balanced, plan=plan, worker_id=w,
            net=QueueTransport(w, inboxes, abort),
        )
        eng._max_message_items = program.max_message_items(cfg)
        eng._rt = rt
        eng._start(program)
        eng._setup_contexts(program, inputs)
        engines.append(eng)
        rngs.append(spawn_rngs(cfg.seed, cfg.v))

    def one_round(w, r):
        try:
            return engines[w]._execute_round(program, r, rngs[w])
        except BaseException:
            abort.set()  # wake the peers blocked in their exchange
            raise

    rounds = []
    try:
        with ThreadPoolExecutor(len(plan)) as pool:
            r = 0
            while True:
                futures = [pool.submit(one_round, w, r) for w in range(len(plan))]
                try:
                    excs = [f.exception(timeout=60) for f in futures]
                except TimeoutError:
                    abort.set()  # a stuck exchange: free the pool, then fail
                    raise
                # the root cause, not the TransportAbort it woke the peers with
                for exc in excs:
                    if exc is not None and not isinstance(exc, TransportAbort):
                        raise exc
                steps = [f.result() for f in futures]
                io = IOStats(D=cfg.D)
                for st in steps:
                    io.merge(st.io)
                recv = [sum(col) for col in zip(*(st.recv for st in steps))]
                sent = [sum(col) for col in zip(*(st.sent for st in steps))]
                rounds.append({
                    "io": io.as_dict(),
                    "h_in": max(recv),
                    "h_out": max(sent),
                    "messages": sum(st.messages for st in steps),
                    "comm_items": sum(st.comm_items for st in steps),
                    "cross_items": sum(st.cross_items for st in steps),
                })
                if all(st.all_done for st in steps) and not any(
                    e._pending_messages() for e in engines
                ):
                    break
                r += 1
        outputs = [out for e in engines for out in e._collect_outputs(program)]
        report = CostReport(engine="par-em")
        fold_final_stats(report, [e._final_stats() for e in engines])
    finally:
        for e in engines:
            for array in e.arrays.values():
                array.close()
    packets = [(e.net.packets_sent, e.net.packets_received) for e in engines]
    return outputs, rounds, report, packets


def _reference(program, inputs, cfg, balanced):
    """The one-slice machine under the real driver loop."""
    eng = ParEMEngine(cfg, balanced)
    eng.runtime = current()
    try:
        res = eng.run(program, inputs)
    finally:
        for array in eng.arrays.values():
            array.close()
    rounds = [
        {
            "io": rm.io.as_dict(), "h_in": rm.h_in, "h_out": rm.h_out,
            "messages": rm.messages, "comm_items": rm.comm_items,
            "cross_items": rm.cross_items,
        }
        for rm in res.report.per_round
    ]
    return res.outputs, rounds, res.report


def _final_counters(report) -> dict:
    return {
        "io": report.io.as_dict(),
        "io_max": report.io_max.as_dict(),
        "context_blocks_io": report.context_blocks_io,
        "message_blocks_io": report.message_blocks_io,
        "overflow_blocks": report.overflow_blocks,
        "peak_memory": report.peak_memory_items,
    }


def _same_outputs(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


class _Quiet(CGMProgram):
    """Two rounds, no message ever: every exchange packet is empty."""

    name = "quiet"
    kappa = 1.0

    def max_message_items(self, cfg):
        return 8

    def setup(self, ctx, pid, cfg, local_input):
        ctx["pid"] = pid

    def round(self, r, ctx, env):
        ctx["rounds"] = r + 1
        return r == 1

    def finish(self, ctx):
        return (ctx["pid"], ctx["rounds"])


class _AllToOne(CGMProgram):
    """Everybody sends to virtual processor 0: one slice receives it all."""

    name = "all-to-one"
    kappa = 1.0

    def max_message_items(self, cfg):
        return 32

    def setup(self, ctx, pid, cfg, local_input):
        ctx["pid"] = pid

    def round(self, r, ctx, env):
        if r == 0:
            env.send(0, np.arange(32) + ctx["pid"], tag="to-zero")
            return False
        ctx["inbox"] = sorted(
            (m.src, m.tag, m.payload.tobytes()) for m in env.messages()
        )
        return True

    def finish(self, ctx):
        return ctx["inbox"]


class TestSlicesInThreads:
    """Two slices of a p=2 machine in two threads == the one-slice run."""

    CFG = MachineConfig(N=1 << 12, v=4, p=2, D=D, B=32)
    PLAN = [[0], [1]]

    def _check(self, program, inputs, balanced):
        cfg = self.CFG
        ref_out, ref_rounds, ref_report = _reference(program, inputs, cfg, balanced)
        out, rounds, report, packets = _run_slices(
            program, inputs, cfg, self.PLAN, balanced
        )
        assert _same_outputs(out, ref_out)
        assert rounds == ref_rounds
        assert _final_counters(report) == _final_counters(ref_report)
        # one packet per peer per phase, sent and received, empty or not
        phases = len(rounds) * (2 if balanced else 1)
        assert packets == [(phases, phases)] * len(self.PLAN)
        return out, rounds

    @pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
    def test_sample_sort(self, balanced):
        data = make_rng(21).integers(0, 2**40, self.CFG.N)
        out, _ = self._check(SampleSort(), partition_array(data, 4), balanced)
        assert np.array_equal(np.concatenate(out), np.sort(data))

    @pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
    def test_tricky_outbox(self, balanced):
        self._check(_InboxRecorder(), [None] * 4, balanced)

    @pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
    def test_empty_outboxes(self, balanced):
        out, rounds = self._check(_Quiet(), [None] * 4, balanced)
        assert out == [(pid, 2) for pid in range(4)]
        assert all(rd["messages"] == rd["comm_items"] == 0 for rd in rounds)

    @pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
    def test_all_to_one(self, balanced):
        out, rounds = self._check(_AllToOne(), [None] * 4, balanced)
        assert [src for src, _tag, _raw in out[0]] == [0, 1, 2, 3]
        assert out[1:] == [[], [], []]
        assert rounds[0]["cross_items"] == 2 * 32  # pids 2, 3 live on real 1

    def test_one_slice_plan_never_touches_the_transport(self):
        """The default plan has no peers: nothing is buffered for an
        exchange, and ``net=None`` is never dereferenced."""
        eng = ParEMEngine(self.CFG)
        assert (eng._reals, eng._outgoing, eng.net) == ([0, 1], {}, None)
        assert list(eng._local_pids()) == [0, 1, 2, 3]

    def test_a_failing_slice_aborts_its_peers(self):
        with pytest.raises(RuntimeError, match="deliberate failure"):
            _run_slices(_Boom(), [None] * 4, self.CFG, self.PLAN, False)


# ------------------------------------------------- crashes, forks, sockets


class _DiesOnce(SampleSort):
    """Sample sort whose hosting process dies hard (``os._exit``) when
    virtual processor *pid* enters round *crash_round* — once: the flag
    file is consumed first, so the re-dispatched round runs clean."""

    def __init__(self, crash_round: int, pid: int, flag_path: str) -> None:
        super().__init__()
        self.crash_round = crash_round
        self.pid = pid
        self.flag_path = flag_path

    def round(self, r, ctx, env):
        if r == self.crash_round and env.pid == self.pid:
            if os.path.exists(self.flag_path):
                os.unlink(self.flag_path)
                os._exit(13)
        return super().round(r, ctx, env)


def _local_runtime(**overrides):
    """A two-worker local-fleet runtime, whatever the ambient lane says."""
    return RuntimeConfig.resolve(
        overrides={"workers": 2, "transport": "shm", **overrides}, environ={}
    )


class TestCrashLeavesNoSegments:
    """A worker dies mid-round, after its peer has already shipped it
    packets it will never stage.  Those packets rode their frames, so
    nothing outlives the sockets: ``/dev/shm`` ends as it began, and the
    run heals from its checkpoint."""

    CFG = MachineConfig(N=1 << 12, v=8, p=2, D=D, B=32)
    DATA = make_rng(31).integers(0, 2**40, 1 << 12)

    def run_sort(self, balanced, program=None, **options):
        return em_run(
            program or SampleSort(), partition_array(self.DATA, 8), self.CFG,
            "par", balanced=balanced, runtime=_local_runtime(),
            **options,
        )

    @pytest.fixture(scope="class")
    def clean(self):
        return {b: _counters(self.run_sort(b).report) for b in (False, True)}

    @pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
    @pytest.mark.parametrize("pid", [0, 3, 7])
    @pytest.mark.parametrize("crash_round", [0, 1, 2])
    def test_self_healed_crash(
        self, tmp_path, monkeypatch, clean, crash_round, pid, balanced
    ):
        # the dead process stays dead: two empty polls are proof enough
        monkeypatch.setattr(workers, "_DEAD_GRACE", 2)
        flag = tmp_path / "die"
        flag.write_text("1")
        shm_before = sorted(os.listdir("/dev/shm"))
        tracer = EventBus(monitor=False)
        healed = self.run_sort(
            balanced, _DiesOnce(crash_round, pid, str(flag)),
            checkpoint=str(tmp_path / "ck"), tracer=tracer,
        )
        assert not flag.exists(), "the crash never fired"
        assert tracer.counts().get("worker_redispatch") == 1
        assert np.array_equal(np.concatenate(healed.outputs), np.sort(self.DATA))
        assert _counters(healed.report) == clean[balanced]
        assert sorted(os.listdir("/dev/shm")) == shm_before


class _Rendezvous(SampleSort):
    """Sample sort that touches *mine* in round 0 and, from round 1 on,
    waits (bounded) for *theirs* — two runs held alive side by side."""

    def __init__(self, mine: str, theirs: str, die: bool = False) -> None:
        super().__init__()
        self.mine, self.theirs, self.die = mine, theirs, die

    def round(self, r, ctx, env):
        if r == 0 and env.pid == 0:
            open(self.mine, "w").close()
        if r == 1 and env.pid == 0:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(self.theirs) and time.monotonic() < deadline:
                time.sleep(0.01)
            if self.die:
                os._exit(13)
        return super().round(r, ctx, env)


class TestForkAndSockets:
    CFG = MachineConfig(N=1 << 12, v=4, p=2, D=D, B=32)
    DATA = make_rng(32).integers(0, 2**40, 1 << 12)

    def run_sort(self, program=None, **options):
        return em_run(
            program or SampleSort(), partition_array(self.DATA, 4), self.CFG,
            "par", runtime=_local_runtime(), **options,
        )

    def test_every_fork_precedes_every_thread(self, tmp_path, monkeypatch):
        """Children are forked before any reader thread starts, and the
        readers are joined before crash recovery forks again: no fork
        ever happens in a multi-threaded coordinator."""
        monkeypatch.setattr(workers, "_DEAD_GRACE", 2)
        baseline = set(threading.enumerate())
        extra_at_fork = []
        real_fork = os.fork

        def spy():
            extra_at_fork.append(set(threading.enumerate()) - baseline)
            return real_fork()

        monkeypatch.setattr(os, "fork", spy)
        flag = tmp_path / "die"
        flag.write_text("1")
        with warnings.catch_warnings(record=True) as caught:
            # recorded, not -W error: CPython clears the exception an
            # error filter makes of this warning (the fork already happened)
            warnings.simplefilter("always")
            healed = self.run_sort(
                _DiesOnce(1, 0, str(flag)), checkpoint=str(tmp_path / "ck")
            )
        assert np.array_equal(np.concatenate(healed.outputs), np.sort(self.DATA))
        assert len(extra_at_fork) == 4  # two workers, forked twice
        assert extra_at_fork == [set()] * 4
        assert not [w for w in caught if "fork" in str(w.message)]

    def test_alive_asks_the_process(self, monkeypatch):
        """EOF cannot be trusted while some other process holds a copy of
        a worker's socket end (a child forked by another fleet at the wrong
        moment would): the crash is still seen, through the process."""
        held = []
        real_socketpair = socket.socketpair

        def spy():
            ours, theirs = real_socketpair()
            held.append(theirs.dup())
            return ours, theirs

        monkeypatch.setattr(socket, "socketpair", spy)
        eng = make_engine(self.CFG, "par", runtime=_local_runtime())
        eng._max_message_items = SampleSort().max_message_items(self.CFG)
        eng._rt = eng.runtime
        try:
            eng._start(SampleSort())
            fleet = eng._fleet
            victim = fleet._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            assert [fleet.alive(w) for w in range(2)] == [False, True]
            started = time.monotonic()
            with pytest.raises(workers.WorkerCrashed):
                eng._gather("setup")
            assert time.monotonic() - started < (workers._DEAD_GRACE + 4) * POLL_S
        finally:
            eng._shutdown(force=True)
            for sock in held:
                sock.close()
        assert_workers_reaped(eng)

    def test_two_fleets_alive_in_one_process(self, tmp_path):
        """The service pool's shape: two ``workers=2`` runs on two threads.
        B's children are forked while A's sessions are open, so they hold
        copies of A's coordinator-side sockets; when a worker of A dies, A
        must still see it, and A's hang-up must still reach the surviving
        peer (``shutdown``, not just ``close``) — while B, untouched,
        finishes bit-identical."""
        a_up, b_up, a_done = (str(tmp_path / n) for n in ("a_up", "b_up", "a_done"))
        reference = self.run_sort()
        results = {}

        def run_a():
            try:
                self.run_sort(_Rendezvous(a_up, b_up, die=True))
            except SimulationError as exc:
                results["a"] = exc
            results["a_finished"] = time.time()
            open(a_done, "w").close()

        def run_b():
            deadline = time.monotonic() + 30.0
            while not os.path.exists(a_up) and time.monotonic() < deadline:
                time.sleep(0.01)
            results["b"] = self.run_sort(_Rendezvous(b_up, a_done))

        threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        assert not any(t.is_alive() for t in threads)
        assert isinstance(results["a"], workers.WorkerCrashed)
        # A died once B was up: from then, _DEAD_GRACE polls to the verdict
        # and no 5 s join timeout on a peer that never saw the hang-up
        assert results["a_finished"] - os.path.getmtime(b_up) < (
            (workers._DEAD_GRACE + 4) * POLL_S + 2.0
        )
        b = results["b"]
        assert _same_outputs(b.outputs, reference.outputs)
        assert _counters(b.report) == _counters(reference.report)
