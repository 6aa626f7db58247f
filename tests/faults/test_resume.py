"""Checkpoint/resume end-to-end: a killed run resumes bit-identically on
both the in-process and the multi-process backends, workers are respawned
after crashes, and mismatched resumes are refused."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.em.runner import em_run
from repro.faults.checkpoint import CheckpointError, CheckpointManager
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.obs.bus import EventBus
from repro.util.validation import ConfigurationError, SimulationError

pytestmark = pytest.mark.usefixtures("worker_leak_guard")

V, D, B = 8, 2, 64
N = 1 << 13
KILL_ROUND = 2

CI_PLAN = str(
    Path(__file__).resolve().parents[2] / "benchmarks" / "fault_plans" / "ci_transient.json"
)


def make_data() -> np.ndarray:
    return np.random.default_rng(5).integers(0, 1 << 30, N, dtype=np.int64)


#: the worker classes' runs: two worker processes, or none, whatever
#: REPRO_WORKERS says
W2 = {"workers": 2}
IN_PROCESS = {"workers": 0}


def run_sort(cfg, program=None, **kw):
    return em_run(
        program or SampleSort(), partition_array(make_data(), cfg.v), cfg, "par", **kw
    )


def counters(report) -> dict:
    return {
        "io": report.io.as_dict(),
        "io_max": report.io_max.as_dict(),
        "rounds": report.rounds,
        "supersteps": report.supersteps,
        "comm": report.comm_items,
        "cross": report.cross_items,
        "ctx_io": report.context_blocks_io,
        "msg_io": report.message_blocks_io,
        "ovf": report.overflow_blocks,
        "peak": report.peak_memory_items,
    }


def stripped(events, kinds=("superstep_end", "run_end")) -> list[dict]:
    # seq/ts/wall_s/span are physical (timing or bus bookkeeping); the
    # logical payload must be bit-identical across kill/resume
    return [
        {k: v for k, v in ev.items() if k not in ("seq", "ts", "wall_s", "span", "parent")}
        for ev in events
        if ev["kind"] in kinds
    ]


class KillableSort(SampleSort):
    """Sample sort that crashes once at a given round.

    The crash is *external* (a raised exception consuming a one-shot flag
    file), not a scheduled fault: a fatal fault in the plan would replay
    deterministically on resume, which is exactly what must not happen
    when testing recovery from a kill.
    """

    def __init__(self, kill_round: int, flag_path: str) -> None:
        super().__init__()
        self.kill_round = kill_round
        self.flag_path = flag_path

    def round(self, r, ctx, env):
        if r == self.kill_round and os.path.exists(self.flag_path):
            os.unlink(self.flag_path)
            raise KeyboardInterrupt("simulated kill")
        return super().round(r, ctx, env)


class CrashySort(SampleSort):
    """Sample sort whose hosting process dies hard at a given round, as
    long as the countdown file is positive (then it runs clean)."""

    def __init__(self, crash_round: int, counter_path: str) -> None:
        super().__init__()
        self.crash_round = crash_round
        self.counter_path = counter_path

    def round(self, r, ctx, env):
        # the last pid only, so exactly one worker process dies per
        # dispatch of the round (slice 0 runs in the coordinator)
        if r == self.crash_round and env.pid == env.v - 1:
            with open(self.counter_path) as fh:
                n = int(fh.read())
            if n > 0:
                with open(self.counter_path, "w") as fh:
                    fh.write(str(n - 1))
                os._exit(13)
        return super().round(r, ctx, env)


class SpillProbeSort(SampleSort):
    """Sample sort that records, mid-run, the spill files under a base
    directory (written to *out_path* so worker processes can report)."""

    def __init__(self, spill_base: str, out_path: str) -> None:
        super().__init__()
        self.spill_base = spill_base
        self.out_path = out_path

    def round(self, r, ctx, env):
        if r == 1 and env.pid == 0:
            found = sorted(
                f"{os.path.basename(root)}/{name}:{os.path.getsize(os.path.join(root, name))}"
                for root, _dirs, names in os.walk(self.spill_base)
                for name in names
            )
            with open(self.out_path, "w") as fh:
                fh.write("\n".join(found))
        return super().round(r, ctx, env)


def kill_and_resume(cfg, tmp_path, **kw):
    """Kill a checkpointed run at KILL_ROUND, then resume it to completion."""
    ck = str(tmp_path / "ck")
    flag = str(tmp_path / "kill.flag")
    open(flag, "w").write("1")
    with pytest.raises((KeyboardInterrupt, SimulationError)):
        run_sort(
            cfg, program=KillableSort(KILL_ROUND, flag), checkpoint=ck, **kw
        )
    assert not os.path.exists(flag), "the kill never fired"
    tracer = EventBus(monitor=False)
    res = run_sort(cfg, checkpoint=ck, resume=True, tracer=tracer, **kw)
    return res, tracer


class TestResumeInProcess:
    CFG = MachineConfig(N=N, v=V, p=2, D=D, B=B)

    def test_bit_identical_after_kill(self, tmp_path):
        clean_tr = EventBus(monitor=False)
        clean = run_sort(self.CFG, tracer=clean_tr)
        resumed, tr = kill_and_resume(self.CFG, tmp_path)

        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)
        # the trace tail (everything from the kill round on) matches the
        # uninterrupted run event for event
        tail = [
            ev for ev in stripped(clean_tr.events)
            if ev["kind"] == "run_end" or ev["round"] >= KILL_ROUND
        ]
        assert stripped(tr.events) == tail
        assert tr.counts().get("resume") == 1

    def test_finished_checkpoint_short_circuits(self, tmp_path):
        ck = str(tmp_path / "ck")
        first = run_sort(self.CFG, checkpoint=ck)
        again = run_sort(self.CFG, checkpoint=ck, resume=True)
        for a, b in zip(first.outputs, again.outputs):
            assert np.array_equal(a, b)
        assert counters(first.report) == counters(again.report)

    def test_resume_under_fault_plan(self, tmp_path):
        plan = FaultPlan(
            seed=13, p_transient_read=0.02, p_transient_write=0.02,
            retry=RetryPolicy(max_retries=6),
        )
        clean = run_sort(self.CFG, faults=plan)
        assert clean.report.fault_stats is not None
        assert clean.report.fault_stats.retries > 0
        resumed, _ = kill_and_resume(self.CFG, tmp_path, faults=plan)
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)
        assert (
            resumed.report.fault_stats.as_dict() == clean.report.fault_stats.as_dict()
        )

    def test_sorted_output_is_correct(self, tmp_path):
        resumed, _ = kill_and_resume(self.CFG, tmp_path)
        out = np.concatenate(resumed.outputs)
        assert np.array_equal(out, np.sort(make_data()))


class TestResumeWorkers:
    CFG = MachineConfig(N=N, v=V, p=4, D=D, B=B)

    @pytest.mark.slow
    def test_bit_identical_after_kill(self, tmp_path):
        clean = run_sort(self.CFG, overrides=W2)
        resumed, tr = kill_and_resume(self.CFG, tmp_path, overrides=W2)
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)
        assert tr.counts().get("resume") == 1

    @pytest.mark.slow
    def test_cross_backend_resume(self, tmp_path):
        """A checkpoint written in-process resumes under the workers
        backend: the fingerprint deliberately excludes the worker count."""
        clean = run_sort(self.CFG, overrides=IN_PROCESS)
        ck = str(tmp_path / "ck")
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").write("1")
        with pytest.raises((KeyboardInterrupt, SimulationError)):
            run_sort(
                self.CFG, program=KillableSort(KILL_ROUND, flag), checkpoint=ck,
                overrides=IN_PROCESS,
            )
        resumed = run_sort(self.CFG, overrides=W2, checkpoint=ck, resume=True)
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)

    @pytest.mark.parametrize("resume_workers", [0, 3])
    def test_a_two_worker_checkpoint_resumes_at_any_worker_count(
        self, tmp_path, resume_workers
    ):
        """Slice 0 runs in the coordinator, yet the snapshot a ``workers=2``
        run writes has the one canonical shape: it resumes in-process or
        over three slices with the uninterrupted run's counters."""
        clean = run_sort(self.CFG, overrides=IN_PROCESS)
        ck = str(tmp_path / "ck")
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").write("1")
        with pytest.raises((KeyboardInterrupt, SimulationError)):
            run_sort(
                self.CFG, program=KillableSort(KILL_ROUND, flag), checkpoint=ck,
                overrides=W2,
            )
        assert not os.path.exists(flag), "the kill never fired"
        resumed = run_sort(
            self.CFG, overrides={"workers": resume_workers}, checkpoint=ck,
            resume=True,
        )
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)

    @pytest.mark.slow
    def test_worker_crash_redispatch(self, tmp_path):
        """A worker process dying hard mid-round is respawned from the last
        checkpoint and the round is re-dispatched — the run self-heals."""
        counter = str(tmp_path / "crashes")
        open(counter, "w").write("2")
        tracer = EventBus(monitor=False)
        healed = run_sort(
            self.CFG,
            overrides=W2,
            program=CrashySort(KILL_ROUND, counter),
            checkpoint=str(tmp_path / "ck"),
            tracer=tracer,
        )
        assert open(counter).read() == "0"
        assert tracer.counts().get("worker_redispatch") == 2
        clean = run_sort(self.CFG, overrides=W2)
        for a, b in zip(clean.outputs, healed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(healed.report)

    @pytest.mark.slow
    def test_crash_without_checkpoint_is_fatal(self, tmp_path):
        counter = str(tmp_path / "crashes")
        open(counter, "w").write("1")
        with pytest.raises(SimulationError, match="died without reporting"):
            run_sort(self.CFG, overrides=W2, program=CrashySort(KILL_ROUND, counter))


class TestCrossArenaResume:
    """Checkpoints are portable across ``REPRO_ARENA`` storage backends:
    the snapshot is the dict representation, so a run killed on the mmap
    arena resumes on the RAM arena (and vice versa) bit-identically."""

    CFG = MachineConfig(N=N, v=V, p=2, D=D, B=B)

    @pytest.mark.parametrize(
        "kill_arena,resume_arena", [("mmap", "ram"), ("ram", "mmap")]
    )
    def test_checkpoint_ports_across_arenas(
        self, tmp_path, monkeypatch, kill_arena, resume_arena
    ):
        clean_tr = EventBus(monitor=False)
        clean = run_sort(self.CFG, tracer=clean_tr)  # default-arena baseline

        ck = str(tmp_path / "ck")
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").write("1")
        monkeypatch.setenv("REPRO_ARENA", kill_arena)
        with pytest.raises((KeyboardInterrupt, SimulationError)):
            run_sort(
                self.CFG, program=KillableSort(KILL_ROUND, flag), checkpoint=ck
            )
        assert not os.path.exists(flag), "the kill never fired"

        monkeypatch.setenv("REPRO_ARENA", resume_arena)
        tr = EventBus(monitor=False)
        resumed = run_sort(self.CFG, checkpoint=ck, resume=True, tracer=tr)

        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)
        tail = [
            ev for ev in stripped(clean_tr.events)
            if ev["kind"] == "run_end" or ev["round"] >= KILL_ROUND
        ]
        assert stripped(tr.events) == tail
        assert tr.counts().get("resume") == 1

    def test_fault_plan_honours_the_mmap_arena(self, tmp_path, monkeypatch):
        """Regression: a fault plan used to force host-RAM dict storage and
        drop tracer/runtime on the floor, so ``arena=mmap`` was silently
        ignored — no spill files, no quota, no ``arena_grow`` events."""
        monkeypatch.setenv("REPRO_ARENA", "ram")
        ram = run_sort(self.CFG, faults=CI_PLAN)

        spill = tmp_path / "spill"
        probe = str(tmp_path / "probe.txt")
        monkeypatch.setenv("REPRO_ARENA", "mmap")
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill))
        tr = EventBus(monitor=False)
        mm = run_sort(
            self.CFG, program=SpillProbeSort(str(spill), probe),
            faults=CI_PLAN, tracer=tr,
        )
        # every real processor's arena had one non-empty spill file (all
        # its disks' tracks in one linear row space) while the run was in
        # flight
        files = open(probe).read().split()
        assert len(files) == self.CFG.p
        assert all(f.split("/")[1].startswith("tracks.bin:") for f in files)
        assert all(int(f.rsplit(":", 1)[1]) > 0 for f in files)
        grows = [ev for ev in tr.events if ev["kind"] == "arena_grow"]
        assert grows and {ev["backend"] for ev in grows} == {"mmap"}
        assert all(ev["spill_nbytes"] > 0 for ev in grows)

        for a, b in zip(ram.outputs, mm.outputs):
            assert np.array_equal(a, b)
        assert counters(ram.report) == counters(mm.report)
        assert ram.report.fault_stats.retries > 0
        assert ram.report.fault_stats.as_dict() == mm.report.fault_stats.as_dict()

        # the quota binds too
        monkeypatch.setenv("REPRO_SPILL_QUOTA", "4096")
        with pytest.raises(SimulationError, match="spill quota exceeded"):
            run_sort(self.CFG, faults=CI_PLAN)

    def test_mmap_checkpoint_restores_on_reference_path(
        self, tmp_path, monkeypatch
    ):
        """The extreme cross: killed and resumed on different arenas under
        a fault plan, i.e. with every access serviced per-op by the
        injector — outputs, counters and FaultStats stay bit-identical."""
        clean = run_sort(self.CFG, faults=CI_PLAN)
        for kill_arena, resume_arena in (("mmap", "ram"), ("ram", "mmap")):
            ck = str(tmp_path / f"ck-{kill_arena}")
            flag = str(tmp_path / "kill.flag")
            open(flag, "w").write("1")
            monkeypatch.setenv("REPRO_ARENA", kill_arena)
            with pytest.raises((KeyboardInterrupt, SimulationError)):
                run_sort(
                    self.CFG, program=KillableSort(KILL_ROUND, flag),
                    checkpoint=ck, faults=CI_PLAN,
                )
            assert not os.path.exists(flag), "the kill never fired"
            monkeypatch.setenv("REPRO_ARENA", resume_arena)
            resumed = run_sort(self.CFG, checkpoint=ck, resume=True, faults=CI_PLAN)
            for x, y in zip(clean.outputs, resumed.outputs):
                assert np.array_equal(x, y)
            assert counters(clean.report) == counters(resumed.report)
            assert (
                clean.report.fault_stats.as_dict()
                == resumed.report.fault_stats.as_dict()
            )


#: test hook consumed by NodeKillerSort.round (set per-test, one-shot);
#: lives at module scope because in-process node sessions share this
#: interpreter — the unpickled program sees the same global.
_NODE_KILL = None


class NodeKillerSort(SampleSort):
    """Sample sort that severs its own node's session at a given round.

    The hook closes the session *socket* (simulated machine death), not
    an exception: the coordinator must detect the dead connection and
    recover, exactly as if a remote node had been powered off.
    """

    def __init__(self, kill_round: int) -> None:
        super().__init__()
        self.kill_round = kill_round

    def round(self, r, ctx, env):
        global _NODE_KILL
        if r == self.kill_round and env.pid == 0 and _NODE_KILL is not None:
            hook, _NODE_KILL = _NODE_KILL, None  # one-shot
            hook()
        return super().round(r, ctx, env)


class NodeKillerThenKillSort(NodeKillerSort):
    """Node death at one round, an external kill at a later one."""

    def __init__(self, kill_node_round: int, flag_path: str) -> None:
        super().__init__(kill_node_round)
        self.flag_path = flag_path

    def round(self, r, ctx, env):
        if r == KILL_ROUND and os.path.exists(self.flag_path):
            os.unlink(self.flag_path)
            raise KeyboardInterrupt("simulated kill")
        return super().round(r, ctx, env)


class TestCrossTransportResume:
    """Checkpoints are portable across worker-exchange transports: a run
    killed under tcp resumes under memory (and vice versa) bit-identically,
    and a node dying mid-run is redispatched over a fresh connection."""

    CFG = MachineConfig(N=N, v=V, p=4, D=D, B=B)

    @pytest.fixture
    def node_pair(self):
        from repro.core.transport.node import NodeServer

        servers = [NodeServer().start_thread(), NodeServer().start_thread()]
        yield servers
        for s in servers:
            s.shutdown()

    def set_transport(self, monkeypatch, kind, node_pair=None):
        monkeypatch.setenv("REPRO_TRANSPORT", kind)
        if kind == "tcp":
            monkeypatch.setenv(
                "REPRO_NODES", ",".join(s.address for s in node_pair)
            )
        else:
            monkeypatch.delenv("REPRO_NODES", raising=False)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "kill_transport,resume_transport",
        [("tcp", "memory"), ("memory", "tcp")],
    )
    def test_checkpoint_ports_across_transports(
        self, tmp_path, monkeypatch, node_pair, kill_transport, resume_transport
    ):
        self.set_transport(monkeypatch, "memory")
        clean = run_sort(self.CFG, overrides=W2)  # local baseline

        ck = str(tmp_path / "ck")
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").write("1")
        self.set_transport(monkeypatch, kill_transport, node_pair)
        with pytest.raises((KeyboardInterrupt, SimulationError)):
            run_sort(
                self.CFG, overrides=W2, program=KillableSort(KILL_ROUND, flag),
                checkpoint=ck,
            )
        assert not os.path.exists(flag), "the kill never fired"

        self.set_transport(monkeypatch, resume_transport, node_pair)
        tr = EventBus(monitor=False)
        resumed = run_sort(
            self.CFG, overrides=W2, checkpoint=ck, resume=True, tracer=tr
        )
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)
        assert tr.counts().get("resume") == 1

    @pytest.mark.slow
    def test_a_relative_checkpoint_path_resumes_on_a_node_elsewhere(
        self, tmp_path, monkeypatch
    ):
        """A relative checkpoint directory names the same files to a
        ``repro node`` process that runs in another working directory."""
        self.set_transport(monkeypatch, "memory")
        clean = run_sort(self.CFG, overrides=W2)
        coord, away = tmp_path / "coord", tmp_path / "away"
        coord.mkdir()
        away.mkdir()
        monkeypatch.chdir(coord)
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").write("1")
        with pytest.raises((KeyboardInterrupt, SimulationError)):
            run_sort(self.CFG, overrides=W2, program=KillableSort(KILL_ROUND, flag),
                     checkpoint="ck")
        assert not os.path.exists(flag), "the kill never fired"

        src = str(Path(__file__).resolve().parents[2] / "src")
        node = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "node", "--port", "0"],
            cwd=away, env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, text=True,
        )
        try:
            monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
            monkeypatch.setenv("REPRO_NODES", node.stdout.readline().split()[-1])
            resumed = run_sort(self.CFG, overrides=W2, checkpoint="ck", resume=True)
        finally:
            node.terminate()
            node.communicate(timeout=10)
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)

    @pytest.mark.slow
    def test_node_death_mid_run_redispatches(
        self, tmp_path, monkeypatch, node_pair
    ):
        """The socket of the node hosting worker 1 is hard-closed during
        the kill round; the coordinator respawns the session from the last
        checkpoint and the run self-heals bit-identically."""
        global _NODE_KILL
        self.set_transport(monkeypatch, "memory")
        clean = run_sort(self.CFG, overrides=W2)

        self.set_transport(monkeypatch, "tcp", node_pair)
        tracer = EventBus(monitor=False)
        _NODE_KILL = node_pair[0].kill_session
        try:
            healed = run_sort(
                self.CFG,
                overrides=W2,
                program=NodeKillerSort(KILL_ROUND),
                checkpoint=str(tmp_path / "ck"),
                tracer=tracer,
            )
        finally:
            _NODE_KILL = None
        assert tracer.counts().get("worker_redispatch", 0) >= 1
        assert node_pair[0].sessions >= 2  # reconnected after the death
        for a, b in zip(clean.outputs, healed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(healed.report)

    @pytest.mark.slow
    def test_node_death_then_resume_under_memory(
        self, tmp_path, monkeypatch, node_pair
    ):
        """Node death and an external kill in the same run: the node dies
        at round 1, the respawned run is killed at round 2, and the
        checkpoint still resumes cleanly under the memory transport."""
        global _NODE_KILL
        self.set_transport(monkeypatch, "memory")
        clean = run_sort(self.CFG, overrides=W2)

        ck = str(tmp_path / "ck")
        flag = str(tmp_path / "kill.flag")
        open(flag, "w").write("1")
        self.set_transport(monkeypatch, "tcp", node_pair)
        # the one worker session is on the first node
        _NODE_KILL = node_pair[0].kill_session
        try:
            with pytest.raises((KeyboardInterrupt, SimulationError)):
                run_sort(
                    self.CFG,
                    overrides=W2,
                    program=NodeKillerThenKillSort(KILL_ROUND - 1, flag),
                    checkpoint=ck,
                )
        finally:
            _NODE_KILL = None
        assert not os.path.exists(flag), "the kill never fired"

        self.set_transport(monkeypatch, "memory")
        resumed = run_sort(self.CFG, overrides=W2, checkpoint=ck, resume=True)
        for a, b in zip(clean.outputs, resumed.outputs):
            assert np.array_equal(a, b)
        assert counters(clean.report) == counters(resumed.report)


class TestServicePath:
    """Preempt/resume through the job-service execution path: the same
    checkpoint invariants hold when the run is described by a ``JobSpec``
    and driven by ``execute_spec`` instead of ``em_run`` directly."""

    PAR = {
        "op": "sort", "n": N, "seed": 5,
        "machine": {"v": V, "p": 4, "D": D, "B": B},
    }

    def test_fingerprint_ignores_worker_count(self):
        from repro.service.spec import JobSpec

        w0 = JobSpec.from_dict(self.PAR)
        w2 = JobSpec.from_dict({**self.PAR, "workers": 2})
        assert w0.fingerprint() == w2.fingerprint()

    @pytest.mark.slow
    def test_cross_backend_preempt_resume(self, tmp_path):
        """Preempted on the multi-process backend, resumed in-process —
        counters and output hash are bit-identical to a clean run, as the
        CI service lane asserts end-to-end."""
        from repro.service.pool import execute_spec
        from repro.service.spec import JobSpec
        from repro.util.validation import PreemptedError

        clean = execute_spec(JobSpec.from_dict(self.PAR))
        ck = str(tmp_path / "ck")
        workers = JobSpec.from_dict({**self.PAR, "workers": 2})
        fired = []

        def preempt_once() -> bool:
            fired.append(True)
            return len(fired) == 1

        with pytest.raises(PreemptedError, match="resume to continue"):
            execute_spec(workers, checkpoint=ck, preempt=preempt_once)
        resumed = execute_spec(
            JobSpec.from_dict(self.PAR), checkpoint=ck, resume=True
        )
        assert resumed["ok"] is True
        assert resumed["counters"] == clean["counters"]
        assert resumed["output_sha256"] == clean["output_sha256"]
        assert resumed["fingerprint"] == clean["fingerprint"]

    @pytest.mark.slow
    def test_preempt_resume_under_fault_plan(self, tmp_path):
        from repro.service.pool import execute_spec
        from repro.service.spec import JobSpec
        from repro.util.validation import PreemptedError

        doc = {**self.PAR, "faults": {"p_transient_read": 0.02, "seed": 13}}
        clean = execute_spec(JobSpec.from_dict(doc))
        assert clean["counters"]["fault_stats"]["retries"] > 0
        ck = str(tmp_path / "ck")
        fired = []
        with pytest.raises(PreemptedError):
            execute_spec(
                JobSpec.from_dict(doc),
                checkpoint=ck,
                preempt=lambda: not fired and (fired.append(True) or True),
            )
        resumed = execute_spec(JobSpec.from_dict(doc), checkpoint=ck, resume=True)
        assert resumed["counters"] == clean["counters"]
        assert resumed["output_sha256"] == clean["output_sha256"]

    @pytest.mark.slow
    def test_served_job_heals_a_killed_worker_without_a_snapshot_file(
        self, tmp_path, monkeypatch
    ):
        """A served job on a worker fleet persists every boundary although
        it carries a preemption probe (crash recovery reloads the newest
        manifest): a worker SIGKILLed mid-round is respawned from it, the
        job ends ``done`` with the clean document, and its checkpoint
        directory goes with the job, so no snapshot file outlives it."""
        import dataclasses
        import signal

        from repro.em.runner import OPS
        from repro.service.client import run_spec_local
        from repro.service.server import ServiceCore

        flag = str(tmp_path / "kill.flag")

        class KilledSort(SampleSort):
            def round(self, r, ctx, env):
                # the last pid: a vproc of the worker process, not of
                # slice 0 in the coordinator
                if r == KILL_ROUND and env.pid == env.v - 1 and os.path.exists(flag):
                    os.unlink(flag)
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().round(r, ctx, env)

        spec = {**self.PAR, "workers": 2}
        clean = run_spec_local(spec)["result"]
        open(flag, "w").write("1")
        monkeypatch.setitem(
            OPS, "sort", dataclasses.replace(OPS["sort"], program=KilledSort)
        )
        written = []
        save = CheckpointManager.save
        monkeypatch.setattr(
            CheckpointManager, "save",
            lambda self, r, *a: written.append(r) or save(self, r, *a),
        )
        core = ServiceCore(state_dir=str(tmp_path / "state"), pool_size=1)
        try:
            job, _ = core.submit(spec)
            assert job.finished.wait(120)
        finally:
            core.drain(timeout=60)
        assert not os.path.exists(flag), "the kill never fired"
        assert job.state == "done", job.error
        assert job.bus.counts().get("worker_redispatch") == 1
        assert written[: KILL_ROUND + 1] == list(range(-1, KILL_ROUND))
        assert not os.path.exists(job.ckpt_dir)
        for key in ("ok", "counters", "output_sha256", "fingerprint"):
            assert job.result[key] == clean[key]


class TestRefusals:
    CFG = MachineConfig(N=N, v=V, p=2, D=D, B=B)

    def test_resume_without_checkpoint_dir(self):
        with pytest.raises(ConfigurationError, match="resume"):
            run_sort(self.CFG, resume=True)

    def test_resume_from_empty_dir(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            run_sort(self.CFG, checkpoint=str(tmp_path / "empty"), resume=True)

    def test_resume_under_different_machine_is_refused(self, tmp_path):
        _, _ = kill_and_resume(self.CFG, tmp_path)  # leaves checkpoints behind
        other = MachineConfig(N=N, v=V, p=2, D=D, B=B // 2)
        with pytest.raises(CheckpointError, match="different run"):
            run_sort(other, checkpoint=str(tmp_path / "ck"), resume=True)

    def test_resume_under_different_fault_plan_is_refused(self, tmp_path):
        _, _ = kill_and_resume(self.CFG, tmp_path)
        plan = FaultPlan(seed=99, p_transient_read=0.5)
        with pytest.raises(CheckpointError, match="different run"):
            run_sort(
                self.CFG, checkpoint=str(tmp_path / "ck"), resume=True, faults=plan
            )

    def test_memory_engine_refuses_faults(self):
        with pytest.raises(ConfigurationError, match="fault"):
            em_run(
                SampleSort(),
                partition_array(make_data(), V),
                self.CFG,
                "memory",
                faults=FaultPlan(p_transient_read=0.1),
            )

    def test_vm_engine_refuses_checkpoint(self, tmp_path):
        cfg = MachineConfig(N=N, v=V, p=1, D=D, B=B)
        with pytest.raises(ConfigurationError, match="checkpoint"):
            em_run(
                SampleSort(),
                partition_array(make_data(), V),
                cfg,
                "vm",
                checkpoint=str(tmp_path / "ck"),
            )


def _listrank_fixture(name: str, tmp_path):
    """Copy ``data/<name>`` into a scratch checkpoint dir → (its
    ``expected.json``, the dir, the run's cfg and inputs)."""
    import json
    import shutil

    fixture = Path(__file__).parent / "data" / name
    want = json.loads((fixture / "expected.json").read_text())
    ck = tmp_path / "ck"
    ck.mkdir()
    shutil.copy(fixture / "ckpt_000007.bin", ck)

    n = want["n"]
    order = np.random.default_rng(want["seed"]).permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    weights = (succ >= 0).astype(np.float64)
    cfg = MachineConfig(N=n, v=V, D=D, B=B).with_(M=None)
    inputs = list(zip(partition_array(succ, V), partition_array(weights, V)))
    return want, ck, cfg, inputs


@pytest.mark.no_fault_plan
def test_checkpoint_written_before_the_plan_memos_resumes_identically(tmp_path):
    """``data/listrank_ckpt_v2`` is the frozen-format golden: a
    ``REPRO-CKPT v2`` checkpoint of ListRanking at a reduced
    ``rounds_listrank`` shape, preempted after round 6, and the
    uninterrupted run's hash and counters.  Whatever later changes plan,
    stage or memoise the I/O, or how a checkpoint is written, must store
    the same bytes and count the same I/Os, so the recorded checkpoint
    resumes here with the recorded result.  (First recorded at 8b0477d,
    before the plan memos; re-recorded by ``scripts/rerecord_fixtures.py``
    when the item format and then the checkpoint format changed — the
    output hash is the 8b0477d one, and the peak is the memory ledger's,
    1,664 items.)"""
    from repro.algorithms.graphs.list_ranking import ListRanking
    from repro.em.runner import output_sha256

    want, ck, cfg, inputs = _listrank_fixture("listrank_ckpt_v2", tmp_path)
    tracer = EventBus(monitor=False)
    res = em_run(
        ListRanking(), inputs, cfg, "seq", checkpoint=str(ck), resume=True, tracer=tracer
    )
    resumes = [ev for ev in tracer.events if ev["kind"] == "resume"]
    assert [ev["round"] for ev in resumes] == [want["preempted_after_round"]]
    assert output_sha256(np.concatenate(res.outputs)) == want["output_sha256"]
    assert counters(res.report) == want["counters"]
    assert want["output_sha256"] == (
        "2e8eb693395dd709fa49f0e0ab758e5d3618eb2fa76c070540f3f40a8842ea0e"
    )
    assert want["counters"]["peak"] == 1664


def _refused_unread(name: str, tmp_path, monkeypatch) -> str:
    """Resume from the v1 fixture *name* with ``pickle.loads`` and the
    item decoder booby-trapped → the one-line refusal."""
    import pickle

    from repro.algorithms.graphs.list_ranking import ListRanking
    from repro.util import items

    def never(*_a, **_k):
        raise AssertionError("a v1 checkpoint was decoded")

    monkeypatch.setattr(pickle, "loads", never)
    monkeypatch.setattr(items, "deserialize", never)
    _want, ck, cfg, inputs = _listrank_fixture(name, tmp_path)
    with pytest.raises(CheckpointError, match="REPRO-CKPT v1") as err:
        em_run(ListRanking(), inputs, cfg, "seq", checkpoint=str(ck), resume=True)
    assert "\n" not in str(err.value)
    return str(err.value)


def test_checkpoint_of_the_pickle_item_format_is_refused_before_any_decode(
    tmp_path, monkeypatch
):
    """``data/listrank_ckpt_pr15`` was written when the simulated disks held
    pickles, in a ``REPRO-CKPT v1`` file: refused in one line before
    anything in it is unpickled or decoded."""
    _refused_unread("listrank_ckpt_pr15", tmp_path, monkeypatch)


def test_a_v1_checkpoint_is_refused_before_any_unpickle(tmp_path, monkeypatch):
    """``data/listrank_ckpt_pr22`` holds format-2 tracks, but in a pickled
    ``REPRO-CKPT v1`` payload (whose memory peak predates the ledger): the
    same one-line refusal, before any unpickle."""
    _refused_unread("listrank_ckpt_pr22", tmp_path, monkeypatch)


def test_cli_resume_of_a_stale_checkpoint_exits_3_with_one_line(tmp_path, capsys):
    import shutil

    from repro.cli import main

    ck = tmp_path / "ck"
    ck.mkdir()
    shutil.copy(
        Path(__file__).parent / "data" / "listrank_ckpt_pr15" / "ckpt_000007.bin", ck
    )
    rc = main(["listrank", "--n", "512", "--v", str(V), "--d", str(D), "--b", str(B),
               "--engine", "seq", "--checkpoint", str(ck), "--resume"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
