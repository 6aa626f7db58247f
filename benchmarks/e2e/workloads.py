"""The four workloads: inputs from a seed, one op, and its verification.

Every workload is closed-loop with one client: the harness process issues
an op, waits for it, verifies it outside the timed span, then issues the
next.  Inputs are generated here from ``--seed``; the program under test
only ever sees the generated inputs.  Runtime knobs are pinned — the
``REPRO_*`` environment is scrubbed by ``run.py`` before anything is
imported, and ``scale_out`` passes an explicit
``RuntimeConfig.resolve(overrides=..., environ={})`` snapshot.

Op counts are constants, sized once on the reference host so a run's
measured ops take about ``NOMINAL_SECONDS`` and then frozen: two runs do
the same work, whatever the host is doing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

import numpy as np
from harness import EQUAL_MIX, HERE, OUT_DIR, SRC, Mix

from repro.algorithms.collectives import partition_array
from repro.algorithms.graphs.api import list_rank
from repro.algorithms.graphs.list_ranking import ListRanking
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.em.runner import em_run, em_sort
from repro.service import client as svc_client
from repro.service.spec import JobSpec
from repro.tune.runtime import RuntimeConfig
from repro.tune.tuner import build_workload

#: the ``--seconds`` value the frozen op counts below were sized for
NOMINAL_SECONDS = 16


Sim = tuple[int, int, int]  # parallel I/Os, communicated items, supersteps

#: op index of the untimed warm-up op, and of the first cold-start op
WARMUP_OP = -1
COLD_SESSION0 = 1_000_000


def child_env(tmp_dir: str) -> dict[str, str]:
    """Environment for every program the benchmark starts: no ambient
    ``REPRO_*`` knob, the checkout's ``src`` importable, temp files kept
    inside the checkout — and glibc's default allocator, as a user's
    daemon or command line has it (``run.PINNED_ENV`` is for the harness
    process alone; the threaded daemon's peak RSS is steadier without)."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "MALLOC_"))
    }
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp_dir
    return env


def scaled_ops(frozen: int, seconds: float, smoke: bool) -> int:
    """Op count for a run: the frozen constant at the nominal ``--seconds``,
    in proportion otherwise — never "loop until the clock says stop"."""
    n = frozen // 10 if smoke else round(frozen * seconds / NOMINAL_SECONDS)
    return max(n, 3)


def work_dir(name: str, seed: int) -> str:
    return os.path.join(OUT_DIR, f"{name}-{seed}-{os.getpid()}")


def _sim(report: Any) -> Sim:
    return (report.io.parallel_ios, report.comm_items, report.supersteps)


class Workload:
    """One workload instance for one seed.  Subclasses set ``name`` and
    ``ops``, say in their docstring why the workload was chosen, and
    implement ``setup``/``op``/``check``."""

    name = ""
    #: measured ops per run at ``NOMINAL_SECONDS`` (frozen)
    ops = 0
    #: whether ops run inside this process (so spans can see the layers)
    in_process = True
    #: whether an op keeps a single process busy (``harness.pin_to_one_cpu``)
    one_process = False
    #: which calibration-kernel parts (bulk, interpreter, dispatch) the op's
    #: time follows when the host slows down; frozen with the op counts.
    #: Fitted once on 15-minute series of op and part times, 929 ops each:
    #: spread of 30-op window medians 2.5 % -> 1.2 % for sort_io's mix, 3.5 %
    #: -> 2.8 % for rounds_listrank's; no mix beat the equal one on the others.
    calib_mix: Mix = EQUAL_MIX
    #: every op has the same input, so every op must report the same counters
    same_sim_every_op = True

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.spill_dir = os.path.join(work_dir, "spill")
        self.tmp_dir = os.path.join(work_dir, "tmp")
        os.makedirs(self.tmp_dir, exist_ok=True)

    def setup(self, ops: int) -> None:
        """Generate inputs and the references of *ops* ops (untimed)."""
        raise NotImplementedError

    def start(self) -> None:
        """Bring up what the ops talk to (only the service has a daemon)."""

    def op(self, i: int) -> Any:
        """The timed operation; returns whatever ``check`` needs."""
        raise NotImplementedError

    def check(self, i: int, result: Any) -> tuple[bool, Sim]:
        """Compare with the precomputed reference; the op's cost counters."""
        raise NotImplementedError

    def live_children(self) -> list[int]:
        """Children that outlive an op (their CPU and RSS are read live)."""
        return []

    def stop(self) -> tuple[float, int]:
        """Shut down what ``start`` brought up: ``(seconds, exit code)``."""
        return 0.0, 0

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def cold_start(self, k: int) -> tuple[float, bool]:
        """Seconds from a fresh interpreter to its first finished op, and
        whether that op verified.  Raw wall seconds: cold start is import
        and page-cache bound, which the calibration kernel does not track."""
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--cold-start",
             "--workload", self.name, "--seed", str(self.seed)],
            env=child_env(self.tmp_dir), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return time.monotonic() - t0, False
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        return doc["t_done"] - t0, bool(doc["ok"])


class SortIO(Workload):
    """``em_sort`` at the fig5 shape (82 k parallel I/Os, 4 rounds): pdm and
    the core engine do about 60 % of the work, the callbacks' numpy sorts
    the rest; an I/O-path change shows here."""

    name = "sort_io"
    ops = 140
    one_process = True
    calib_mix = (3.0, 1.0, 1.0)  # bulk numpy moves the blocks
    N, V, D, B = 1 << 18, 8, 2, 16

    def setup(self, ops: int) -> None:
        rng = np.random.default_rng(self.seed)
        self.data = rng.integers(0, 2**40, self.N)
        self.reference = np.sort(self.data)
        self.cfg = MachineConfig(N=self.N, v=self.V, D=self.D, B=self.B)

    def op(self, i: int, **kw: Any) -> Any:
        return em_sort(self.data, self.cfg, engine="seq", **kw)

    def check(self, i: int, result: Any) -> tuple[bool, Sim]:
        return bool(np.array_equal(result.values, self.reference)), _sim(result.report)


class RoundsListRank(Workload):
    """``list_rank`` on a random list (53 data-dependent rounds, 24 k tiny I/Os):
    the same pdm/core code dominated by per-call and per-round fixed
    overhead."""

    name = "rounds_listrank"
    ops = 30
    one_process = True
    calib_mix = (1.0, 3.0, 3.0)  # thousands of tiny calls: interpreter, dispatch
    N, V, D, B = 4096, 8, 2, 64

    def setup(self, ops: int) -> None:
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(self.N)
        self.succ = np.full(self.N, -1, dtype=np.int64)
        self.succ[order[:-1]] = order[1:]
        # sequential list ranks: distance to the tail, walking the list once
        self.reference = np.empty(self.N, dtype=np.float64)
        self.reference[order] = np.arange(self.N - 1, -1, -1)
        self.cfg = MachineConfig(N=self.N, v=self.V, D=self.D, B=self.B)

    def op(self, i: int) -> Any:
        return list_rank(self.succ, self.cfg, engine="seq")

    def check(self, i: int, result: Any) -> tuple[bool, Sim]:
        return (
            bool(np.array_equal(result.values, self.reference)),
            _sim(result.reports[0]),
        )

    def run_variant(self, **kw: Any) -> Any:
        """The same computation through ``em_run`` with one engine option
        switched (``balanced=``, ``checkpoint=``, ``tracer=``)."""
        weights = (self.succ >= 0).astype(np.float64)
        inputs = list(
            zip(partition_array(self.succ, self.V), partition_array(weights, self.V))
        )
        res = em_run(ListRanking(), inputs, self.cfg.with_(M=None), "seq", **kw)
        return np.concatenate(res.outputs), res.report


class ScaleOut(Workload):
    """SampleSort on the par engine with 2 worker processes, shm transport and
    the mmap arena: spawn, exchange, balanced routing and file-backed blocks."""

    name = "scale_out"
    ops = 26
    N, V, P, D, B = 1 << 20, 16, 4, 4, 1024

    def setup(self, ops: int) -> None:
        rng = np.random.default_rng(self.seed)
        self.data = rng.integers(0, 2**40, self.N)
        self.reference = np.sort(self.data)
        self.cfg = MachineConfig(N=self.N, v=self.V, p=self.P, D=self.D, B=self.B)
        self.runtime = self.runtime_for()

    def runtime_for(self, workers: int = 2, arena: str = "mmap") -> RuntimeConfig:
        return RuntimeConfig.resolve(
            overrides={
                "workers": workers, "transport": "shm", "arena": arena,
                "spill_dir": self.spill_dir,
            },
            environ={},
        )

    def op(self, i: int, cfg: MachineConfig | None = None,
           runtime: RuntimeConfig | None = None, **kw: Any) -> Any:
        cfg = cfg or self.cfg
        res = em_run(
            SampleSort(), partition_array(self.data[: cfg.N], cfg.v), cfg, "par",
            balanced=True, runtime=runtime or self.runtime, **kw,
        )
        return np.concatenate(res.outputs), res.report

    def check(self, i: int, result: Any) -> tuple[bool, Sim]:
        values, report = result
        return bool(np.array_equal(values, self.reference)), _sim(report)


def output_sha256(values: np.ndarray) -> str:
    """The service's documented content hash: dtype + shape + C-order bytes."""
    arr = np.ascontiguousarray(values)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}:{arr.shape}".encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


def _spec_reference(doc: dict[str, Any]) -> np.ndarray:
    """Expected output of a job spec, from its generated inputs alone."""
    spec = JobSpec.from_dict(doc)
    _program, inputs = build_workload(spec.workload(), spec.machine_config())
    if spec.op == "sort":
        return np.sort(np.concatenate(inputs))
    if spec.op == "permute":
        values = np.concatenate([v for v, _d in inputs])
        dests = np.concatenate([d for _v, d in inputs])
        out = np.empty_like(values)
        out[dests] = values
        return out
    return np.vstack([band for band, *_rest in inputs]).T


@dataclass
class JobTrace:
    """What the client saw of one job of a session."""

    tenant: str
    status: int          #: HTTP status of POST /jobs
    cache: str           #: X-Repro-Cache header
    doc: dict[str, Any]  #: GET /jobs/<id> once the SSE stream ended
    submit_s: float      #: POST sent -> response
    done_s: float        #: POST sent -> SSE ``end`` frame


def _result_sim(result: dict[str, Any]) -> Sim:
    c = result["counters"]
    return (c["io"]["parallel_ios"], c["comm"], c["supersteps"])


def _sum_sims(sims: list[Sim]) -> Sim:
    return (sum(s[0] for s in sims), sum(s[1] for s in sims), sum(s[2] for s in sims))


class Daemon:
    """A real ``python -m repro serve --port 0`` child process."""

    def __init__(self, state_dir: str, tmp_dir: str) -> None:
        self.state_dir = state_dir
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", state_dir],
            env=child_env(tmp_dir), stdout=subprocess.PIPE, text=True,
        )
        assert self.proc.stdout is not None
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:\d+", banner)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.url = match.group(0)
        status, _h, body = svc_client.request_json("GET", self.url + "/healthz")
        if status != 200 or body.get("status") != "ok":
            self.stop()
            raise RuntimeError(f"repro serve unhealthy: {status} {body}")

    def stop(self) -> tuple[float, int]:
        """SIGTERM, wait for the drain; ``(seconds, exit code)``."""
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        return time.perf_counter() - t0, self.proc.returncode


class ServiceMix(Workload):
    """Tenant sessions against a real repro serve child: sort, permute,
    transpose cold then as cache hits; small-job fixed cost plus spec,
    queue, pool, cache and HTTP/SSE.  The only workload a cache or queue
    change moves."""

    name = "service_mix"
    ops = 64
    in_process = False
    #: session inputs differ by design (a repeat would be a cache hit), so
    #: the counters are read from session 0 and checked against the
    #: program's in-process executor rather than against every other op
    same_sim_every_op = False
    N, V, D, B = 8192, 8, 2, 64
    OPS = ("sort", "permute", "transpose")

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.daemon: Daemon | None = None
        self._seed0 = (seed * 1_000_003 + 17) % (1 << 30)
        self._expected: dict[int, list[str]] = {}
        self.reference_sim: Sim = (0, 0, 0)

    def spec(self, op: str, session: int, tenant: str) -> dict[str, Any]:
        return {
            "op": op, "n": self.N, "seed": self._seed0 + session,
            "machine": {"v": self.V, "D": self.D, "B": self.B},
            "tenant": tenant,
        }

    def expected_hashes(self, session: int) -> list[str]:
        hashes = self._expected.get(session)
        if hashes is None:
            hashes = self._expected[session] = [
                output_sha256(_spec_reference(self.spec(op, session, "a")))
                for op in self.OPS
            ]
        return hashes

    def setup(self, ops: int) -> None:
        for session in range(WARMUP_OP, ops):
            self.expected_hashes(session)
        # the harness's reference must agree with the program's own
        # in-process executor on session 0 (ok flag, output hash); its
        # counters are what the daemon's session 0 has to reproduce
        sims = []
        for op, want in zip(self.OPS, self.expected_hashes(0)):
            local = svc_client.run_spec_local(self.spec(op, 0, "a"))["result"]
            if not local["ok"] or local["output_sha256"] != want:
                raise RuntimeError(f"reference mismatch for {op} (run_spec_local)")
            sims.append(_result_sim(local))
        self.reference_sim = _sum_sims(sims)

    def start(self) -> None:
        """Spawn the daemon the measured sessions talk to."""
        self.daemon = Daemon(self._state_dir(), self.tmp_dir)

    def _state_dir(self) -> str:
        return os.path.join(self.work_dir, f"serve-{time.monotonic_ns()}")

    def session(self, url: str, i: int) -> list[JobTrace]:
        """Three cold jobs as tenant a, then the same three as tenant b;
        every job is followed to its SSE ``end`` frame (never polled) and
        its document fetched."""
        out = []
        for tenant in ("a", "b"):
            for op in self.OPS:
                t0 = time.perf_counter()
                status, headers, job = svc_client.submit_job(
                    url, self.spec(op, i, tenant)
                )
                t1 = time.perf_counter()
                doc: dict[str, Any] = {"state": "refused"}
                t2 = t1
                if status in (200, 202):
                    for _event in svc_client.stream_job(url, job["id"]):
                        pass
                    t2 = time.perf_counter()
                    doc = svc_client.get_job(url, job["id"])
                out.append(JobTrace(tenant, status, headers.get("X-Repro-Cache", ""),
                                    doc, t1 - t0, t2 - t0))
        return out

    def op(self, i: int) -> list[JobTrace]:
        assert self.daemon is not None
        return self.session(self.daemon.url, i)

    def check(self, i: int, result: list[JobTrace]) -> tuple[bool, Sim]:
        if len(result) != 6:
            return False, (0, 0, 0)
        ok = True
        cold: list[dict[str, Any]] = []
        want_hashes = self.expected_hashes(i)
        for k, job in enumerate(result):
            res = job.doc.get("result") or {}
            ok &= job.doc.get("state") == "done" and bool(res.get("ok"))
            ok &= res.get("output_sha256") == want_hashes[k % 3]
            if job.tenant == "a":
                ok &= job.status == 202 and job.cache == "miss"
                cold.append(res)
            else:
                # the duplicate must be answered from the cache, with the
                # very document the cold run produced
                ok &= job.status == 200 and job.cache == "hit"
                ok &= res == cold[k - 3]
        if not ok:
            return False, (0, 0, 0)
        sim = _sum_sims([_result_sim(r) for r in cold])
        if i == 0:
            ok = sim == self.reference_sim
        return ok, sim

    def live_children(self) -> list[int]:
        return [self.daemon.proc.pid] if self.daemon is not None else []

    def stop(self) -> tuple[float, int]:
        daemon, self.daemon = self.daemon, None
        return daemon.stop() if daemon is not None else (0.0, 0)

    def close(self) -> None:
        self.stop()
        super().close()

    def cold_start(self, k: int) -> tuple[float, bool]:
        """Daemon spawn -> ``/healthz`` -> first verified session."""
        session = COLD_SESSION0 + k
        self.expected_hashes(session)
        t0 = time.monotonic()
        daemon = Daemon(self._state_dir(), self.tmp_dir)
        try:
            result = self.session(daemon.url, session)
            elapsed = time.monotonic() - t0
        finally:
            _drain_s, code = daemon.stop()
        ok, _sim_ = self.check(session, result)
        return elapsed, ok and code == 0


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SortIO, RoundsListRank, ScaleOut, ServiceMix)
}
