"""Differential testing: vectorized run service vs per-op service, whole
programs.

There is one I/O path: a clean run and a run under a fault plan both move
whole runs as NumPy scatter/gathers.  The reference lane is the PDM
specification loop (``parallel_io`` per batch) behind the same run API —
the test-side :class:`~tests.spec_array.SpecDiskArray`, installed in the
engines by :func:`~tests.spec_array.spec_arrays` — and both lanes give the
same outputs, the same logical ``IOStats`` and the same trace *event
streams* (modulo wall-clock tags), on every engine, in balanced and
direct routing, in-process and across worker processes.

Hypothesis drives the workload shape (seed, size) with a small example
budget — each example runs full simulations on both lanes.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, em_transpose
from repro.obs.bench_store import measured_from_report
from repro.obs.bus import EventBus
from tests.spec_array import spec_arrays

FAULT_PLAN = str(
    Path(__file__).resolve().parents[2] / "benchmarks" / "fault_plans" / "ci_transient.json"
)

#: tags that legitimately differ between two runs (timing, filesystem)
#: "seq" joined the fuzzy tags when physical kinds (below) appeared: the
#: clean lane's extra physical events shift later sequence numbers, while
#: the *relative* order of logical events — what seq pinned — is still
#: asserted by the normalized list order.
_FUZZY_TAGS = ("seq", "ts", "wall_s", "path", "backoff_s")

#: *physical* event kinds describe how a backend serviced the logical
#: I/O (arena storage growth), so like the fuzzy tags they are excluded
#: from the identity comparison, which pins the *logical* event stream
#: (same precedent as io_fault in tests/core/test_workers.py).
_PHYSICAL_KINDS = ("arena_grow",)


#: under the fault lane the "clean" run would not be clean
pytestmark = pytest.mark.no_fault_plan


def _normalize(events):
    return [
        {k: v for k, v in ev.items() if k not in _FUZZY_TAGS}
        for ev in events
        if ev.get("kind") not in _PHYSICAL_KINDS
    ]


def _sort_both(cfg: MachineConfig, data: np.ndarray, engine: str, **kw):
    """Run em_sort on both lanes; returns (fast, ref, fast_trace, ref_trace)."""
    out = []
    for lane in (nullcontext, spec_arrays):
        tracer = EventBus(monitor=False)
        with lane():
            res = em_sort(data, cfg, engine=engine, tracer=tracer, **kw)
        out.append((res, tracer.events))
    (fast, t_fast), (ref, t_ref) = out
    return fast, ref, t_fast, t_ref


def _assert_identical(fast, ref, t_fast, t_ref):
    assert np.array_equal(fast.values, ref.values)
    assert measured_from_report(fast.report) == measured_from_report(ref.report)
    assert fast.report.io.as_dict() == ref.report.io.as_dict()
    assert fast.report.io_max.as_dict() == ref.report.io_max.as_dict()
    assert _normalize(t_fast) == _normalize(t_ref)


@pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
@pytest.mark.parametrize("engine", ["seq", "par"])
class TestSortIdentity:
    @settings(max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**31), log_n=st.integers(min_value=10, max_value=12))
    def test_outputs_stats_traces_identical(self, engine, balanced, seed, log_n):
        n = 1 << log_n
        data = np.random.default_rng(seed).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2 if engine == "par" else 1, D=2, B=64)
        self_args = _sort_both(cfg, data, engine, balanced=balanced)
        _assert_identical(*self_args)
        assert np.array_equal(self_args[0].values, np.sort(data))


def test_transpose_identity_seq():
    mat = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
    cfg = MachineConfig(N=mat.size, v=4, D=2, B=64)
    out = []
    for lane in (nullcontext, spec_arrays):
        tracer = EventBus(monitor=False)
        with lane():
            res = em_transpose(mat, cfg, engine="seq", tracer=tracer)
        out.append((res, tracer.events))
    (fast, t_fast), (ref, t_ref) = out
    _assert_identical(fast, ref, t_fast, t_ref)
    assert np.array_equal(fast.values, mat.T)


class TestProcessEngineIdentity:
    """The multi-core backend: small workloads, real subprocesses."""

    def test_sort_identical_with_workers(self):
        n = 1 << 12
        data = np.random.default_rng(7).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64)
        for balanced in (False, True):
            _assert_identical(*_sort_both(
                cfg, data, "par", balanced=balanced, overrides={"workers": 2}
            ))

    def test_fast_process_matches_reference_inprocess(self):
        """Cross-backend too: worker run service == in-process per-op."""
        n = 1 << 12
        data = np.random.default_rng(8).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64)
        proc = em_sort(data, cfg, engine="par", overrides={"workers": 2})
        with spec_arrays():
            inproc = em_sort(data, cfg, engine="par")
        assert np.array_equal(proc.values, inproc.values)
        assert measured_from_report(proc.report) == measured_from_report(inproc.report)


def _logical(events):
    return [e for e in _normalize(events) if "fault" not in str(e.get("kind", ""))]


class TestFaultsIdentity:
    """A plan that does inject changes only the physical ledger: logical
    outputs, counters and events equal the clean run's, and the fault
    sequence is the same whichever arena backend holds the tracks."""

    def _three(self, cfg, data, engine, monkeypatch):
        clean_tr = EventBus(monitor=False)
        clean = em_sort(data, cfg, engine=engine, tracer=clean_tr)
        runs = []
        for arena in ("ram", "mmap"):
            monkeypatch.setenv("REPRO_ARENA", arena)
            tracer = EventBus(monitor=False)
            res = em_sort(data, cfg, engine=engine, tracer=tracer, faults=FAULT_PLAN)
            runs.append((res, tracer.events))
        (ram, t_ram), (mm, t_mm) = runs
        _assert_identical(ram, mm, t_ram, t_mm)
        assert ram.report.fault_stats.as_dict() == mm.report.fault_stats.as_dict()
        _assert_identical(clean, ram, clean_tr.events, _logical(t_ram))
        return t_ram

    @settings(max_examples=4)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_sort_identical_under_ci_transient_plan(self, seed):
        n = 1 << 11
        data = np.random.default_rng(seed).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, D=2, B=64)
        with pytest.MonkeyPatch.context() as mp:
            self._three(cfg, data, "seq", mp)

    def test_par_engine_under_faults(self, monkeypatch):
        n = 1 << 11
        data = np.random.default_rng(3).integers(0, 2**50, n)
        cfg = MachineConfig(N=n, v=4, p=2, D=2, B=64)
        t_ram = self._three(cfg, data, "par", monkeypatch)
        assert any(e["kind"] == "io_fault" for e in t_ram)
