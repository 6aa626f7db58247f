"""Self-tests of the benchmark harness.

Run explicitly (tier-1's ``testpaths`` does not collect this file):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

import harness as hz
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = hz.benchmark_spec()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


class FakeClock:
    """Returns the scripted times one by one."""

    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


# ------------------------------------------------------------ arithmetic


def test_self_time_of_nested_spans():
    #  op      0 ............................ 10
    #    em      1 ..................... 9
    #      pdm     2 .... 4   pdm 5 ... 8
    #                           pdm(nested) 6 . 7
    tr = hz.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 7, 8, 9, 10))
    op = tr.begin("op")
    em = tr.begin("em")
    tr.finish(tr.begin("pdm"))
    outer = tr.begin("pdm")
    tr.finish(tr.begin("pdm"))
    tr.finish(outer)
    tr.finish(em)
    tr.finish(op)

    assert op.duration == 10 and op.self_s == 2
    assert em.duration == 8 and em.self_s == 3
    assert outer.duration == 3 and outer.self_s == 2
    st = hz.self_times(tr.spans)
    assert st == {"op": 2, "em": 3, "pdm": 5}
    assert sum(st.values()) == op.duration  # self times account for the wall
    # three pdm spans, but only two calls entered the layer from outside
    assert hz.entry_calls(tr.spans, "pdm") == 2
    assert [s.parent.name if s.parent else None for s in tr.spans] == [
        None, "op", "em", "em", "pdm",
    ]


def test_span_survives_exception_and_keeps_nesting():
    tr = hz.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5))

    def boom():
        raise ValueError("x")

    traced = tr.wrap(boom, "inner")
    root = tr.begin("op")
    with pytest.raises(ValueError):
        traced()
    after = tr.begin("next")
    tr.finish(after)
    tr.finish(root)
    assert after.parent is root  # the failed span was popped
    assert tr.spans[1].duration == 1
    assert tr.spans[1].raised and not after.raised


def test_layer_table_sums_only_the_blocking_path():
    import layers

    #  pdm (prefetch thread: a root of its own)  0 .. 5
    #  op    10 ............................ 20
    #    em    11 ..................... 19
    #      pdm   12 .... 15
    tr = hz.Tracer(clock=FakeClock(0, 5, 10, 11, 12, 15, 19, 20))
    tr.finish(tr.begin("pdm"))
    op = tr.begin("op")
    em = tr.begin("em")
    tr.finish(tr.begin("pdm"))
    tr.finish(em)
    tr.finish(op)
    table = layers.layer_table(tr.spans, op.duration)
    assert table["pdm.self_s"] == 3 and table["pdm.calls"] == 1
    assert table["em.self_s"] == 5
    assert table["trace.residual_rel"] == pytest.approx(0.2)  # op's own 2 of 10


def test_tail_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    pct, value = hz.tail(values)
    assert pct == 95.0 and value == 190.0
    assert sum(v > value for v in values) == 10
    pct, value = hz.tail([float(i) for i in range(1, 57)])  # 56 ops
    assert value == 46.0 and round(pct, 1) == 82.1
    # too few samples for any tail: fall back to the median
    assert hz.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    assert hz.tail([float(i) for i in range(20)])[0] == 50.0


def test_calibrated_time_formula():
    assert hz.CALIB_NOMINAL_S == 0.020
    # host exactly nominal: calibrated == raw
    assert hz.calibration_factor(0.020, 0.020) == pytest.approx(1.0)
    # host twice as slow before and after: an op's time halves
    assert hz.calibration_factor(0.040, 0.040) == pytest.approx(0.5)
    # the bracket is the mean of the two kernel times
    assert hz.calibration_factor(0.010, 0.030) == pytest.approx(1.0)
    factor = hz.calibration_factor(0.05, 0.03)
    sample = hz.Sample(wall=2.0, stolen=0.0, cpu=1.0, factor=factor)
    assert sample.wall_cal == pytest.approx(1.0)
    assert sample.cpu_cal == pytest.approx(0.5)
    # stolen seconds come off the wall first, but never more than half of it
    assert hz.Sample(2.0, 0.5, 1.0, factor).wall_cal == pytest.approx(0.75)
    assert hz.Sample(2.0, 1.5, 1.0, factor).wall_cal == pytest.approx(0.5)
    # steal is summed over vCPUs: with two of them busy the op lost half of it
    assert hz.Sample(2.0, 1.0, 3.0, factor).wall_cal == pytest.approx(0.75)


def test_calibration_kernel_is_frozen():
    a, b = hz.Calibrator(), hz.Calibrator()
    assert a.checksum == b.checksum and len(a.checksum) == 64
    parts = a.run()
    assert len(parts) == 3 and min(parts) > 0
    assert a.samples == [pytest.approx(sum(parts), rel=0.01)]


def test_kernel_mix_weighs_the_parts():
    parts = (0.004, 0.008, 0.012)
    assert hz.mixed(parts, hz.EQUAL_MIX) == pytest.approx(sum(parts))
    assert hz.mixed(parts, (1.0, 0.0, 0.0)) == pytest.approx(0.012)  # 3 x bulk
    assert hz.mixed(parts, (3.0, 1.0, 1.0)) == pytest.approx(3 * 0.032 / 5)
    # on the nominal host (parts alike) every mix reads the nominal time
    nominal = (hz.CALIB_NOMINAL_S / 3,) * 3
    for mix in (hz.EQUAL_MIX, (3.0, 1.0, 1.0), (1.0, 3.0, 3.0)):
        assert hz.mixed(nominal, mix) == pytest.approx(hz.CALIB_NOMINAL_S)


def test_iqr_rel_matches_the_driver_definition():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert hz.iqr_rel(values) == pytest.approx((q3 - q1) / statistics.median(values))


# ------------------------------------------------------------- patching


def test_wrappers_restore_original_attributes():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    def helper():
        return "helper"

    mod_a = types.ModuleType("e2e_fake_a")
    mod_b = types.ModuleType("e2e_fake_b")
    mod_a.helper = mod_b.renamed = helper
    sys.modules.update({"e2e_fake_a": mod_a, "e2e_fake_b": mod_b})
    try:
        tr = hz.Tracer()
        tr.add(Base, "run", "base")
        tr.add(Child, "run", "child")       # inherited: not in Child's dict
        tr.add_function(helper, "helper")   # bound under two names
        original = Base.__dict__["run"]

        with tr:
            assert Base.__dict__["run"] is not original
            assert "run" in Child.__dict__
            assert mod_a.helper is not helper and mod_b.renamed is not helper
            assert Child().run() == "base" and mod_b.renamed() == "helper"
        assert [s.name for s in tr.spans] == ["child", "helper"]

        assert Base.__dict__["run"] is original
        assert "run" not in Child.__dict__  # deleted again, not copied down
        assert mod_a.helper is helper and mod_b.renamed is helper
        tr.uninstall()  # idempotent
        assert Base.__dict__["run"] is original
    finally:
        del sys.modules["e2e_fake_a"], sys.modules["e2e_fake_b"]


def test_layer_tracer_leaves_the_program_untouched():
    import layers
    from repro.cgm.engine import Engine
    from repro.core.workers import ProcessParEngine
    from repro.em import runner
    from repro.pdm.disk_array import DiskArray

    before = {
        "run": Engine.__dict__["run"],
        "read_run": DiskArray.__dict__["read_run"],
        "em_sort": runner.em_sort,
        "make_engine": runner.make_engine,
    }
    tr = layers.build_tracer()
    with tr:
        assert Engine.__dict__["run"] is not before["run"]
        assert runner.em_sort is not before["em_sort"]
    assert Engine.__dict__["run"] is before["run"]
    assert DiskArray.__dict__["read_run"] is before["read_run"]
    assert runner.em_sort is before["em_sort"]
    assert runner.make_engine is before["make_engine"]
    assert ProcessParEngine.__dict__["run"].__qualname__ == "ProcessParEngine.run"


# ----------------------------------------------------------------- smoke


def _run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def test_smoke_runs_green_and_fast():
    t0 = time.perf_counter()
    for name in WORKLOADS:
        code, doc = _run("--workload", name, "--smoke")
        assert code == 0, name
        assert doc["correct"] is True and doc["failed"] == 0, name
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert {k: m["unit"] for k, m in doc["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCH["end_to_end"]
        }
        assert all(m["value"] > 0 for m in doc["metrics"].values()), name
    assert time.perf_counter() - t0 < 30


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_reports_every_layer_metric(name):
    code, doc = _run("--workload", name, "--smoke", "--trace", "1")
    assert code == 0 and doc["correct"] is True
    assert [(k, m["unit"]) for k, m in doc["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCH["per_layer"]
    ]
    metrics = {k: m["value"] for k, m in doc["metrics"].items()}
    assert metrics["trace.overhead_rel"] > 0
    if name != "service_mix":  # in-process: the spans must cover the op
        assert metrics["trace.residual_rel"] <= 0.10


def test_every_declared_workload_is_implemented():
    from workloads import WORKLOADS as registry

    assert list(registry) == WORKLOADS
