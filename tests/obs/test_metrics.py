"""The metrics registry: series kinds, exporters, and the engine fold."""

from __future__ import annotations

import io
import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.obs.metrics import MetricsRegistry


class TestSeriesKinds:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total").labels(engine="seq-em")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            reg.counter("c_total").labels().inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("g").labels(x=1)
        g.set(10)
        g.set(3)
        assert g.value == 3

    def test_highwater_keeps_max(self):
        hw = MetricsRegistry().highwater("hw").labels()
        hw.update(5)
        hw.update(2)
        hw.update(9)
        assert hw.value == 9

    def test_timer_sum_and_count(self):
        t = MetricsRegistry().timer("t_seconds").labels()
        t.observe(0.25)
        t.observe(0.5)
        assert t.value == pytest.approx(0.75)
        assert t.count == 2
        assert t.as_dict() == {"labels": {}, "sum": 0.75, "count": 2}


class TestRegistry:
    def test_same_labels_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("c").labels(engine="seq-em", p=1)
        b = reg.counter("c").labels(p=1, engine="seq-em")  # order-insensitive
        assert a is b
        a.inc()
        assert b.value == 1

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("c").labels(p=1).inc()
        reg.counter("c").labels(p=2).inc(2)
        values = {tuple(s.labels.items()): s.value for s in reg["c"].series}
        assert values == {(("p", "1"),): 1, (("p", "2"),): 2}

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "9lead", "has-dash", "sp ace"):
            with pytest.raises(ValueError, match="invalid metric name"):
                reg.counter(bad)

    def test_contains_and_metrics_listing(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        assert "a" in reg and "b" in reg and "c" not in reg
        assert [m.name for m in reg.metrics] == ["a", "b"]

    def test_threaded_folds_are_exact(self):
        """More threads than cores, switching every microsecond, all
        creating each family and series on first use at the same time:
        none is created twice and no increment is lost."""
        reg = MetricsRegistry()
        n_threads, families, incs = 4 * (os.cpu_count() or 1), 2000, 6
        gate = threading.Barrier(n_threads)

        def work() -> None:
            gate.wait()
            for f in range(families):
                for i in range(incs):
                    reg.counter(f"c{f}_total").labels(k=i % 3).inc(2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for f in range(families):
            series = reg[f"c{f}_total"].series
            assert len(series) == 3
            assert sum(s.value for s in series) == 2 * incs * n_threads


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("repro_ios_total", "parallel I/Os").labels(
            engine="seq-em", D=2
        ).inc(312)
        reg.timer("repro_compute_seconds").labels(engine="seq-em").observe(0.5)
        return reg

    def test_prometheus_text(self):
        text = self._populated().render_prometheus()
        assert "# HELP repro_ios_total parallel I/Os" in text
        assert "# TYPE repro_ios_total counter" in text
        assert 'repro_ios_total{D="2",engine="seq-em"} 312' in text
        # timers export as summary _sum/_count pairs
        assert "# TYPE repro_compute_seconds summary" in text
        assert 'repro_compute_seconds_sum{engine="seq-em"} 0.5' in text
        assert 'repro_compute_seconds_count{engine="seq-em"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c").labels(name='with "quotes" \\ and\nnewline').inc()
        text = reg.render_prometheus()
        assert '\\"quotes\\"' in text
        assert "\\n" in text and "\n and" not in text

    def test_snapshot_is_json_able(self):
        snap = self._populated().snapshot()
        round_trip = json.loads(json.dumps(snap))
        assert round_trip["repro_ios_total"]["kind"] == "counter"
        assert round_trip["repro_ios_total"]["series"][0]["value"] == 312
        assert round_trip["repro_compute_seconds"]["series"][0]["count"] == 1

    def test_write_json_vs_prometheus(self, tmp_path):
        reg = self._populated()
        jpath = tmp_path / "m.json"
        ppath = tmp_path / "m.prom"
        reg.write(str(jpath))
        reg.write(str(ppath))
        assert json.loads(jpath.read_text())["repro_ios_total"]["kind"] == "counter"
        assert "# TYPE repro_ios_total counter" in ppath.read_text()

    def test_prometheus_prints_counts_exactly(self):
        reg = MetricsRegistry()
        reg.counter("repro_blocks_total").labels().inc(1_234_567)
        reg.counter("repro_parallel_ios_total").labels().inc(1048747)
        t = reg.timer("repro_compute_seconds").labels()
        t.observe(0.1)
        t.observe(1234.000123456789)
        lines = reg.render_prometheus().splitlines()
        assert "repro_blocks_total 1234567" in lines
        assert "repro_parallel_ios_total 1048747" in lines
        assert f"repro_compute_seconds_sum {t.value!r}" in lines
        assert float(lines[-2].split()[-1]) == t.value

    def test_write_file_object(self):
        buf = io.StringIO()
        self._populated().write(buf)
        assert "repro_ios_total" in buf.getvalue()


class TestEngineIntegration:
    def _sort(self, metrics):
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        data = np.random.default_rng(5).integers(0, 2**50, cfg.N)
        return cfg, em_sort(data, cfg, metrics=metrics)

    def test_engine_populates_registry(self):
        reg = MetricsRegistry()
        cfg, res = self._sort(reg)
        series = reg["repro_parallel_ios_total"].series
        assert len(series) == 1
        s = series[0]
        # per-round counter: excludes the setup/finalize context I/O that
        # happens outside superstep groups, so bounded by the run total
        assert 0 < s.value <= res.report.io.parallel_ios
        assert s.labels["engine"] == "seq-em"
        assert s.labels["algorithm"] == "sample-sort"
        assert s.labels == {
            "engine": "seq-em",
            "algorithm": "sample-sort",
            "v": "4",
            "p": "1",
            "D": "2",
            "B": "64",
        }
        assert reg["repro_runs_total"].series[0].value == 1
        assert reg["repro_supersteps"].series[0].value == res.report.supersteps
        assert (
            reg["repro_context_blocks_total"].series[0].value
            == res.report.context_blocks_io
        )

    def test_registry_accumulates_across_runs(self):
        reg = MetricsRegistry()
        self._sort(reg)
        self._sort(reg)
        assert reg["repro_runs_total"].series[0].value == 2
