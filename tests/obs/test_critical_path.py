"""The cross-worker critical-path profiler: per-superstep attribution,
per-worker lanes, straggler detection, and the IOStats tie-out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.obs.analyze import analyze_events
from repro.obs.bus import EventBus
from repro.util.rng import make_rng


def _traced_sort(cfg: MachineConfig, seed: int = 0, workers: int | None = None):
    data = make_rng(seed).integers(0, 2**50, cfg.N)
    bus = EventBus()
    res = em_sort(data, cfg, engine="par" if cfg.p > 1 else "seq", tracer=bus,
                  overrides={"workers": workers})
    assert np.array_equal(res.values, np.sort(data))
    return bus, res


class TestWorkerLanes:
    """Acceptance scenario: fig5 group-A shape under ProcessParEngine."""

    CFG = MachineConfig(N=1 << 14, v=8, p=2, D=2, B=64)

    def test_per_worker_lanes_and_bit_identical_totals(self):
        bus, res = _traced_sort(self.CFG, workers=2)
        a = analyze_events(bus.events)
        cp = a.critical_path()
        # one lane per real processor, each labeled with its OS worker
        assert set(cp["lanes"]) == {"r0/w0", "r1/w1"}
        for row in cp["rows"]:
            assert set(row["lanes"]) == {"r0/w0", "r1/w1"}
            assert row["critical_lane"] in ("r0/w0", "r1/w1")
            assert row["straggler"] >= 1.0
            assert row["wall_s"] > 0.0
        # totals tie out bit-identically to the run's IOStats counters
        t = cp["totals"]
        assert t["run_parallel_ios"] == res.report.io.parallel_ios
        assert (
            t["superstep_parallel_ios"] + t["setup_parallel_ios"]
            == res.report.io.parallel_ios
        )
        assert t["superstep_parallel_ios"] == sum(
            e["parallel_ios"] for e in bus.events if e["kind"] == "superstep_end"
        )

    def test_attribution_columns_present_per_superstep(self):
        bus, res = _traced_sort(self.CFG, seed=1, workers=2)
        a = analyze_events(bus.events)
        cp = a.critical_path()
        assert len(cp["rows"]) == len(a.rows) > 0
        for row in cp["rows"]:
            for key in ("comp_s", "io_s", "comm_s", "wall_s", "parallel_ios"):
                assert row[key] >= 0
        # io attribution covers real block traffic
        assert any(row["io_s"] > 0 for row in cp["rows"])
        assert any(row["comm_s"] > 0 for row in cp["rows"])

    def test_render_mentions_lanes_and_tieout(self):
        bus, res = _traced_sort(self.CFG, seed=2, workers=2)
        a = analyze_events(bus.events)
        out = a.render_critical_path()
        assert "r0/w0" in out and "r1/w1" in out
        assert f"= {res.report.io.parallel_ios} (IOStats run total)" in out
        assert "top-" in out and "slowest rounds" in out


class TestSingleProcessLanes:
    @pytest.fixture(autouse=True)
    def _single_process(self, monkeypatch):
        """These pin the in-process backend; the REPRO_WORKERS env lane
        would otherwise force OS workers and relabel the lanes."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def test_inprocess_par_lanes_have_no_worker_suffix(self):
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        bus, _ = _traced_sort(cfg)
        cp = analyze_events(bus.events).critical_path()
        assert set(cp["lanes"]) == {"r0", "r1"}

    def test_seq_engine_single_lane(self):
        cfg = MachineConfig(N=1 << 13, v=8, p=1, D=2, B=64)
        bus, _ = _traced_sort(cfg)
        cp = analyze_events(bus.events).critical_path()
        assert set(cp["lanes"]) == {"r0"}

    def test_counters_match_across_backends(self):
        """The profiler input is deterministic: same attribution counters
        whether workers ran in-process or as OS processes."""
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        rows = []
        for workers in (0, 2):
            bus, _ = _traced_sort(cfg, seed=3, workers=workers)
            cp = analyze_events(bus.events).critical_path()
            rows.append(
                [
                    (r["round"], r["parallel_ios"])
                    for r in cp["rows"]
                ]
            )
        assert rows[0] == rows[1]


class TestTopK:
    def test_top_k_limits_slowest_list(self):
        cfg = MachineConfig(N=1 << 14, v=8, p=2, D=2, B=64)
        bus, _ = _traced_sort(cfg, seed=4)
        a = analyze_events(bus.events)
        assert len(a.critical_path(top=2)["slowest"]) == 2
        assert len(a.critical_path(top=0)["slowest"]) == 0
        full = a.critical_path(top=100)["slowest"]
        assert len(full) == len(a.rows)
        walls = {r["round"]: r["wall_s"] for r in a.critical_path()["rows"]}
        assert walls[full[0]] == max(walls.values())

    def test_drift_rows_flagged(self):
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        data = make_rng(5).integers(0, 2**50, cfg.N)
        bus = EventBus(envelope_c=0.01)  # squeeze so every round drifts
        em_sort(data, cfg, engine="par", tracer=bus)
        a = analyze_events(bus.events)
        cp = a.critical_path()
        assert cp["drift_count"] > 0
        assert any(r["drift"] for r in cp["rows"])
        assert "DRIFT" in a.render_critical_path()
