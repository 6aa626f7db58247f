"""The in-stream drift check: the bus's own ``TraceAnalysis`` prices each
round from the run header and raises ``model_drift`` the moment a round
closes over budget — synthetic drift, and live drift during a real run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.obs.analyze import TraceAnalysis
from repro.obs.bus import EventBus
from repro.obs.costcheck import DEFAULT_ENVELOPE, theorem3_predicted_ios
from repro.util.rng import make_rng

_HEADER = dict(
    engine="seq-em", program="x", N=1 << 14, v=8, p=1, D=2, B=64, M=None,
    workers=0, balanced=False,
)


def _priced(header, envelope_c=DEFAULT_ENVELOPE):
    """The row one round of the run *header* opens closes into."""
    view = TraceAnalysis(envelope_c=envelope_c)
    view.feed({"kind": "run_begin", **header})
    view.feed({"kind": "superstep_end", "round": 0, "superstep": 1,
               "parallel_ios": 1})
    return view.rows[-1]


class TestBudgetConfiguration:
    def test_budget_from_run_header(self):
        row = _priced(_HEADER)
        cfg = MachineConfig(N=1 << 14, v=8, p=1, D=2, B=64)
        want = theorem3_predicted_ios(cfg, 1, False)
        assert row.predicted_ios == pytest.approx(want)
        assert row.io_hi == pytest.approx(want * DEFAULT_ENVELOPE)

    def test_p_scales_the_budget(self):
        row = _priced({**_HEADER, "engine": "par-em", "p": 2})
        cfg = MachineConfig(N=1 << 14, v=8, p=2, D=2, B=64)
        assert row.predicted_ios == pytest.approx(
            theorem3_predicted_ios(cfg, 1, False) * 2
        )

    def test_custom_envelope(self):
        row = _priced(_HEADER, envelope_c=2.0)
        assert row.io_hi == pytest.approx(row.predicted_ios * 2.0)

    @pytest.mark.parametrize("engine", ["memory", "vm", "weird"])
    def test_non_em_engines_disarm(self, engine):
        bus = EventBus()
        bus.emit("run_begin", **{**_HEADER, "engine": engine})
        bus.emit("superstep_end", round=0, superstep=1, parallel_ios=10**9)
        assert bus.monitor.rows[-1].predicted_ios is None
        assert bus.monitor.drift_count == 0
        assert all(e["kind"] != "model_drift" for e in bus.events)

    def test_malformed_header_disarms(self):
        row = _priced({"engine": "seq-em", "N": "big"})
        assert row.predicted_ios is None and row.io_hi is None


class TestSyntheticDrift:
    def _armed(self, envelope_c=None):
        bus = EventBus(envelope_c=envelope_c)
        bus.emit("run_begin", **_HEADER)
        cfg = MachineConfig(N=1 << 14, v=8, p=1, D=2, B=64)
        c = DEFAULT_ENVELOPE if envelope_c is None else envelope_c
        return bus, theorem3_predicted_ios(cfg, 1, False) * c

    def test_within_budget_stays_silent(self):
        bus, _ = self._armed()
        bus.emit("superstep_end", round=0, superstep=1, parallel_ios=1)
        assert len(bus.monitor.rows) == 1 and bus.monitor.drift_count == 0
        assert all(e["kind"] != "model_drift" for e in bus.events)

    def test_over_budget_emits_model_drift_immediately(self):
        bus, budget = self._armed()
        heavy = int(budget) + 1
        bus.emit("superstep_end", round=3, superstep=12, parallel_ios=heavy)
        bus.emit("run_end", engine="seq-em")
        kinds = [e["kind"] for e in bus.events]
        # the drift event lands right after its superstep, before run_end
        assert kinds.index("model_drift") == kinds.index("superstep_end") + 1
        drift = next(e for e in bus.events if e["kind"] == "model_drift")
        assert drift["round"] == 3 and drift["superstep"] == 12
        assert drift["parallel_ios"] == heavy
        assert drift["budget"] == pytest.approx(budget)
        assert drift["envelope_c"] == DEFAULT_ENVELOPE
        # the monitor folded its own event back onto the row it judged
        assert bus.monitor.drift_count == 1 and bus.monitor.rows[-1].drift

    def test_drift_visible_to_subscribers_before_run_end(self):
        bus, budget = self._armed()
        sub = bus.subscribe(kinds={"model_drift", "run_end"})
        bus.emit("superstep_end", round=0, superstep=4,
                 parallel_ios=int(budget) + 1)
        bus.emit("run_end", engine="seq-em")
        assert [e["kind"] for e in sub.take(0)] == ["model_drift", "run_end"]

    def test_every_heavy_superstep_drifts(self):
        bus, budget = self._armed(envelope_c=1.0)
        heavy = int(budget) + 1
        for r in range(3):
            bus.emit("superstep_end", round=r, superstep=4 * (r + 1),
                     parallel_ios=heavy)
        assert bus.monitor.drift_count == 3
        assert sum(e["kind"] == "model_drift" for e in bus.events) == 3


class TestLiveRuns:
    def test_default_bus_attaches_monitor_and_real_run_conforms(self):
        bus = EventBus()
        assert isinstance(bus.monitor, TraceAnalysis)
        data = make_rng(0).integers(0, 2**50, 1 << 13)
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        em_sort(data, cfg, engine="par", tracer=bus)
        assert len(bus.monitor.rows) > 0
        # a healthy sort stays inside the Theorem 3 envelope
        assert bus.monitor.drift_count == 0 and bus.monitor.ok
        assert all(e["kind"] != "model_drift" for e in bus.events)

    def test_injected_heavy_superstep_drifts_before_run_end(self):
        """Acceptance: squeeze the envelope so a real superstep exceeds its
        budget; model_drift must appear in-stream before run_end."""
        bus = EventBus(envelope_c=0.01)
        data = make_rng(1).integers(0, 2**50, 1 << 13)
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        res = em_sort(data, cfg, engine="par", tracer=bus)
        assert np.array_equal(res.values, np.sort(data))
        kinds = [e["kind"] for e in bus.events]
        assert "model_drift" in kinds
        assert kinds.index("model_drift") < kinds.index("run_end")
        drift = next(e for e in bus.events if e["kind"] == "model_drift")
        ss = next(
            e for e in bus.events
            if e["kind"] == "superstep_end" and e["round"] == drift["round"]
        )
        assert drift["parallel_ios"] == ss["parallel_ios"]

    def test_drift_is_deterministic_across_backends(self):
        data = make_rng(2).integers(0, 2**50, 1 << 12)
        cfg = MachineConfig(N=1 << 12, v=4, p=2, D=2, B=64)
        drifts = []
        for workers in (0, 2):
            bus = EventBus(envelope_c=0.01)
            em_sort(data, cfg, engine="par", tracer=bus,
                    overrides={"workers": workers})
            drifts.append([
                (e["round"], e["parallel_ios"])
                for e in bus.events
                if e["kind"] == "model_drift"
            ])
        assert drifts[0] and drifts[0] == drifts[1]
