"""Per-superstep trace analysis against the Theorem 2/3 envelopes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.obs.analyze import analyze_events, analyze_file
from repro.obs.bus import EventBus
from repro.obs.costcheck import superstep_io_budget
from tests.obs.test_fold_goldens import biconnected_trace


def _traced_sort(p=1, **kw):
    cfg = MachineConfig(N=1 << 12, v=4, p=p, D=2, B=64)
    data = np.random.default_rng(11).integers(0, 2**50, cfg.N)
    tr = EventBus(monitor=False)
    res = em_sort(data, cfg, engine="par" if p > 1 else "seq", tracer=tr, **kw)
    return tr, res, cfg


class TestAggregation:
    def test_one_row_per_cgm_round_with_io_split(self):
        tr, res, cfg = _traced_sort()
        out = analyze_events(tr.events)
        assert out.engine == "seq-em"
        assert out.program == "sample-sort"
        assert out.machine["N"] == cfg.N and out.machine["p"] == 1
        assert len(out.rows) == res.report.rounds
        # per-round counts exclude the setup/finalize context I/O issued
        # outside superstep groups: positive and bounded by the run totals
        assert 0 < sum(r.parallel_ios for r in out.rows) <= res.report.io.parallel_ios
        assert 0 < sum(r.ctx_blocks for r in out.rows) <= res.report.context_blocks_io
        assert 0 < sum(r.msg_blocks for r in out.rows) <= res.report.message_blocks_io
        assert out.setup_events > 0
        # width distribution came through superstep_end
        assert all(r.width_hist for r in out.rows)
        assert all(0 < r.mean_width <= cfg.D for r in out.rows)

    def test_within_theorem_envelope(self):
        tr, _, _ = _traced_sort()
        out = analyze_events(tr.events)
        assert all(r.predicted_ios is not None for r in out.rows)
        assert all(r.io_ok for r in out.rows)
        assert out.ok and out.violations() == []

    def test_envelope_scales_with_p(self):
        tr, res, cfg = _traced_sort(p=2)
        out = analyze_events(tr.events)
        assert out.engine == "par-em"
        # one analysis group per CGM round; the superstep column counts the
        # cumulative v/p real supersteps of Lemma 4's blow-up
        assert len(out.rows) == res.report.rounds
        assert out.rows[-1].superstep == res.report.supersteps
        assert out.ok

    def test_violation_flagged_when_envelope_tight(self):
        tr, _, _ = _traced_sort()
        out = analyze_events(tr.events, envelope_c=1.0001)
        assert not out.ok
        assert len(out.violations()) >= 1
        assert "VIOLATED" in out.render()

    def test_compute_and_critical_path(self):
        tr, _, _ = _traced_sort(p=2)
        out = analyze_events(tr.events)
        for r in out.rows:
            assert r.compute_sum_s >= r.compute_s >= 0
            assert r.critical_real in r.per_real_wall or not r.per_real_wall

    def test_network_items_counted_for_par(self):
        tr, res, _ = _traced_sort(p=4)
        out = analyze_events(tr.events)
        assert sum(r.net_items for r in out.rows) == res.report.cross_items


class TestMultiRunTrace:
    def test_each_row_is_held_to_its_own_runs_envelope(self):
        """One ``biconnected_components`` call is ten engine runs on one bus,
        on machines of N = 120 and N = 238.  Every round is priced by the
        ``run_begin`` in force when it closed, and ``analyze`` finds over
        budget exactly the rounds the in-stream check flagged."""
        bus = biconnected_trace(envelope_c=0.01)
        out = analyze_events(bus.events, envelope_c=0.01)
        expected = []
        budget = None
        for ev in bus.events:
            if ev["kind"] == "run_begin":
                budget = superstep_io_budget(ev, bool(ev["balanced"]))
            elif ev["kind"] == "superstep_end":
                expected.append(budget)
        assert len(out.rows) == len(expected) > 200
        assert len(set(expected)) > 1  # the runs' budgets differ ...
        assert [r.predicted_ios for r in out.rows] == expected  # ... and each row
        over = [(r.round, r.superstep) for r in out.rows if r.parallel_ios > r.io_hi]
        drifted = [
            (ev["round"], ev["superstep"])
            for ev in bus.events
            if ev["kind"] == "model_drift"
        ]
        assert over and over == drifted
        assert [r.round for r in out.rows if r.drift] == [r for r, _ in drifted]


class TestRobustness:
    def test_empty_event_list(self):
        out = analyze_events([])
        assert out.rows == [] and out.ok and out.total_events == 0

    def test_end_without_begin_synthesized(self):
        out = analyze_events(
            [{"kind": "superstep_end", "superstep": 1, "round": 0,
              "parallel_ios": 3, "blocks": 5}]
        )
        assert len(out.rows) == 1
        assert out.rows[0].parallel_ios == 3

    def test_unclosed_superstep_dropped_not_crashed(self):
        out = analyze_events([{"kind": "superstep_begin", "superstep": 1, "round": 0}])
        assert out.rows == []

    def test_non_em_engine_skips_envelope(self):
        tr = EventBus(monitor=False)
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        data = np.random.default_rng(1).integers(0, 2**50, cfg.N)
        em_sort(data, cfg, engine="memory", tracer=tr)
        out = analyze_events(tr.events)
        assert not out.is_em
        assert all(r.predicted_ios is None for r in out.rows)
        assert "envelope check skipped" in out.render()

    def test_malformed_machine_header_still_reports(self):
        out = analyze_events(
            [
                {"kind": "run_begin", "engine": "seq-em", "program": "x",
                 "N": "not-an-int", "v": 4, "p": 1, "D": 2, "B": 64},
                {"kind": "superstep_begin", "superstep": 1, "round": 0},
                {"kind": "superstep_end", "superstep": 1, "round": 0,
                 "parallel_ios": 7, "blocks": 7},
            ]
        )
        assert out.rows[0].predicted_ios is None
        assert out.ok  # vacuous without an envelope


class TestExportAndFiles:
    def test_to_dict_json_able(self):
        tr, _, _ = _traced_sort()
        d = analyze_events(tr.events).to_dict()
        round_trip = json.loads(json.dumps(d))
        assert round_trip["ok"] is True
        assert round_trip["supersteps"][0]["io_ok"] is True

    def test_analyze_file_roundtrip(self, tmp_path):
        tr, res, _ = _traced_sort()
        path = tmp_path / "trace.jsonl"
        tr.write_jsonl(str(path))
        out = analyze_file(str(path))
        in_memory = analyze_events(tr.events)
        assert sum(r.parallel_ios for r in out.rows) == sum(
            r.parallel_ios for r in in_memory.rows
        )
        assert 0 < sum(r.parallel_ios for r in out.rows) <= res.report.io.parallel_ios

    def test_older_trace_with_a_retired_kind_loads(self, tmp_path):
        """A jsonl trace written before the ``prefetch`` kind was retired
        loads; the kind is skipped — it reaches neither the report nor,
        worker-tagged as the coordinator replayed it, the real->worker map."""
        path = tmp_path / "old.jsonl"
        events = [
            {"seq": 0, "kind": "superstep_begin", "superstep": 1, "round": 0},
            {"seq": 1, "kind": "prefetch", "submitted": 4, "hits": 3,
             "misses": 1, "worker": 1},
            {"seq": 2, "kind": "superstep_end", "superstep": 1, "round": 0,
             "parallel_ios": 7, "blocks": 7},
        ]
        path.write_text("".join(json.dumps(ev) + "\n" for ev in events))
        out = analyze_file(str(path))
        assert out.total_events == 3 and out.rows[0].parallel_ios == 7
        assert out.real_worker == {}
        assert "prefetch" not in out.to_dict() and "prefetch" not in out.render()

    def test_analyze_file_rejects_chrome_format(self, tmp_path):
        path = tmp_path / "chrome.json"
        path.write_text(json.dumps([{"ph": "B", "ts": 0, "name": "superstep 1"}]))
        with pytest.raises(ValueError, match="chrome-format"):
            analyze_file(str(path))

    def test_analyze_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is { not json\n")
        with pytest.raises(ValueError, match="not a readable"):
            analyze_file(str(path))
