"""The repro-top dashboard over the trace fold, and its event sources."""

from __future__ import annotations

import json
import threading
import time

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.obs.analyze import TraceAnalysis
from repro.obs.bus import EventBus
from repro.obs.live import iter_jsonl
from repro.util.rng import make_rng


def _events():
    return [
        {"seq": 0, "ts": 0.0, "kind": "run_begin", "engine": "par-em",
         "program": "sample-sort", "N": 1 << 14, "v": 8, "p": 2, "D": 2,
         "B": 64, "workers": 2},
        # a kind older traces carry and this version has no view of
        {"seq": 1, "ts": 0.1, "kind": "prefetch", "submitted": 4, "hits": 3,
         "misses": 1},
        {"seq": 2, "ts": 0.2, "kind": "arena_grow", "resident_nbytes": 4096,
         "spill_nbytes": 512},
        {"seq": 3, "ts": 0.3, "kind": "superstep_end", "round": 0,
         "superstep": 4, "parallel_ios": 100, "wall_s": 0.01},
        {"seq": 4, "ts": 0.4, "kind": "model_drift", "round": 0,
         "parallel_ios": 100, "budget": 50.0},
        {"seq": 5, "ts": 0.5, "kind": "superstep_end", "round": 1,
         "superstep": 8, "parallel_ios": 40, "wall_s": 0.02},
        {"seq": 6, "ts": 0.6, "kind": "run_end", "engine": "par-em",
         "parallel_ios": 180},
    ]


class TestTopView:
    """``repro top`` is ``TraceAnalysis.render_top`` over the fold."""

    def test_aggregates_the_run(self):
        view = TraceAnalysis()
        for ev in _events():
            view.feed(ev)
        assert {k: view.machine[k] for k in "NvpDB"} == {
            "N": 1 << 14, "v": 8, "p": 2, "D": 2, "B": 64
        }
        assert len(view.rows) == 2
        assert sum(r.parallel_ios for r in view.rows) == 140
        assert view.total_parallel_ios == 180
        assert view.total_events == 7 and not hasattr(view, "prefetch_hits")
        assert view.arena_resident_peak == 4096 and view.arena_spill_peak == 512
        assert view.drift_count == 1 and view.rows[0].drift and view.finished

    def test_render_surfaces_everything(self):
        view = TraceAnalysis()
        for ev in _events():
            view.feed(ev)
        out = view.render_top()
        assert "sample-sort on par-em (2 workers)" in out
        assert "supersteps: 2" in out and "140 / 180 total" in out
        assert "DRIFT" in out
        assert "prefetch" not in out
        assert "spill peak 512 B" in out
        assert "status: finished" in out

    def test_window_bounds_memory(self):
        """The fold keeps one small row per round (a run has at most
        ``MAX_ROUNDS``); the window bounds what a frame shows."""
        view = TraceAnalysis()
        for r in range(100):
            view.feed({"kind": "superstep_end", "round": r, "superstep": r,
                       "parallel_ios": 1, "wall_s": 0.0})
        frame = [line.split() for line in view.render_top(window=3).splitlines()]
        assert [int(w[0]) for w in frame if w and w[0].isdigit()] == [97, 98, 99]
        assert "supersteps: 100   parallel I/Os: 100" in view.render_top(window=3)
        assert "round" not in view.render_top(window=0)

    def test_running_status_before_run_end(self):
        view = TraceAnalysis()
        view.feed({"kind": "run_begin", "engine": "seq-em"})
        assert "status: running" in view.render_top()

    def test_real_engine_feed(self):
        bus = EventBus()
        data = make_rng(0).integers(0, 2**50, 1 << 13)
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        res = em_sort(data, cfg, engine="par", tracer=bus)
        view = TraceAnalysis()
        for ev in bus.events:
            view.feed(ev)
        assert view.finished
        assert view.total_parallel_ios == res.report.io.parallel_ios
        assert sum(r.parallel_ios for r in view.rows) == sum(
            e["parallel_ios"] for e in bus.events if e["kind"] == "superstep_end"
        )


class TestIterJsonl:
    def test_reads_whole_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("".join(json.dumps(e) + "\n" for e in _events()))
        got = list(iter_jsonl(str(p)))
        assert [e["kind"] for e in got] == [e["kind"] for e in _events()]

    def test_keeps_a_final_unterminated_line(self, tmp_path):
        """Without ``follow`` nothing more will arrive: a last line with no
        newline is the last event, not a partial one to wait for."""
        p = tmp_path / "cut.jsonl"
        first, last = _events()[0], _events()[-1]
        p.write_text(json.dumps(first) + "\n" + json.dumps(last))
        assert [e["kind"] for e in iter_jsonl(str(p))] == ["run_begin", "run_end"]

    def test_follow_tails_a_live_writer_and_stops_at_run_end(self, tmp_path):
        p = tmp_path / "live.jsonl"
        p.write_text("")
        evs = _events()

        def writer():
            with open(p, "a", encoding="utf-8") as fh:
                for ev in evs:
                    fh.write(json.dumps(ev) + "\n")
                    fh.flush()
                    time.sleep(0.02)

        t = threading.Thread(target=writer)
        t.start()
        got = list(iter_jsonl(str(p), follow=True, poll_s=0.01))
        t.join()
        assert [e["seq"] for e in got] == [e["seq"] for e in evs]

    def test_follow_idle_timeout(self, tmp_path):
        p = tmp_path / "stalled.jsonl"
        p.write_text(json.dumps(_events()[0]) + "\n")
        t0 = time.monotonic()
        got = list(
            iter_jsonl(str(p), follow=True, poll_s=0.01, idle_timeout_s=0.2)
        )
        assert len(got) == 1
        assert time.monotonic() - t0 < 5.0

    def test_partial_trailing_line_not_dropped(self, tmp_path):
        p = tmp_path / "partial.jsonl"
        full = json.dumps(_events()[0])
        p.write_text(full + "\n" + '{"seq": 1, "kind"')  # writer mid-flush
        got = []

        def reader():
            got.extend(
                iter_jsonl(str(p), follow=True, poll_s=0.01, idle_timeout_s=2.0)
            )

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.1)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(': "run_end"}\n')
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert [e["seq"] for e in got] == [0, 1]
        assert got[1]["kind"] == "run_end"


class TestMultiRunTraces:
    """One ``biconnected_components`` call makes ten engine runs, each with
    its own ``run_begin``/``run_end``; every reader keeps all of them."""

    RUNS = 10

    @staticmethod
    def _call(**options):
        import numpy as np

        from repro.algorithms.graphs import biconnected_components

        n = 40
        ring = [(i, (i + 1) % n) for i in range(n)]
        chords = [(i, (i * 7 + 3) % n) for i in range(0, n, 3)]
        edges = np.array(sorted({tuple(sorted(e)) for e in ring + chords if e[0] != e[1]}))
        cfg = MachineConfig(N=n, v=4, D=2, B=16)
        return biconnected_components(edges, n, cfg, engine="seq", **options)

    def test_top_shows_every_run(self, tmp_path, capsys):
        """``top`` used to stop at the first ``run_end``: one run of ten."""
        from repro.cli import main

        path = str(tmp_path / "bcc.jsonl")
        bus = EventBus(sink=path, monitor=False)
        assert len(self._call(tracer=bus).reports) == self.RUNS
        bus.close()
        events = list(iter_jsonl(path))
        assert main(["top", path, "--once"]) == 0
        assert f"events: {len(events)}" in capsys.readouterr().out

    def test_a_repro_trace_path_keeps_every_run(self, tmp_path, monkeypatch):
        """Each run's ``make_engine`` used to reopen the path for writing,
        leaving only the last run in the file."""
        path = tmp_path / "bcc.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        self._call()
        kinds = [ev["kind"] for ev in iter_jsonl(str(path))]
        assert kinds.count("run_begin") == kinds.count("run_end") == self.RUNS
