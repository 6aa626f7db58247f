"""The event recorder, its exporters, and the engines' event emission."""

from __future__ import annotations

import io
import json

import numpy as np

from repro.cgm.config import MachineConfig
from repro.em.runner import em_run, em_sort
from repro.obs.bus import NULL_RECORDER, EventBus, NullRecorder
from repro.obs.chrome import to_chrome_events
from repro.obs.live import iter_jsonl


def _traced_sort(cfg=None, **kw):
    cfg = cfg or MachineConfig(N=1 << 12, v=4, D=2, B=64)
    data = np.random.default_rng(5).integers(0, 2**50, cfg.N)
    tr = EventBus(monitor=False)
    out = em_sort(data, cfg, tracer=tr, **kw)
    return tr, out


class TestRecorderSemantics:
    def test_null_recorder_is_disabled_and_silent(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.emit("anything", x=1)  # no-op, no error

    def test_jsonl_recorder_orders_events(self):
        tr = EventBus(monitor=False)
        tr.emit("a", x=1)
        tr.emit("b", y=None)
        assert [e["seq"] for e in tr.events] == [0, 1]
        assert tr.events[0]["ts"] <= tr.events[1]["ts"]
        assert tr.counts() == {"a": 1, "b": 1}

    def test_numpy_tags_serialize(self, tmp_path):
        tr = EventBus(monitor=False)
        tr.emit("k", n=np.int64(7), f=np.float64(0.5))
        p = tmp_path / "t.jsonl"
        assert tr.write_jsonl(str(p)) == 1
        (ev,) = iter_jsonl(str(p))
        assert ev["n"] == 7 and ev["f"] == 0.5


class TestEngineEmission:
    EXPECTED_KINDS = {
        "run_begin",
        "superstep_begin",
        "compute_round",
        "context_read",
        "context_write",
        "message_write",
        "message_read",
        "superstep_end",
        "run_end",
    }

    def test_seq_sort_emits_every_kind(self):
        tr, _ = _traced_sort()
        kinds = set(tr.counts())
        assert self.EXPECTED_KINDS <= kinds
        # single real processor: nothing crosses the network
        assert "network_transfer" not in kinds

    def test_events_tagged_with_processor_and_superstep(self):
        tr, out = _traced_sort()
        begin = [e for e in tr.events if e["kind"] == "superstep_begin"]
        end = [e for e in tr.events if e["kind"] == "superstep_end"]
        assert len(begin) == len(end) == out.report.supersteps
        assert [e["superstep"] for e in begin] == list(range(len(begin)))
        computes = [e for e in tr.events if e["kind"] == "compute_round"]
        assert {e["pid"] for e in computes} == set(range(4))
        assert all(e["real"] == 0 for e in computes)

    def test_superstep_end_io_deltas_match_per_round_metrics(self):
        """Each superstep_end carries the same I/O delta the cost report
        records for that round (setup/teardown I/O — initial context stores,
        final output loads — happens outside any superstep, so the deltas
        sum to less than the run total)."""
        tr, out = _traced_sort()
        ends = [e for e in tr.events if e["kind"] == "superstep_end"]
        per_round = [rm.io.parallel_ios for rm in out.report.per_round if rm.io]
        assert [e["parallel_ios"] for e in ends] == per_round
        assert 0 < sum(per_round) <= out.report.io.parallel_ios

    def test_layout_tags(self):
        tr, _ = _traced_sort()
        ctx_layouts = {
            e["layout"] for e in tr.events if e["kind"].startswith("context_")
        }
        assert ctx_layouts == {"consecutive"}
        msg_layouts = {
            e["layout"] for e in tr.events if e["kind"] == "message_write"
        }
        assert "staggered" in msg_layouts

    def test_message_writes_alternate_parity(self):
        tr, _ = _traced_sort()
        by_round: dict[int, set[int]] = {}
        for e in tr.events:
            if e["kind"] == "superstep_begin":
                current = e["round"]
            elif e["kind"] == "message_write" and e.get("layout") == "staggered":
                by_round.setdefault(current, set()).add(e["parity"])
        parities = [p for r, ps in sorted(by_round.items()) for p in sorted(ps)]
        assert all(p in (0, 1) for p in parities)
        assert len(set(parities)) == 2  # both copies of the matrix used

    def test_vm_engine_uses_paged_layout(self):
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        data = np.random.default_rng(5).integers(0, 2**50, cfg.N)
        tr = EventBus(monitor=False)
        em_sort(data, cfg, engine="vm", tracer=tr)
        layouts = {e.get("layout") for e in tr.events if "layout" in e}
        assert layouts == {"paged"}

    def test_par_engine_emits_network_transfers(self):
        cfg = MachineConfig(N=1 << 12, v=4, p=2, D=2, B=64)
        data = np.random.default_rng(5).integers(0, 2**50, cfg.N)
        tr = EventBus(monitor=False)
        out = em_sort(data, cfg, engine="par", tracer=tr)
        net = [e for e in tr.events if e["kind"] == "network_transfer"]
        assert net, "p=2 sort sent no cross-processor messages?"
        assert all(e["src_real"] != e["dest_real"] for e in net)
        assert sum(e["items"] for e in net) == out.report.cross_items

    def test_memory_engine_traces_without_io_events(self):
        from repro.algorithms.collectives import PrefixSum

        cfg = MachineConfig(N=4, v=4)
        tr = EventBus(monitor=False)
        em_run(PrefixSum(), [1.0, 2.0, 3.0, 4.0], cfg, engine="memory", tracer=tr)
        kinds = set(tr.counts())
        assert {"run_begin", "superstep_begin", "compute_round", "run_end"} <= kinds
        assert not kinds & {"context_read", "context_write", "message_write"}


class TestDisabledPathIsInert:
    def test_emit_never_called_when_disabled(self):
        class Exploding(NullRecorder):
            def emit(self, kind, **tags):  # pragma: no cover - must not run
                raise AssertionError("guarded call site invoked a disabled recorder")

        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        data = np.random.default_rng(5).integers(0, 2**50, cfg.N)
        for kind in ("memory", "vm", "seq"):
            out = em_sort(data, cfg, engine=kind, tracer=Exploding())
            assert np.array_equal(out.values, np.sort(data))

    def test_traced_and_untraced_runs_identical(self):
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        data = np.random.default_rng(5).integers(0, 2**50, cfg.N)
        plain = em_sort(data, cfg)
        traced = em_sort(data, cfg, tracer=EventBus(monitor=False))
        assert np.array_equal(plain.values, traced.values)
        assert plain.report.io.parallel_ios == traced.report.io.parallel_ios
        assert plain.report.supersteps == traced.report.supersteps


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        tr, _ = _traced_sort()
        p = tmp_path / "trace.jsonl"
        n = tr.write_jsonl(str(p))
        loaded = list(iter_jsonl(str(p)))
        assert len(loaded) == n == len(tr.events)
        assert loaded[0]["kind"] == "run_begin"
        assert loaded[-1]["kind"] == "run_end"

    def test_chrome_export_is_valid_json_array(self, tmp_path):
        tr, _ = _traced_sort()
        p = tmp_path / "trace.json"
        n = tr.write_chrome(str(p))
        with open(p, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert isinstance(doc, list) and len(doc) == n
        phases = {e["ph"] for e in doc}
        assert {"B", "E", "X", "i"} <= phases
        for e in doc:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)

    def test_chrome_begin_end_pairs_balance(self):
        tr, out = _traced_sort()
        chrome = to_chrome_events(tr.events)
        b = sum(1 for e in chrome if e["ph"] == "B")
        e_ = sum(1 for e in chrome if e["ph"] == "E")
        assert b == e_ == out.report.supersteps

    def test_chrome_drops_unknown_kinds(self):
        tr = EventBus(monitor=False)
        tr.emit("mystery_kind", x=1)
        assert to_chrome_events(tr.events) == []

    def test_write_to_file_object(self):
        tr, _ = _traced_sort()
        buf = io.StringIO()
        tr.write_chrome(buf)
        json.loads(buf.getvalue())  # parses
        buf2 = io.StringIO()
        tr.write_jsonl(buf2)
        lines = [ln for ln in buf2.getvalue().splitlines() if ln]
        assert len(lines) == len(tr.events)
