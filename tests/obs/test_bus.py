"""The telemetry bus: span threading, subscriptions, backpressure, the
disabled path's no-op guarantee, and the trace knob."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, make_engine
from repro.obs.bus import NULL_RECORDER, EventBus, NullRecorder, Subscription
from repro.tune.runtime import RuntimeConfig
from repro.util.rng import make_rng

_CFG = MachineConfig(N=1 << 12, v=4, D=2, B=64)


def _bus(**kw) -> EventBus:
    kw.setdefault("monitor", False)
    return EventBus(**kw)


class TestSpanThreading:
    def test_openers_nest_and_closers_pop(self):
        bus = _bus()
        bus.emit("run_begin")
        bus.emit("superstep_begin", superstep=0)
        bus.emit("compute_round", pid=0)
        bus.emit("superstep_end", superstep=0)
        bus.emit("run_end")
        run_b, ss_b, comp, ss_e, run_e = bus.events
        assert run_b["span"] == 0 and "parent" not in run_b
        assert ss_b["span"] == 1 and ss_b["parent"] == 0
        assert comp["span"] == 1  # tagged with the enclosing superstep
        assert ss_e["span"] == 1 and ss_e["parent"] == 0
        assert run_e["span"] == 0

    def test_explicit_span_contextmanager(self):
        bus = _bus()
        bus.emit("run_begin")
        with bus.span("shuffle", round=2):
            bus.emit("message_write", pid=0)
        kinds = [e["kind"] for e in bus.events]
        assert kinds == ["run_begin", "span_begin", "message_write", "span_end"]
        sb, mw, se = bus.events[1:]
        assert sb["name"] == "shuffle" and sb["round"] == 2
        assert sb["parent"] == 0 and mw["span"] == sb["span"] == se["span"]

    def test_span_ids_are_deterministic(self):
        a, b = _bus(), _bus()
        for bus in (a, b):
            bus.emit("run_begin")
            bus.emit("superstep_begin", superstep=0)
            bus.emit("superstep_end", superstep=0)
        assert [e["span"] for e in a.events] == [e["span"] for e in b.events]

    def test_drop_in_recorder_compat(self, tmp_path):
        """The bus is the recorder: jsonl export and per-kind counts."""
        bus = _bus()
        bus.emit("run_begin")
        bus.emit("run_end")
        p = tmp_path / "t.jsonl"
        assert bus.write_jsonl(str(p)) == 2
        assert bus.counts() == {"run_begin": 1, "run_end": 1}


def _lingering(sub, linger: float = 10.0):
    """Start a thread blocked in ``sub.take(5, linger)``; returns the
    thread and the list its batch lands in."""
    got: list = []
    t = threading.Thread(target=lambda: got.append(sub.take(5.0, linger)))
    t.start()
    return t, got


def _wait_until(cond, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestSubscriptions:
    def test_delivery_in_order(self):
        bus = _bus()
        sub = bus.subscribe()
        for i in range(5):
            bus.emit("k", i=i)
        got = sub.take(0)
        assert [e["i"] for e in got] == list(range(5))
        assert sub.take(0) == []

    def test_kind_filter(self):
        bus = _bus()
        sub = bus.subscribe(kinds={"superstep_end"})
        bus.emit("compute_round")
        bus.emit("superstep_end", superstep=0)
        (ev,) = sub.take(0)
        assert ev["kind"] == "superstep_end"
        assert sub.take(0) == []

    def test_bounded_queue_drops_oldest(self):
        bus = _bus()
        sub = bus.subscribe(maxlen=3)
        for i in range(10):
            bus.emit("k", i=i)
        assert sub.dropped == 7
        got = sub.take(0)
        assert [e["i"] for e in got] == [7, 8, 9]

    def test_slow_consumer_never_blocks_emit(self):
        bus = _bus()
        bus.subscribe(maxlen=1)  # never drained
        for i in range(1000):
            bus.emit("k", i=i)  # must not deadlock
        assert len(bus.events) == 1000

    def test_close_detaches_and_wakes_blocked_get(self):
        bus = _bus()
        sub = bus.subscribe()
        got = []
        t = threading.Thread(target=lambda: got.append(sub.take(30.0)))
        t.start()
        sub.close()
        t.join(timeout=5)
        assert not t.is_alive() and got == [[]]
        assert bus.subscriptions == 0
        sub.close()  # idempotent

    def test_iter_drains_then_stops_on_close(self):
        """What was queued before the close is still taken, then nothing."""
        bus = _bus()
        sub = bus.subscribe()
        bus.emit("a")
        bus.emit("b")
        sub.close()
        assert [e["kind"] for e in sub.take(30.0, 30.0)] == ["a", "b"]
        assert sub.take(30.0, 30.0) == []

    def test_take_on_an_empty_open_subscription_is_empty(self):
        sub = _bus().subscribe()
        assert sub.take(0, 0) == []
        assert not sub.closed

    def test_lingering_take_is_not_woken_below_half_full(self):
        """Only the first event of a batch and a half-full queue notify:
        the rest pile up without waking the consumer."""
        bus = _bus()
        sub = bus.subscribe(maxlen=16)
        notified = []
        notify = sub._cond.notify
        sub._cond.notify = lambda n=1: (notified.append(n), notify(n))
        t, got = _lingering(sub)
        _wait_until(lambda: sub._wake_len == 1)  # waiting for a first event
        bus.emit("k", i=0)
        _wait_until(lambda: sub._wake_len == 8)  # lingering
        assert len(notified) == 1
        for i in range(1, 7):
            bus.emit("k", i=i)
        assert len(notified) == 1 and t.is_alive()
        sub.close()
        t.join(timeout=5)
        assert [e["i"] for e in got[0]] == list(range(7))

    def test_close_wakes_a_lingering_take_at_once(self):
        bus = _bus()
        sub = bus.subscribe()
        t, got = _lingering(sub)
        bus.emit("run_end")
        _wait_until(lambda: sub._wake_len == sub.maxlen // 2)
        t0 = time.monotonic()
        sub.close()
        t.join(timeout=5)
        assert time.monotonic() - t0 < 0.1
        assert [e["kind"] for e in got[0]] == ["run_end"]

    def test_burst_wakes_a_lingering_take_at_half_full(self):
        """4 × maxlen events against a 10 s linger: every batch is cut at
        half full, nothing is dropped and every seq arrives in order.  The
        emitter waits for each batch to be taken — a consumer left to its
        linger would stall it for 10 s."""
        maxlen = 32
        bus = _bus()
        sub = bus.subscribe(maxlen=maxlen)
        batches: list = []

        def consume():
            while sum(map(len, batches)) < 4 * maxlen:
                batches.append(sub.take(5.0, 10.0))

        t = threading.Thread(target=consume)
        t0 = time.monotonic()
        t.start()
        for i in range(4 * maxlen):
            bus.emit("k", i=i)
            if sub.qsize() >= maxlen // 2:
                _wait_until(lambda: sub.qsize() == 0)
        t.join(timeout=5)
        assert not t.is_alive() and time.monotonic() - t0 < 5.0
        assert sub.dropped == 0
        assert [len(b) for b in batches] == [maxlen // 2] * 8
        assert [e["seq"] for b in batches for e in b] == list(range(4 * maxlen))

    def test_bus_close_closes_subscriptions(self):
        bus = _bus()
        sub = bus.subscribe()
        bus.close()
        assert sub.closed

    def test_bad_maxlen_rejected(self):
        with pytest.raises(ValueError):
            Subscription(None, maxlen=0)


class TestListeners:
    def test_listener_emission_is_sequenced_after_trigger(self):
        bus = _bus()

        def react(ev):
            if ev["kind"] == "superstep_end":
                bus.emit("model_drift", round=ev.get("round"))

        bus.add_listener(react)
        sub = bus.subscribe()
        bus.emit("superstep_end", round=0)
        kinds = [e["kind"] for e in bus.events]
        assert kinds == ["superstep_end", "model_drift"]
        # subscribers observe the same order
        assert [e["kind"] for e in sub.take(0)] == kinds

    def test_listener_errors_counted_not_raised(self):
        bus = _bus()
        bus.add_listener(lambda ev: 1 / 0)
        bus.emit("k")
        assert bus.listener_errors == 1 and len(bus.events) == 1

    def test_remove_listener(self):
        bus = _bus()
        seen = []
        cb = seen.append
        bus.add_listener(cb)
        bus.emit("a")
        bus.remove_listener(cb)
        bus.emit("b")
        assert [e["kind"] for e in seen] == ["a"]


class TestSink:
    def test_path_sink_streams_and_flushes_per_event(self, tmp_path):
        p = tmp_path / "live.jsonl"
        bus = _bus(sink=str(p))
        bus.emit("run_begin")
        # visible immediately, before close — that's what --follow tails
        lines = p.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["kind"] == "run_begin"
        bus.close()


class TestDisabledPath:
    """Tentpole guarantee: bus off == pre-bus NULL_RECORDER, exactly —
    there is no disabled-bus class, the "null bus" *is* NULL_RECORDER."""

    def test_null_bus_is_a_null_recorder(self):
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert not isinstance(NULL_RECORDER, EventBus)
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.emit("anything", x=1)  # silent no-op
        with NULL_RECORDER.span("region"):  # no events, no stack
            pass

    def test_null_bus_allocates_no_queues_or_spans(self):
        assert not hasattr(NULL_RECORDER, "_subs")
        assert not hasattr(NULL_RECORDER, "_span_stack")
        assert not hasattr(NULL_RECORDER, "events")

    def test_engines_default_to_disabled_recorder(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        eng = make_engine(cfg, "seq")
        assert eng.tracer.enabled is False

    def test_untraced_run_emits_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        data = make_rng(0).integers(0, 2**40, 1 << 12)
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        res = em_sort(data, cfg)
        assert np.array_equal(res.values, np.sort(data))


class TestEnvKnob:
    """``make_engine`` builds the bus from the resolved ``trace`` knob."""

    @pytest.mark.parametrize("val", ["", "0", "false", "off", "no"])
    def test_false_tokens_stay_off(self, monkeypatch, val):
        monkeypatch.setenv("REPRO_TRACE", val)
        assert make_engine(_CFG, "seq").tracer is NULL_RECORDER

    def test_unset_stays_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert make_engine(_CFG, "seq").tracer is NULL_RECORDER

    @pytest.mark.parametrize("val", ["1", "true", "on"])
    def test_true_tokens_record_in_memory(self, monkeypatch, val):
        monkeypatch.setenv("REPRO_TRACE", val)
        bus = make_engine(_CFG, "seq").tracer
        assert isinstance(bus, EventBus) and bus._sink is None
        bus.close()

    def test_other_value_is_a_sink_path(self, monkeypatch, tmp_path):
        p = tmp_path / "stream.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(p))
        bus = make_engine(_CFG, "seq").tracer
        bus.emit("k")
        bus.close()
        assert json.loads(p.read_text())["kind"] == "k"

    def test_make_engine_installs_bus_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        eng = make_engine(_CFG, "seq")
        assert isinstance(eng.tracer, EventBus)

    def test_the_knob_comes_from_the_resolved_snapshot(self, monkeypatch, tmp_path):
        """An override and a pinned runtime are the run's knob values: the
        environment used to be read behind the snapshot's back, so
        ``overrides={"trace": "1"}`` traced nothing and ``"0"`` could not
        switch off an environment that said on."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        traced = make_engine(_CFG, "seq", overrides={"trace": "1"})
        assert isinstance(traced.tracer, EventBus)
        monkeypatch.setenv("REPRO_TRACE", "1")
        silenced = make_engine(_CFG, "seq", overrides={"trace": "0"})
        assert silenced.tracer is NULL_RECORDER
        monkeypatch.delenv("REPRO_TRACE")
        path = tmp_path / "pinned.jsonl"
        pinned = RuntimeConfig.resolve(overrides={"trace": str(path)}, environ={})
        data = make_rng(5).integers(0, 2**40, 1 << 12)
        em_sort(data, _CFG, runtime=pinned)
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds[0] == "run_begin" and kinds[-1] == "run_end"

    def test_env_traced_run_records_events(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        data = make_rng(1).integers(0, 2**40, 1 << 12)
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        eng = make_engine(cfg, "seq")
        assert isinstance(eng.tracer, EventBus)

    def test_explicit_tracer_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        tr = _bus()
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        eng = make_engine(cfg, "seq", tracer=tr)
        assert eng.tracer is tr


class TestEngineIntegration:
    def test_subscriber_sees_live_superstep_stream(self):
        bus = EventBus()
        sub = bus.subscribe(kinds={"superstep_end"}, maxlen=64)
        data = make_rng(2).integers(0, 2**50, 1 << 13)
        cfg = MachineConfig(N=1 << 13, v=8, p=2, D=2, B=64)
        res = em_sort(data, cfg, engine="par", tracer=bus)
        ends = sub.take(0)
        assert len(ends) == len(
            [e for e in bus.events if e["kind"] == "superstep_end"]
        )
        assert sum(e["parallel_ios"] for e in ends) <= res.report.io.parallel_ios

    def test_worker_events_are_parented_into_round_spans(self):
        data = make_rng(3).integers(0, 2**50, 1 << 12)
        cfg = MachineConfig(N=1 << 12, v=4, p=2, D=2, B=64)
        bus = EventBus()
        em_sort(data, cfg, engine="par", tracer=bus, overrides={"workers": 2})
        by_kind: dict = {}
        for ev in bus.events:
            by_kind.setdefault(ev["kind"], []).append(ev)
        run_span = by_kind["run_begin"][0]["span"]
        ss_spans = {e["span"] for e in by_kind["superstep_begin"]}
        for ev in by_kind["compute_round"]:
            assert "worker" in ev and ev["span"] in ss_spans
        for e in by_kind["superstep_begin"]:
            assert e["parent"] == run_span

    def test_null_bus_run_matches_null_recorder_run(self, monkeypatch):
        """Same engine, tracing left off (the default tracer) vs an
        explicit NULL_RECORDER vs a live bus: identical results."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        data = make_rng(4).integers(0, 2**50, 1 << 12)
        cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
        a = em_sort(data, cfg)
        b = em_sort(data, cfg, tracer=NULL_RECORDER)
        c = em_sort(data, cfg, tracer=_bus())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)
        assert a.report.io.as_dict() == b.report.io.as_dict() == c.report.io.as_dict()


class TestEventTable:
    def test_every_emitted_kind_is_in_the_table(self):
        """The module docstring's table names every kind ``src/repro``
        emits, so a new kind cannot ship undocumented."""
        import re
        from pathlib import Path

        import repro
        import repro.obs.bus as bus_mod

        rules = [i for i, line in enumerate(bus_mod.__doc__.splitlines())
                 if line.startswith("=====")]
        rows = bus_mod.__doc__.splitlines()[rules[1] + 1:rules[2]]
        table = {m.group(1) for line in rows if (m := re.match(r"``(\w+)``", line))}
        src = Path(repro.__file__).resolve().parent
        emitted = {
            kind
            for path in src.rglob("*.py")
            for kind in re.findall(r'emit\(\s*"(\w+)"', path.read_text())
        }
        assert len(emitted) > 20
        assert emitted <= table, sorted(emitted - table)
