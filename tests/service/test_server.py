"""HTTP integration: the full submit/cache/stream/preempt/drain surface."""

import glob
import json
import os
import threading
import time
import urllib.request

import pytest

from repro.obs.bus import _jsonable
from repro.service.client import (
    get_job,
    run_spec_local,
    stream_job,
    submit_job,
    wait_job,
)
from repro.service.jobs import Job
from repro.service.queue import JobQueue
from repro.service.server import QUEUE_STATE_FILE, JobServer, ServiceCore
from repro.service.spec import JobSpec

MACHINE = {"v": 8, "D": 2, "B": 64}
SPEC = {"op": "sort", "n": 4096, "seed": 1, "machine": MACHINE, "tenant": "alice"}

WAIT_S = 60.0


@pytest.fixture
def served(tmp_path):
    core = ServiceCore(state_dir=str(tmp_path / "state"), pool_size=2)
    server = JobServer(core).start()
    try:
        yield server
    finally:
        core.drain(timeout=WAIT_S)
        server.close()


def _sans_elapsed(result):
    return {k: v for k, v in result.items() if k != "elapsed_s"}


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode())


@pytest.fixture
def held(tmp_path):
    """A server whose pool never starts, and one queued job on it whose
    bus the test drives by hand."""
    core = ServiceCore(state_dir=str(tmp_path / "s"), pool_size=1, start=False)
    server = JobServer(core).start()
    job, _ = core.submit(SPEC)
    try:
        yield server, job
    finally:
        server.close()


def _events_request(server, job):
    return urllib.request.Request(
        f"{server.url}/jobs/{job.id}/events", headers={"Accept": "text/event-stream"}
    )


def _read_frames(resp, want: int) -> list[dict]:
    """Parse SSE frames off a live response; returns *want* event dicts."""
    out: list[dict] = []
    data: list[str] = []
    for raw in resp:
        line = raw.decode().rstrip("\r\n")
        if line.startswith("data:"):
            data.append(line[len("data:"):].strip())
        elif line == "" and data:
            out.append(json.loads("\n".join(data)))
            data = []
            if len(out) >= want:
                return out
    return out


class TestSubmitAndResult:
    def test_submit_wait_verify(self, served):
        status, headers, doc = submit_job(served.url, SPEC)
        assert status == 202
        assert headers["X-Repro-Cache"] == "miss"
        assert headers["Location"] == f"/jobs/{doc['id']}"
        final = wait_job(served.url, doc["id"], timeout_s=WAIT_S)
        assert final["state"] == "done"
        assert final["result"]["ok"] is True

    def test_unpreempted_job_never_creates_its_checkpoint_dir(self, served):
        """A served job writes a snapshot when it is preempted, not before:
        a job nobody preempts leaves nothing under ``<state_dir>/ckpt`` —
        not even the directory (it used to leave ``rounds + 1`` files there
        forever)."""
        _, _, doc = submit_job(served.url, SPEC)
        assert wait_job(served.url, doc["id"], timeout_s=WAIT_S)["state"] == "done"
        assert not os.path.exists(os.path.join(served.core.state_dir, "ckpt"))

    def test_served_result_bit_identical_to_local_run(self, served):
        status, _, doc = submit_job(served.url, SPEC)
        assert status == 202
        final = wait_job(served.url, doc["id"], timeout_s=WAIT_S)
        local = run_spec_local(SPEC)
        assert final["result"]["counters"] == local["result"]["counters"]
        assert final["result"]["output_sha256"] == local["result"]["output_sha256"]
        assert final["fingerprint"] == local["fingerprint"]

    def test_duplicate_served_from_cache(self, served):
        _, _, doc = submit_job(served.url, SPEC)
        first = wait_job(served.url, doc["id"], timeout_s=WAIT_S)
        status, headers, dup = submit_job(served.url, SPEC)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert dup["state"] == "done"
        assert dup["cache"] == "hit"
        assert dup["result"] == first["result"]
        # a *different* tenant shares the entry (fingerprint excludes tenant)
        status, headers, other = submit_job(
            served.url, {**SPEC, "tenant": "bob"}
        )
        assert status == 200 and headers["X-Repro-Cache"] == "hit"

    def test_invalid_spec_400_with_error_list(self, served):
        status, _, body = submit_job(served.url, {"op": "merge", "n": 0})
        assert status == 400
        assert "op" in body["error"] and "n" in body["error"]
        # the retired I/O-path switch is answered by the unknown-knob error
        status, _, body = submit_job(
            served.url, {**SPEC, "config": {"fastpath": "off"}}
        )
        assert status == 400
        assert "config.fastpath is not a settable knob" in body["error"]
        # ... and so is the retired prefetch switch
        status, _, body = submit_job(
            served.url, {**SPEC, "config": {"prefetch": "0"}}
        )
        assert status == 400
        assert "config.prefetch is not a settable knob" in body["error"]
        # ... and the retired shared-memory threshold
        status, _, body = submit_job(
            served.url, {**SPEC, "config": {"shm_bytes": "4096"}}
        )
        assert status == 400
        assert "config.shm_bytes is not a settable knob" in body["error"]

    def test_non_json_body_400(self, served):
        req = urllib.request.Request(
            served.url + "/jobs", data=b"not json", method="POST"
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raised = None
        except urllib.error.HTTPError as exc:
            raised = exc.code
        assert raised == 400

    def test_unknown_job_404(self, served):
        for path in ("/jobs/nope", "/jobs/nope/events"):
            try:
                urllib.request.urlopen(served.url + path, timeout=10)
                raised = None
            except urllib.error.HTTPError as exc:
                raised = exc.code
            assert raised == 404

    def test_listing_and_health(self, served):
        _, _, doc = submit_job(served.url, SPEC)
        wait_job(served.url, doc["id"], timeout_s=WAIT_S)
        status, listing = _get(served.url + "/jobs")
        assert status == 200
        assert any(j["id"] == doc["id"] for j in listing["jobs"])
        assert listing["draining"] is False
        status, health = _get(served.url + "/healthz")
        assert health["status"] == "ok"


class TestSSE:
    def test_stream_carries_engine_trace_and_lifecycle(self, served):
        _, _, doc = submit_job(served.url, SPEC)
        kinds = [ev.get("kind") for ev in
                 stream_job(served.url, doc["id"], timeout_s=WAIT_S)]
        assert "job_state" in kinds
        assert "run_begin" in kinds and "run_end" in kinds
        assert "superstep_end" in kinds

    def test_replays_buffer_then_streams_live(self, held):
        server, job = held
        job.bus.emit("run_begin", engine="seq-em")
        job.bus.emit("superstep_end", superstep=4)
        with urllib.request.urlopen(_events_request(server, job), timeout=10) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            replayed = _read_frames(resp, 2)
            assert [e["kind"] for e in replayed] == ["run_begin", "superstep_end"]
            # live phase: an event emitted after connect arrives next, not
            # duplicated by the replay
            t = threading.Timer(0.1, lambda: job.bus.emit("run_end"))
            t.start()
            (live,) = _read_frames(resp, 1)
            t.join()
            assert live["kind"] == "run_end" and live["seq"] == 2

    def test_frames_carry_seq_ids(self, held):
        server, job = held
        job.bus.emit("a")
        job.bus.emit("b")
        with urllib.request.urlopen(_events_request(server, job), timeout=10) as resp:
            ids = []
            for raw in resp:
                line = raw.decode().rstrip("\r\n")
                if line.startswith("id:"):
                    ids.append(int(line[3:].strip()))
                    if len(ids) == 2:
                        break
        assert ids == [0, 1]

    def test_end_frame_follows_a_terminal_state(self, held):
        server, job = held
        with urllib.request.urlopen(_events_request(server, job), timeout=10) as resp:
            threading.Timer(0.1, lambda: server.core.cancel(job.id)).start()
            lines = [raw.decode().rstrip("\r\n") for raw in resp]
        # the terminal transition's lifecycle event, then the end frame last
        assert lines == [
            "id: 0", "event: trace", lines[2], "", "event: end", "data: {}", "",
        ]
        state = json.loads(lines[2][len("data:"):])
        assert state["kind"] == "job_state" and state["state"] == "cancelled"

    @pytest.mark.parametrize("op", ["sort", "permute", "transpose"])
    def test_stream_carries_every_bus_event_live_and_replayed(self, tmp_path, op):
        """A ``service_mix`` job streamed from before it starts: the client
        receives exactly what the job's bus recorded — the same dicts,
        contiguous ``seq`` — live, and again as a replay after the end."""
        core = ServiceCore(state_dir=str(tmp_path / "s"), pool_size=1, start=False)
        server = JobServer(core).start()
        try:
            _, _, doc = submit_job(
                server.url, {"op": op, "n": 8192, "machine": MACHINE, "tenant": "mix"}
            )
            job = core.get(doc["id"])
            live: list = []
            t = threading.Thread(
                target=lambda: live.extend(stream_job(server.url, job.id, WAIT_S))
            )
            t.start()
            deadline = time.monotonic() + WAIT_S
            while job.bus.subscriptions == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            core.start()
            t.join(timeout=WAIT_S)
            assert not t.is_alive() and job.state == "done"
            recorded = [json.loads(json.dumps(ev, default=_jsonable)) for ev in job.bus.events]
            assert [ev["seq"] for ev in recorded] == list(range(len(recorded)))
            assert recorded[-1]["kind"] == "job_state" and len(recorded) > 100
            assert live == recorded
            assert list(stream_job(server.url, job.id, timeout_s=10)) == recorded
        finally:
            core.drain(timeout=WAIT_S)
            server.close()

    def test_finished_job_stream_replays_then_ends(self, served):
        _, _, doc = submit_job(served.url, SPEC)
        wait_job(served.url, doc["id"], timeout_s=WAIT_S)
        events = list(stream_job(served.url, doc["id"], timeout_s=10))
        assert any(ev.get("kind") == "run_end" for ev in events)


class TestHttpLifecycle:
    def test_port_zero_picks_a_free_port(self, held):
        server, _ = held
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_prometheus_text(self, held):
        server, _ = held
        server.core.registry.counter("repro_parallel_ios_total", "PDM I/Os").labels(
            engine="seq-em"
        ).inc(42)
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
            ctype = resp.headers["Content-Type"]
            body = resp.read().decode()
        assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
        assert "# TYPE repro_parallel_ios_total counter" in body
        assert 'repro_parallel_ios_total{engine="seq-em"} 42' in body

    def test_unknown_path_404(self, held):
        server, _ = held
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert exc.value.code == 404

    def test_close_is_idempotent_and_releases_port(self, held):
        server, _ = held
        server.close()
        server.close()  # no error
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(server.url + "/healthz", timeout=1.0)

    def test_close_unblocks_streaming_client(self, held):
        server, job = held
        done = threading.Event()

        def stream():
            try:
                req = _events_request(server, job)
                with urllib.request.urlopen(req, timeout=30) as resp:
                    for _ in resp:
                        pass
            except Exception:
                pass
            done.set()

        t = threading.Thread(target=stream)
        t.start()
        time.sleep(0.3)  # let the handler enter its poll loop
        server.close()
        assert done.wait(timeout=10.0)
        t.join(timeout=5.0)
        assert not t.is_alive()

    def test_subscription_detached_after_client_disconnects(self, held):
        server, job = held
        resp = urllib.request.urlopen(_events_request(server, job), timeout=10)
        time.sleep(0.2)
        assert job.bus.subscriptions == 1
        resp.close()
        deadline = time.monotonic() + 5.0
        while job.bus.subscriptions and time.monotonic() < deadline:
            job.bus.emit("poke")  # a write to the dead socket surfaces the close
            time.sleep(0.1)
        assert job.bus.subscriptions == 0


class TestBackpressure:
    def test_queue_full_429_retry_after(self, tmp_path):
        # pool never started: jobs stay queued and the bound is exact
        core = ServiceCore(
            state_dir=str(tmp_path / "s"), pool_size=1,
            queue_capacity=2, start=False,
        )
        server = JobServer(core).start()
        try:
            for i in range(2):
                status, _, _ = submit_job(server.url, {**SPEC, "seed": i})
                assert status == 202
            status, headers, body = submit_job(server.url, {**SPEC, "seed": 99})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "queue full" in body["error"]
        finally:
            server.close()

    def test_tenant_quota_429_other_tenant_admitted(self, tmp_path):
        core = ServiceCore(
            state_dir=str(tmp_path / "s"), pool_size=1,
            tenant_quota=1, start=False,
        )
        server = JobServer(core).start()
        try:
            assert submit_job(server.url, SPEC)[0] == 202
            status, headers, body = submit_job(server.url, {**SPEC, "seed": 2})
            assert status == 429 and "quota" in body["error"]
            assert "Retry-After" in headers
            assert submit_job(server.url, {**SPEC, "tenant": "bob"})[0] == 202
        finally:
            server.close()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        core = ServiceCore(state_dir=str(tmp_path / "s"), start=False)
        server = JobServer(core).start()
        try:
            _, _, doc = submit_job(server.url, SPEC)
            cancelled = json.loads(
                urllib.request.urlopen(
                    urllib.request.Request(
                        f"{server.url}/jobs/{doc['id']}/cancel", method="POST"
                    ),
                    timeout=10,
                ).read()
            )
            assert cancelled["state"] == "cancelled"
            # idempotent
            assert get_job(server.url, doc["id"])["state"] == "cancelled"
        finally:
            server.close()


class TestPreemptionThroughService:
    def test_high_priority_tenant_preempts_and_victim_resumes(self, tmp_path):
        """The tentpole acceptance path, deterministically sequenced:
        a single worker runs the low-priority job; a synchronous bus
        listener submits the high-priority job from the engine thread at
        the first superstep_end, so the preempt flag is guaranteed to be
        observed at the next checkpointed round boundary."""
        core = ServiceCore(
            state_dir=str(tmp_path / "s"), pool_size=1, start=False
        )
        low = {"op": "sort", "n": 1 << 13, "machine": MACHINE,
               "tenant": "slow", "priority": 0}
        high = {"op": "permute", "n": 4096, "machine": MACHINE,
                "tenant": "vip", "priority": 5}
        victim, cached = core.submit(low)
        assert not cached
        submitted = []

        def on_event(ev):
            if ev.get("kind") == "superstep_end" and not submitted:
                submitted.append(core.submit(high)[0])

        victim.bus.add_listener(on_event)
        core.start()
        try:
            deadline = time.monotonic() + WAIT_S
            while time.monotonic() < deadline and not (
                victim.terminal and submitted and submitted[0].terminal
            ):
                time.sleep(0.02)
            vip = submitted[0]
            assert victim.state == "done" and vip.state == "done"
            assert victim.preemptions >= 1
            assert victim.attempts == victim.preemptions + 1
            # the preempting tenant finished before the victim
            assert vip.finished_s < victim.finished_s
            # the victim's resumed result is bit-identical to a clean run
            clean = run_spec_local(low)
            assert victim.result["counters"] == clean["result"]["counters"]
            assert (
                victim.result["output_sha256"]
                == clean["result"]["output_sha256"]
            )
            assert victim.result["ok"] is True
            # the snapshot lived from the preemption to the terminal state
            assert os.listdir(os.path.join(core.state_dir, "ckpt")) == []
        finally:
            core.drain(timeout=WAIT_S)

    def test_equal_priority_does_not_preempt(self, tmp_path):
        core = ServiceCore(
            state_dir=str(tmp_path / "s"), pool_size=1, start=False
        )
        first, _ = core.submit({**SPEC, "priority": 3})
        second, _ = core.submit({**SPEC, "seed": 2, "priority": 3})
        core.start()
        try:
            assert first.finished.wait(WAIT_S)
            assert second.finished.wait(WAIT_S)
            assert first.preemptions == 0 and second.preemptions == 0
        finally:
            core.drain(timeout=WAIT_S)


def _hold_first_round_until_stopping(core, job):
    """Sequence a drain deterministically: a synchronous bus listener sets
    the returned event at *job*'s first ``superstep_end`` and keeps the
    engine thread there until the pool is stopping, so the probe polled at
    that round boundary is guaranteed to fire (the job is a few ms long and
    writes nothing that would slow it down)."""
    started = threading.Event()

    def on_event(ev):
        if ev.get("kind") == "superstep_end" and not started.is_set():
            started.set()
            deadline = time.monotonic() + WAIT_S
            while not core.pool.stopping and time.monotonic() < deadline:
                time.sleep(0.001)

    job.bus.add_listener(on_event)
    return started


class TestDrain:
    def test_drain_persists_inflight_and_restart_resumes(self, tmp_path):
        state = str(tmp_path / "state")
        core = ServiceCore(state_dir=state, pool_size=1, start=False)
        spec = {"op": "sort", "n": 1 << 13, "machine": MACHINE}
        job, _ = core.submit(spec)
        started = _hold_first_round_until_stopping(core, job)
        core.start()
        assert started.wait(WAIT_S)
        saved = core.drain(timeout=WAIT_S)
        assert saved == 1
        assert job.state == "preempted"
        assert job.attempts == 1
        # the drain wrote the one snapshot this job ever had, and says so
        (entry,) = JobQueue.load_persisted(os.path.join(state, QUEUE_STATE_FILE))
        assert entry["id"] == job.id and entry["resume"] is True
        assert len(glob.glob(os.path.join(state, "ckpt", "*", "ckpt_*.bin"))) == 1

        restarted = ServiceCore(state_dir=state, pool_size=1)
        try:
            resumed = restarted.get(job.id)
            assert resumed.finished.wait(WAIT_S)
            assert resumed.state == "done"
            clean = run_spec_local(spec)["result"]
            assert _sans_elapsed(resumed.result) == _sans_elapsed(clean)
            assert os.listdir(os.path.join(state, "ckpt")) == []
        finally:
            restarted.drain(timeout=WAIT_S)

    def test_requeued_job_without_a_snapshot_reruns_from_scratch(self, tmp_path):
        """``resume`` is what the disk says: an entry that has run before
        (``attempts > 0``) but has no snapshot used to be persisted
        ``resume: true`` and then failed with "no checkpoint found"."""
        state = str(tmp_path / "state")
        spec = {"op": "sort", "n": 4096, "machine": MACHINE}
        stale = Job("j00007", JobSpec.from_dict(spec), os.path.join(state, "ckpt", "j00007"))
        stale.attempts = 1
        os.makedirs(stale.ckpt_dir)
        JobQueue().persist(os.path.join(state, QUEUE_STATE_FILE), extra=[stale])

        restarted = ServiceCore(state_dir=state, pool_size=1)
        try:
            job = restarted.get("j00007")
            assert job.finished.wait(WAIT_S)
            assert job.state == "done", job.error
            clean = run_spec_local(spec)["result"]
            assert _sans_elapsed(job.result) == _sans_elapsed(clean)
        finally:
            restarted.drain(timeout=WAIT_S)

    def test_drain_persists_result_cache(self, tmp_path):
        """Regression: the result cache used to die with the process —
        ``queue.json`` survived a SIGTERM drain but every cached result
        was lost, so identical resubmissions after a restart re-ran."""
        import os

        from repro.service.server import CACHE_STATE_FILE

        state = str(tmp_path / "state")
        core = ServiceCore(state_dir=state, pool_size=1)
        job, from_cache = core.submit(SPEC)
        assert not from_cache
        assert job.finished.wait(WAIT_S)
        assert core.drain(timeout=WAIT_S) == 0  # nothing in flight...
        assert os.path.exists(os.path.join(state, CACHE_STATE_FILE))

        restarted = ServiceCore(state_dir=state, pool_size=1)
        try:
            # ...but the finished result is served straight from the
            # reloaded cache, bit-identical to the first run
            again, hit = restarted.submit(SPEC)
            assert hit and again.cache == "hit"
            assert again.result == job.result
            # the state file is consumed on restore, not replayed forever
            assert not os.path.exists(os.path.join(state, CACHE_STATE_FILE))
        finally:
            restarted.drain(timeout=WAIT_S)

    def test_cache_persisted_under_another_item_format_misses(
        self, tmp_path, monkeypatch
    ):
        """Counters depend on serialized lengths, so the item-format version
        is part of the cache key: a state dir written by a build with another
        format reloads, but its entries are never served for today's specs."""
        from repro.service import spec as spec_mod
        from repro.util.items import ITEM_FORMAT_VERSION

        state = str(tmp_path / "state")
        monkeypatch.setattr(spec_mod, "ITEM_FORMAT_VERSION", ITEM_FORMAT_VERSION - 1)
        old = ServiceCore(state_dir=state, pool_size=1)
        job, _ = old.submit(SPEC)
        assert job.finished.wait(WAIT_S)
        assert old.submit(SPEC)[1]  # a hit for the build that wrote it
        old.drain(timeout=WAIT_S)
        monkeypatch.undo()

        restarted = ServiceCore(state_dir=state, pool_size=1)
        try:
            assert len(restarted.cache) == 1
            again, hit = restarted.submit(SPEC)
            assert not hit and again.fingerprint != job.fingerprint
            assert again.finished.wait(WAIT_S) and again.cache == "miss"
        finally:
            restarted.drain(timeout=WAIT_S)

    def test_cache_reload_respects_capacity(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(capacity=8)
        for i in range(8):
            cache.put(f"fp{i}", {"i": i})
        small = ResultCache(capacity=3)
        assert small.load(cache.to_docs()) == 8
        assert len(small) == 3
        assert "fp7" in small and "fp0" not in small  # oldest evicted

    def test_wait_polls_after_a_drain_ends_the_stream(self, held, monkeypatch):
        """A drain closes the event stream of a job it leaves open, so
        ``wait_job`` falls back to polling until the job is terminal."""
        from repro.service import client

        server, job = held
        gets = []
        real = client.get_job
        monkeypatch.setattr(
            client, "get_job", lambda *a, **kw: gets.append(1) or real(*a, **kw)
        )
        final: list = []
        t = threading.Thread(
            target=lambda: final.append(
                wait_job(server.url, job.id, timeout_s=WAIT_S, poll_s=0.02)
            )
        )
        t.start()
        deadline = time.monotonic() + WAIT_S
        while job.bus.subscriptions == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        server.core.drain(timeout=WAIT_S)  # ends the stream; the job stays queued
        while len(gets) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        server.core.cancel(job.id)
        t.join(timeout=WAIT_S)
        assert not t.is_alive() and final[0]["state"] == "cancelled"
        assert len(gets) >= 2

    def test_draining_refuses_submissions_503(self, tmp_path):
        core = ServiceCore(state_dir=str(tmp_path / "s"), pool_size=1)
        server = JobServer(core).start()
        try:
            core.drain(timeout=WAIT_S)
            status, headers, body = submit_job(server.url, SPEC)
            assert status == 503
            assert "Retry-After" in headers
            assert "draining" in body["error"]
        finally:
            server.close()


class TestMetrics:
    def test_per_tenant_labels_on_engine_and_service_series(self, served):
        _, _, doc = submit_job(served.url, SPEC)
        wait_job(served.url, doc["id"], timeout_s=WAIT_S)
        submit_job(served.url, SPEC)  # cache hit
        with urllib.request.urlopen(served.url + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
        # two terminal "done" outcomes: the computed job and the cache hit
        assert 'repro_service_jobs_total{state="done",tenant="alice"} 2' in text
        assert 'repro_service_cache_hits_total{tenant="alice"} 1' in text
        assert "repro_service_queue_depth 0" in text
        # the engine's own counters carry the tenant + job scope
        assert f'job="{doc["id"]}"' in text
        assert 'tenant="alice"' in text
