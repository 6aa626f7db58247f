"""JobQueue admission, ordering, quotas, persistence; ResultCache."""

import os

import pytest

from repro.faults.checkpoint import CheckpointManager
from repro.service.cache import ResultCache
from repro.service.jobs import Job, ServiceError
from repro.service.queue import BackpressureError, JobQueue
from repro.service.server import CACHE_STATE_FILE, QUEUE_STATE_FILE, ServiceCore
from repro.service.spec import JobSpec


def make_job(tmp_path, i, tenant="t", priority=0, n=64):
    spec = JobSpec.from_dict(
        {"op": "sort", "n": n, "tenant": tenant, "priority": priority}
    )
    return Job(f"j{i:03d}", spec, str(tmp_path / f"ck{i}"), fingerprint=f"fp{i}")


class TestQueueOrdering:
    def test_fifo_within_priority(self, tmp_path):
        q = JobQueue()
        jobs = [make_job(tmp_path, i) for i in range(3)]
        for j in jobs:
            q.submit(j)
        assert [q.pop(0).id for _ in range(3)] == [j.id for j in jobs]

    def test_priority_wins_over_arrival(self, tmp_path):
        q = JobQueue()
        low = make_job(tmp_path, 0, priority=0)
        high = make_job(tmp_path, 1, priority=5)
        q.submit(low)
        q.submit(high)
        assert q.pop(0) is high
        assert q.pop(0) is low

    def test_requeued_preempted_job_keeps_position(self, tmp_path):
        q = JobQueue()
        victim = make_job(tmp_path, 0)
        q.submit(victim)
        assert q.pop(0) is victim  # dispatched
        later = make_job(tmp_path, 1)
        q.submit(later)
        q.requeue(victim)  # preempted: original seq -> ahead of `later`
        assert q.pop(0) is victim
        assert q.pop(0) is later

    def test_pop_empty_times_out(self):
        assert JobQueue().pop(timeout=0.01) is None

    def test_remove_withdraws_pending(self, tmp_path):
        q = JobQueue()
        job = make_job(tmp_path, 0)
        q.submit(job)
        assert q.remove(job) is True
        assert q.remove(job) is False
        assert q.depth == 0


class TestBackpressure:
    def test_capacity(self, tmp_path):
        q = JobQueue(capacity=2)
        q.submit(make_job(tmp_path, 0))
        q.submit(make_job(tmp_path, 1))
        with pytest.raises(BackpressureError) as exc:
            q.submit(make_job(tmp_path, 2))
        assert "queue full" in str(exc.value)
        assert exc.value.retry_after_s >= 1

    def test_tenant_quota_spans_queued_and_running(self, tmp_path):
        q = JobQueue(tenant_quota=2)
        a = make_job(tmp_path, 0, tenant="a")
        q.submit(a)
        q.submit(make_job(tmp_path, 1, tenant="a"))
        assert q.pop(0) is a  # running now, still counted
        with pytest.raises(BackpressureError, match="quota"):
            q.submit(make_job(tmp_path, 2, tenant="a"))
        # another tenant is unaffected
        q.submit(make_job(tmp_path, 3, tenant="b"))
        # terminal release frees the slot
        q.release(a)
        q.submit(make_job(tmp_path, 4, tenant="a"))

    def test_requeue_bypasses_capacity(self, tmp_path):
        q = JobQueue(capacity=1)
        job = make_job(tmp_path, 0)
        q.submit(job)
        assert q.pop(0) is job
        q.submit(make_job(tmp_path, 1))  # fills the queue
        q.requeue(job)  # already admitted: must not raise
        assert q.depth == 2


class TestPersistence:
    def test_round_trip(self, tmp_path):
        q = JobQueue()
        jobs = [make_job(tmp_path, i, priority=i) for i in range(2)]
        for j in jobs:
            q.submit(j)
        extra = make_job(tmp_path, 9)
        extra.attempts = 1  # preempted in-flight job: its snapshot is on disk
        CheckpointManager(extra.ckpt_dir).save(0, {"round": 0}, {})
        path = str(tmp_path / "queue.json")
        assert q.persist(path, extra=[extra]) == 3
        docs = JobQueue.load_persisted(path)
        assert {d["id"] for d in docs} == {"j000", "j001", "j009"}
        by_id = {d["id"]: d for d in docs}
        assert by_id["j009"]["resume"] is True
        assert by_id["j000"]["resume"] is False
        # documents reconstruct valid specs
        for doc in docs:
            JobSpec.from_dict(doc["spec"])

    def test_resume_is_read_from_the_disk_not_the_history(self, tmp_path):
        """Only a snapshot can resume: a job that has run before but left
        none (a served job writes one only when preempted) is persisted
        ``resume: false``, whatever its counters say."""
        job = make_job(tmp_path, 3)
        job.attempts, job.preemptions = 2, 1
        assert job.persist_doc()["resume"] is False
        CheckpointManager(job.ckpt_dir).save(1, {"round": 1}, {})
        assert job.persist_doc()["resume"] is True

    def test_load_missing_file_is_empty(self, tmp_path):
        assert JobQueue.load_persisted(str(tmp_path / "nope.json")) == []

    @pytest.mark.parametrize("text", ['{"version": 1, "jo', "[1, 2]", "\xff"])
    def test_load_torn_file_is_one_line_service_error(self, tmp_path, text):
        path = tmp_path / "queue.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ServiceError) as err:
            JobQueue.load_persisted(str(path))
        assert str(path) in str(err.value) and "\n" not in str(err.value)

    def test_every_state_file_is_fsynced_before_it_replaces(self, tmp_path, monkeypatch):
        """queue.json, result_cache.json and a checkpoint each reach the
        disk before ``os.replace`` puts them in place, so a crash after the
        rename cannot leave an empty or torn state file."""
        synced: set[int] = set()
        replaced: list[tuple[str, bool]] = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            fsync(fd)
            synced.add(os.fstat(fd).st_ino)

        def recording_replace(src, dst):
            replaced.append((os.path.basename(dst), os.stat(src).st_ino in synced))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        JobQueue().persist(str(tmp_path / QUEUE_STATE_FILE), extra=[make_job(tmp_path, 0)])
        core = ServiceCore(state_dir=str(tmp_path / "state"), pool_size=1, start=False)
        core.cache.put("fp", {"result": {"hash": "0"}})
        core._persist_cache()
        CheckpointManager(str(tmp_path / "ckpt")).save(0, {"round": 0}, {})
        assert replaced == [
            (QUEUE_STATE_FILE, True), (CACHE_STATE_FILE, True), ("ckpt_000001.bin", True)
        ]


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("fp") is None
        cache.put("fp", {"ok": True})
        assert cache.get("fp") == {"ok": True}
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_eviction_keeps_recent(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") is not None  # refresh a
        cache.put("c", {"v": 3})  # evicts b (least recent)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
