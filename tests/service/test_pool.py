"""execute_spec: correctness, verification, preemption, resume."""

import pytest

from repro.em.runner import OPS
from repro.faults.checkpoint import CheckpointManager
from repro.obs.bus import EventBus
from repro.service.pool import execute_spec
from repro.service.spec import JobSpec
from repro.util.validation import PreemptedError

MACHINE = {"v": 8, "D": 2, "B": 64}


def spec_for(op, n=4096, **kw):
    return JobSpec.from_dict({"op": op, "n": n, "machine": MACHINE, **kw})


class TestExecuteSpec:
    @pytest.mark.parametrize("op", ["sort", "permute", "transpose"])
    def test_runs_and_verifies(self, op):
        doc = execute_spec(spec_for(op))
        assert doc["ok"] is True
        assert doc["counters"]["io"]["parallel_ios"] > 0
        assert len(doc["output_sha256"]) == 64
        assert doc["engine"] == "seq-em"

    def test_deterministic_document(self):
        spec = spec_for("sort")
        a, b = execute_spec(spec), execute_spec(spec)
        a.pop("elapsed_s"), b.pop("elapsed_s")
        assert a == b

    def test_matches_direct_em_run(self):
        """The result counters are the engine's own, untranslated."""
        import numpy as np

        from repro.em.runner import em_sort
        from repro.util.rng import make_rng

        spec = spec_for("sort")
        doc = execute_spec(spec)
        (data,) = OPS["sort"].generate(make_rng(spec.seed), spec.n)
        res = em_sort(data, spec.machine_config())
        assert doc["counters"]["io"]["parallel_ios"] == res.report.io.parallel_ios
        assert doc["counters"]["rounds"] == res.report.rounds
        assert np.array_equal(res.values, OPS["sort"].reference(data))

    @pytest.mark.no_fault_plan
    def test_fault_plan_keeps_logical_counters(self):
        clean = execute_spec(spec_for("sort"))
        faulty = execute_spec(
            spec_for("sort", faults={"p_transient_read": 0.02, "seed": 5})
        )
        assert faulty["ok"] is True
        assert "fault_stats" in faulty["counters"]
        stripped = dict(faulty["counters"])
        stripped.pop("fault_stats")
        assert stripped == clean["counters"]
        assert faulty["output_sha256"] == clean["output_sha256"]

    @pytest.mark.no_fault_plan  # a plan's draws may follow allocation order
    def test_spec_workers_run_a_fleet_with_the_same_document(self, monkeypatch):
        """A spec's top-level ``workers`` reaches the run as the knob's
        override: the job's bus shows the fleet, and the result document
        is the one the ``workers: 0`` spec gets."""
        # pin what a workers-0 spec defers to
        for var in ("REPRO_WORKERS", "REPRO_TRANSPORT"):
            monkeypatch.delenv(var, raising=False)
        docs, fleet = [], []
        for workers in (2, 0):
            bus = EventBus(monitor=False)
            spec = spec_for("sort", machine={**MACHINE, "p": 2}, workers=workers)
            docs.append(_doc(execute_spec(spec, tracer=bus)))
            (begin,) = [e for e in bus.events if e["kind"] == "run_begin"]
            fleet.append(begin["workers"])
        assert fleet == [2, 0]
        assert docs[0] == docs[1]


class TestPreemption:
    def test_preempt_without_checkpoint_mentions_lost_progress(self, tmp_path):
        with pytest.raises(PreemptedError, match="progress lost"):
            execute_spec(spec_for("sort"), preempt=lambda: True)

    def test_preempt_then_resume_bit_identical(self, tmp_path):
        spec = spec_for("sort", n=1 << 13)
        clean = execute_spec(spec)
        ck = str(tmp_path / "ck")
        with pytest.raises(PreemptedError, match="resume to continue"):
            execute_spec(spec, checkpoint=ck, preempt=lambda: True)
        resumed = execute_spec(spec, checkpoint=ck, resume=True)
        clean.pop("elapsed_s"), resumed.pop("elapsed_s")
        assert resumed == clean

    def test_preempt_fires_at_every_boundary(self, tmp_path):
        """Preempting after each round still converges to the clean result."""
        spec = spec_for("sort", n=1 << 13)
        clean = execute_spec(spec)
        ck = str(tmp_path / "ck")
        rounds = 0
        resume = False
        while True:
            try:
                final = execute_spec(
                    spec, checkpoint=ck, resume=resume, preempt=lambda: True
                )
                break
            except PreemptedError:
                rounds += 1
                resume = True
                assert rounds < 50, "preemption never converged"
        # every non-final round preempts once; the final round completes
        # before the boundary check, so no preemption fires there
        assert final["ok"] is True
        assert final["output_sha256"] == clean["output_sha256"]
        assert final["counters"] == clean["counters"]
        assert rounds == clean["counters"]["rounds"] - 1


class CountingManager(CheckpointManager):
    """Records the round of every ``save`` (deterministic: no wall clock)."""

    def __init__(self, directory):
        super().__init__(directory)
        self.saved = []

    def save(self, round_no, snapshot, meta):
        self.saved.append(round_no)
        return super().save(round_no, snapshot, meta)


def _doc(doc):
    return {k: v for k, v in doc.items() if k != "elapsed_s"}


class TestSnapshotWhenAsked:
    """A run with a probe persists a snapshot when the probe fires and at no
    other time; a run without one persists every boundary."""

    SPEC = spec_for("sort", n=1 << 13)

    def test_probe_that_never_fires_writes_nothing(self, tmp_path):
        cm = CountingManager(str(tmp_path / "ck"))
        tr = EventBus(monitor=False)
        doc = execute_spec(self.SPEC, tracer=tr, checkpoint=cm, preempt=lambda: False)
        assert cm.saved == []
        assert "checkpoint" not in tr.counts()
        assert not (tmp_path / "ck").exists()
        assert _doc(doc) == _doc(execute_spec(self.SPEC))

    def test_probe_firing_after_round_k_writes_round_k_only(self, tmp_path):
        clean = execute_spec(self.SPEC)
        rounds = clean["counters"]["rounds"]
        assert rounds >= 3
        for k in range(rounds - 1):  # the final boundary is never polled
            cm = CountingManager(str(tmp_path / f"ck{k}"))
            tr = EventBus(monitor=False)
            polls = iter(range(rounds))
            with pytest.raises(PreemptedError, match="resume to continue"):
                execute_spec(
                    self.SPEC, tracer=tr, checkpoint=cm,
                    preempt=lambda: next(polls) == k,
                )
            assert cm.saved == [k]
            tail = [
                (ev["kind"], ev["round"]) for ev in tr.events
                if ev["kind"] in ("checkpoint", "preempt")
            ]
            assert tail == [("checkpoint", k), ("preempt", k)]
            resumed = execute_spec(self.SPEC, checkpoint=cm.directory, resume=True)
            assert _doc(resumed) == _doc(clean)

    def test_no_probe_writes_every_boundary(self, tmp_path, monkeypatch):
        """The CLI / ``em_run`` contract: setup, then every round."""
        from repro import cli

        saved = []
        save = CheckpointManager.save
        monkeypatch.setattr(
            CheckpointManager, "save",
            lambda self, r, *a: saved.append(r) or save(self, r, *a),
        )
        doc = execute_spec(self.SPEC, checkpoint=str(tmp_path / "ck"))
        every_boundary = list(range(-1, doc["counters"]["rounds"]))
        assert saved == every_boundary

        del saved[:]
        args = ["--n", "8192", "--v", "8", "--d", "2", "--b", "64"]
        assert cli.main(["sort", *args, "--checkpoint", str(tmp_path / "cli")]) == 0
        assert saved == every_boundary
