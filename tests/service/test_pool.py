"""execute_spec: correctness, verification, preemption, resume."""

import pytest

from repro.em.runner import OPS
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

    def test_fault_plan_keeps_logical_counters(self):
        clean = execute_spec(spec_for("sort"))
        faulty = execute_spec(
            spec_for("sort", faults={"p_transient_read": 0.02, "seed": 5})
        )
        assert faulty["ok"] is True
        assert "fault_stats" in faulty["counters"]
        stripped = dict(faulty["counters"])
        stripped.pop("fault_stats")
        base = dict(clean["counters"])
        base.pop("fault_stats", None)  # ambient REPRO_FAULTS (CI faults lane)
        assert stripped == base
        assert faulty["output_sha256"] == clean["output_sha256"]


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
