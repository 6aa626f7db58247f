"""The tuner: analytic pruning, probe selection, determinism, acceptance.

Fast tests inject a deterministic ``measure`` function (no wall clocks);
the slow acceptance test at the end runs the real thing on the fig5
group-A workload and checks the ISSUE's contract directly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.config import MachineConfig
from repro.em.runner import em_run, make_engine
from repro.tune.profile import validate_profile
from repro.tune.runtime import RuntimeConfig
from repro.tune.tuner import (
    DEFAULTS,
    Candidate,
    WorkloadSpec,
    analytic_cost,
    build_workload,
    enumerate_candidates,
    fig5_group_a_workload,
    probe_config,
    tune,
)
from repro.util.validation import ConfigurationError


def fake_measure(spec, cand, n, reps):
    """Deterministic stand-in wall clock: analytic cost plus a v-penalty.

    Injective over the grid (irrational-ish weights) so ties never decide
    a test outcome.
    """
    return analytic_cost(spec, cand) * 1e-4 + cand.v * 1.7e-5 + cand.B * 3.1e-8


class TestWorkloadSpec:
    def test_rejects_unknown_op(self):
        with pytest.raises(ConfigurationError, match="unknown workload op"):
            WorkloadSpec(op="fft", n=64)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigurationError, match="positive"):
            WorkloadSpec(op="sort", n=0)

    def test_fig5_group_a(self):
        spec = fig5_group_a_workload()
        assert (spec.op, spec.n, spec.p) == ("sort", 1 << 16, 1)


class TestCandidates:
    def test_grid_respects_p_divisibility(self):
        for cand in enumerate_candidates(WorkloadSpec(op="sort", n=1 << 12, p=4)):
            assert cand.v >= 4 and cand.v % 4 == 0

    def test_impossible_p_is_a_named_error(self):
        with pytest.raises(ConfigurationError, match="no tuning candidates"):
            enumerate_candidates(WorkloadSpec(op="sort", n=1 << 12, p=5))

    def test_probe_config_is_constructible(self):
        spec = WorkloadSpec(op="sort", n=1 << 12, p=2)
        for cand in enumerate_candidates(spec):
            cfg = probe_config(spec, cand, 1 << 10)
            assert (cfg.v, cfg.D, cfg.B) == (cand.v, cand.D, cand.B)

    def test_analytic_cost_decreases_with_more_disks(self):
        spec = WorkloadSpec(op="sort", n=1 << 14)
        lo = analytic_cost(spec, Candidate(v=8, B=256, D=4))
        hi = analytic_cost(spec, Candidate(v=8, B=256, D=1))
        assert lo < hi


@st.composite
def workloads(draw):
    op = draw(st.sampled_from(["sort", "permute", "transpose"]))
    n = draw(st.integers(min_value=1 << 8, max_value=1 << 12))
    seed = draw(st.integers(min_value=0, max_value=5))
    return WorkloadSpec(op=op, n=n, seed=seed, p=1)


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(spec=workloads())
    def test_profiles_are_byte_identical(self, spec):
        """Same workload + measure + seed -> byte-identical profile JSON."""
        a = tune(spec, probe_n=256, measure=fake_measure)
        b = tune(spec, probe_n=256, measure=fake_measure)
        assert a.profile.dumps() == b.profile.dumps()
        assert validate_profile(a.profile.document()) == []

    def test_defaults_candidate_always_probed(self):
        spec = WorkloadSpec(op="sort", n=1 << 12)
        res = tune(spec, probe_n=256, top_k=1, measure=fake_measure)
        probed = [c for c, _ in res.probes]
        assert Candidate(**DEFAULTS) in probed

    def test_chosen_never_slower_than_defaults(self):
        spec = WorkloadSpec(op="sort", n=1 << 12)
        res = tune(spec, probe_n=256, measure=fake_measure)
        costs = dict((c.label(), cost) for c, cost in res.probes)
        default_cost = costs[Candidate(**DEFAULTS).label()]
        assert min(costs.values()) <= default_cost
        assert costs[res.chosen.label()] == min(costs.values())

    def test_profile_config_is_registered_knobs_only(self):
        """One I/O path and one local carrier: nothing in a profile selects
        either (the retired ``fastpath``, ``prefetch`` and ``shm_bytes``
        entries are gone)."""
        spec = WorkloadSpec(op="sort", n=1 << 12)
        res = tune(spec, probe_n=256, measure=fake_measure)
        assert sorted(res.profile.config) == ["arena", "workers"]
        assert not any("fastpath" in line for line in res.profile.rationale)

    def test_profile_records_the_transport_the_probes_ran_on(self, monkeypatch):
        """Every probe is pinned to its candidate's runtime, which never
        reads the environment: an ambient ``REPRO_TRANSPORT=tcp`` is not
        what they measured, so the profile must not claim it."""
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        res = tune(WorkloadSpec(op="sort", n=1 << 12, p=2), probe_n=256,
                   measure=fake_measure)
        assert res.chosen.runtime().transport == "memory"
        assert res.profile.search["transport"] == "memory"

    def test_rationale_records_every_probe(self):
        spec = WorkloadSpec(op="sort", n=1 << 12)
        res = tune(spec, probe_n=256, measure=fake_measure)
        probe_lines = [r for r in res.profile.rationale if r.startswith("probe:")]
        assert len(probe_lines) == len(res.probes)


class TestBuildWorkload:
    @pytest.mark.parametrize("op", ["sort", "permute", "transpose"])
    def test_runs_and_is_deterministic(self, op):
        spec = WorkloadSpec(op=op, n=1 << 9, seed=3)
        cfg = probe_config(spec, Candidate(v=4, B=64, D=2), 1 << 9)
        prog_a, in_a = build_workload(spec, cfg, 1 << 9)
        prog_b, in_b = build_workload(spec, cfg, 1 << 9)
        ios = []
        for prog, inputs in ((prog_a, in_a), (prog_b, in_b)):
            res = em_run(prog, inputs, cfg, runtime=RuntimeConfig())
            ios.append(res.report.io.parallel_ios)
        assert ios[0] == ios[1] > 0


class TestProfileApplication:
    def test_profile_apply_matches_hand_set_config(self, tmp_path):
        """Applying a profile never changes logical IOStats vs the same
        config set by hand (satellite 3's contract)."""
        spec = WorkloadSpec(op="sort", n=1 << 10)
        res = tune(spec, probe_n=256, measure=fake_measure)
        path = str(tmp_path / "p.json")
        res.profile.save(path)

        chosen = res.chosen
        cfg = MachineConfig(N=spec.n, v=chosen.v, p=spec.p, D=chosen.D,
                            B=chosen.B, seed=spec.seed)
        program, inputs = build_workload(spec, cfg)

        by_hand = make_engine(cfg, runtime=chosen.runtime()).run(program, inputs)
        via_profile = make_engine(cfg, profile=path).run(program, inputs)
        assert (
            via_profile.report.io.as_dict() == by_hand.report.io.as_dict()
        )

    def test_repro_profile_env_applies(self, tmp_path, monkeypatch):
        spec = WorkloadSpec(op="sort", n=1 << 10)
        res = tune(spec, probe_n=256, measure=fake_measure)
        path = str(tmp_path / "p.json")
        res.profile.save(path)
        monkeypatch.setenv("REPRO_PROFILE", path)
        cfg = MachineConfig(N=spec.n, v=res.chosen.v, D=res.chosen.D,
                            B=res.chosen.B)
        eng = make_engine(cfg)
        assert eng.runtime.workers == res.chosen.workers
        assert eng.runtime.profile == path


@pytest.mark.slow
def test_acceptance_fig5_group_a_tuning():
    """The ISSUE's acceptance gate, scaled to CI time: the tuner's chosen
    config measures no slower than all-defaults at probe scale, and the
    tuned run's logical IOStats are bit-identical to an untuned run of
    the same chosen config."""
    spec = fig5_group_a_workload(n=1 << 14)
    res = tune(spec, probe_n=1 << 12, reps=2)
    costs = {c.label(): cost for c, cost in res.probes}
    default_cost = costs[Candidate(**DEFAULTS).label()]
    assert costs[res.chosen.label()] == min(costs.values()) <= default_cost

    cfg = MachineConfig(N=spec.n, v=res.chosen.v, p=1, D=res.chosen.D,
                        B=res.chosen.B, seed=spec.seed)
    program, inputs = build_workload(spec, cfg)
    tuned = make_engine(cfg, runtime=res.chosen.runtime()).run(program, inputs)
    untuned = make_engine(cfg, runtime=RuntimeConfig()).run(program, inputs)
    assert tuned.report.io.as_dict() == untuned.report.io.as_dict()
    assert np.concatenate(tuned.outputs).tolist() == (
        np.concatenate(untuned.outputs).tolist()
    )
