"""JobSpec validation and cache-fingerprint identity."""

import pytest

from repro.service.spec import (
    CONFIG_KNOBS,
    MAX_N,
    MAX_WORKERS,
    JobSpec,
    validate_spec,
)
from repro.util.validation import ConfigurationError

GOOD = {"op": "sort", "n": 4096, "seed": 1, "machine": {"v": 8, "D": 2, "B": 64}}


class TestValidation:
    def test_minimal_valid(self):
        assert validate_spec({"op": "sort", "n": 16}) == []

    def test_not_a_dict(self):
        assert validate_spec([1, 2]) != []

    def test_unknown_top_level_field(self):
        errs = validate_spec({**GOOD, "bogus": 1})
        assert any("bogus" in e for e in errs)

    @pytest.mark.parametrize("op", ["merge", None, 3])
    def test_bad_op(self, op):
        assert any("op" in e for e in validate_spec({"op": op, "n": 16}))

    @pytest.mark.parametrize("n", [0, -1, MAX_N + 1, "16", True])
    def test_bad_n(self, n):
        assert validate_spec({"op": "sort", "n": n}) != []

    def test_missing_n(self):
        assert any("n is required" in e for e in validate_spec({"op": "sort"}))

    def test_bad_machine_field(self):
        errs = validate_spec({**GOOD, "machine": {"v": 8, "q": 1}})
        assert any("machine" in e for e in errs)

    def test_bad_engine(self):
        errs = validate_spec({**GOOD, "engine": "vm"})
        assert any("engine" in e for e in errs)

    def test_workers_capped(self):
        for bad in (MAX_WORKERS + 1, -1):
            errs = validate_spec({**GOOD, "workers": bad})
            assert any("workers" in e for e in errs)

    def test_config_unknown_knob_rejected(self):
        errs = validate_spec({**GOOD, "config": {"nope": 1}})
        assert any("config.nope" in e for e in errs)

    def test_config_disallowed_knob_rejected(self):
        # a real registry knob that tenants must not set
        errs = validate_spec({**GOOD, "config": {"spill_dir": "/tmp/x"}})
        assert any("config.spill_dir" in e for e in errs)

    def test_config_malformed_value_named(self):
        errs = validate_spec({**GOOD, "config": {"arena": "tape"}})
        assert any("config.arena" in e for e in errs)

    def test_config_allowlist_accepted(self):
        config = {"arena": "mmap", "spill_quota": "0"}
        assert set(config) <= CONFIG_KNOBS
        assert validate_spec({**GOOD, "config": config}) == []

    def test_retired_fastpath_knob_is_unknown(self):
        errs = validate_spec({**GOOD, "config": {"fastpath": "off"}})
        assert len(errs) == 1 and "config.fastpath is not a settable knob" in errs[0]
        assert "fastpath" not in CONFIG_KNOBS

    def test_retired_prefetch_knob_is_unknown(self):
        errs = validate_spec({**GOOD, "config": {"prefetch": "0"}})
        assert len(errs) == 1 and "config.prefetch is not a settable knob" in errs[0]
        assert "prefetch" not in CONFIG_KNOBS

    def test_retired_shm_bytes_knob_is_unknown(self):
        errs = validate_spec({**GOOD, "config": {"shm_bytes": "4096"}})
        assert len(errs) == 1 and "config.shm_bytes is not a settable knob" in errs[0]
        assert "shm_bytes" not in CONFIG_KNOBS

    def test_bad_faults_section(self):
        errs = validate_spec({**GOOD, "faults": {"p_transient_read": 2.0}})
        assert any("faults" in e for e in errs)

    @pytest.mark.parametrize("tenant", ["", "-lead", "a b", "x" * 65, 7])
    def test_bad_tenant(self, tenant):
        assert any("tenant" in e for e in validate_spec({**GOOD, "tenant": tenant}))

    @pytest.mark.parametrize("prio", [-1, 10, "high"])
    def test_bad_priority(self, prio):
        assert validate_spec({**GOOD, "priority": prio}) != []

    def test_from_dict_reports_every_problem_at_once(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict({"op": "merge", "n": 0, "priority": 99})
        msg = str(exc.value)
        assert "op" in msg and "n" in msg and "priority" in msg

    def test_from_dict_surfaces_machine_config_invariants(self):
        # p must divide v — MachineConfig's own check, spec-level message
        with pytest.raises(ConfigurationError, match="machine"):
            JobSpec.from_dict({"op": "sort", "n": 64, "machine": {"v": 8, "p": 3}})

    def test_round_trip(self):
        spec = JobSpec.from_dict(
            {**GOOD, "engine": "seq", "config": {"spill_quota": "4096"},
             "tenant": "t1", "priority": 3}
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestFingerprint:
    def test_deterministic(self):
        a = JobSpec.from_dict(GOOD)
        assert a.fingerprint() == JobSpec.from_dict(dict(GOOD)).fingerprint()

    def test_workload_fields_change_it(self):
        base = JobSpec.from_dict(GOOD).fingerprint()
        assert JobSpec.from_dict({**GOOD, "n": 8192}).fingerprint() != base
        assert JobSpec.from_dict({**GOOD, "seed": 9}).fingerprint() != base
        assert JobSpec.from_dict({**GOOD, "balanced": True}).fingerprint() != base
        assert (
            JobSpec.from_dict({**GOOD, "machine": {"v": 8, "D": 2, "B": 128}})
            .fingerprint() != base
        )

    def test_scheduling_identity_excluded(self):
        base = JobSpec.from_dict(GOOD).fingerprint()
        assert JobSpec.from_dict({**GOOD, "tenant": "other"}).fingerprint() == base
        assert JobSpec.from_dict({**GOOD, "priority": 9}).fingerprint() == base

    def test_physical_knobs_excluded(self):
        # bit-identity-preserving knobs must share the cache entry
        base = JobSpec.from_dict(GOOD).fingerprint()
        tuned = JobSpec.from_dict(
            {**GOOD, "config": {"arena": "mmap", "spill_quota": "0"}}
        )
        assert tuned.fingerprint() == base

    def test_workers_excluded_like_checkpoint_meta(self):
        par = {**GOOD, "machine": {"v": 8, "p": 2, "D": 2, "B": 64},
               "engine": "par"}
        w0 = JobSpec.from_dict(par).fingerprint()
        w2 = JobSpec.from_dict({**par, "workers": 2}).fingerprint()
        assert w0 == w2

    def test_resolved_engine_included(self):
        # explicit "seq" on p=1 equals the default resolution...
        assert (
            JobSpec.from_dict({**GOOD, "engine": "seq"}).fingerprint()
            == JobSpec.from_dict(GOOD).fingerprint()
        )
        # ...but a genuinely different backend has different counters
        par = JobSpec.from_dict(
            {**GOOD, "machine": {"v": 8, "p": 2, "D": 2, "B": 64}}
        )
        assert par.fingerprint() != JobSpec.from_dict(GOOD).fingerprint()

    def test_fault_plan_included(self):
        faulty = JobSpec.from_dict({**GOOD, "faults": {"p_transient_read": 0.01}})
        assert faulty.fingerprint() != JobSpec.from_dict(GOOD).fingerprint()
