"""FaultPlan construction, validation, and JSON round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import (
    FAULT_KINDS,
    DiskDeath,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)
from repro.util.validation import ConfigurationError

FULL_PLAN = FaultPlan(
    seed=42,
    p_transient_read=0.05,
    p_transient_write=0.02,
    p_torn_write=0.01,
    retry=RetryPolicy(max_retries=5, backoff_s=0.001),
    schedule=(
        ScheduledFault(real=0, op=3, disk=1, kind="transient_read"),
        ScheduledFault(real=1, op=7, disk=0, kind="torn_write"),
    ),
    dead_disks=(DiskDeath(real=0, disk=1, after_op=100),),
)


class TestRoundTrip:
    def test_dict_round_trip(self):
        assert FaultPlan.from_dict(FULL_PLAN.to_dict()) == FULL_PLAN

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        FULL_PLAN.to_json(str(path))
        assert FaultPlan.from_json(str(path)) == FULL_PLAN

    def test_defaults_round_trip(self):
        plan = FaultPlan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_partial_dict_fills_defaults(self):
        plan = FaultPlan.from_dict({"seed": 9, "p_transient_read": 0.1})
        assert plan.seed == 9
        assert plan.p_transient_read == 0.1
        assert plan.retry == RetryPolicy()
        assert plan.schedule == () and plan.dead_disks == ()


class TestValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "p_transient_reed": 0.1})

    def test_unknown_retry_field(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"retry": {"max_tries": 3}})

    def test_unknown_fault_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ScheduledFault(real=0, op=0, disk=0, kind="cosmic_ray")

    def test_negative_coordinates(self):
        with pytest.raises(ConfigurationError):
            ScheduledFault(real=0, op=-1, disk=0, kind=FAULT_KINDS[0])
        with pytest.raises(ConfigurationError):
            DiskDeath(real=0, disk=-1, after_op=0)

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(p_transient_read=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(p_torn_write=-0.1)

    def test_negative_retries(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json(str(tmp_path / "nope.json"))

    def test_json_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json(str(path))


class TestProperties:
    def test_probabilistic_flag(self):
        assert not FaultPlan().probabilistic
        assert FaultPlan(p_transient_read=0.1).probabilistic
        assert not FaultPlan(
            schedule=(ScheduledFault(0, 0, 0, "transient_read"),)
        ).probabilistic

    def test_injector_is_per_real(self):
        a = FULL_PLAN.injector_for(0)
        b = FULL_PLAN.injector_for(1)
        assert a.real == 0 and b.real == 1
        # scheduled faults are filtered to the owning real processor
        assert (3, 1) in a._schedule and (7, 0) not in a._schedule
        assert (7, 0) in b._schedule and (3, 1) not in b._schedule
        assert a._pending_death == {1: 100} and b._pending_death == {}

    def test_injector_rng_deterministic(self):
        plan = FaultPlan(seed=7, p_transient_read=0.5)
        a, b = plan.injector_for(0), plan.injector_for(0)
        assert [a._rng.random() for _ in range(20)] == [
            b._rng.random() for _ in range(20)
        ]


@pytest.mark.parametrize(
    "doc, text",
    [
        ({"seed": "abc"}, "seed must be an integer >= 0, got 'abc'"),
        ({"seed": -1, "p_transient_read": 0.1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.7}, "seed must be an integer >= 0, got 1.7"),
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        ({"p_transient_read": None}, "p_transient_read must be in [0, 1], got None"),
        ({"p_torn_write": "0.1"}, "p_torn_write must be in [0, 1], got '0.1'"),
        ({"p_transient_write": False}, "p_transient_write must be in [0, 1], got False"),
        ({"retry": {"max_retries": 2.5}}, "max_retries must be an integer >= 0, got 2.5"),
        ({"retry": {"max_retries": None}}, "max_retries must be an integer >= 0, got None"),
        ({"retry": {"backoff_s": "1"}}, "backoff_s must be a number >= 0, got '1'"),
    ],
)
def test_hostile_plan_values_are_refused_in_one_line(doc, text):
    with pytest.raises(ConfigurationError) as err:
        FaultPlan.from_dict(doc)
    assert str(err.value) == text


@pytest.mark.parametrize(
    "doc",
    [{"seed": "abc"}, {"seed": -1, "p_transient_read": 0.1}, {"p_transient_read": None}],
)
def test_hostile_plan_through_the_cli_exits_3(tmp_path, capsys, doc):
    from repro.cli import main

    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    rc = main(["sort", "--n", "1024", "--v", "4", "--b", "16", "--faults", str(path)])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("error: ") and "Traceback" not in err


def test_accepted_numbers_are_normalised():
    plan = FaultPlan.from_dict({"seed": 3, "p_transient_read": 0, "p_torn_write": 1})
    assert plan == FaultPlan(seed=3, p_transient_read=0.0, p_torn_write=1.0)
    assert type(plan.p_transient_read) is float and type(plan.seed) is int
