"""Tuned-profile documents: schema, fingerprint, and load errors."""

from __future__ import annotations

import json

import pytest

from repro.tune.profile import (
    KIND,
    SCHEMA_VERSION,
    TunedProfile,
    config_from_profile,
    load_profile,
    profile_fingerprint,
    stable_env_fingerprint,
    validate_profile,
)
from repro.util.validation import ConfigurationError


def _profile() -> TunedProfile:
    return TunedProfile(
        workload={"op": "sort", "n": 4096, "p": 1, "seed": 0},
        machine={"v": 4, "B": 512, "D": 4},
        config={"workers": 0, "arena": "ram"},
        rationale=["probe: ..."],
        search={"candidates": 27},
    )


def test_document_is_valid_and_fingerprinted():
    doc = _profile().document()
    assert validate_profile(doc) == []
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["kind"] == KIND
    assert doc["fingerprint"] == profile_fingerprint(doc["workload"], doc["env"])


def test_stable_env_fingerprint_has_no_argv0():
    assert "argv0" not in stable_env_fingerprint()


def test_dumps_is_canonical():
    text = _profile().dumps()
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_save_and_load_roundtrip(tmp_path):
    path = str(tmp_path / "p.json")
    _profile().save(path)
    doc = load_profile(path)
    assert validate_profile(doc) == []
    assert config_from_profile(doc)["arena"] == "ram"


def test_validate_rejects_non_object():
    assert validate_profile([1, 2])
    assert validate_profile(None)


def test_validate_names_missing_keys():
    doc = _profile().document()
    del doc["machine"]
    assert any("machine" in e for e in validate_profile(doc))


def test_validate_rejects_wrong_schema_version():
    doc = _profile().document()
    doc["schema_version"] = 99
    assert any("schema_version" in e for e in validate_profile(doc))


def _refused(tmp_path, version, knob, value):
    assert SCHEMA_VERSION == 4
    message = f"schema_version {version} != supported 4"
    doc = _profile().document()
    doc["schema_version"] = version
    doc["config"][knob] = value
    assert validate_profile(doc) == [message]
    doc["schema_version"] = SCHEMA_VERSION  # even relabelled, the knob is gone
    assert validate_profile(doc) == [f"config.{knob} is not a registered knob"]
    doc["schema_version"] = version
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match=message):
        load_profile(str(path))


def test_v1_profile_with_fastpath_is_refused(tmp_path):
    """Schema 1 profiles carried the retired ``config.fastpath`` knob; the
    version check refuses them (re-run ``repro tune``)."""
    _refused(tmp_path, 1, "fastpath", "auto:64")


def test_v2_profile_with_prefetch_is_refused(tmp_path):
    """Schema 2 profiles carried the retired ``config.prefetch`` knob."""
    _refused(tmp_path, 2, "prefetch", True)


def test_v3_profile_with_shm_bytes_is_refused(tmp_path):
    """Schema 3 profiles carried the retired ``config.shm_bytes`` knob."""
    _refused(tmp_path, 3, "shm_bytes", 65536)


def test_validate_rejects_bad_machine_shape():
    doc = _profile().document()
    doc["machine"]["v"] = 0
    assert any("machine.v" in e for e in validate_profile(doc))
    doc = _profile().document()
    doc["machine"]["D"] = True
    assert any("machine.D" in e for e in validate_profile(doc))


def test_validate_rejects_unknown_and_malformed_knobs():
    doc = _profile().document()
    doc["config"]["bogus"] = 1
    assert any("config.bogus" in e for e in validate_profile(doc))
    doc = _profile().document()
    doc["config"]["arena"] = "sideways"
    assert any("config.arena" in e for e in validate_profile(doc))


def test_validate_rejects_fingerprint_mismatch():
    doc = _profile().document()
    doc["workload"]["n"] = 8192  # edit after fingerprinting
    assert any("fingerprint" in e for e in validate_profile(doc))


def test_load_errors_are_configuration_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_profile(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_profile(str(bad))
    tampered = tmp_path / "tampered.json"
    doc = _profile().document()
    doc["fingerprint"] = "0" * 64
    tampered.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="invalid tuned profile"):
        load_profile(str(tampered))
