"""Tests for MachineConfig: derived quantities, defaults, and the paper's
constraint checks."""

from __future__ import annotations

import pytest

from repro.cgm.config import MachineConfig
from repro.util.validation import ConfigurationError, ConstraintViolation


class TestConstruction:
    def test_defaults(self):
        cfg = MachineConfig(N=10_000, v=4)
        assert cfg.p == 1 and cfg.D == 1
        assert cfg.M >= cfg.D * cfg.B
        assert cfg.mu == 2500
        assert cfg.h == 2500

    def test_p_must_divide_v(self):
        with pytest.raises(ConfigurationError, match="divide"):
            MachineConfig(N=1000, v=5, p=2)

    def test_p_cannot_exceed_v(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(N=1000, v=2, p=4)

    def test_memory_must_hold_disk_buffers(self):
        with pytest.raises(ConfigurationError, match="M >= D\\*B"):
            MachineConfig(N=1000, v=2, D=4, B=64, M=100)

    def test_positive_parameters(self):
        for bad in (dict(N=0, v=1), dict(N=10, v=0), dict(N=10, v=1, D=0), dict(N=10, v=1, B=0)):
            with pytest.raises(ConfigurationError):
                MachineConfig(**bad)

    def test_with_replaces_fields(self):
        cfg = MachineConfig(N=10_000, v=4)
        cfg2 = cfg.with_(D=3)
        assert cfg2.D == 3 and cfg2.N == cfg.N
        assert cfg.D == 1  # original unchanged

    def test_describe_mentions_key_parameters(self):
        text = MachineConfig(N=100, v=2, D=2, B=16).describe()
        assert "N=100" in text and "D=2" in text


class TestConstraints:
    def test_good_config_passes(self):
        cfg = MachineConfig(N=1 << 16, v=4, D=2, B=64)
        assert cfg.validate(kappa=2.0) == []

    def test_small_N_violates(self):
        cfg = MachineConfig(N=256, v=16, D=2, B=64)
        bad = cfg.validate(kappa=3.0)
        assert bad  # several constraints fail
        assert any("v*D*B" in b or "Lemma 2" in b for b in bad)

    def test_strict_mode_raises(self):
        cfg = MachineConfig(N=256, v=16, D=2, B=64)
        with pytest.raises(ConstraintViolation):
            cfg.validate(kappa=3.0, strict=True)

    def test_explicit_strict_overrides_config(self):
        """The default is lenient (the violations come back as a list);
        only an explicit ``strict=True`` raises."""
        cfg = MachineConfig(N=256, v=16, D=2, B=64)
        assert cfg.validate(kappa=3.0)
        with pytest.raises(ConstraintViolation):
            cfg.validate(kappa=3.0, strict=True)

    def test_constraint_report_structure(self):
        rep = MachineConfig(N=1 << 16, v=4).constraint_report()
        assert all({"ok", "detail"} <= set(d) for d in rep.values())
        assert any("Lemma 2" in k for k in rep)

    def test_balanced_slot_bound(self):
        cfg = MachineConfig(N=1 << 16, v=8, B=64)
        assert cfg.max_balanced_message_items == 2 * ((1 << 16) // 64)

    def test_kappa_dependence(self):
        # N = 4096 = 16^3: passes kappa=3 exactly, fails kappa=3.5
        cfg = MachineConfig(N=4096, v=16, B=1, M=100_000)
        ok3 = cfg.constraint_report(kappa=3.0)["N >= v^kappa (CGM slackness, kappa <= 3)"]
        ok35 = cfg.constraint_report(kappa=3.5)["N >= v^kappa (CGM slackness, kappa <= 3)"]
        assert ok3["ok"] and not ok35["ok"]
