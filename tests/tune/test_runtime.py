"""RuntimeConfig resolution: precedence and per-run snapshot consistency.

The ISSUE's second bugfix: knob state used to be read at different times
by different subsystems (one knob followed a mid-process flip while the
arena choice, cached at import, did not), so back-to-back runs
could observe a half-applied environment.  Engines now resolve one
frozen snapshot per run; the regression tests here flip knobs between
runs and assert each run was internally consistent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import make_engine
from repro.pdm.arena import TrackArena
from repro.pdm.mmap_arena import MmapTrackArena
from repro.tune.knobs import KnobError
from repro.tune.runtime import RuntimeConfig, current


class TestResolve:
    def test_all_defaults(self):
        rt = RuntimeConfig.resolve(environ={})
        assert rt == RuntimeConfig()
        assert rt.workers == 0
        assert rt.arena == "ram"
        assert rt.transport == "memory"

    def test_env_beats_default(self):
        rt = RuntimeConfig.resolve(environ={"REPRO_WORKERS": "3"})
        assert rt.workers == 3

    def test_profile_beats_default(self):
        rt = RuntimeConfig.resolve(profile={"arena": "mmap"}, environ={})
        assert rt.arena == "mmap"

    def test_env_beats_profile(self):
        rt = RuntimeConfig.resolve(
            profile={"arena": "mmap"}, environ={"REPRO_ARENA": "ram"}
        )
        assert rt.arena == "ram"

    def test_override_beats_env(self):
        rt = RuntimeConfig.resolve(
            overrides={"workers": 4}, environ={"REPRO_WORKERS": "2"}
        )
        assert rt.workers == 4

    def test_none_override_is_ignored(self):
        rt = RuntimeConfig.resolve(
            overrides={"workers": None}, environ={"REPRO_WORKERS": "2"}
        )
        assert rt.workers == 2

    def test_string_overrides_are_parsed(self):
        rt = RuntimeConfig.resolve(overrides={"arena": "MMAP"}, environ={})
        assert rt.arena == "mmap"
        with pytest.raises(KnobError, match="REPRO_ARENA"):
            RuntimeConfig.resolve(overrides={"arena": "sideways"}, environ={})

    def test_non_string_overrides_are_parsed_too(self):
        """An API override goes through the knob's parser like a flag
        does: a negative worker count is refused, not run."""
        assert RuntimeConfig.resolve(overrides={"workers": 3}, environ={}).workers == 3
        with pytest.raises(KnobError, match="REPRO_WORKERS"):
            RuntimeConfig.resolve(overrides={"workers": -1}, environ={})
        cfg = MachineConfig(N=1 << 10, v=4, p=2, D=2, B=64)
        with pytest.raises(KnobError, match="must be >= 0"):
            make_engine(cfg, "par", overrides={"workers": -1})

    def test_unknown_keys_are_named_errors(self):
        with pytest.raises(KnobError, match="bogus"):
            RuntimeConfig.resolve(profile={"bogus": 1}, environ={})
        with pytest.raises(KnobError, match="bogus"):
            RuntimeConfig.resolve(overrides={"bogus": 1}, environ={})
        # the retired I/O-path switch is just another unknown key
        with pytest.raises(KnobError, match="fastpath"):
            RuntimeConfig.resolve(profile={"fastpath": "on"}, environ={})
        with pytest.raises(TypeError):
            RuntimeConfig(fastpath="on")
        # ... and so is the retired prefetch switch
        with pytest.raises(KnobError, match="unknown knob override 'prefetch'"):
            RuntimeConfig.resolve(overrides={"prefetch": True}, environ={})
        with pytest.raises(KnobError, match="unknown knob 'prefetch' in tuned"):
            RuntimeConfig.resolve(profile={"prefetch": True}, environ={})
        assert not hasattr(RuntimeConfig(), "prefetch")

    def test_stale_env_of_a_retired_knob_is_never_read(self):
        for env in ("REPRO_PREFETCH", "REPRO_FASTPATH"):
            assert RuntimeConfig.resolve(environ={env: "maybe"}) == RuntimeConfig()

    def test_malformed_env_is_a_named_error(self):
        with pytest.raises(KnobError, match="REPRO_ARENA"):
            RuntimeConfig.resolve(environ={"REPRO_ARENA": "tape"})

    def test_empty_env_value_means_unset(self):
        rt = RuntimeConfig.resolve(environ={"REPRO_WORKERS": "  "})
        assert rt.workers == 0


class TestDerivedProperties:
    def test_knob_values_roundtrip_through_resolve(self):
        rt = RuntimeConfig(workers=2, spill_quota=None, arena="mmap")
        again = RuntimeConfig.resolve(profile=rt.knob_values(), environ={})
        assert again == rt


def test_current_is_uncached(monkeypatch):
    assert current().arena == "ram"
    monkeypatch.setenv("REPRO_ARENA", "mmap")
    assert current().arena == "mmap"


# ------------------------------------------------- per-run snapshot regression


_QUOTA = {"ram": 1 << 30, "mmap": 1 << 31}


def _engine_snapshot_state(eng):
    """(arena kind, spill quota) the run actually used."""
    arena = next(iter(eng.arrays.values()))._arena
    kind = (
        "mmap" if isinstance(arena, MmapTrackArena)
        else "ram" if isinstance(arena, TrackArena)
        else None
    )
    return kind, eng._rt.spill_quota


@pytest.mark.parametrize("first,second", [("ram", "mmap"), ("mmap", "ram")])
def test_back_to_back_runs_each_internally_consistent(
    monkeypatch, first, second, rng
):
    """Flipping REPRO_ARENA and REPRO_SPILL_QUOTA between runs re-resolves
    cleanly per run.

    Regression for the inconsistent-caching bug: every subsystem of one
    run (storage arena, spill quota) must observe the same
    snapshot, and the next run must observe the flipped one.
    """
    cfg = MachineConfig(N=1 << 10, v=4, D=2, B=32)
    data = rng.integers(0, 1 << 40, 1 << 10)
    seen = []
    for kind in (first, second):
        monkeypatch.setenv("REPRO_ARENA", kind)
        monkeypatch.setenv("REPRO_SPILL_QUOTA", str(_QUOTA[kind]))
        eng = make_engine(cfg)
        res = eng.run(*_sort_workload(data, cfg))
        seen.append((_engine_snapshot_state(eng), res.report.io.parallel_ios))
    (k1, s1), ios1 = seen[0]
    (k2, s2), ios2 = seen[1]
    assert (k1, k2) == (first, second)
    assert (s1, s2) == (_QUOTA[first], _QUOTA[second])
    # storage backend is a physical concern: logical I/O counts identical
    assert ios1 == ios2


def _sort_workload(data, cfg):
    from repro.algorithms.collectives import partition_array
    from repro.algorithms.sorting import SampleSort

    return SampleSort(), partition_array(np.asarray(data), cfg.v)


def test_env_flip_mid_process_does_not_leak_into_resolved_engine(monkeypatch):
    """An engine holds its snapshot; later env flips affect later runs only."""
    cfg = MachineConfig(N=1 << 10, v=4, D=2, B=32)
    monkeypatch.setenv("REPRO_SPILL_QUOTA", "4096")
    rt = RuntimeConfig.resolve()
    eng = make_engine(cfg, runtime=rt)
    monkeypatch.setenv("REPRO_SPILL_QUOTA", "0")
    assert eng.runtime.spill_quota == 4096
    assert current().spill_quota is None


def test_make_engine_overrides_beat_the_env_and_ride_on_a_pinned_runtime(monkeypatch):
    """``overrides=`` is the explicit level of the precedence chain: above
    the variable, on top of a pinned ``runtime=`` (never silently dropped),
    validated by the knob's parser, and never written anywhere."""
    import os

    cfg = MachineConfig(N=1 << 10, v=4, D=2, B=32)
    monkeypatch.setenv("REPRO_ARENA", "ram")
    eng = make_engine(cfg, overrides={"arena": "mmap", "nodes": None})
    assert (eng.runtime.arena, eng.runtime.nodes) == ("mmap", None)
    assert os.environ["REPRO_ARENA"] == "ram"
    pinned = RuntimeConfig(spill_quota=1 << 30)
    rt = make_engine(cfg, runtime=pinned, overrides={"arena": "mmap"}).runtime
    assert (rt.arena, rt.spill_quota) == ("mmap", 1 << 30)
    assert make_engine(cfg, runtime=pinned, overrides={}).runtime is pinned
    with pytest.raises(KnobError, match="REPRO_ARENA"):
        make_engine(cfg, runtime=pinned, overrides={"arena": "tape"})
