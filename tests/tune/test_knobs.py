"""The knob registry: hardened parsing, named errors, generated docs.

The ISSUE's bugfix contract: a malformed value for *every* knob must
produce a one-line diagnostic naming the variable — never a raw
``ValueError`` traceback — and the README's knob table is generated from
the registry so it cannot drift.
"""

from __future__ import annotations

import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import OPS, em_sort, make_engine, output_sha256
from repro.service.pool import _counters
from repro.tune.knobs import (
    ARENA_KINDS,
    KNOB_BY_ENV,
    KNOB_BY_NAME,
    KNOBS,
    KnobError,
    read_knob,
    render_knob_table,
)
from repro.tune.profile import TunedProfile
from repro.tune.runtime import RuntimeConfig, current
from repro.util.rng import make_rng
from repro.util.validation import ConfigurationError


def test_registry_is_consistent():
    assert len(KNOB_BY_NAME) == len(KNOBS) == len(KNOB_BY_ENV)
    for spec in KNOBS:
        assert spec.env.startswith("REPRO_")
        assert spec.help


@pytest.mark.parametrize(
    "spec", [s for s in KNOBS if s.invalid_example is not None],
    ids=lambda s: s.env,
)
def test_every_knob_rejects_malformed_input_by_name(spec):
    """Each knob's canonical bad spelling raises KnobError naming the var."""
    with pytest.raises(KnobError, match=spec.env) as err:
        spec.coerce(spec.invalid_example)
    # one-line diagnostic: variable, offending value, accepted spellings
    msg = str(err.value)
    assert "\n" not in msg
    assert spec.invalid_example in msg
    # the same spelling as an explicit override (a CLI flag, an API
    # argument) is refused with the same line, before anything runs
    with pytest.raises(KnobError) as again:
        current().with_overrides({spec.name: spec.invalid_example})
    assert str(again.value) == msg


def test_knob_error_is_a_configuration_error():
    """Library callers catching ConfigurationError keep working."""
    assert issubclass(KnobError, ConfigurationError)


def test_unset_and_empty_mean_default():
    for spec in KNOBS:
        assert spec.coerce(None) == spec.default
        assert spec.coerce("") == spec.default
        assert spec.coerce("   ") == spec.default


def test_bool_tokens():
    """The one knob that still takes a boolean: a false token switches the
    trace off, a true token is kept for the bus (record in memory)."""
    spec = KNOB_BY_ENV["REPRO_TRACE"]
    for raw in ("1", "true", "YES", "On"):
        assert spec.coerce(raw) == raw
    for raw in ("0", "false", "NO", "Off"):
        assert spec.coerce(raw) is None


def test_fastpath_grammar():
    """The retired I/O-path switch has no grammar left: it is not in the
    registry (12 knobs -> 11), so no spelling can be read or overridden."""
    assert len(KNOBS) == 8
    assert "REPRO_FASTPATH" not in KNOB_BY_ENV and "fastpath" not in KNOB_BY_NAME
    assert "FASTPATH" not in render_knob_table()
    for name in ("fastpath", "REPRO_FASTPATH"):
        with pytest.raises(KnobError, match="unknown knob"):
            read_knob(name, environ={"REPRO_FASTPATH": "auto:128"})
    with pytest.raises(KnobError, match="unknown knob override 'fastpath'"):
        current().with_overrides({"fastpath": "1"})


def test_prefetch_knob_is_retired():
    """11 knobs -> 10: no reader thread, so nothing to switch."""
    assert "REPRO_PREFETCH" not in KNOB_BY_ENV and "prefetch" not in KNOB_BY_NAME
    assert "PREFETCH" not in render_knob_table()
    for name in ("prefetch", "REPRO_PREFETCH"):
        with pytest.raises(KnobError, match="unknown knob"):
            read_knob(name, environ={"REPRO_PREFETCH": "0"})
    with pytest.raises(KnobError, match="unknown knob override 'prefetch'"):
        current().with_overrides({"prefetch": "0"})


def test_the_fault_plan_knob_is_retired():
    """10 -> 9 -> 8 knobs: a fault plan is an argument of the run, so an
    override or profile entry naming one is refused in one line, and a
    leftover ``REPRO_FAULTS`` is ignored."""
    assert "REPRO_FAULTS" not in KNOB_BY_ENV and "faults" not in KNOB_BY_NAME
    with pytest.raises(KnobError, match="unknown knob override 'faults'"):
        make_engine(MachineConfig(N=1024, v=4, D=2, B=32), overrides={"faults": "p.json"})
    with pytest.raises(KnobError, match="unknown knob 'faults' in tuned profile"):
        RuntimeConfig.resolve(profile={"faults": "p.json"}, environ={})
    assert RuntimeConfig.resolve(environ={"REPRO_FAULTS": "p.json"}) == RuntimeConfig()


def test_arena_kinds():
    spec = KNOB_BY_ENV["REPRO_ARENA"]
    for kind in ARENA_KINDS:
        assert spec.coerce(kind) == kind
    assert spec.coerce("MMAP") == "mmap"


def test_shm_spells_the_one_local_carrier():
    """``shm`` is accepted everywhere ``memory`` is and resolves to the
    same snapshot: env var, ``overrides=``, CLI flag and profile entry."""
    from repro.cli import build_parser

    memory = RuntimeConfig.resolve(overrides={"transport": "memory"}, environ={})
    assert memory.transport == "memory" == KNOB_BY_ENV["REPRO_TRANSPORT"].default
    assert RuntimeConfig.resolve(environ={}) == memory
    assert RuntimeConfig.resolve(environ={"REPRO_TRANSPORT": "shm"}) == memory
    assert RuntimeConfig.resolve(overrides={"transport": "shm"}, environ={}) == memory
    assert RuntimeConfig.resolve(profile={"transport": "shm"}, environ={}) == memory
    args = build_parser().parse_args(["sort", "--n", "64", "--transport", "shm"])
    assert RuntimeConfig.resolve(
        overrides={"transport": args.transport}, environ={}
    ) == memory


def test_the_shared_memory_threshold_is_retired():
    """``shm_bytes`` is no knob: an override or profile entry naming it is
    refused in one line, and a leftover ``REPRO_SHM_BYTES`` is ignored."""
    assert "shm_bytes" not in KNOB_BY_NAME and "REPRO_SHM_BYTES" not in KNOB_BY_ENV
    with pytest.raises(KnobError, match="unknown knob override 'shm_bytes'"):
        current().with_overrides({"shm_bytes": 4096})
    with pytest.raises(KnobError, match="unknown knob 'shm_bytes' in tuned profile"):
        RuntimeConfig.resolve(profile={"shm_bytes": 4096}, environ={})
    assert RuntimeConfig.resolve(environ={"REPRO_SHM_BYTES": "1"}) == RuntimeConfig()


def test_workers_rejects_negative():
    with pytest.raises(KnobError, match="REPRO_WORKERS"):
        KNOB_BY_ENV["REPRO_WORKERS"].coerce("-2")


def test_trace_false_tokens_disable():
    spec = KNOB_BY_ENV["REPRO_TRACE"]
    assert spec.coerce("off") is None
    assert spec.coerce("1") == "1"
    assert spec.coerce("/tmp/t.jsonl") == "/tmp/t.jsonl"


def test_read_knob_by_name_and_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert read_knob("workers") == 3
    assert read_knob("REPRO_WORKERS") == 3
    assert read_knob("workers", environ={}) == 0
    with pytest.raises(KnobError, match="unknown knob"):
        read_knob("REPRO_BOGUS")


def test_render_knob_table_covers_every_knob():
    table = render_knob_table()
    lines = table.splitlines()
    assert lines[0].startswith("| Variable ")
    assert len(lines) == 2 + len(KNOBS)
    for spec in KNOBS:
        assert f"`{spec.env}`" in table


def test_readme_knob_table_matches_registry():
    """The committed README table is exactly render_knob_table() output."""
    import pathlib

    import repro

    readme = (
        pathlib.Path(repro.__file__).resolve().parents[2] / "README.md"
    ).read_text()
    begin, end = "<!-- knob-table:begin -->\n", "<!-- knob-table:end -->"
    assert begin in readme and end in readme
    committed = readme.split(begin, 1)[1].split(end, 1)[0].strip("\n")
    assert committed == render_knob_table(), (
        "README knob table drifted from the registry — regenerate with "
        "python -c 'from repro.tune.knobs import render_knob_table; "
        "print(render_knob_table())'"
    )


# ------------------------------------------- a knob chooses only how a run executes

#: the Group-A run every row repeats: sort on the par backend, p = 2
_ROW_CFG = MachineConfig(N=8192, v=4, p=2, D=2, B=64)


def _knob_rows(tmp_path, nodes: str, profile: str) -> dict:
    """One non-default value per registered knob (plus what it needs to
    take effect), as ``make_engine`` overrides."""
    return {
        "workers": {"workers": 2},
        "arena": {"arena": "mmap"},
        "transport": {"transport": "tcp", "nodes": nodes, "workers": 2},
        "nodes": {"transport": "tcp", "nodes": nodes},
        "spill_quota": {"arena": "mmap", "spill_quota": 1 << 30},
        "spill_dir": {"arena": "mmap", "spill_dir": str(tmp_path)},
        "trace": {"trace": str(tmp_path / "run.jsonl")},
        "profile": {"profile": profile},
    }


@pytest.fixture
def two_nodes():
    from repro.core.transport.node import NodeServer

    servers = [NodeServer().start_thread(), NodeServer().start_thread()]
    yield ",".join(s.address for s in servers)
    for s in servers:
        s.shutdown()


@pytest.mark.no_fault_plan  # fault draws may follow a fleet's allocation order
@pytest.mark.parametrize("name", [spec.name for spec in KNOBS])
def test_a_knob_chooses_only_how_a_run_executes(name, tmp_path, two_nodes):
    """The rule every ``REPRO_*`` knob keeps (and why neither the result
    cache key nor the checkpoint fingerprint holds one): under any value
    of any knob a Group-A run returns the default run's output hash and
    counters.  A knob added to the registry without a row fails here."""
    profile = str(tmp_path / "tuned.json")
    TunedProfile(
        workload={"op": "sort", "n": _ROW_CFG.N, "p": _ROW_CFG.p, "seed": 0},
        machine={"v": 8, "D": 2, "B": 256},
        config={"arena": "mmap", "workers": 2},
    ).save(profile)
    rows = _knob_rows(tmp_path, two_nodes, profile)
    assert set(rows) == set(KNOB_BY_NAME), "every knob has exactly one row"
    (data,) = OPS["sort"].generate(make_rng(3), _ROW_CFG.N)

    def run(overrides=None):
        out = em_sort(data, _ROW_CFG, engine="par", overrides=overrides)
        return output_sha256(out.values), _counters(out.report)

    row = rows[name]
    assert row[name] != KNOB_BY_NAME[name].default
    assert run(row) == run()

