"""The knob registry: hardened parsing, named errors, generated docs.

The ISSUE's bugfix contract: a malformed value for *every* knob must
produce a one-line diagnostic naming the variable — never a raw
``ValueError`` traceback — and the README's knob table is generated from
the registry so it cannot drift.
"""

from __future__ import annotations

import pytest

from repro.tune.knobs import (
    ARENA_KINDS,
    DEFAULT_SHM_THRESHOLD,
    KNOB_BY_ENV,
    KNOB_BY_NAME,
    KNOBS,
    KnobError,
    read_knob,
    render_knob_table,
)
from repro.tune.runtime import current
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
    assert len(KNOBS) == 10
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


def test_arena_kinds():
    spec = KNOB_BY_ENV["REPRO_ARENA"]
    for kind in ARENA_KINDS:
        assert spec.coerce(kind) == kind
    assert spec.coerce("MMAP") == "mmap"


def test_shm_bytes_nonpositive_disables():
    spec = KNOB_BY_ENV["REPRO_SHM_BYTES"]
    assert spec.coerce("4096") == 4096
    assert spec.coerce("0") is None
    assert spec.coerce("-1") is None
    assert spec.default == DEFAULT_SHM_THRESHOLD


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
