"""The op table is the one definition of sort / permute / transpose: the
CLI handler, a local spec run and a direct ``em_*`` call are the same run."""

from __future__ import annotations

import numpy as np
import pytest

import repro.em.runner as runner
from repro.cli import _run_op, build_parser, cmd_run
from repro.em.runner import OPS, output_sha256
from repro.service.client import run_spec_local
from repro.service.pool import _counters
from repro.service.spec import SPEC_OPS
from repro.tune.tuner import WorkloadSpec, build_workload
from repro.util.rng import make_rng
from repro.util.validation import ConfigurationError

N, SEED = 4096, 9


@pytest.mark.no_fault_plan
@pytest.mark.parametrize("engine,p", [("seq", 1), ("par", 2)])
@pytest.mark.parametrize("op", list(OPS))
def test_cli_spec_and_direct_call_are_the_same_run(op, engine, p):
    argv = [op, "--n", str(N), "--seed", str(SEED), "--v", "8", "--p", str(p),
            "--b", "64", "--engine", engine]
    cli_values, cli_report, cli_cfg, cli_ok, _ = _run_op(build_parser().parse_args(argv))

    local = run_spec_local({
        "op": op, "n": N, "seed": SEED, "engine": engine,
        "machine": {"v": 8, "p": p, "D": 2, "B": 64},
    })["result"]

    raw = OPS[op].generate(make_rng(SEED), N)
    direct = getattr(runner, f"em_{op}")(*raw, cli_cfg, engine=engine)

    assert cli_ok and local["ok"]
    assert np.array_equal(direct.values, OPS[op].reference(*raw))
    assert (
        output_sha256(cli_values)
        == output_sha256(direct.values)
        == local["output_sha256"]
    )
    assert _counters(cli_report) == _counters(direct.report) == local["counters"]


def test_every_consumer_reads_the_tables_keys():
    assert SPEC_OPS == tuple(OPS)
    with pytest.raises(ConfigurationError, match="choose from"):
        WorkloadSpec(op="merge", n=16)
    parser = build_parser()
    assert {parser.parse_args([op]).fn for op in OPS} == {cmd_run}


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("op", list(OPS))
def test_build_workload_is_generate_plus_split(op, small_cfg):
    program, inputs = build_workload(WorkloadSpec(op=op, n=N, seed=SEED), small_cfg)
    raw = OPS[op].generate(make_rng(SEED), N)
    assert isinstance(program, OPS[op].program)
    for got, want in zip(inputs, OPS[op].split(*raw, small_cfg.v), strict=True):
        assert _same(got, want)


def test_transpose_rows_cols_is_the_tables_shape():
    """``--rows R --cols C`` and ``--n R*C`` agree when R is the table's
    default row count; an explicit shape overrides it."""
    parse = build_parser().parse_args
    base = ["transpose", "--v", "4", "--b", "32", "--seed", "3"]
    by_n, *_, ok_n, line_n = _run_op(parse(base + ["--n", "8192"]))
    by_shape, *_, ok_shape, line_shape = _run_op(
        parse(base + ["--rows", "64", "--cols", "128"])
    )
    assert ok_n and ok_shape and line_n == line_shape == "transposed 64x128: OK"
    assert output_sha256(by_n) == output_sha256(by_shape)
    wide, *_, ok_wide, line_wide = _run_op(parse(base + ["--rows", "16", "--cols", "512"]))
    assert ok_wide and line_wide == "transposed 16x512: OK" and wide.shape == (512, 16)
    with pytest.raises(ConfigurationError, match="go together"):
        _run_op(parse(base + ["--rows", "16"]))
