"""The verdict arithmetic of ``scripts/claim_pairs.py`` (the README's
"Rules for later claims"); the script itself only shells out to the
frozen benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "claim_pairs", Path(__file__).resolve().parents[2] / "scripts" / "claim_pairs.py"
)
claim_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(claim_pairs)

TIME = {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.2}
COUNT = {"name": "sim_parallel_ios", "unit": "count", "better": "lower", "bound": 0.01}


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [0.40, 0.41, 0.42, 0.43, 0.44, 0.40, 0.41, 0.42, 0.43, 0.44]
    clear = [p - 0.1 for p in parent]
    v = claim_pairs.judge(TIME, parent, clear)
    assert v["wins"] == 10 and v["gain"] and v["regression"] == "within bound"
    # nine wins and one loss still carry it; eight do not
    nine = clear[:9] + [parent[9] + 0.01]
    assert claim_pairs.judge(TIME, parent, nine)["gain"]
    eight = clear[:8] + [p + 0.01 for p in parent[8:]]
    assert not claim_pairs.judge(TIME, parent, eight)["gain"]
    # ten wins by less than the parent's own spread are not a gain
    hair = [p - 0.001 for p in parent]
    v = claim_pairs.judge(TIME, parent, hair)
    assert v["wins"] == 10 and not v["gain"]
    # ties count for neither side
    v = claim_pairs.judge(TIME, parent, parent[:2] + clear[2:])
    assert (v["wins"], v["ties"], v["gain"]) == (8, 2, False)


def test_regression_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0]
    assert claim_pairs.judge(TIME, parent, [1.3, 1.31, 1.29, 1.3])["regression"] == "worse"
    assert claim_pairs.judge(TIME, parent, [1.1, 1.1, 1.1, 1.1])["regression"] == "within bound"
    noisy = [0.7, 1.4, 0.8, 1.3]
    assert claim_pairs.judge(TIME, parent, noisy)["regression"] == "unresolved"
    # a wide spread that still beats every parent run is resolved
    assert claim_pairs.judge(TIME, parent, [0.2, 0.9, 0.3, 0.8])["regression"] == "within bound"
    higher = {**TIME, "better": "higher"}
    assert claim_pairs.judge(higher, parent, [0.7, 0.7, 0.7, 0.7])["regression"] == "worse"
    assert claim_pairs.judge(higher, parent, [1.5, 1.5, 1.5, 1.5])["gain"]
    assert claim_pairs.judge(COUNT, [5, 5], [5, 5])["regression"] == "identical"
    assert claim_pairs.judge(COUNT, [5, 5], [5, 6])["regression"] == "DIFFERS"


def test_every_row_carries_the_relative_change_of_the_medians():
    """``rel`` is ``(change - parent) / parent`` of the two medians, so a
    ratio is always read with its base; a zero parent median reads 0."""
    v = claim_pairs.judge(TIME, [0.20, 0.21, 0.19], [0.15, 0.16, 0.17])
    assert v["rel"] == pytest.approx((0.16 - 0.20) / 0.20)
    higher = {**TIME, "better": "higher"}
    assert claim_pairs.judge(higher, [2.0, 2.0], [3.0, 3.0])["rel"] == pytest.approx(0.5)
    assert claim_pairs.judge(COUNT, [0, 0], [0, 0])["rel"] == 0.0
    assert claim_pairs.judge(COUNT, [-4, -4], [-2, -2])["rel"] == pytest.approx(0.5)


def test_the_table_prints_the_relative_change(tmp_path, capsys, monkeypatch):
    bench = {"command": ["true"], "run_seconds": 1,
             "workloads": [{"name": "sort_io"}], "end_to_end": [TIME]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    runs = iter([0.20, 0.15, 0.15, 0.20])  # pair 1 parent, change; pair 2 change, parent
    monkeypatch.setattr(claim_pairs, "run_once",
                        lambda *a: {"op_p50_s": next(runs)})
    assert claim_pairs.main([str(tmp_path), str(tmp_path), "--seed", "1",
                             "--pairs", "2"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("op_p50_s"))
    assert "-25.00%" in row.split()


def test_a_count_cell_reads_identical_improved_or_differs():
    def judge(parent, change, spec=COUNT):
        return claim_pairs.judge(spec, parent, change)["regression"]

    assert judge([23753] * 3, [23753] * 3) == "identical"
    # both sides constant, the change strictly better: the one explained move
    assert judge([23753] * 3, [18585] * 3) == "improved"
    assert judge([3, 3], [4, 4], {**COUNT, "better": "higher"}) == "improved"
    # any rise, and any count that is not one number per side, still fails
    assert judge([18585] * 3, [23753] * 3) == "DIFFERS"
    assert judge([3, 3], [2, 2], {**COUNT, "better": "higher"}) == "DIFFERS"
    assert judge([23753] * 3, [18585, 18585, 18584]) == "DIFFERS"
    assert judge([23753, 23754, 23753], [18585] * 3) == "DIFFERS"


def _cell(gain=False, regression="within bound"):
    return {"gain": gain, "regression": regression}


def test_claim_exit_code_arithmetic():
    """``--claim METRIC@WORKLOAD``: 0 only when that cell is a gain and no
    other cell reads ``worse`` or ``DIFFERS``; ``unresolved`` is listed but
    does not fail."""
    verdict = claim_pairs.claim_verdict
    table = {
        "sort_io": {"op_p50_s": _cell(gain=True), "setup_s": _cell()},
        "scale_out": {
            "op_p50_s": _cell(gain=True),
            "sim_parallel_ios": _cell(regression="identical"),
        },
    }
    rc, lines = verdict("op_p50_s@sort_io", table)
    assert rc == 0 and lines == ["claim op_p50_s@sort_io: gain"]
    # an unclaimed gain elsewhere neither helps nor hurts; a missing one fails
    assert verdict("setup_s@sort_io", table)[0] == 1
    assert verdict("op_p50_s@service_mix", table) == (
        1, ["claim op_p50_s@service_mix: NOT measured"]
    )
    # unresolved elsewhere: listed, still 0
    table["scale_out"]["setup_s"] = _cell(regression="unresolved")
    rc, lines = verdict("op_p50_s@sort_io", table)
    assert rc == 0 and "  setup_s@scale_out: unresolved" in lines
    # worse or DIFFERS anywhere else: 1, and named
    for bad in ("worse", "DIFFERS"):
        table["scale_out"]["sim_parallel_ios"] = _cell(regression=bad)
        rc, lines = verdict("op_p50_s@sort_io", table)
        assert rc == 1 and f"  sim_parallel_ios@scale_out: {bad}" in lines
    # an improved count elsewhere is listed and does not fail
    table["scale_out"]["sim_parallel_ios"] = _cell(regression="improved")
    rc, lines = verdict("op_p50_s@sort_io", table)
    assert rc == 0 and "  sim_parallel_ios@scale_out: improved" in lines
    # the claimed cell is judged by the gain rule alone
    table = {"sort_io": {"op_p50_s": _cell(gain=True, regression="unresolved")}}
    assert verdict("op_p50_s@sort_io", table)[0] == 0


def test_a_mistyped_claim_is_refused_before_any_run(tmp_path, capsys):
    bench = {"command": ["false"], "run_seconds": 1,
             "workloads": [{"name": "sort_io"}], "end_to_end": [TIME]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    for claim in ("op_p50@sort_io", "op_p50_s@sort", "op_p50_s"):
        with pytest.raises(SystemExit) as err:
            claim_pairs.main([str(tmp_path), str(tmp_path), "--seed", "1",
                              "--claim", claim])
        assert err.value.code == 2
        assert "METRIC@WORKLOAD" in capsys.readouterr().err
