"""The benchmark result store, its schema, and the regression gate."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.obs.bench_store import (
    SCHEMA_VERSION,
    BenchStore,
    compare,
    load,
    validate_document,
)


def _store_with_run():
    cfg = MachineConfig(N=1 << 12, v=4, D=2, B=64)
    data = np.random.default_rng(7).integers(0, 2**50, cfg.N)
    res = em_sort(data, cfg)
    store = BenchStore("unit")
    store.record("sort/base", cfg=cfg, report=res.report, timings={"wall_s": 0.1})
    return store, cfg, res


class TestRecord:
    def test_report_fills_measured_and_predicted(self):
        store, cfg, res = _store_with_run()
        (pt,) = store.points
        assert pt["measured"]["parallel_ios"] == res.report.io.parallel_ios
        assert pt["measured"]["supersteps"] == res.report.supersteps
        assert pt["machine"]["N"] == cfg.N
        pred = pt["predicted"]
        assert pred["io_lo"] <= pred["parallel_ios_per_proc"] <= pred["io_hi"]
        # measured per-proc I/O lands inside the Theorem 2/3 envelope
        assert pred["io_lo"] <= res.report.io_max.parallel_ios <= pred["io_hi"]

    def test_explicit_dicts_merge_and_extra_kept(self):
        store = BenchStore("unit")
        pt = store.record(
            "x", measured={"a": 1}, predicted={"b": 2.0}, note="hello", k=3
        )
        assert pt["measured"] == {"a": 1}
        assert pt["predicted"] == {"b": 2.0}
        assert pt["extra"] == {"note": "hello", "k": 3}

    def test_document_schema_valid(self):
        store, _, _ = _store_with_run()
        doc = store.document()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert validate_document(doc) == []

    def test_write_load_roundtrip(self, tmp_path):
        store, _, _ = _store_with_run()
        path = store.write(str(tmp_path))
        assert path.endswith("BENCH_unit.json")
        doc = load(path)
        assert doc["suite"] == "unit"
        assert doc["points"] == json.loads(json.dumps(store.points))

    def test_numpy_scalars_serialize(self, tmp_path):
        store = BenchStore("np")
        store.record("x", measured={"ios": np.int64(5), "t": np.float64(0.5)})
        doc = load(store.write(str(tmp_path)))
        assert doc["points"][0]["measured"] == {"ios": 5, "t": 0.5}


class TestValidation:
    def test_rejects_non_dict(self):
        assert validate_document([]) != []

    def test_missing_keys_reported(self):
        errs = validate_document({"suite": "s"})
        assert any("schema_version" in e for e in errs)
        assert any("points" in e for e in errs)

    def test_wrong_schema_version(self):
        store = BenchStore("s")
        store.record("x", measured={"a": 1})
        doc = store.document()
        doc["schema_version"] = 99
        assert any("schema_version" in e for e in validate_document(doc))

    def test_duplicate_point_names(self):
        store = BenchStore("s")
        store.record("x", measured={"a": 1})
        store.record("x", measured={"a": 2})
        assert any("duplicate" in e for e in validate_document(store.document()))

    def test_load_raises_on_invalid(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"suite": "bad"}))
        with pytest.raises(ValueError, match="invalid benchmark document"):
            load(str(path))


class TestCompare:
    def _doc(self, ios=100, wall=1.0, extra_point=False, name="sort"):
        store = BenchStore("cmp")
        store.record(name, measured={"parallel_ios": ios}, timings={"wall_s": wall})
        if extra_point:
            store.record("bonus", measured={"parallel_ios": 1})
        return store.document()

    def test_identical_runs_pass(self):
        res = compare(self._doc(), self._doc())
        assert res.ok
        assert res.compared_points == 1
        assert "OK" in res.render()

    def test_io_perturbation_fails_exact_gate(self):
        res = compare(self._doc(ios=100), self._doc(ios=110))
        assert not res.ok
        (m,) = res.regressions
        assert m.key == "parallel_ios" and m.kind == "measured"
        assert "REGRESSION" in res.render()

    def test_io_rtol_loosens_gate(self):
        assert compare(self._doc(ios=100), self._doc(ios=110), io_rtol=0.15).ok

    def test_timings_fuzzy_by_default(self):
        """Timings are provenance: by default no change in them gates."""
        for wall in (0.001, 1.4, 2.0, 50.0):
            res = compare(self._doc(wall=1.0), self._doc(wall=wall))
            assert res.ok and res.compared_values == 1  # the one I/O counter

    def test_timings_skipped_when_none(self):
        """A run that records no timings at all is compared on I/O alone."""
        bare = self._doc()
        bare["points"][0].pop("timings")
        res = compare(self._doc(), bare)
        assert res.ok and res.compared_values == 1
        assert compare(bare, self._doc(wall=50.0)).ok

    def test_missing_baseline_point_is_regression(self):
        res = compare(self._doc(extra_point=True), self._doc())
        assert not res.ok
        assert res.regressions[0].kind == "missing"

    def test_new_extra_points_are_fine(self):
        assert compare(self._doc(), self._doc(extra_point=True)).ok

    def test_missing_measured_key_is_regression(self):
        old = self._doc()
        new = self._doc()
        del new["points"][0]["measured"]["parallel_ios"]
        assert not compare(old, new).ok

    def test_non_numeric_measured_not_gated(self):
        old = self._doc()
        new = self._doc()
        old["points"][0]["measured"]["engine"] = "seq-em"
        new["points"][0]["measured"]["engine"] = "par-em"
        assert compare(old, new).ok

    def test_env_change_noted_not_gated(self):
        old = self._doc()
        new = self._doc()
        new["env"] = dict(new["env"], python="9.9.9")
        res = compare(old, new)
        assert res.ok
        assert "python" in res.env_changed
        assert "environment changed" in res.render()

    def test_invalid_document_raises(self):
        with pytest.raises(ValueError):
            compare({"nope": 1}, self._doc())
