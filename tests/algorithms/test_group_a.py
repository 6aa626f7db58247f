"""Tests for Group A of Figure 5: sorting, permutation, matrix transpose —
correctness on every backend, adversarial inputs, property-based checks,
and the paper's I/O claims."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.config import MachineConfig
from repro.core.theory import predicted_parallel_ios
from repro.algorithms.sorting import SampleSort
from repro.em.runner import em_permute, em_sort, em_transpose, make_engine

from tests.conftest import all_engine_kinds, cfg_for


def base_cfg(n: int, v: int = 8) -> MachineConfig:
    return MachineConfig(N=n, v=v, D=2, B=64)


class TestSortCorrectness:
    @pytest.mark.parametrize("kind", all_engine_kinds())
    def test_random_input(self, kind, rng):
        n = 1 << 13
        data = rng.integers(-(2**40), 2**40, n)
        cfg = cfg_for(kind, base_cfg(n))
        out = em_sort(data, cfg, engine=kind)
        assert np.array_equal(out.values, np.sort(data))

    def test_already_sorted(self):
        n = 4096
        data = np.arange(n)
        out = em_sort(data, base_cfg(n), engine="seq")
        assert np.array_equal(out.values, data)

    def test_reverse_sorted(self):
        n = 4096
        data = np.arange(n)[::-1].copy()
        out = em_sort(data, base_cfg(n), engine="seq")
        assert np.array_equal(out.values, np.arange(n))

    def test_all_equal_keys(self):
        """Degenerate splitters: every sample identical."""
        n = 4096
        data = np.full(n, 7)
        out = em_sort(data, base_cfg(n), engine="seq")
        assert np.array_equal(out.values, data)

    def test_few_distinct_keys(self, rng):
        n = 4096
        data = rng.integers(0, 3, n)
        out = em_sort(data, base_cfg(n), engine="seq")
        assert np.array_equal(out.values, np.sort(data))

    def test_floats(self, rng):
        n = 4096
        data = rng.normal(size=n)
        out = em_sort(data, base_cfg(n), engine="memory")
        assert np.array_equal(out.values, np.sort(data))

    def test_balanced_mode(self, rng):
        n = 1 << 13
        data = rng.integers(0, 2**30, n)
        out = em_sort(data, base_cfg(n), engine="seq", balanced=True)
        assert np.array_equal(out.values, np.sort(data))

    def test_n_not_divisible_by_v(self, rng):
        n = 5000  # not a multiple of 8
        data = rng.integers(0, 10**6, n)
        out = em_sort(data, base_cfg(n), engine="seq")
        assert np.array_equal(out.values, np.sort(data))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        v=st.sampled_from([2, 4, 8, 16]),
        n=st.integers(1000, 20_000),
    )
    def test_sort_property(self, seed, v, n):
        data = np.random.default_rng(seed).integers(0, 2**50, n)
        out = em_sort(data, MachineConfig(N=n, v=v, B=32), engine="memory")
        assert np.array_equal(out.values, np.sort(data))

    def test_output_balance(self, rng):
        """Regular sampling: no processor receives more than ~2N/v."""
        n = 1 << 14
        v = 8
        data = rng.integers(0, 2**40, n)
        out = em_sort(data, base_cfg(n, v), engine="memory")
        sizes = [o.size for o in out.result.outputs]
        assert max(sizes) <= 2 * n // v + v

    def test_constant_rounds(self, rng):
        """lambda = O(1): 4 communication rounds + quiescence check."""
        for n in (1 << 12, 1 << 15):
            out = em_sort(rng.integers(0, 2**40, n), base_cfg(n), engine="memory")
            assert out.report.rounds <= 5


class TestSortIOComplexity:
    def test_io_linear_in_n(self, rng):
        """Doubling N should roughly double parallel I/Os (no log factor)."""
        ios = []
        for n in (1 << 13, 1 << 14, 1 << 15):
            data = rng.integers(0, 2**40, n)
            out = em_sort(data, base_cfg(n), engine="seq")
            ios.append(out.report.io.parallel_ios)
        r1 = ios[1] / ios[0]
        r2 = ios[2] / ios[1]
        assert 1.6 < r1 < 2.4
        assert 1.6 < r2 < 2.4

    def test_more_disks_fewer_ios(self, rng):
        n = 1 << 14
        data = rng.integers(0, 2**40, n)
        io_by_D = {}
        for D in (1, 2, 4):
            out = em_sort(data, MachineConfig(N=n, v=8, D=D, B=64), engine="seq")
            io_by_D[D] = out.report.io.parallel_ios
        assert io_by_D[2] < 0.62 * io_by_D[1]
        assert io_by_D[4] < 0.62 * io_by_D[2]

    def test_io_matches_theorem3_prediction(self, rng):
        """Measured parallel I/Os within a small constant of Theorem 3's
        (v/p) * lambda * (mu + h) / (DB)."""
        n = 1 << 15
        cfg = base_cfg(n)
        out = em_sort(rng.integers(0, 2**40, n), cfg, engine="seq")
        predicted = predicted_parallel_ios(
            cfg.v, cfg.p, cfg.D, cfg.B, out.report.rounds, cfg.mu, cfg.h
        )
        measured = out.report.io.parallel_ios
        assert measured <= 4 * predicted
        assert measured >= predicted / 4

    def test_disk_utilization_high(self, rng):
        """The staggered layout should keep most I/Os fully D-parallel."""
        n = 1 << 15
        out = em_sort(rng.integers(0, 2**40, n), base_cfg(n), engine="seq")
        assert out.report.io.utilization(2) > 0.8


class TestPermutation:
    @pytest.mark.parametrize("kind", all_engine_kinds())
    def test_random_permutation(self, kind, rng):
        n = 1 << 13
        values = rng.integers(0, 2**40, n)
        perm = rng.permutation(n)
        cfg = cfg_for(kind, base_cfg(n))
        out = em_permute(values, perm, cfg, engine=kind)
        expect = np.zeros(n, dtype=np.int64)
        expect[perm] = values
        assert np.array_equal(out.values, expect)

    def test_identity(self, rng):
        n = 4096
        values = rng.integers(0, 100, n)
        out = em_permute(values, np.arange(n), base_cfg(n), engine="seq")
        assert np.array_equal(out.values, values)

    def test_reversal(self, rng):
        n = 4096
        values = rng.integers(0, 100, n)
        out = em_permute(values, np.arange(n)[::-1].copy(), base_cfg(n), engine="seq")
        assert np.array_equal(out.values, values[::-1])

    def test_single_round(self, rng):
        n = 4096
        out = em_permute(
            rng.integers(0, 9, n), np.random.default_rng(1).permutation(n),
            base_cfg(n), engine="memory",
        )
        assert out.report.rounds <= 2

    def test_mismatched_lengths_rejected(self):
        from repro.util.validation import ConfigurationError

        with pytest.raises(ConfigurationError):
            em_permute(np.arange(10), np.arange(9), base_cfg(10, v=1))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), v=st.sampled_from([2, 4, 8]))
    def test_permutation_property(self, seed, v):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(500, 5000))
        values = rng.integers(0, 2**40, n)
        perm = rng.permutation(n)
        out = em_permute(values, perm, MachineConfig(N=n, v=v, B=32), engine="memory")
        expect = np.zeros(n, dtype=np.int64)
        expect[perm] = values
        assert np.array_equal(out.values, expect)


class TestTranspose:
    @pytest.mark.parametrize("kind", all_engine_kinds())
    def test_rectangular(self, kind, rng):
        k, ell = 96, 160
        mat = rng.integers(0, 10**6, (k, ell))
        cfg = cfg_for(kind, base_cfg(mat.size))
        out = em_transpose(mat, cfg, engine=kind)
        assert np.array_equal(out.values, mat.T)

    def test_square(self, rng):
        mat = rng.integers(0, 100, (64, 64))
        out = em_transpose(mat, base_cfg(mat.size), engine="seq")
        assert np.array_equal(out.values, mat.T)

    def test_tall_thin(self, rng):
        mat = rng.integers(0, 100, (4096, 2))
        out = em_transpose(mat, base_cfg(mat.size), engine="seq")
        assert np.array_equal(out.values, mat.T)

    def test_short_wide(self, rng):
        mat = rng.integers(0, 100, (2, 4096))
        out = em_transpose(mat, base_cfg(mat.size), engine="seq")
        assert np.array_equal(out.values, mat.T)

    def test_single_row(self, rng):
        mat = rng.integers(0, 100, (1, 512))
        out = em_transpose(mat, MachineConfig(N=512, v=4, B=16), engine="memory")
        assert np.array_equal(out.values, mat.T)

    def test_fewer_rows_than_procs(self, rng):
        mat = rng.integers(0, 100, (3, 1024))
        out = em_transpose(mat, MachineConfig(N=mat.size, v=8, B=16), engine="memory")
        assert np.array_equal(out.values, mat.T)

    def test_not_2d_rejected(self):
        from repro.util.validation import ConfigurationError

        with pytest.raises(ConfigurationError):
            em_transpose(np.arange(10), base_cfg(10, v=1))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_transpose_property(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 80))
        ell = int(rng.integers(1, 80))
        mat = rng.integers(0, 2**40, (k, ell))
        out = em_transpose(
            mat, MachineConfig(N=mat.size, v=4, B=16), engine="memory"
        )
        assert np.array_equal(out.values, mat.T)

    def test_double_transpose_identity(self, rng):
        mat = rng.integers(0, 100, (48, 80))
        cfg = base_cfg(mat.size)
        once = em_transpose(mat, cfg, engine="seq").values
        cfg2 = base_cfg(mat.size)
        twice = em_transpose(once, cfg2, engine="seq").values
        assert np.array_equal(twice, mat)


class _PermutationSort(SampleSort):
    """The kernel the value sort replaced: always the stable permutation."""

    def _sorted(self, data):
        return data[np.argsort(self._keys(data), kind="stable")]


def _kernel_inputs():
    rng = np.random.default_rng(7)
    n = 512
    floats = rng.choice([-0.0, 0.0, np.nan, 1.5, -2.5, np.inf], n)
    rows = np.stack([rng.integers(0, 6, n), np.arange(n)], axis=1)
    records = np.zeros(n, dtype=[("k", "i4"), ("seq", "i4")])
    records["k"], records["seq"] = rng.integers(0, 6, n), np.arange(n)
    return {
        "int64": rng.integers(-(1 << 40), 1 << 40, n),
        "uint8": rng.integers(0, 256, n).astype(np.uint8),
        "bool": rng.integers(0, 2, n).astype(bool),
        "float64-signed-zeros-nan": floats,
        "rows-duplicate-keys": rows,
        "structured": records,
    }


class TestSortKernelIdentity:
    """``SampleSort`` sorts 1-D integer/bool values directly; everything
    else keeps the stable permutation.  Either way the output bytes, dtype
    and ``IOStats`` are those of the permutation kernel."""

    @pytest.mark.parametrize("empty_slice", [False, True], ids=["full", "empty-slice"])
    @pytest.mark.parametrize("name", list(_kernel_inputs()))
    def test_bytes_and_iostats_equal_the_stable_permutation(self, name, empty_slice):
        data = _kernel_inputs()[name]
        cfg = MachineConfig(N=len(data), v=4, D=2, B=8)
        parts = np.array_split(data, cfg.v)
        if empty_slice:
            parts = [parts[0][:0]] + [np.concatenate(parts[:2])] + parts[2:]
        got, want = (
            make_engine(cfg, "seq").run(program, parts)
            for program in (SampleSort(), _PermutationSort())
        )
        for g, w in zip(got.outputs, want.outputs):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert got.report.io.as_dict() == want.report.io.as_dict()
        assert got.report.rounds == want.report.rounds

    def test_row_sort_is_visibly_stable(self):
        rows = _kernel_inputs()["rows-duplicate-keys"]
        cfg = MachineConfig(N=len(rows), v=4, D=2, B=8)
        res = make_engine(cfg, "seq").run(SampleSort(), np.array_split(rows, cfg.v))
        out = np.concatenate(res.outputs)
        assert np.array_equal(out, rows[np.argsort(rows[:, 0], kind="stable")])

    def test_the_input_is_not_sorted_in_place(self):
        data = _kernel_inputs()["int64"]
        before = data.copy()
        cfg = MachineConfig(N=len(data), v=4, D=2, B=8)
        make_engine(cfg, "seq").run(SampleSort(), np.array_split(data, cfg.v))
        assert np.array_equal(data, before)
