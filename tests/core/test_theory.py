"""Tests for the lower-bound formulas and the Figure 6/7 parameter-space
analysis, including the paper's concrete numeric claims (Section 1.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.theory import (
    comparison_lower_bound_ios,
    constraint_surface,
    em_cgm_sort_ios,
    fig7_slice,
    log_term,
    log_term_bound_c,
    min_problem_size,
    permutation_lower_bound_ios,
    predicted_parallel_ios,
    sort_lower_bound_ios,
    speedup_vs_pdm_sort,
    transpose_lower_bound_ios,
)


class TestLowerBounds:
    def test_log_term_at_least_one(self):
        assert log_term(1 << 20, 1 << 19, 64) >= 1.0

    def test_log_term_infinite_when_memory_tiny(self):
        assert math.isinf(log_term(1 << 20, 32, 64))

    def test_sort_bound_exceeds_linear(self):
        N, M, B, D = 1 << 30, 1 << 12, 64, 1
        assert sort_lower_bound_ios(N, M, B, D) > N / (D * B)

    def test_permutation_bound_is_min(self):
        # tiny memory: sorting term explodes, so permutation caps at N/D
        N, M, B, D = 1 << 20, 256, 64, 2
        assert permutation_lower_bound_ios(N, M, B, D) <= N / D
        # big memory: sorting wins
        M = 1 << 18
        assert permutation_lower_bound_ios(N, M, B, D) == pytest.approx(
            sort_lower_bound_ios(N, M, B, D)
        )

    def test_transpose_bound_uses_min_dimension(self):
        N, M, B, D = 1 << 20, 1 << 12, 64, 1
        thin = transpose_lower_bound_ios(N, 2, N // 2, M, B, D)
        square = transpose_lower_bound_ios(N, 1 << 10, 1 << 10, M, B, D)
        assert thin <= square

    def test_comparison_bound(self):
        assert comparison_lower_bound_ios(1 << 20, 64) > (1 << 20) / 64

    def test_em_cgm_headline(self):
        assert em_cgm_sort_ios(N=1 << 20, p=2, D=2, B=64) == (1 << 20) / (2 * 2 * 64)


class TestParameterSpace:
    def test_surface_formula(self):
        """N^(c-1) = v^c B^(c-1)  <=>  N = v^{c/(c-1)} B."""
        v, B, c = 100.0, 1000.0, 2.0
        N = min_problem_size(v, B, c)
        assert N ** (c - 1) == pytest.approx(v**c * B ** (c - 1), rel=1e-9)

    def test_on_surface_log_term_equals_c(self):
        """At the surface with M = N/v: log_{M/B}(N/B) == c exactly."""
        v, B, c = 64, 1024, 2.0
        N = int(round(min_problem_size(v, B, c)))
        assert log_term_bound_c(N, v, B) == pytest.approx(c, rel=1e-3)

    def test_above_surface_smaller_c(self):
        v, B = 64, 1024
        N = int(min_problem_size(v, B, 2.0))
        assert log_term_bound_c(10 * N, v, B) < 2.0

    def test_paper_claim_c3_v10000_needs_giga_items(self):
        """Section 1.4: c = 3, v = 10^4 => ~1 giga-item suffices."""
        N = min_problem_size(1e4, 1e3, 3.0)
        assert 1e8 < N < 1e10  # ~10^9

    def test_paper_claim_c2_v100_needs_tens_of_mega_items(self):
        """Section 1.4 / Figure 7: v <= 100, c = 2 => N ~ 10^7 suffices."""
        N = min_problem_size(100.0, 1e3, 2.0)
        assert 1e6 < N <= 1e7 * 2

    def test_paper_claim_c2_v10000(self):
        """Figure 6: c = 2, v = 10^4 => ~100 giga-items."""
        N = min_problem_size(1e4, 1e3, 2.0)
        assert 1e10 < N < 1e12

    def test_surface_grid_shape_and_monotonicity(self):
        v = np.logspace(1, 4, 7)
        B = np.logspace(2, 4, 5)
        grid = constraint_surface(v, B, c=2.0)
        assert grid.shape == (5, 7)
        assert (np.diff(grid, axis=1) > 0).all()  # more procs -> bigger N
        assert (np.diff(grid, axis=0) > 0).all()  # bigger blocks -> bigger N

    def test_fig7_matches_surface(self):
        v = np.array([10.0, 100.0, 1000.0])
        assert fig7_slice(v) == pytest.approx(
            [min_problem_size(x, 1e3, 2.0) for x in v]
        )

    def test_one_surface_formula(self):
        """``log_term_bound_c`` is ``log_term`` at M = N/v, and the grid and
        the slice are ``min_problem_size`` elementwise, exactly."""
        for N, v, B in [(10, 4, 16), (1 << 20, 64, 1024), (123457, 1000, 1)]:
            assert log_term_bound_c(N, v, B) == log_term(N, N / v, B)
        v, B = np.array([2.0, 10.0, 1e4]), np.array([16.0, 1e3])
        for c in (1.5, 2.0, 3.0):
            assert constraint_surface(v, B, c).tolist() == [
                [min_problem_size(x, b, c) for x in v] for b in B
            ]
            assert fig7_slice(v, 1e3, c).tolist() == [
                min_problem_size(x, 1e3, c) for x in v
            ]

    def test_speedup_positive_and_grows_with_v(self):
        """With M = N/v, more virtual processors means smaller memory and
        a bigger log factor saved; at fixed v, growing N *shrinks* the
        factor (the coarse-grained regime is asymptotically benign)."""
        s_few = speedup_vs_pdm_sort(1 << 30, 64, 1, 1, 1024)
        s_many = speedup_vs_pdm_sort(1 << 30, 1 << 14, 1, 1, 1024)
        assert 0 < s_few < s_many
        assert speedup_vs_pdm_sort(1 << 30, 64, 1, 1, 1024) <= speedup_vs_pdm_sort(
            1 << 20, 64, 1, 1, 1024
        )


class TestPredictions:
    def test_predicted_ios_scale_with_rounds_and_v(self):
        base = predicted_parallel_ios(8, 1, 2, 64, rounds=4, mu_items=4096, h_items=4096)
        assert predicted_parallel_ios(8, 1, 2, 64, 8, 4096, 4096) == pytest.approx(2 * base)
        assert predicted_parallel_ios(16, 1, 2, 64, 4, 4096, 4096) == pytest.approx(2 * base)

    def test_predicted_ios_scale_inverse_with_p(self):
        a = predicted_parallel_ios(8, 1, 2, 64, 4, 4096, 4096)
        b = predicted_parallel_ios(8, 2, 2, 64, 4, 4096, 4096)
        assert b == pytest.approx(a / 2)

    def test_predicted_ios_scale_inverse_with_D(self):
        a = predicted_parallel_ios(8, 1, 1, 64, 4, 4096, 4096)
        b = predicted_parallel_ios(8, 1, 2, 64, 4, 4096, 4096)
        assert b == pytest.approx(a / 2)
