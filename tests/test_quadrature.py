import math
import tracemalloc

import numpy as np
import pytest

from smoothscore import (C0, ParameterError, SincGrid, build_grid, eval_r,
                         eval_sq_sum, sup_error_E1, sup_error_E2)
from smoothscore import quadrature
from smoothscore.quadrature import MAX_EVAL_POINTS

# Frozen from a 40-digit decimal evaluation of the defining formulas.
H_ETA_01 = 1.881298214768340139
R_AT_ONE_ETA01_KAP100 = 1.0204019174578257


def single_term_grid(h=1.0):
    # Hypothetical M = N = 0 grid: one pole at alpha_0 = 1, c_0 = 2h/pi.
    return SincGrid(eta=0.1, kappa=1.0, h=h, M=0, N=0,
                    alphas=np.array([1.0]),
                    coeffs=np.array([2.0 * h / math.pi]),
                    L_h=2.0 * h / math.pi**2)


class TestBuildGrid:
    def test_reference_point(self):
        g = build_grid(0.1, 100.0)
        assert g.h == pytest.approx(H_ETA_01, abs=1e-12)
        assert (g.M, g.N, g.query_budget) == (3, 5, 9)

    def test_kappa_one_collapses_to_symmetric_truncation(self):
        g = build_grid(0.1, 1.0)
        assert g.M == g.N == 3
        assert g.query_budget == 7

    def test_field_consistency(self):
        g = build_grid(0.037, 250.0)
        log_ratio = math.log(C0 / 0.037)
        assert g.h == pytest.approx(math.pi**2 / log_ratio, rel=1e-15)
        assert g.M == math.ceil(log_ratio / g.h)
        assert g.N == math.ceil((0.5 * math.log(250.0) + log_ratio) / g.h)
        assert len(g.alphas) == len(g.coeffs) == g.M + g.N + 1
        assert g.L_h == pytest.approx(2.0 / log_ratio, rel=1e-15)

    @pytest.mark.parametrize("eta,kappa", [(0.3, 1.0), (1e-4, 1e6), (0.49, 7.0)])
    def test_nodes_positive_and_increasing(self, eta, kappa):
        g = build_grid(eta, kappa)
        assert np.all(g.alphas > 0)
        assert np.all(np.diff(g.alphas) > 0)
        assert np.all(g.coeffs > 0)

    @pytest.mark.parametrize("eta,kappa", [(0.0, 10.0), (0.5, 10.0), (-0.1, 10.0),
                                           (0.6, 10.0), (0.1, 0.5), (0.1, -1.0),
                                           (0.1, math.inf), (1e-300, 10.0),
                                           ("0.1", 10.0), (0.01, True), (0.01, np.True_),
                                           (0.01 + 0j, 10.0), (0.1, "10")])
    def test_domain_rejection(self, eta, kappa):
        with pytest.raises(ParameterError):
            build_grid(eta, kappa)


class TestEvalR:
    def test_frozen_value_at_one(self):
        g = build_grid(0.1, 100.0)
        assert eval_r(g, 1.0) == pytest.approx(R_AT_ONE_ETA01_KAP100, abs=1e-12)

    def test_uniform_bound_on_interval(self):
        g = build_grid(0.1, 100.0)
        xs = np.geomspace(1.0, 100.0, 1000)
        assert np.max(np.abs(np.sqrt(xs) * eval_r(g, xs) - 1.0)) <= 0.1

    def test_single_term(self):
        g = single_term_grid(h=0.7)
        for x in (0.5, 1.0, 9.0):
            assert eval_r(g, x) == pytest.approx(g.coeffs[0] / (x + 1.0), rel=1e-15)

    def test_positive_decreasing_convex(self):
        g = build_grid(0.05, 50.0)
        xs = np.geomspace(0.01, 500.0, 400)
        vals = eval_r(g, xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        # convexity via second differences on a uniform refinement
        xs_u = np.linspace(0.1, 300.0, 600)
        vu = eval_r(g, xs_u)
        assert np.all(vu[2:] - 2 * vu[1:-1] + vu[:-2] > 0)

    def test_rejects_nonpositive_x(self):
        g = build_grid(0.1, 10.0)
        with pytest.raises(ParameterError):
            eval_r(g, 0.0)
        with pytest.raises(ParameterError):
            eval_r(g, np.array([1.0, -2.0]))


class TestEvalSqSum:
    def test_scaled_sum_near_L_h(self):
        g = build_grid(0.01, 1e4)
        xs = np.geomspace(1.0, 1e4, 2000)
        assert np.max(np.abs(xs * eval_sq_sum(g, xs) - g.L_h)) <= 2 * 0.01

    def test_single_term(self):
        g = single_term_grid(h=1.3)
        x = 2.5
        assert eval_sq_sum(g, x) == pytest.approx(g.coeffs[0]**2 / (x + 1.0)**2, rel=1e-15)

    def test_positive(self):
        g = build_grid(0.2, 30.0)
        assert np.all(eval_sq_sum(g, np.geomspace(0.1, 100, 50)) > 0)


class TestSupErrors:
    def test_bounds_hold_on_sample_pairs(self):
        for eta, kappa in [(1e-3, 1e4), (1e-2, 1.0), (1e-1, 1e2)]:
            g = build_grid(eta, kappa)
            assert sup_error_E1(g, 4000) <= eta
            assert sup_error_E2(g, 4000) <= 2 * eta

    def test_kappa_one_degenerates_to_single_point(self):
        g = build_grid(0.05, 1.0)
        assert sup_error_E1(g, 4000) == pytest.approx(abs(eval_r(g, 1.0) - 1.0), rel=1e-15)
        assert sup_error_E2(g, 4000) == pytest.approx(
            abs(eval_sq_sum(g, 1.0) - g.L_h), rel=1e-15)

    def test_refinement_never_decreases(self):
        g = build_grid(0.01, 1e3)
        for fn in (sup_error_E1, sup_error_E2):
            prev = fn(g, 16)
            for n in (32, 64, 128, 256, 512):
                cur = fn(g, n)
                assert cur >= prev
                prev = cur

    def test_nonnegative(self):
        g = build_grid(0.3, 5.0)
        assert sup_error_E2(g, 100) >= 0.0

    def test_rejects_tiny_grid(self):
        g = build_grid(0.1, 10.0)
        with pytest.raises(ParameterError):
            sup_error_E1(g, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [sup_error_E1, sup_error_E2])
    @pytest.mark.parametrize("n_points", [2.5, 4000.0, True, "4000", None,
                                          MAX_EVAL_POINTS + 1, 10**8, 10**12])
    def test_n_points_checked_before_allocation(self, fn, n_points):
        # 10**8 points would be a 17 GiB evaluation matrix on this grid.
        with pytest.raises(ParameterError, match="n_points"):
            fn(build_grid(0.01, 1e4), n_points)

    def test_largest_n_points_is_accepted(self):
        g = build_grid(0.01, 1e4)
        assert sup_error_E1(g, MAX_EVAL_POINTS) <= 0.01
        assert sup_error_E2(g, np.int64(MAX_EVAL_POINTS)) <= 0.02

    def test_chunked_evaluation_equals_one_whole_evaluation(self, monkeypatch):
        g = build_grid(1e-3, 1e6)
        xs = np.geomspace(1.0, 1e6, 1001)
        monkeypatch.setattr(quadrature, "EVAL_CHUNK_ENTRIES", 2**40)
        whole = [eval_r(g, xs), eval_sq_sum(g, xs), eval_r(g, xs[:6].reshape(2, 3)),
                 eval_r(g, 7.0), sup_error_E1(g), sup_error_E2(g)]
        # Three points per chunk (1001 points in 334 chunks), then one per chunk.
        for entries in (3 * g.query_budget + 1, 1):
            monkeypatch.setattr(quadrature, "EVAL_CHUNK_ENTRIES", entries)
            chunked = [eval_r(g, xs), eval_sq_sum(g, xs), eval_r(g, xs[:6].reshape(2, 3)),
                       eval_r(g, 7.0), sup_error_E1(g), sup_error_E2(g)]
            for a, b in zip(chunked, whole):
                assert np.array_equal(a, b) and np.shape(a) == np.shape(b)
        assert type(chunked[3]) is float

    @pytest.mark.parametrize("fn", [sup_error_E1, sup_error_E2])
    def test_error_study_memory_is_bounded(self, fn):
        # 11131 poles: one whole evaluation at 4097 points is 348 MiB per temporary.
        g = build_grid(1e-100, 1e4)
        assert g.query_budget == 11131
        tracemalloc.start()
        try:
            fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One chunk's terms buffer, with room to spare for the small arrays.
        assert peak <= 2 * quadrature.EVAL_CHUNK_ENTRIES * 8


class TestScalingLaws:
    def test_monotone_decay_in_eta(self):
        for kappa in (1.0, 1e2, 1e4):
            errs = [sup_error_E1(build_grid(10.0**(-e), kappa), 4000)
                    for e in range(1, 6)]
            assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_budget_affine_in_log_kappa(self):
        q = {k: build_grid(1e-2, k).query_budget for k in (1.0, 1e4, 1e8)}
        step_lo = q[1e4] - q[1.0]
        step_hi = q[1e8] - q[1e4]
        assert abs(step_hi - step_lo) <= 1
