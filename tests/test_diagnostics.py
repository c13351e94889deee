import math

import numpy as np
import pytest

from smoothscore import (CoDiagonalLawPair, GaussianTarget, ParameterError,
                         build_grid, empirical_covariance, eval_sq_sum,
                         exact_accuracy, independent_accuracy, kl_codiagonal,
                         law_of_alg1, law_of_alg2, law_of_alg3_ideal,
                         sampler_params, tv_bound, tv_gaussians_1d)
from smoothscore.diagnostics import ratio_rows, summary
from smoothscore.quadrature import SincGrid

KL_RATIO_1_1 = 0.0023449100978376  # (0.1 - log 1.1)/2, 40-digit evaluation


class TestKlCodiagonal:
    def test_identical_laws_give_zero(self):
        assert kl_codiagonal(CoDiagonalLawPair(np.ones(5))) == 0.0

    def test_frozen_scalar_value(self):
        assert kl_codiagonal(CoDiagonalLawPair([1.1])) == pytest.approx(
            KL_RATIO_1_1, abs=1e-15)

    def test_asymmetry(self):
        a = kl_codiagonal(CoDiagonalLawPair([1.1]))
        b = kl_codiagonal(CoDiagonalLawPair([1.0 / 1.1]))
        assert a != b

    def test_gibbs_nonnegativity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(1, 12))
            T = np.exp(rng.uniform(-2.0, 2.0, size=d))
            kl = kl_codiagonal(CoDiagonalLawPair(T))
            assert kl >= 0.0
            if np.any(np.abs(T - 1.0) > 1e-12):
                assert kl > 0.0
        assert kl_codiagonal(CoDiagonalLawPair(np.ones(4))) == 0.0

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ParameterError):
            CoDiagonalLawPair([1.0, 0.0])
        with pytest.raises(ParameterError):
            CoDiagonalLawPair([-0.5])

    def test_quadratic_upper_bound_for_small_deviations(self):
        # u - log(1+u) <= u^2 on |u| <= 1/2, hence kl <= (1/2) sum u_i^2.
        rng = np.random.default_rng(11)
        us = rng.uniform(-0.5, 0.5, size=2000)
        assert np.all(us - np.log1p(us) <= us**2 + 1e-15)
        for _ in range(50):
            u = rng.uniform(-0.5, 0.5, size=6)
            kl = kl_codiagonal(CoDiagonalLawPair(1.0 + u))
            assert kl <= 0.5 * np.sum(u**2) + 1e-12


class TestTvBound:
    def test_is_sqrt_half_kl(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pair = CoDiagonalLawPair(np.exp(rng.uniform(-1, 1, size=4)))
            assert tv_bound(pair) == math.sqrt(kl_codiagonal(pair) / 2.0)

    def test_zero_on_equal_laws(self):
        assert tv_bound(CoDiagonalLawPair(np.ones(3))) == 0.0

    def test_monotone_in_each_deviation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            T = rng.uniform(0.5, 1.5, size=5)
            i = int(rng.integers(5))
            worse = T.copy()
            worse[i] = 1.0 + 1.05 * (worse[i] - 1.0) if worse[i] != 1.0 else 1.05
            assert tv_bound(CoDiagonalLawPair(worse)) >= tv_bound(CoDiagonalLawPair(T))

    def test_dominates_true_scalar_tv(self):
        pair = CoDiagonalLawPair([4.0])
        true_tv = tv_gaussians_1d(0.0, 4.0, 0.0, 1.0)
        assert true_tv <= tv_bound(pair)

    def test_scalar_tv_oracle_symmetry(self):
        a = tv_gaussians_1d(0.0, 1.0, 0.5, 2.0)
        b = tv_gaussians_1d(0.5, 2.0, 0.0, 1.0)
        assert a == pytest.approx(b, abs=1e-8)


class TestLawConstructors:
    def test_alg1_unit_ratio_on_exact_pole(self):
        # Single pole at alpha=1 with c=2 gives r(1) = 1 exactly.
        grid = SincGrid(eta=0.1, kappa=1.0, h=1.0, M=0, N=0,
                        alphas=np.array([1.0]), coeffs=np.array([2.0]),
                        L_h=2.0 / math.pi**2)
        t = GaussianTarget(eigvals=[1.0], kappa=1.0)
        assert law_of_alg1(t, grid).ratios[0] == pytest.approx(1.0, rel=1e-15)

    def test_alg1_adversarial_eigenvalues(self):
        kap = 1e4
        eta = exact_accuracy(4, 0.1)
        grid = build_grid(eta, kap)
        t = GaussianTarget(eigvals=[1.0, kap, 1.0, kap], kappa=kap)
        ratios = law_of_alg1(t, grid).ratios
        assert np.all(np.abs(np.sqrt(ratios) - 1.0) <= eta)

    def test_alg1_ratio_interval_on_random_ladder(self):
        rng = np.random.default_rng(2)
        kap = 100.0
        eta = 0.03
        grid = build_grid(eta, kap)
        lam = np.sort(np.clip(np.exp(rng.uniform(0, np.log(kap), 10)), 1.0, kap))
        t = GaussianTarget(eigvals=lam, kappa=kap)
        ratios = law_of_alg1(t, grid).ratios
        assert np.all(ratios >= (1 - eta) ** 2 - 1e-15)
        assert np.all(ratios <= (1 + eta) ** 2 + 1e-15)

    def test_alg2_cross_checks_eval_sq_sum(self):
        kap = 1e3
        grid = build_grid(independent_accuracy(3, 0.2), kap)
        lam = np.array([1.0, 31.0, 1e3])
        t = GaussianTarget(eigvals=lam, kappa=kap)
        ratios = law_of_alg2(t, grid).ratios
        for i, x in enumerate(lam):
            direct = x * eval_sq_sum(grid, x) / grid.L_h
            assert abs(ratios[i] - direct) <= 1e-14

    def test_alg2_deviation_bound(self):
        eta = independent_accuracy(2, 0.3)
        grid = build_grid(eta, 50.0)
        t = GaussianTarget(eigvals=[1.0, 50.0], kappa=50.0)
        assert law_of_alg2(t, grid).max_deviation <= 2 * eta / grid.L_h

    def test_alg2_kappa_one_single_ratio(self):
        grid = build_grid(0.01, 1.0)
        t = GaussianTarget(eigvals=[1.0], kappa=1.0)
        pair = law_of_alg2(t, grid)
        assert pair.ratios.shape == (1,)

    def test_alg3_sigma_zero_reduces_to_alg1(self):
        grid = build_grid(0.02, 30.0)
        t = GaussianTarget(eigvals=[1.0, 30.0], kappa=30.0)
        a = law_of_alg3_ideal(t, grid, 0.0).ratios
        b = law_of_alg1(t, grid).ratios
        assert np.array_equal(a, b)

    def test_alg3_deviation_bound_and_parameter_identity(self):
        d, kap, dtv = 4, 100.0, 0.3
        p = sampler_params("quantized", d, kap, dtv)
        t = GaussianTarget(eigvals=[1.0, kap, 1.0, kap], kappa=kap)
        pair = law_of_alg3_ideal(t, p.grid, p.sigma2)
        budget = 3 * p.grid.eta + kap * p.sigma2
        assert pair.max_deviation <= budget
        assert budget == pytest.approx(dtv / (3 * math.sqrt(d)), rel=1e-12)


class TestCertificateSurfaces:
    def test_ratio_rows_pair_lambda_with_ratio(self):
        grid = build_grid(0.05, 9.0)
        t = GaussianTarget(eigvals=[1.0, 9.0], kappa=9.0)
        pair = law_of_alg1(t, grid)
        rows = ratio_rows(t, pair)
        assert rows == [(1.0, pair.ratios[0]), (9.0, pair.ratios[1])]

    def test_ratio_rows_dimension_check(self):
        t = GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0)
        with pytest.raises(ParameterError):
            ratio_rows(t, CoDiagonalLawPair([1.0]))

    def test_summary_fields(self):
        pair = CoDiagonalLawPair([1.2, 0.9])
        doc = summary(pair)
        assert set(doc) == {"kl", "tv_bound", "max_ratio_dev"}
        assert doc["kl"] == kl_codiagonal(pair)
        assert doc["tv_bound"] == tv_bound(pair)
        assert doc["max_ratio_dev"] == pytest.approx(0.2)


class TestEmpiricalCovariance:
    def test_zero_samples_give_zero_matrix(self):
        assert np.array_equal(empirical_covariance(np.zeros((10, 3))), np.zeros((3, 3)))

    def test_rejects_single_sample(self):
        with pytest.raises(ParameterError):
            empirical_covariance(np.zeros((1, 2)))

    def test_scalar_chi_square_concentration(self):
        rng = np.random.default_rng(17)
        n = 40_000
        samples = rng.standard_normal((n, 1))
        est = empirical_covariance(samples)[0, 0]
        assert abs(est - 1.0) <= 4.0 * math.sqrt(2.0 / n)
