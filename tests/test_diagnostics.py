import math

import numpy as np
import pytest

from smoothscore import (CoDiagonalLawPair, GaussianTarget, ParameterError,
                         build_grid, empirical_covariance, eval_sq_sum,
                         exact_accuracy, independent_accuracy, kl_codiagonal,
                         law_of_alg1, law_of_alg2, law_of_alg3_ideal,
                         sampler_params, tv_bound)
from smoothscore.diagnostics import summary
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


def _normal_mass(lo: float, hi: float) -> float:
    # Standard normal mass of [lo, hi], each bound's tail taken from erfc so
    # that a deep tail keeps its relative accuracy.
    r = math.sqrt(0.5)
    if lo >= 0.0:
        return 0.5 * (math.erfc(lo * r) - math.erfc(hi * r))
    if hi <= 0.0:
        return 0.5 * (math.erfc(-hi * r) - math.erfc(-lo * r))
    return 1.0 - 0.5 * (math.erfc(-lo * r) + math.erfc(hi * r))


def tv_gaussians_1d(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """Scalar TV distance between N(mean1, var1) and N(mean2, var2), in
    closed form to about 1e-15.

    The densities cross at the roots of a quadratic; the TV distance is the
    difference of the two laws' masses between them.  Equal variances give
    erf(|mean2 - mean1| / (2 sqrt(2 var))).  It checks that the Pinsker
    certificate really is an upper bound.
    """
    m1, v1, m2, v2 = float(mean1), float(var1), float(mean2), float(var2)
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise ParameterError("means must be finite")
    if not (0.0 < v1 < math.inf and 0.0 < v2 < math.inf):
        raise ParameterError("variances must be positive and finite")
    delta = m2 - m1
    if v1 == v2:
        return math.erf(abs(delta) / (2.0 * math.sqrt(2.0 * v1)))
    # Relative to mean1 the crossings solve (v1 - v2) t^2 - 2 v1 delta t
    # + v1 (delta^2 + v2 L) = 0, L = log(v2/v1).  Each root is formed
    # without subtracting nearly equal terms, so nearly equal variances keep
    # the near root (towards delta/2) accurate while the far one runs off.
    log_ratio = math.log1p((v2 - v1) / v1)
    far = v1 * delta + math.copysign(math.sqrt(v1 * v2 * (delta**2 + (v2 - v1) * log_ratio)),
                                     delta)
    near = v1 * (delta**2 + v2 * log_ratio) / far
    lo, hi = sorted((near, far / (v1 - v2)))
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    return abs(_normal_mass(lo / s1, hi / s1)
               - _normal_mass((lo - delta) / s2, (hi - delta) / s2))


def tv_by_quadrature(m1, v1, m2, v2):
    """Reference: (1/2) integral of |p - q| by adaptive quadrature, split at
    the density crossings (roots of the log-density difference)."""
    from scipy.integrate import quad

    def gap(x):
        p = math.exp(-0.5 * (x - m1) ** 2 / v1) / math.sqrt(2.0 * math.pi * v1)
        q = math.exp(-0.5 * (x - m2) ** 2 / v2) / math.sqrt(2.0 * math.pi * v2)
        return abs(p - q)

    span = 40.0 * math.sqrt(max(v1, v2)) + abs(m1 - m2)
    lo, hi = min(m1, m2) - span, max(m1, m2) + span
    coeffs = [1.0 / v2 - 1.0 / v1, 2.0 * (m1 / v1 - m2 / v2),
              m2**2 / v2 - m1**2 / v1 + math.log(v2 / v1)]
    crossings = sorted(r.real for r in np.roots(coeffs)
                       if abs(r.imag) < 1e-9 and lo < r.real < hi)
    value, _ = quad(gap, lo, hi, points=crossings or None, epsabs=1e-13, epsrel=1e-13,
                    limit=1000)
    return 0.5 * value


class TestScalarTv:
    def test_matches_quadrature_on_random_pairs(self):
        # The quad oracle this replaced was off by up to 1.2e-5.  Every
        # fourth pair has variances within a relative 1e-12..1e-2.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for k in range(2000):
            m1, m2 = rng.normal(0.0, 2.0, 2)
            v1 = math.exp(rng.uniform(-3.0, 3.0))
            if k % 4 == 0:
                v2 = v1 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -2.0))
            else:
                v2 = math.exp(rng.uniform(-3.0, 3.0))
            worst = max(worst, abs(tv_gaussians_1d(m1, v1, m2, v2)
                                   - tv_by_quadrature(m1, v1, m2, v2)))
        assert worst <= 1e-8

    def test_equal_variances_and_limits(self):
        want = math.erf(3.0 / (2.0 * math.sqrt(2.0)))
        assert tv_gaussians_1d(0.0, 1.0, 3.0, 1.0) == pytest.approx(want)
        assert tv_gaussians_1d(1.5, 2.0, 1.5, 2.0) == 0.0
        assert tv_gaussians_1d(0.0, 1.0, 0.0, 1.0 + 1e-15) <= 1e-14
        assert tv_gaussians_1d(0.0, 1.0, 60.0, 1.0) == 1.0
        with pytest.raises(ParameterError):
            tv_gaussians_1d(0.0, 0.0, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: CoDiagonalLawPair([1.0, math.nan]),
    lambda: CoDiagonalLawPair([math.inf, 1.0]),
    lambda: tv_gaussians_1d(math.nan, 1.0, 0.0, 1.0),
    lambda: tv_gaussians_1d(0.0, 1.0, -math.inf, 1.0),
    lambda: tv_gaussians_1d(0.0, math.inf, 0.0, 1.0),
    lambda: tv_gaussians_1d(0.0, 1.0, 0.0, math.inf),
], ids=["ratio-nan", "ratio-inf", "mean-nan", "mean-inf", "var1-inf", "var2-inf"])
def test_certificates_reject_non_finite_input(call):
    # These gave a NaN tv_bound or TV distance, a RuntimeWarning, or a TV of
    # 1 for an infinite mean.
    with pytest.raises(ParameterError):
        call()


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
