import math
import warnings

import numpy as np
import pytest

from smoothscore import (GaussianTarget, ParameterError, ScoreOracle, SincGrid,
                         build_grid, estimate_mean, eval_r, exact_accuracy,
                         independent_accuracy, lambda_norm, quantized_params,
                         sample_exact, sample_exact_with_grid,
                         sample_independent, sample_independent_with_grid,
                         sample_quantized, sample_uncentered)


class FixedNormals:
    """Generator stub returning a preset vector; isolates the linear map."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=np.float64)

    def standard_normal(self, d):
        assert d == self.z.size
        return self.z.copy()


def loop_combine(query, grid, points):
    """The per-shift loop the batched combine replaced: one query per shift,
    accumulated over j in index order.  ``points(j)`` is the j-th Z_j."""
    out = None
    for j, (alpha, c) in enumerate(zip(grid.alphas, grid.coeffs)):
        tau = 1.0 / alpha
        z = points(j)
        term = c * (tau * z + tau**2 * query(tau, z))
        out = term if out is None else out + term
    return out


def empty_grid():
    return SincGrid(eta=0.1, kappa=1.0, h=1.0, M=0, N=-1,
                    alphas=np.empty(0), coeffs=np.empty(0),
                    L_h=2.0 / math.pi**2)


class TestSampleExact:
    def test_scalar_standard_normal_target(self):
        t = GaussianTarget(eigvals=[1.0], kappa=1.0)
        rep = sample_exact(t, 0.2, np.random.default_rng(5))
        grid = build_grid(0.05, 1.0)
        z = np.random.default_rng(5).standard_normal(1)
        r1 = eval_r(grid, 1.0)
        assert abs(r1 - 1.0) <= 0.05
        assert rep.output[0] == pytest.approx(r1 * z[0], rel=1e-12)

    def test_query_count_matches_grid(self):
        t = GaussianTarget(eigvals=[1.0], kappa=100.0)
        rep = sample_exact(t, 0.2, np.random.default_rng(0))
        grid = build_grid(exact_accuracy(1, 0.2), 100.0)
        assert rep.query_count == grid.query_budget == grid.M + grid.N + 1
        assert rep.bits_total == 0
        assert rep.clip_overflow is False
        assert rep.noise_levels.size == rep.query_count

    def test_output_linear_in_z(self):
        t = GaussianTarget(eigvals=[1.0, 3.0, 9.0], kappa=9.0)
        grid = build_grid(0.02, 9.0)
        z = np.array([0.3, -1.1, 2.4])
        y1 = sample_exact_with_grid(t, grid, FixedNormals(z)).output
        y2 = sample_exact_with_grid(t, grid, FixedNormals(2.0 * z)).output
        assert np.array_equal(y2, 2.0 * y1)

    def test_output_is_r_of_lambda_times_z(self):
        t = GaussianTarget(eigvals=[1.0, 10.0, 100.0], kappa=100.0)
        grid = build_grid(0.03, 100.0)
        z = np.array([1.0, -2.0, 0.5])
        y = sample_exact_with_grid(t, grid, FixedNormals(z)).output
        want = eval_r(grid, t.eigvals) * z
        assert np.max(np.abs(y - want)) < 1e-12

    def test_monte_carlo_covariance_matches_law(self):
        # 2e5 runs at d=3; empirical covariance vs r(Lambda)^2 within 4 SE.
        t = GaussianTarget(eigvals=[1.0, 10.0, 100.0], kappa=100.0)
        grid = build_grid(exact_accuracy(3, 0.2), 100.0)
        n = 200_000
        acc = np.zeros((3, 3))
        for s in np.random.default_rng(123).spawn(n):
            y = sample_exact_with_grid(t, grid, s).output
            acc += np.outer(y, y)
        emp = acc / n
        sig = eval_r(grid, t.eigvals)
        for i in range(3):
            for j in range(3):
                want = sig[i]**2 if i == j else 0.0
                se = sig[i] * sig[j] * math.sqrt((2.0 if i == j else 1.0) / n)
                assert abs(emp[i, j] - want) <= 4.0 * se

    def test_deterministic_ratio_bound(self):
        for d, kap, dtv in [(1, 1e2, 0.3), (4, 1e4, 0.1)]:
            eta = exact_accuracy(d, dtv)
            grid = build_grid(eta, kap)
            lam = np.geomspace(1.0, kap, 7)
            ratios = lam * eval_r(grid, lam) ** 2
            assert np.all(ratios >= (1.0 - eta) ** 2 - 1e-15)
            assert np.all(ratios <= (1.0 + eta) ** 2 + 1e-15)

    def test_budget_growth_tracks_half_inverse_step(self):
        # q(kappa) - q(1) stays within one ceiling of log(kappa)/(2h).
        d, dtv = 4, 0.1
        eta = exact_accuracy(d, dtv)
        q1 = build_grid(eta, 1.0).query_budget
        for kap in (1e2, 1e4, 1e8):
            grid = build_grid(eta, kap)
            predicted = math.log(kap) / (2.0 * grid.h)
            assert abs((grid.query_budget - q1) - predicted) <= 1.0

    def test_rejects_bad_delta_and_uncentered_target(self):
        t = GaussianTarget(eigvals=[1.0], kappa=1.0)
        with pytest.raises(ParameterError):
            sample_exact(t, 0.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            sample_exact(t, 1.0, np.random.default_rng(0))
        shifted = GaussianTarget(eigvals=[1.0], kappa=1.0, mean=[2.0])
        with pytest.raises(ParameterError):
            sample_exact(shifted, 0.2, np.random.default_rng(0))


class TestRationalCombine:
    # Diagonal targets: the batched combine keeps the loop's arithmetic, so
    # outputs stay bit-identical to it (d >= 2; numpy sums a lone column pairwise).
    TARGETS = [GaussianTarget(eigvals=[1.0, 10.0, 100.0], kappa=100.0),
               GaussianTarget(eigvals=np.geomspace(1.0, 1e8, 9), kappa=1e8)]

    @pytest.mark.parametrize("t", TARGETS)
    def test_exact_matches_loop_bit_for_bit(self, t):
        for seed in range(5):
            got = sample_exact(t, 0.1, np.random.default_rng(seed))
            grid = build_grid(exact_accuracy(t.dim, 0.1), t.kappa)
            z = np.random.default_rng(seed).standard_normal(t.dim)
            want = loop_combine(ScoreOracle(t).smoothed_score, grid, lambda j: z)
            assert np.array_equal(got.output, want)

    @pytest.mark.parametrize("t", TARGETS)
    def test_independent_matches_loop_bit_for_bit(self, t):
        for seed in range(5):
            got = sample_independent(t, 0.1, np.random.default_rng(seed))
            grid = build_grid(independent_accuracy(t.dim, 0.1), t.kappa)
            rng = np.random.default_rng(seed)
            zs = [rng.standard_normal(t.dim) for _ in range(grid.query_budget)]
            want = loop_combine(ScoreOracle(t).smoothed_score, grid, lambda j: zs[j])
            assert np.array_equal(got.output, want / math.sqrt(grid.L_h))

    @pytest.mark.parametrize("t", TARGETS)
    def test_uncentered_matches_loop_bit_for_bit(self, t):
        shifted = GaussianTarget(eigvals=t.eigvals, kappa=t.kappa,
                                 mean=np.linspace(-2.0, 3.0, t.dim))
        for seed in range(5):
            got = sample_uncentered(shifted, 0.1, 1e-3, np.random.default_rng(seed))
            mu_hat = got.params["mu_hat"]
            oracle = ScoreOracle(shifted)
            grid = build_grid(exact_accuracy(t.dim, 0.1), t.kappa)
            z = np.random.default_rng(seed).standard_normal(t.dim)
            want = loop_combine(lambda tau, y: oracle.smoothed_score(tau, y + mu_hat),
                                grid, lambda j: z) + mu_hat
            assert np.array_equal(got.output, want)
            assert got.query_count == grid.query_budget + 2

    @pytest.mark.parametrize("delta_tv", [1e-8, 1e-60, 1e-80])
    def test_roundoff_floor_rejected_without_warnings(self, delta_tv):
        # Below the floor the transform's cancellation loses more than eta:
        # at 1e-8 the output drifts 1e-6 off r(Lambda) Z against eta = 1.8e-9,
        # at 1e-60 it is +-1e44 and at 1e-80 +-inf.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        shifted = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0, mean=[1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda rng: sample_exact(t, delta_tv, rng),
                        lambda rng: sample_independent(t, delta_tv, rng),
                        lambda rng: sample_uncentered(shifted, delta_tv, 0.1, rng)):
                with pytest.raises(ParameterError):
                    run(np.random.default_rng(0))

    def test_output_within_a_tenth_of_eta_above_the_floor(self):
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        eta = exact_accuracy(2, 1e-5)
        grid = build_grid(eta, 4.0)
        for seed in range(20):
            y = sample_exact(t, 1e-5, np.random.default_rng(seed)).output
            z = np.random.default_rng(seed).standard_normal(2)
            want = eval_r(grid, t.eigvals) * z
            assert np.max(np.abs(y - want)) <= 0.1 * eta * np.max(np.abs(z))


class TestSampleIndependent:
    def test_ratio_deviation_bound(self):
        d, kap, dtv = 4, 1e4, 0.2
        eta = independent_accuracy(d, dtv)
        grid = build_grid(eta, kap)
        lam = np.geomspace(1.0, kap, 9)
        sq = np.sum(grid.coeffs**2 / (lam[:, None] + grid.alphas[None, :])**2, axis=1)
        ratios = lam * sq / grid.L_h
        assert np.max(np.abs(ratios - 1.0)) <= 2.0 * eta / grid.L_h

    def test_empty_grid_returns_zero(self):
        t = GaussianTarget(eigvals=[1.0], kappa=1.0)
        rep = sample_independent_with_grid(t, empty_grid(), np.random.default_rng(0))
        assert rep.output[0] == 0.0
        assert rep.query_count == 0

    def test_monte_carlo_covariance_matches_closed_form(self):
        # 1e5 runs; the independent-query law has per-eigenvalue variance
        # (1/L_h) sum_j c_j^2/(lam+alpha_j)^2.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        grid = build_grid(independent_accuracy(2, 0.5), 4.0)
        v = np.sum(grid.coeffs**2 / (t.eigvals[:, None] + grid.alphas[None, :])**2,
                   axis=1) / grid.L_h
        n = 100_000
        acc = np.zeros((2, 2))
        for s in np.random.default_rng(55).spawn(n):
            y = sample_independent_with_grid(t, grid, s).output
            acc += np.outer(y, y)
        emp = acc / n
        want = np.diag(v)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((v[i] * v[j] + want[i, j]**2) / n)
                assert abs(emp[i, j] - want[i, j]) <= 3.0 * se

    def test_query_count(self):
        t = GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0)
        rep = sample_independent(t, 0.3, np.random.default_rng(1))
        grid = build_grid(independent_accuracy(2, 0.3), 2.0)
        assert rep.query_count == grid.query_budget


class TestSampleQuantized:
    def test_accounting_and_parameters(self):
        t = GaussianTarget(eigvals=[1.0, 100.0, 1.0, 100.0], kappa=100.0)
        rep = sample_quantized(t, 0.3, np.random.default_rng(9))
        p = quantized_params(4, 100.0, 0.3)
        assert rep.query_count == p.query_budget
        assert rep.params["bits"] == p.bits >= 1
        assert rep.bits_total == 4 * p.bits * p.query_budget == p.total_bits(4)
        assert rep.quant_error_norm is not None

    def test_bit_depth_at_least_one_across_regimes(self):
        for d, kap, dtv in [(1, 1.0, 0.99), (2, 1e6, 0.01), (16, 1e2, 0.5)]:
            assert quantized_params(d, kap, dtv).bits >= 1

    def test_quantization_error_bound_on_no_clip_runs(self):
        t = GaussianTarget(eigvals=[1.0, 100.0, 1.0, 100.0], kappa=100.0)
        p = quantized_params(4, 100.0, 0.3)
        sigma = math.sqrt(p.sigma2)
        seen_no_clip = 0
        for s in np.random.default_rng(77).spawn(300):
            rep = sample_quantized(t, 0.3, s)
            if not rep.clip_overflow:
                seen_no_clip += 1
                assert rep.quant_error_norm <= sigma * 0.3
        assert seen_no_clip > 0

    def test_bit_depth_above_52_rejected_but_budget_reported(self):
        lam = [1.0, 1e33, 1e66, 1e100]
        assert quantized_params(4, 1e100, 0.1).bits > 52
        with pytest.raises(ParameterError):
            sample_quantized(GaussianTarget(eigvals=lam, kappa=1e100), 0.1,
                             np.random.default_rng(0))

    def test_reproducible_from_seed(self):
        t = GaussianTarget(eigvals=[1.0, 10.0], kappa=10.0)
        a = sample_quantized(t, 0.4, np.random.default_rng(21)).output
        b = sample_quantized(t, 0.4, np.random.default_rng(21)).output
        assert np.array_equal(a, b)


class TestEstimateMean:
    def test_worked_scalar_example(self):
        t = GaussianTarget(eigvals=[1.0], kappa=1.0, mean=[3.0])
        oracle = ScoreOracle(t)
        mu_hat = estimate_mean(t, 0.1, oracle=oracle)
        assert mu_hat[0] == pytest.approx(90.0 / 31.0, abs=1e-12)
        assert abs(mu_hat[0] - 3.0) <= 0.1
        assert oracle.tape.query_count == 2

    def test_zero_mean_short_circuits(self):
        t = GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0)
        oracle = ScoreOracle(t)
        assert np.array_equal(estimate_mean(t, 0.5, oracle=oracle), np.zeros(2))
        assert oracle.tape.query_count == 1

    def test_certificate_on_random_targets(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            kap = float(rng.uniform(1.0, 100.0))
            lam = np.clip(np.exp(rng.uniform(0, np.log(kap), d)), 1.0, kap)
            mu = rng.standard_normal(d) * rng.uniform(0, 10)
            t = GaussianTarget(eigvals=lam, kappa=kap, mean=mu)
            delta_mu = float(rng.uniform(0.01, 1.0))
            mu_hat = estimate_mean(t, delta_mu)
            assert lambda_norm(t, mu_hat - mu) <= delta_mu

    def test_rejects_nonpositive_delta(self):
        t = GaussianTarget(eigvals=[1.0], kappa=1.0)
        with pytest.raises(ParameterError):
            estimate_mean(t, 0.0)


class TestSampleUncentered:
    def test_zero_mean_reduces_to_exact(self):
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        rep_u = sample_uncentered(t, 0.2, 0.1, np.random.default_rng(31))
        rep_e = sample_exact(t, 0.2, np.random.default_rng(31))
        assert np.array_equal(rep_u.output, rep_e.output)
        assert rep_u.query_count == rep_e.query_count + 1

    def test_query_total_includes_mean_stage(self):
        t = GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0, mean=[1.0, -1.0])
        rep = sample_uncentered(t, 0.2, 0.05, np.random.default_rng(4))
        grid = build_grid(exact_accuracy(2, 0.2), 2.0)
        assert rep.query_count == grid.query_budget + 2

    def test_conditional_law_closed_form(self):
        # Given mu_hat and Z, the output is mu_hat + A(mu - mu_hat) + r(Lambda) Z
        # with A = sum_j c_j tau_j^2 (Sigma + tau_j I)^{-1}, per eigendirection.
        rng0 = np.random.default_rng(8)
        q = np.linalg.qr(rng0.standard_normal((3, 3)))[0]
        t = GaussianTarget(eigvals=[1.0, 2.5, 4.0], kappa=4.0,
                           mean=[0.5, -1.0, 2.0], basis=q)
        rep = sample_uncentered(t, 0.2, 0.05, np.random.default_rng(77))
        mu_hat = rep.params["mu_hat"]
        grid = build_grid(exact_accuracy(3, 0.2), 4.0)
        z = np.random.default_rng(77).standard_normal(3)

        taus = 1.0 / grid.alphas
        nu_eig = t.to_eigenbasis(t.mean - mu_hat)
        shift_coeff = np.array([np.sum(grid.coeffs * taus**2 / (s + taus))
                                for s in t.cov_eigvals])
        want = (mu_hat + t.from_eigenbasis(shift_coeff * nu_eig)
                + t.from_eigenbasis(eval_r(grid, t.eigvals) * t.to_eigenbasis(z)))
        assert np.max(np.abs(rep.output - want)) < 1e-10
