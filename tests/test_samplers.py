import math
import warnings

import numpy as np
import pytest

from smoothscore import (GaussianTarget, ParameterError, QuantizerConfig,
                         ScoreOracle, build_grid, decode_vector,
                         estimate_mean, eval_r, exact_accuracy,
                         independent_accuracy, lambda_norm, quantize_vector,
                         run_streams, sample_exact, sample_independent,
                         sample_many, sample_quantized, sample_uncentered,
                         sampler_params)


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


def loop_quantized(target, delta_tv, rng):
    """The per-shift loop the batched quantized sampler replaced: one
    finite-bit query per shift, each term quantized and decoded on its own.
    Returns (output, clip_overflow, quant_error_norm)."""
    p = sampler_params("quantized", target.dim, target.kappa, delta_tv)
    cfg = QuantizerConfig(bits=p.bits, clip_radius=p.r_clip)
    oracle = ScoreOracle(target)
    z = rng.standard_normal(target.dim)
    y_hat = np.zeros(target.dim)
    quant_error = np.zeros(target.dim)
    clipped = False
    for alpha, c in zip(p.grid.alphas, p.grid.coeffs):
        tau = 1.0 / alpha
        w = c * (tau * z + tau**2 * oracle.smoothed_score(tau, z))
        w_hat = decode_vector(cfg, quantize_vector(cfg, w))
        clipped = clipped or bool(np.any(np.abs(w) > cfg.clip_radius))
        y_hat += w_hat
        quant_error += w_hat - w
    y = y_hat + math.sqrt(p.sigma2) * rng.standard_normal(target.dim)
    return y, clipped, float(np.linalg.norm(quant_error))


def mc_second_moment(algorithm, target, delta_tv, seed, n, chunk=20_000):
    """(1/n) sum_k y_k y_k^T over n runs on the streams
    np.random.default_rng(seed).spawn(n), drawn in blocks of ``chunk`` runs."""
    acc = np.zeros((target.dim, target.dim))
    for start in range(0, n, chunk):
        streams = run_streams(seed, min(chunk, n - start), start)
        y = sample_many(algorithm, target, delta_tv, streams).outputs
        acc += y.T @ y
    return acc / n


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
        z = np.array([0.3, -1.1, 2.4])
        y1 = sample_exact(t, 0.1, FixedNormals(z)).output
        y2 = sample_exact(t, 0.1, FixedNormals(2.0 * z)).output
        assert np.array_equal(y2, 2.0 * y1)

    def test_output_is_r_of_lambda_times_z(self):
        t = GaussianTarget(eigvals=[1.0, 10.0, 100.0], kappa=100.0)
        z = np.array([1.0, -2.0, 0.5])
        y = sample_exact(t, 0.2, FixedNormals(z)).output
        want = eval_r(sampler_params("exact", 3, 100.0, 0.2).grid, t.eigvals) * z
        assert np.max(np.abs(y - want)) < 1e-12

    def test_monte_carlo_covariance_matches_law(self):
        # 2e5 runs at d=3; empirical covariance vs r(Lambda)^2 within 4 SE.
        t = GaussianTarget(eigvals=[1.0, 10.0, 100.0], kappa=100.0)
        grid = build_grid(exact_accuracy(3, 0.2), 100.0)
        n = 200_000
        emp = mc_second_moment("exact", t, 0.2, 123, n)
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
        # The message names the algorithm a CLI user can ask for.
        with pytest.raises(ParameterError, match="use the 'uncentered' algorithm"):
            sample_exact(shifted, 0.2, np.random.default_rng(0))


@pytest.mark.parametrize("algorithm", ["exact", "independent", "quantized", "uncentered"])
@pytest.mark.parametrize("dim", [0, -3])
def test_sampler_params_rejects_dimension_below_one(algorithm, dim):
    with pytest.raises(ParameterError):
        sampler_params(algorithm, dim, 100.0, 0.1)


@pytest.mark.parametrize("algorithm", ["exact", "independent", "quantized", "uncentered"])
@pytest.mark.parametrize("dim", [2.5, 3.0, np.float64(3.0), True, "3"])
def test_sampler_params_takes_dimension_only_as_integer(algorithm, dim):
    # A float dimension used to give fractional budgets (Q = 950.0 at d = 2.5)
    # and True was read as d = 1.
    with pytest.raises(ParameterError, match="dim"):
        sampler_params(algorithm, dim, 100.0, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algorithm", ["exact", "independent", "quantized", "uncentered"])
@pytest.mark.parametrize("delta_tv", [None, "0.2", [0.2], 0.2j, np.float64(0.2),
                                      np.float32(0.2)])
def test_delta_must_be_a_real_number(algorithm, delta_tv):
    # A string must not sample as the number it spells; numpy floats are
    # real numbers and sample as their float value.
    t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)

    def block(delta):
        return sample_many(algorithm, t, delta, np.random.default_rng(0).spawn(2), delta_mu=0.1)

    if isinstance(delta_tv, np.floating):
        assert sampler_params(algorithm, 2, 4.0, delta_tv).grid.eta == sampler_params(
            algorithm, 2, 4.0, float(delta_tv)).grid.eta
        assert np.array_equal(block(delta_tv).outputs, block(float(delta_tv)).outputs)
        return
    with pytest.raises(ParameterError, match="delta_tv"):
        sampler_params(algorithm, 2, 4.0, delta_tv)
    with pytest.raises(ParameterError, match="delta_tv"):
        block(delta_tv)


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

    @pytest.mark.parametrize("t", TARGETS)
    def test_quantized_matches_loop_bit_for_bit(self, t):
        for seed in range(5):
            got = sample_quantized(t, 0.1, np.random.default_rng(seed))
            y, clipped, err = loop_quantized(t, 0.1, np.random.default_rng(seed))
            assert np.array_equal(got.output, y)
            assert got.clip_overflow is clipped
            assert got.quant_error_norm == err

    @pytest.mark.parametrize("delta_tv", [1e-6, 1e-8, 1e-60, 1e-80])
    def test_roundoff_floor_rejected_without_warnings(self, delta_tv):
        # Below the floor the transform's cancellation loses more than eta:
        # at 1e-8 the output drifts 1e-6 off r(Lambda) Z against eta = 1.8e-9,
        # at 1e-60 it is +-1e44 and at 1e-80 +-inf.  The quantized terms
        # carry a roundoff of 6.3e-10 at 1e-6 (B = 40) and 1.3e-7 at 1e-8
        # (B = 51), against a quantization budget sigma*delta_tv of 1.2e-10
        # and 1.2e-13; at 1e-60 and 1e-80 B exceeds 52.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        shifted = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0, mean=[1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda rng: sample_exact(t, delta_tv, rng),
                        lambda rng: sample_independent(t, delta_tv, rng),
                        lambda rng: sample_quantized(t, delta_tv, rng),
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


def block_target(d, rotated, centered=True, seed=0):
    rng = np.random.default_rng(seed)
    lam = np.geomspace(1.0, 1e4, d) if d > 1 else np.array([1e2])
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0] if rotated else None
    mean = None if centered else 3.0 * rng.standard_normal(d)
    return GaussianTarget(eigvals=lam, kappa=1e4, mean=mean, basis=basis)


def run_block(algorithm, target, streams):
    return sample_many(algorithm, target, 0.1, streams,
                       delta_mu=1e-6 if algorithm == "uncentered" else None)


class TestSampleMany:
    ALGORITHMS = ["exact", "independent", "quantized", "uncentered"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("runs", [0, 1, 20])
    def test_block_equals_the_runs_one_at_a_time(self, algorithm, rotated, d, runs):
        # The stacked rotations and the block sums repeat each run's own
        # arithmetic, so batching the runs moves no bit, also at d = 1.
        t = block_target(d, rotated, centered=algorithm != "uncentered", seed=d)
        block = run_block(algorithm, t, np.random.default_rng(5).spawn(runs))
        assert block.outputs.shape == (runs, d)
        for i, s in enumerate(np.random.default_rng(5).spawn(runs)):
            want = run_block(algorithm, t, [s])
            got = block.report(i)
            assert got.output.tobytes() == want.outputs[0].tobytes()
            assert got.query_count == want.query_counts[0] == want.spec.grid.query_budget + (
                2 if algorithm == "uncentered" else 0)
            assert got.bits_total == want.bits_totals[0] == want.spec.total_bits(d)
            assert got.clip_overflow is bool(want.clip_overflow[0])
            if algorithm == "quantized":
                assert got.quant_error_norm == want.quant_error_norms[0]
            else:
                assert got.quant_error_norm is None

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_block_matches_the_per_shift_loops(self, d):
        # Diagonal targets, d >= 2: each run of the block equals the loop
        # over its shifts bit for bit (see TestRationalCombine).
        t = block_target(d, rotated=False)
        shifted = block_target(d, rotated=False, centered=False)
        exact_grid = build_grid(exact_accuracy(d, 0.1), t.kappa)
        indep_grid = build_grid(independent_accuracy(d, 0.1), t.kappa)
        streams = np.random.default_rng(9).spawn(20)
        blocks = {alg: run_block(alg, shifted if alg == "uncentered" else t,
                                 np.random.default_rng(9).spawn(20)) for alg in self.ALGORITHMS}
        mu_hat = blocks["uncentered"].params["mu_hat"]
        for i, s in enumerate(streams):
            state = s.bit_generator.state
            z = s.standard_normal(d)
            want = loop_combine(ScoreOracle(t).smoothed_score, exact_grid, lambda j: z)
            assert np.array_equal(blocks["exact"].outputs[i], want)
            oracle = ScoreOracle(shifted)
            want = loop_combine(lambda tau, y: oracle.smoothed_score(tau, y + mu_hat),
                                exact_grid, lambda j: z) + mu_hat
            assert np.array_equal(blocks["uncentered"].outputs[i], want)
            s.bit_generator.state = state
            zs = s.standard_normal((indep_grid.query_budget, d))
            want = loop_combine(ScoreOracle(t).smoothed_score, indep_grid, lambda j: zs[j])
            assert np.array_equal(blocks["independent"].outputs[i],
                                  want / math.sqrt(indep_grid.L_h))
            s.bit_generator.state = state
            y, clipped, err = loop_quantized(t, 0.1, s)
            got = blocks["quantized"].report(i)
            assert np.array_equal(got.output, y)
            assert got.clip_overflow is clipped
            assert got.quant_error_norm == err

    def test_tape_counts_each_run(self):
        # q and Q per run are read off the one tape of the block.
        t = block_target(3, rotated=True)
        block = run_block("quantized", t, np.random.default_rng(2).spawn(4))
        p = sampler_params("quantized", 3, t.kappa, 0.1)
        assert block.query_counts.tolist() == [p.grid.query_budget] * 4
        assert block.bits_totals.tolist() == [p.total_bits(3)] * 4

    def test_rejects_what_the_per_run_samplers_reject(self):
        t = block_target(2, rotated=False)
        streams = np.random.default_rng(0).spawn(2)
        with pytest.raises(ParameterError):
            sample_many("nonsense", t, 0.1, streams)
        with pytest.raises(ParameterError):
            sample_many("uncentered", t, 0.1, streams)  # no delta_mu
        with pytest.raises(ParameterError):
            sample_many("exact", block_target(2, False, centered=False), 0.1, streams)

    # Each pair raises with one run; a block of no runs used to return before
    # these checks, so the CLI wrote an empty table with exit code 0.
    @pytest.mark.parametrize("algorithm", ["exact", "independent", "quantized"])
    @pytest.mark.parametrize("runs", [0, 1])
    def test_zero_runs_still_require_a_centered_target(self, algorithm, runs):
        t = block_target(2, rotated=False, centered=False)
        with pytest.raises(ParameterError, match="centered"):
            sample_many(algorithm, t, 0.1, run_streams(0, runs))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("runs", [0, 1])
    def test_zero_runs_still_meet_the_roundoff_floor(self, algorithm, runs):
        # d = 2, kappa = 4, delta_tv = 1e-7 lies below the floor at unit
        # scale; the quantized sampler's B exceeds 52 there first.
        centered = algorithm != "uncentered"
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0, mean=None if centered else [1.0, -1.0])
        with pytest.raises(ParameterError):
            sample_many(algorithm, t, 1e-7, run_streams(0, runs), delta_mu=0.1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("delta_mu", [-1.0, 0.0, math.inf, math.nan, "0.1", True])
    @pytest.mark.parametrize("runs", [0, 1])
    def test_zero_runs_still_check_delta_mu(self, delta_mu, runs, algorithm):
        # A given delta_mu is checked for every algorithm, not only where it is used.
        t = block_target(2, rotated=False, centered=algorithm != "uncentered")
        with pytest.raises(ParameterError, match="delta_mu"):
            sample_many(algorithm, t, 0.1, run_streams(0, runs), delta_mu=delta_mu)


class TestRunStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 5, 10**40])
    @pytest.mark.parametrize("runs", [0, 1, 2, 257])
    @pytest.mark.parametrize("start", [0, 3])
    def test_states_equal_numpy_spawn(self, seed, runs, start):
        got = run_streams(seed, runs, start)
        want = np.random.default_rng(seed).spawn(start + runs)[start:]
        assert len(got) == len(want) == runs
        for a, b in zip(got, want):
            assert a.bit_generator.state == b.bit_generator.state
        assert [a.standard_normal() for a in got] == [b.standard_normal() for b in want]

    def test_numpy_integer_seed(self):
        got = run_streams(np.uint64(2**63 + 1), 3, np.int32(1))
        want = np.random.default_rng(2**63 + 1).spawn(4)[1:]
        assert [a.bit_generator.state for a in got] == [b.bit_generator.state for b in want]

    def test_last_one_word_key(self):
        # Key 2**32 - 1 is the last that numpy writes as one 32-bit word.
        got, = run_streams(9, 1, 2**32 - 1)
        child = np.random.SeedSequence(9, spawn_key=(2**32 - 1,))
        assert got.bit_generator.state == np.random.PCG64(child).state

    @pytest.mark.parametrize("seed, runs, start", [
        (-1, 1, 0), (1.5, 1, 0), ("7", 1, 0), (True, 1, 0), (None, 1, 0),
        (0, -1, 0), (0, 2.0, 0), (0, False, 0),
        (0, 1, -1), (0, 1, 0.5),
        (0, 2**32 + 1, 0), (0, 1, 2**32), (0, 2**31 + 1, 2**31),
    ])
    def test_rejects_bad_arguments(self, seed, runs, start):
        # Keys from 2**32 on take a second word.  The last three cases are
        # refused before any array is made: 2**31 generators alone would
        # take hours and over a terabyte.
        with pytest.raises(ParameterError):
            run_streams(seed, runs, start)

    def test_streams_do_not_spawn(self):
        with pytest.raises(TypeError):
            run_streams(3, 1)[0].spawn(1)


class TestSampleIndependent:
    def test_ratio_deviation_bound(self):
        d, kap, dtv = 4, 1e4, 0.2
        eta = independent_accuracy(d, dtv)
        grid = build_grid(eta, kap)
        lam = np.geomspace(1.0, kap, 9)
        sq = np.sum(grid.coeffs**2 / (lam[:, None] + grid.alphas[None, :])**2, axis=1)
        ratios = lam * sq / grid.L_h
        assert np.max(np.abs(ratios - 1.0)) <= 2.0 * eta / grid.L_h

    def test_monte_carlo_covariance_matches_closed_form(self):
        # 1e5 runs; the independent-query law has per-eigenvalue variance
        # (1/L_h) sum_j c_j^2/(lam+alpha_j)^2.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        grid = build_grid(independent_accuracy(2, 0.5), 4.0)
        v = np.sum(grid.coeffs**2 / (t.eigvals[:, None] + grid.alphas[None, :])**2,
                   axis=1) / grid.L_h
        n = 100_000
        emp = mc_second_moment("independent", t, 0.5, 55, n)
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
        p = sampler_params("quantized", 4, 100.0, 0.3)
        assert rep.query_count == p.grid.query_budget
        assert rep.params["bits"] == p.bits >= 1
        assert rep.bits_total == 4 * p.bits * p.grid.query_budget == p.total_bits(4)
        assert rep.quant_error_norm is not None

    def test_bit_depth_at_least_one_across_regimes(self):
        for d, kap, dtv in [(1, 1.0, 0.99), (2, 1e6, 0.01), (16, 1e2, 0.5)]:
            assert sampler_params("quantized", d, kap, dtv).bits >= 1

    def test_quantization_error_bound_on_no_clip_runs(self):
        t = GaussianTarget(eigvals=[1.0, 100.0, 1.0, 100.0], kappa=100.0)
        p = sampler_params("quantized", 4, 100.0, 0.3)
        sigma = math.sqrt(p.sigma2)
        block = sample_many("quantized", t, 0.3, run_streams(77, 300))
        no_clip = block.quant_error_norms[~block.clip_overflow]
        assert no_clip.size > 0
        assert np.all(no_clip <= sigma * 0.3)

    def test_bit_depth_above_52_rejected_but_budget_reported(self):
        lam = [1.0, 1e33, 1e66, 1e100]
        assert sampler_params("quantized", 4, 1e100, 0.1).bits > 52
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

    @pytest.mark.parametrize("call", [
        lambda t: estimate_mean(t, math.inf),
        lambda t: sample_many("uncentered", t, 0.1, np.random.default_rng(0).spawn(2),
                              delta_mu=math.inf),
    ], ids=["estimate_mean", "sample_many"])
    def test_rejects_infinite_delta_by_name(self, call):
        # delta_mu = inf used to give tau_mu = 0 and "tau must be positive".
        t = GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0, mean=[1.0, -1.0])
        with pytest.raises(ParameterError, match="delta_mu"):
            call(t)

    def test_overflowing_mean_rejected_without_warnings(self):
        # ||b|| overflows float64, which used to give mu_hat = [nan, nan].
        t = GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0, mean=[1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                estimate_mean(t, 0.1)
            with pytest.raises(ParameterError):
                sample_uncentered(t, 0.1, 0.1, np.random.default_rng(0))


    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("scale", [1e14, 1e15, 1e20])
    def test_meets_delta_mu_or_rejects(self, rotated, scale):
        # The float64 roundoff of mu_hat grows as eps * ||mu||: unchecked,
        # ||mu_hat - mu||_Lambda exceeded delta_mu = 0.1 for 0, 8 and 20 of
        # these 50 diagonal means (up to 2.9e5) and for 39, 50 and 50 rotated
        # ones (up to 1.3e6).  Diagonal targets now get mu_hat = mu exactly;
        # rotated ones are rejected.
        rng = np.random.default_rng(int(math.log10(scale)) + 100 * rotated)
        accepted = 0
        for _ in range(50):
            lam = np.clip(np.exp(rng.uniform(0.0, math.log(100.0), 4)), 1.0, 100.0)
            basis = np.linalg.qr(rng.standard_normal((4, 4)))[0] if rotated else None
            mu = scale * rng.standard_normal(4)
            t = GaussianTarget(eigvals=lam, kappa=100.0, mean=mu, basis=basis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    mu_hat = estimate_mean(t, 0.1)
                except ParameterError:
                    continue
            accepted += 1
            assert lambda_norm(t, mu_hat - mu) <= 0.1
        assert accepted == (0 if rotated else 50)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_accepted_means_keep_the_two_query_estimate(self, rotated):
        # Below the roundoff threshold mu_hat = tau_mu * s_{tau_mu}(0) with
        # tau_mu = 2||b||/delta_mu, bit for bit as before the threshold existed.
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 1e4, 1e8, 1e11):
            basis = np.linalg.qr(rng.standard_normal((4, 4)))[0] if rotated else None
            t = GaussianTarget(eigvals=[1.0, 3.0, 30.0, 100.0], kappa=100.0,
                               mean=scale * rng.standard_normal(4), basis=basis)
            oracle = ScoreOracle(t)
            tau = 2.0 * float(np.linalg.norm(oracle.smoothed_score(1.0, np.zeros(4)))) / 0.1
            want = tau * oracle.smoothed_score(tau, np.zeros(4))
            assert np.array_equal(estimate_mean(t, 0.1), want)

    @pytest.mark.parametrize("d, kappa, rotated", [(5, 1e4, True), (16, 1e2, False),
                                                   (1024, 1e4, False)])
    def test_means_of_the_benchmark_scale_accepted(self, d, kappa, rotated):
        # 3 N(0, I) means at delta_mu = 1e-6, as the uncentered workloads use.
        rng = np.random.default_rng(d)
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0] if rotated else None
        t = GaussianTarget(eigvals=np.geomspace(1.0, kappa, d), kappa=kappa,
                           mean=3.0 * rng.standard_normal(d), basis=basis)
        assert lambda_norm(t, estimate_mean(t, 1e-6) - t.mean) <= 1e-6


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

    @pytest.mark.parametrize("scale", [1e10, 1e12])
    def test_roundoff_floor_scales_with_the_mean(self, scale):
        # Queries at z + mu_hat carry a roundoff of about
        # eps * |mu_hat| * sum_j c_j tau_j (sum = 1400 here): unchecked, the
        # output lay 1.3e-3 off its conditional law at mean +-1e10 and 3.6e-2
        # at +-1e12, against eta = 0.0177.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0, mean=[scale, -scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                sample_uncentered(t, 0.1, 1e-6, np.random.default_rng(0))

    def test_large_mean_above_the_floor_keeps_the_conditional_law(self):
        # At mean +-1e4 the scaled floor is still 6e5 times below eta.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0, mean=[1e4, -1e4])
        grid = build_grid(exact_accuracy(2, 0.1), 4.0)
        taus = 1.0 / grid.alphas
        shift_coeff = np.array([np.sum(grid.coeffs * taus**2 / (s + taus))
                                for s in t.cov_eigvals])
        for seed in range(5):
            rep = sample_uncentered(t, 0.1, 1e-6, np.random.default_rng(seed))
            mu_hat = rep.params["mu_hat"]
            z = np.random.default_rng(seed).standard_normal(2)
            want = mu_hat + shift_coeff * (t.mean - mu_hat) + eval_r(grid, t.eigvals) * z
            assert np.max(np.abs(rep.output - want)) <= 1e-5 * grid.eta
