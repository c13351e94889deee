import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betainc as scipy_betainc

from smoothscore import (ParameterError, betainc_reg,
                         binary_subchannel_experiment, bit_lower_bound_table,
                         converse_bound, fixed_error_bound, good_event_rate,
                         run_coding_experiment, subspace_distance_samples,
                         tube_probability)
from smoothscore import channel


def draw_code(d, r, m_code, rng):
    """Basis columns (r, m_code, d) of one codebook drawn from rng, as the
    fixed-codebook experiment draws it."""
    return channel._draw_code(rng, m_code, d, r)


def basis(cols, m):
    """The (d, r) orthonormal basis of codeword m."""
    return cols[:, m].T


def covariance(cols, m, kappa):
    """Codeword covariance P + (I - P) / kappa, with P the projection onto
    codeword m."""
    q = basis(cols, m)
    p = q @ q.T
    return p + (np.eye(len(p)) - p) / kappa


def channel_outputs(cols, m, kappa, n, rng):
    """n channel outputs for message m, on noise rows (G, H) drawn as one
    (n, r + d) array from rng."""
    r, _, d = cols.shape
    return channel._channel_outputs(cols[:, np.full(n, m)], rng.standard_normal((n, r + d)),
                                    kappa)


class TestConverseArithmetic:
    def test_reference_point(self):
        assert converse_bound(10, 0.5, 0.25) == 8.0

    def test_perfect_simulation_of_perfect_code(self):
        for k in (1, 7, 40):
            assert converse_bound(k, 0.0, 0.0) == float(k)

    def test_fixed_error_identity_on_sweep(self):
        for k in (3, 10, 25):
            for delta in (0.0, 0.25, 0.5, 0.9):
                want = k - math.log2(2.0 / (1.0 - delta))
                assert fixed_error_bound(k, delta) == pytest.approx(want, rel=1e-14)

    def test_never_exceeds_message_bits(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = float(rng.integers(1, 50))
            delta = float(rng.uniform(0, 0.9))
            eps = float(rng.uniform(0, 0.9))
            if delta + eps >= 1.0:
                continue
            q = converse_bound(k, delta, eps)
            assert q <= k
            if delta == 0.0 and eps == 0.0:
                assert q == k

    def test_vacuous_regime_returns_none(self):
        # The vacuous regime is not an error: the bound is None.
        assert converse_bound(5, 0.7, 0.4) is None
        assert converse_bound(5, 0.0, 1.0) is None
        # delta_tv + (1 - delta_tv) / 2 rounds to 1 only one ulp below 1.
        assert fixed_error_bound(5, 1 - 2**-53) is None
        assert fixed_error_bound(5, 1 - 2**-52) == 5 - 53

    @pytest.mark.filterwarnings("error")
    def test_input_validation(self):
        for delta_tv, epsilon in ((1.0, 0.0), (-0.1, 0.2), (math.nan, 0.2),
                                  (0.2, -0.1), (0.2, 1.5), (0.2, math.nan),
                                  ("0.2", 0.1), (0.2, None)):
            with pytest.raises(ParameterError):
                converse_bound(5, delta_tv, epsilon)
        for k_prime in (math.nan, math.inf, -math.inf, "10"):
            with pytest.raises(ParameterError):
                converse_bound(k_prime, 0.5, 0.25)
            with pytest.raises(ParameterError):
                converse_bound(k_prime, 0.7, 0.3)  # checked in the vacuous regime too

    @pytest.mark.parametrize("delta_tv", [0.5, 0.7, 0.9])
    def test_one_vacuity_verdict(self, delta_tv):
        # 1 - 0.7 - 0.3 is 5.6e-17 in float64, yet 0.7 + 0.3 == 1.0: the sum
        # decides, so that point is vacuous everywhere.
        eps = [0.0, 0.05, 0.1, 0.3, 0.4999, 0.5, 0.6, 0.9, 1.0]
        rows = bit_lower_bound_table([1.0] * len(eps), delta_tv, [(8, 10, e) for e in eps])
        for e, row in zip(eps, rows):
            q = converse_bound(10, delta_tv, e)
            assert row["vacuous"] is (q is None) is (delta_tv + e >= 1.0)
            assert row["q_lower"] == q
            if q is not None:
                assert q == 10 + math.log2(1.0 - delta_tv - e)
        assert converse_bound(10, 0.7, 0.3) is None

    def test_table_flags_vacuous_rows(self):
        rows = bit_lower_bound_table(
            [1e2, 1e4], 0.5, [(32, 6, 0.25), (32, 6, 0.6)])
        assert rows[0]["q_lower"] == 4.0
        assert rows[0]["vacuous"] is False
        assert rows[1]["q_lower"] is None
        assert rows[1]["vacuous"] is True

    def test_table_monotone_in_message_bits(self):
        rows = bit_lower_bound_table(
            [1, 1, 1], 0.3, [(8, 4, 0.2), (8, 6, 0.2), (8, 9, 0.2)])
        q = [row["q_lower"] for row in rows]
        assert q[0] < q[1] < q[2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [4.7, 0, -3, True, "8", None])
    def test_table_refuses_a_dimension_that_is_not_a_count(self, d):
        # int(4.7) used to report the row at d = 4.
        with pytest.raises(ParameterError, match="d must be an integer"):
            bit_lower_bound_table([1.0], 0.1, [(d, 3, 0.1)])

    def test_table_takes_numpy_integer_dimensions(self):
        row, = bit_lower_bound_table([1.0], 0.1, [(np.int64(8), 3, 0.1)])
        assert row["d"] == 8 and type(row["d"]) is int


class TestBetaInc:
    def test_matches_scipy_across_parameters(self):
        xs = np.linspace(0.0, 1.0, 801)
        for a, b in [(0.5, 0.5), (3.0, 1.5), (14.5, 1.5), (28.0, 4.0), (1.0, 1.0)]:
            assert np.max(np.abs(betainc_reg(a, b, xs) - scipy_betainc(a, b, xs))) < 1e-10

    def test_arcsine_half(self):
        assert betainc_reg(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_endpoints(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            betainc_reg(0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            betainc_reg(1.0, 1.0, 1.5)
        # NaN passes a range test written as (x < 0) | (x > 1).
        for x in (math.nan, [0.5, math.nan], np.array([[math.nan]])):
            with pytest.raises(ParameterError):
                betainc_reg(2.0, 3.0, x)
        # a + b beyond BETAINC_MAX_AB = 2**22 is refused; there log B(a, b)
        # loses digits, and beyond about 2.6e305 lgamma overflows.
        for a, b in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
                     (1e300, 1.0), (1.0, 1e300), (1e308, 1e308)]:
            with pytest.raises(ParameterError):
                betainc_reg(a, b, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_largest_parameters_still_compute(self):
        cap = channel.BETAINC_MAX_AB
        assert cap == 2.0**22
        assert betainc_reg(cap - 1.0, 1.0, 0.5) == 0.0
        sd = math.sqrt(3.0 / 16.0 / (cap + 1.0))  # of Beta(cap / 4, 3 cap / 4)
        for a, x in [(cap - 2.0, 0.999999), (1e-3, 1e-7), (cap / 4.0, 0.25 + 6.0 * sd)]:
            assert abs(betainc_reg(a, cap - a, x) - scipy_betainc(a, cap - a, x)) <= 1e-8
        # Far beyond the cap log B(a, b) cancelled and this call returned 319.85.
        with pytest.raises(ParameterError, match="exceeds"):
            betainc_reg(0.0028, 5.7e16, 1.7e-17)
        with pytest.raises(ParameterError, match="exceeds"):
            betainc_reg(cap, 1e-3, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_seeded_sweep_stays_in_range_monotone_and_near_scipy(self):
        # Log-uniform (a, b) over the callers' range, at the mean +- 6 sd
        # and at uniform points.
        rng = np.random.default_rng(28)
        for a, b in np.exp(rng.uniform(math.log(1e-3), math.log(2.0**21), (400, 2))):
            mean, sd = a / (a + b), math.sqrt(a * b / (a + b + 1.0)) / (a + b)
            xs = np.concatenate([mean + np.array([-6.0, 6.0]) * sd, rng.random(8)])
            xs = np.sort(np.clip(xs, 0.0, 1.0))
            got = betainc_reg(a, b, xs)
            assert np.all((got >= 0.0) & (got <= 1.0)), (a, b)
            assert np.all(np.diff(got) >= 0.0), (a, b)
            assert np.max(np.abs(got - scipy_betainc(a, b, xs))) <= 2e-8, (a, b)

    @pytest.mark.filterwarnings("error")
    def test_one_loop_matches_scalar_calls(self):
        # An array whose entries take both branches runs one Lentz loop with
        # per-entry parameters; each scalar call runs its own branch with
        # scalar ones.  Both give the same bits.
        rng = np.random.default_rng(61)
        for a, b in [(0.3, 0.7), (0.5, 4.0), (6.0, 0.2), *10.0 ** rng.uniform(-1.5, 2.5, (20, 2))]:
            switch = (a + 1.0) / (a + b + 2.0)
            xs = np.concatenate([[0.0, 1.0, switch, np.nextafter(switch, 0.0),
                                  np.nextafter(switch, 1.0)], rng.random(12)])
            got = betainc_reg(a, b, xs)
            assert got.tobytes() == np.array([betainc_reg(a, b, x) for x in xs]).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_non_convergence_names_the_call(self):
        with pytest.raises(ParameterError, match="a=1000000.0, b=1000000.0"):
            betainc_reg(1e6, 1e6, 0.5)
        # Near the mean the loop needs far more than _CF_MAXIT steps; the
        # error names the call's a and b on either branch and on both.
        switch = (1e6 + 1.0) / (2.5e6 + 2.0)
        for x in ([np.nextafter(switch, 0.0)], [switch, 0.9], [0.1, switch]):
            with pytest.raises(ParameterError, match="a=1000000.0, b=1500000.0"):
                betainc_reg(1e6, 1.5e6, x)


class TestSubspaceCode:
    def test_bases_orthonormal(self):
        cols = draw_code(16, 4, 20, np.random.default_rng(0))
        assert cols.shape == (4, 20, 16)
        for m in range(20):
            q = basis(cols, m)
            assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-10

    def test_covariance_spectrum_is_two_valued(self):
        cols = draw_code(8, 3, 5, np.random.default_rng(1))
        ev = np.sort(np.linalg.eigvalsh(covariance(cols, 2, 50.0)))
        assert ev[:5] == pytest.approx(np.full(5, 1.0 / 50.0), abs=1e-12)
        assert ev[5:] == pytest.approx(np.ones(3), abs=1e-12)

    def test_full_rank_code_is_identity_covariance(self):
        cols = draw_code(5, 5, 3, np.random.default_rng(2))
        for m in range(3):
            assert np.max(np.abs(covariance(cols, m, 10.0) - np.eye(5))) < 1e-10

    @pytest.mark.parametrize("fresh", [True, False])
    def test_rank_bounds_enforced(self, fresh):
        for r in (0, 5):
            with pytest.raises(ParameterError):
                run_coding_experiment(4, r, 10.0, 2, 1, np.random.default_rng(0),
                                      fresh_codebook=fresh)

    @pytest.mark.parametrize("fresh", [True, False])
    def test_oversized_codebook_rejected_before_allocation(self, fresh):
        # 10**12 codewords of 32 x 3 would ask numpy for 698 TiB.
        for m_code in (10**12, channel.CODE_MAX_ENTRIES // 96 + 1):
            with pytest.raises(ParameterError):
                run_coding_experiment(32, 3, 1e4, m_code, 1, np.random.default_rng(0),
                                      fresh_codebook=fresh)
        res = run_coding_experiment(32, 3, 1e4, 1024, 1, np.random.default_rng(0),
                                    fresh_codebook=fresh)
        assert res.trials == 1 and 0 <= res.messages[0] < 1024

    def test_rank_deficient_code_is_rejected(self, monkeypatch):
        class ZeroColumn:
            # A stream whose draws have a zero column in codeword 1.
            def standard_normal(self, size):
                out = np.random.default_rng(20).standard_normal(size)
                out[1, :, 0] = 0.0
                return out

        # A rank-deficient draw (probability zero) fails the orthonormality
        # guard; it is not drawn again.
        with pytest.raises(ParameterError, match="orthonormal"):
            channel._draw_code(ZeroColumn(), 3, 6, 2)

        # The fixed codebook comes from the caller's generator; a fresh
        # codebook is never drawn.
        seen = []
        draw = channel._draw_code
        monkeypatch.setattr(channel, "_draw_code",
                            lambda rng, *shape: seen.append(rng) or draw(rng, *shape))
        caller = np.random.default_rng(22)
        run_coding_experiment(6, 2, 10.0, 3, channel.BLOCK_TRIALS + 1, caller,
                              fresh_codebook=False)
        assert len(seen) == 1 and seen[0] is caller
        run_coding_experiment(6, 2, 10.0, 3, channel.BLOCK_TRIALS + 1, caller)
        assert len(seen) == 1

    @pytest.mark.parametrize("fresh", [True, False])
    def test_full_rank_code_decodes_every_trial_to_index_zero(self, monkeypatch, fresh):
        # At r = d every codeword spans R^d and scores ||y||^2 exactly, so
        # every trial ties and goes to index 0, however roundoff falls.
        monkeypatch.setattr(channel, "_decode", None)  # no score is computed
        res = run_coding_experiment(5, 5, 10.0, 7, 600, np.random.default_rng(31),
                                    fresh_codebook=fresh)
        assert res.decoded.tolist() == [0] * 600
        assert set(res.messages.tolist()) == set(range(7))
        assert res.errors == np.count_nonzero(res.messages)


class TestChannelOutputs:
    def test_kappa_one_is_standard_normal(self):
        cols = draw_code(6, 2, 3, np.random.default_rng(3))
        n = 20_000
        ys = channel_outputs(cols, 0, 1.0, n, np.random.default_rng(4))
        emp = ys.T @ ys / n
        se = math.sqrt(2.0 / n)
        assert np.max(np.abs(np.diag(emp) - 1.0)) <= 4 * se

    def test_projection_energy_split(self):
        d, r, kap = 12, 3, 25.0
        cols = draw_code(d, r, 2, np.random.default_rng(5))
        q = basis(cols, 1)
        n = 30_000
        ys = channel_outputs(cols, 1, kap, n, np.random.default_rng(6))
        p2 = np.sum((ys @ q) ** 2, axis=1)
        on = np.mean(p2)
        off = np.mean(np.sum(ys**2, axis=1) - p2)
        # ||P_U Y||^2 ~ chi^2_r, ||P_perp Y||^2 ~ chi^2_{d-r}/kappa
        assert abs(on - r) <= 3 * math.sqrt(2.0 * r / n)
        assert abs(off - (d - r) / kap) <= 3 * math.sqrt(2.0 * (d - r) / n) / kap

    def test_covariance_matches_sigma_u(self):
        d, r, kap = 5, 2, 9.0
        cols = draw_code(d, r, 1, np.random.default_rng(7))
        sigma_u = covariance(cols, 0, kap)
        n = 100_000
        ys = channel_outputs(cols, 0, kap, n, np.random.default_rng(8))
        emp = ys.T @ ys / n
        for i in range(d):
            for j in range(d):
                se = math.sqrt((sigma_u[i, i] * sigma_u[j, j] + sigma_u[i, j]**2) / n)
                assert abs(emp[i, j] - sigma_u[i, j]) <= 4 * se

    def test_noise_rows_are_g_then_h(self):
        # Row (G, H) gives Y = Q G + kappa^{-1/2} (H - Q Q^T H).
        cols = draw_code(7, 3, 2, np.random.default_rng(9))
        q = basis(cols, 1)
        noise = np.random.default_rng(10).standard_normal((4, 10))
        ys = channel._channel_outputs(cols[:, [1, 1, 1, 1]], noise, 16.0)
        for y, row in zip(ys, noise):
            g, h = row[:3], row[3:]
            want = q @ g + (h - q @ (q.T @ h)) / 4.0
            assert np.max(np.abs(y - want)) < 1e-12


class TestDecode:
    def make_axis_code(self):
        cols = np.zeros((1, 2, 2))
        cols[0, 0, 0] = 1.0  # span(e1)
        cols[0, 1, 1] = 1.0  # span(e2)
        return cols

    def test_two_axis_example(self):
        cols = self.make_axis_code()
        assert channel._decode(cols, np.array([[1.0, 0.1], [0.1, 1.0]])).tolist() == [0, 1]

    def test_member_vector_decodes_exactly(self):
        cols = draw_code(8, 2, 6, np.random.default_rng(10))
        m = 4
        y = basis(cols, m) @ np.array([0.3, -2.0])
        assert channel._decode(cols, y[None])[0] == m

    def test_tie_breaks_toward_smaller_index(self):
        cols = np.zeros((1, 2, 2))
        cols[0, 0, 0] = 1.0
        cols[0, 1, 0] = 1.0  # duplicate codeword
        assert channel._decode(cols, np.array([[2.0, 0.5]]))[0] == 0

    def test_scale_invariance(self):
        cols = draw_code(6, 2, 5, np.random.default_rng(11))
        ys = np.random.default_rng(12).standard_normal((50, 6))
        base = channel._decode(cols, ys)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert np.array_equal(channel._decode(cols, c * ys), base)

    def test_zero_vector_ties_every_codeword(self):
        # ||Q^T 0|| is 0 for every codeword, so the tie goes to index 0.
        cols = draw_code(3, 1, 2, np.random.default_rng(13))
        assert channel._decode(cols, np.zeros((1, 3)))[0] == 0

    def test_closed_form_matches_residual_argmin(self):
        # Reference: the residual form ||y - Q Q^T y|| over every codeword.
        # r < d: at r = d every residual is roundoff and all codewords tie.
        rng = np.random.default_rng(30)
        for pair in range(1200):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d))
            m_code = int(rng.integers(1, 40))
            cols = draw_code(d, r, m_code, rng)
            y = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            residual = [np.linalg.norm(y - q @ (q.T @ y))
                        for q in (basis(cols, m) for m in range(m_code))]
            assert channel._decode(cols, y[None])[0] == int(np.argmin(residual)), pair


class Fixed:
    """A generator whose every draw is passed through ``fix``."""

    def __init__(self, rng, fix):
        self.rng, self.fix = rng, fix

    def __getattr__(self, name):
        draw = getattr(self.rng, name)
        return lambda *args, **kwargs: self.fix(draw(*args, **kwargs))


def unscreened_fresh_trials(d, r, kappa, m_code, trials, seed,
                            fix_u=lambda u: u, fix_chi2=lambda chi2: chi2):
    """Per fresh-codebook trial of ``run_coding_experiment``: x = 1 - T, the
    uniform u, the error probability 1 - (1 - I_x((d-r)/2, r/2))^(m-1) and
    the decoded index, from a loop over the blocks' streams that calls
    betainc_reg on every trial.  ``fix_u`` and ``fix_chi2`` act on a block's
    uniforms and chi-square pairs as stub streams would."""
    a, b, block = (d - r) / 2.0, r / 2.0, channel.BLOCK_TRIALS
    x, u, p_error, decoded = [], [], [], []
    for k, child in enumerate(np.random.default_rng(seed).spawn(-(-trials // block))):
        n = min(block, trials - k * block)
        code_rng, message_rng, noise_rng = child.spawn(3)
        m, other = message_rng.integers([m_code, m_code - 1], size=(n, 2)).T
        g2, h2 = fix_chi2(noise_rng.chisquare([r, d - r], size=(n, 2))).T
        x.append(h2 / kappa / (g2 + h2 / kappa))
        with np.errstate(divide="ignore"):
            p_error.append(-np.expm1((m_code - 1) * np.log1p(-betainc_reg(a, b, x[-1]))))
        u.append(fix_u(code_rng.random(n)))
        decoded.append(np.where(u[-1] < p_error[-1], other + (other >= m), m))
    return tuple(map(np.concatenate, (x, u, p_error, decoded)))


class TestCodingExperiment:
    def test_single_message_never_errs(self):
        res = run_coding_experiment(8, 2, 100.0, 1, 200, np.random.default_rng(14))
        assert res.errors == 0

    def test_kappa_one_is_uniform_guessing(self):
        res = run_coding_experiment(6, 2, 1.0, 2, 4000, np.random.default_rng(15))
        assert set(res.messages.tolist()) == {0, 1}
        se = math.sqrt(0.25 / 4000)
        assert abs(res.error_rate - 0.5) <= 3 * se

    def test_fixed_codebook_mode_reproducible(self):
        a = run_coding_experiment(8, 2, 50.0, 4, 100, np.random.default_rng(16),
                                  fresh_codebook=False)
        b = run_coding_experiment(8, 2, 50.0, 4, 100, np.random.default_rng(16),
                                  fresh_codebook=False)
        assert np.array_equal(a.decoded, b.decoded)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("trials", [0, -1, 2.5, 1.0, True, np.True_, "3", None,
                                        channel.MAX_TRIALS + 1, 10**12])
    def test_trials_validation(self, trials):
        # default_rng rejects a bare object, so a ParameterError here shows
        # that trials are checked before any stream is made or spawned.
        with pytest.raises(ParameterError, match="trials"):
            run_coding_experiment(4, 1, 10.0, 2, trials, object(), fresh_codebook=False)
        with pytest.raises(ParameterError, match="trials"):
            binary_subchannel_experiment(16, 16.0, 0.1, trials, object())
        # The unchunked Monte Carlo helpers and the tube check trials alike.
        for call in (lambda: good_event_rate(8, 3, trials, object()),
                     lambda: subspace_distance_samples(8, 3, trials, object()),
                     lambda: tube_probability(8, 3, [0.5], trials, object())):
            with pytest.raises(ParameterError, match="trials"):
                call()

    def test_numpy_integer_trials_are_accepted(self):
        for res in (run_coding_experiment(4, 1, 10.0, 2, np.int64(5), np.random.default_rng(0)),
                    binary_subchannel_experiment(16, 16.0, 0.1, np.uint8(5),
                                                 np.random.default_rng(0))):
            assert res.trials == 5 and type(res.trials) is int
            assert res.messages.size == 5

    @pytest.mark.parametrize("fresh", [True, False])
    def test_chunking_does_not_change_results(self, monkeypatch, fresh):
        def run():
            return run_coding_experiment(8, 2, 20.0, 16, 150, np.random.default_rng(18),
                                         fresh_codebook=fresh)

        base = run()
        # 256 entries hold the sent bases and Q^T y of about two fixed-codebook
        # trials; a fresh chunk holds CHUNK_ENTRIES // (8 * BLOCK_TRIALS)
        # blocks, at least one, and these 150 trials are one block.
        for entries in (1, 256, 256 * 7, 2**30):
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            other = run()
            assert np.array_equal(other.messages, base.messages)
            assert np.array_equal(other.decoded, base.decoded)
            assert other.errors == base.errors

    @pytest.mark.parametrize("kappa", [1.0, 16.0, 1e4])
    def test_chunked_fresh_outcomes_equal_a_per_block_loop(self, kappa):
        # Chunks of 64 blocks share one betainc_reg call; each block's draws
        # and decisions are those of a loop that calls it once per block.
        # At kappa = 1 and 16 the points of betainc_reg straddle its switch
        # point, so both of its branches run; at 1e4 only one does.
        d, r, m_code, block = 32, 3, 64, channel.BLOCK_TRIALS
        a, b = (d - r) / 2.0, r / 2.0
        branches = set()
        for trials in (1, 255, 256, 257, 16383, 16384, 16385, 40000):
            res = run_coding_experiment(d, r, kappa, m_code, trials, np.random.default_rng(23))
            messages, decoded = [], []
            for k, child in enumerate(np.random.default_rng(23).spawn(-(-trials // block))):
                n = min(block, trials - k * block)
                code_rng, message_rng, noise_rng = child.spawn(3)
                m, other = message_rng.integers([m_code, m_code - 1], size=(n, 2)).T
                g2, h2 = noise_rng.chisquare([r, d - r], size=(n, 2)).T
                h2 = h2 / kappa
                x = h2 / (g2 + h2)
                branches.update((x < (a + 1.0) / (a + b + 2.0)).tolist())
                with np.errstate(divide="ignore"):
                    p_error = -np.expm1((m_code - 1) * np.log1p(-betainc_reg(a, b, x)))
                wrong = code_rng.random(n) < p_error
                messages.append(m)
                decoded.append(np.where(wrong, other + (other >= m), m))
            assert np.array_equal(res.messages, np.concatenate(messages)), trials
            assert np.array_equal(res.decoded, np.concatenate(decoded)), trials
        assert branches == ({True} if kappa == 1e4 else {True, False})

    def test_fresh_trials_call_betainc_once_per_chunk(self, monkeypatch):
        # At most one call a chunk, on the chunk's candidates only, and none
        # for a chunk without any: at kappa = 1e4 the union bound leaves
        # fewer than 1% of the trials.
        sizes = []
        monkeypatch.setattr(channel, "betainc_reg",
                            lambda a, b, x, betainc=channel.betainc_reg:
                            sizes.append(len(x)) or betainc(a, b, x))
        chunk = channel.CHUNK_ENTRIES // (8 * channel.BLOCK_TRIALS) * channel.BLOCK_TRIALS
        assert chunk == 16384
        for trials in (1, 400, chunk, chunk + 1, 40000):
            sizes.clear()
            run_coding_experiment(32, 3, 1e4, 64, trials, np.random.default_rng(24))
            assert len(sizes) <= -(-trials // chunk)
            assert 0 < min(sizes, default=1) and max(sizes, default=0) <= chunk
        assert sum(sizes) < 40000 // 100

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [1.0, 16.0, 1e4, 1e8])
    def test_screened_out_trials_cannot_err(self, monkeypatch, kappa):
        # betainc_reg sees only the screen's candidates; every other trial
        # must have u >= its unscreened error probability, so the screen
        # decides it as the unscreened rule does.
        passed = []
        monkeypatch.setattr(channel, "betainc_reg",
                            lambda a, b, x, betainc=channel.betainc_reg:
                            passed.append(x) or betainc(a, b, x))
        d, trials = 32, 3000
        for r in (1, d - 1):  # b = r/2 below and above 1
            for m_code in (2, 64, 1024):
                passed.clear()
                res = run_coding_experiment(d, r, kappa, m_code, trials,
                                            np.random.default_rng(31))
                x, u, p_error, decoded = unscreened_fresh_trials(d, r, kappa, m_code,
                                                                 trials, 31)
                candidate = np.isin(x, np.concatenate([[], *passed]))
                assert candidate.sum() == sum(map(len, passed))
                assert not np.any(~candidate & (u < p_error)), (r, m_code)
                assert np.array_equal(res.decoded, decoded), (r, m_code)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [1, 31])
    @pytest.mark.parametrize("kappa", [1.0, 1e4])
    def test_zero_draws_decide_as_the_unscreened_rule(self, monkeypatch, r, kappa):
        # Stub streams zero u on every fifth trial of a block, g2 (x = 1) on
        # trials 1 mod 6 and h2 (x = 0) on trials 2 mod 6, so u = 0 meets
        # each of the others too.
        def zero_u(u):
            u[::5] = 0.0
            return u

        def zero_chi2(chi2):
            chi2[1::6, 0] = 0.0
            chi2[2::6, 1] = 0.0
            return chi2

        monkeypatch.setattr(channel, "spawn_tree",
                            lambda rng, n, k, tree=channel.spawn_tree:
                            [(Fixed(code, zero_u), message, Fixed(noise, zero_chi2))
                             for code, message, noise in tree(rng, n, k)])
        passed = []
        monkeypatch.setattr(channel, "betainc_reg",
                            lambda a, b, x, betainc=channel.betainc_reg:
                            passed.append(x) or betainc(a, b, x))
        d, m_code, trials = 32, 64, 600
        res = run_coding_experiment(d, r, kappa, m_code, trials, np.random.default_rng(37))
        x, u, p_error, decoded = unscreened_fresh_trials(d, r, kappa, m_code, trials, 37,
                                                         zero_u, zero_chi2)
        assert np.array_equal(res.decoded, decoded)
        # Every u = 0 is a candidate, the x = 0 ones too.
        assert np.all(np.isin(x[u == 0.0], np.concatenate(passed)))
        t = np.arange(trials) % channel.BLOCK_TRIALS
        assert np.all(x[t % 6 == 1] == 1.0) and np.all(x[t % 6 == 2] == 0.0)
        # u = 0 errs wherever x > 0, and x = 1 errs always.
        wrong = res.decoded != res.messages
        assert np.array_equal(wrong[t % 5 == 0], x[t % 5 == 0] > 0.0)
        assert np.all(wrong[t % 6 == 1]) and not np.any(wrong[t % 6 == 2])

    @pytest.mark.parametrize("fresh", [True, False])
    def test_one_trial_calls_agree_with_the_batched_trials(self, fresh):
        # Trials t of block b draw, one trial after another, from the b-th
        # child's three grandchildren.  A fixed-codebook trial takes its
        # message index from the second and its noise row (G, H) from the
        # third, and its output is decoded against the code drawn from the
        # caller's generator.  A fresh trial takes its message and one other
        # index from the second, chi^2_r and chi^2_(d-r) from the third, and
        # a uniform from the first; it errs when the uniform falls below
        # 1 - I_T(r/2, (d-r)/2)^(m-1), here by scipy's incomplete beta.
        d, r, kappa, m_code = 10, 3, 5.0, 12
        trials = channel.BLOCK_TRIALS + 40
        res = run_coding_experiment(d, r, kappa, m_code, trials, np.random.default_rng(19),
                                    fresh_codebook=fresh)
        rng = np.random.default_rng(19)
        cols = None if fresh else draw_code(d, r, m_code, rng)
        blocks = rng.spawn(2)
        for t in range(trials):
            if t % channel.BLOCK_TRIALS == 0:
                code_rng, message_rng, noise_rng = blocks[t // channel.BLOCK_TRIALS].spawn(3)
            if fresh:
                m, other = message_rng.integers([m_code, m_code - 1])
                g2, h2 = noise_rng.chisquare([r, d - r])
                p_error = 1.0 - scipy_betainc(r / 2, (d - r) / 2, g2 / (g2 + h2 / kappa))**11
                decoded = other + (other >= m) if code_rng.random() < p_error else m
            else:
                m = int(message_rng.integers(m_code))
                decoded = channel._decode(cols, channel_outputs(cols, m, kappa, 1, noise_rng))[0]
            assert m == res.messages[t]
            assert decoded == res.decoded[t]

    @pytest.mark.parametrize("fresh", [True, False])
    def test_first_trials_do_not_depend_on_the_trial_count(self, fresh):
        def run(trials):
            return run_coding_experiment(8, 2, 20.0, 16, trials, np.random.default_rng(21),
                                         fresh_codebook=fresh)

        full = run(600)  # three blocks, the last one partial
        for k in (1, 37, 300):
            part = run(k)
            assert np.array_equal(part.messages, full.messages[:k])
            assert np.array_equal(part.decoded, full.decoded[:k])

    def test_fixed_codebook_chunks_stay_within_chunk_entries(self, monkeypatch):
        # A chunk's sent bases hold r * d entries per trial; at m * r = 16 a
        # count of m * r alone would put a whole block in one chunk.
        sizes = []
        outputs = channel._channel_outputs
        monkeypatch.setattr(channel, "_channel_outputs",
                            lambda sent, noise, kappa: sizes.append(sent.size)
                            or outputs(sent, noise, kappa))
        res = run_coding_experiment(4096, 2, 10.0, 8, 300, np.random.default_rng(23),
                                    fresh_codebook=False)
        assert res.trials == 300
        assert sum(sizes) == 300 * 2 * 4096
        assert max(sizes) <= channel.CHUNK_ENTRIES

    def test_non_orthonormal_codeword_rejected(self, monkeypatch):
        orthonormalize = channel._orthonormalize

        def skewed(raw):
            cols = orthonormalize(raw)
            cols[1, -1, -1] *= 1.0 + 1e-9  # the last codeword
            return cols

        monkeypatch.setattr(channel, "_orthonormalize", skewed)
        with pytest.raises(ParameterError, match="orthonormal"):
            run_coding_experiment(8, 2, 50.0, 4, 30, np.random.default_rng(0),
                                  fresh_codebook=False)

    @pytest.mark.parametrize("d, r, kappa, m_code, seed", [
        (8, 3, 4.0, 64, 41), (32, 3, 30.0, 64, 42), (10, 3, 5.0, 12, 43)])
    def test_fresh_error_rate_matches_the_one_dimensional_integral(self, d, r, kappa,
                                                                    m_code, seed):
        # eps = E[1 - I_T(r/2, (d-r)/2)^(m-1)] with T = U / (U + (1-U)/kappa)
        # and U ~ Beta(r/2, (d-r)/2), the sent codeword's share of ||G||^2 +
        # chi^2_(d-r).  Criterion 9 asks only for monotone rates.
        a, b = r / 2, (d - r) / 2

        def integrand(u):
            t = u / (u + (1.0 - u) / kappa)
            return (1.0 - scipy_betainc(a, b, t) ** (m_code - 1)) * stats.beta.pdf(u, a, b)

        eps, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        res = run_coding_experiment(d, r, kappa, m_code, 20_000, np.random.default_rng(seed))
        se = math.sqrt(eps * (1.0 - eps) / res.trials)
        assert abs(res.error_rate - eps) <= 3 * se, (res.error_rate, eps)

    def test_fixed_and_subchannel_outcomes_are_those_of_contract_v2(self):
        # Digests of (messages, decoded) recorded when each block spawned four
        # grandchildren, the fourth for codebook redraws.  Spawn keys do not
        # depend on the spawn count, so three keep every outcome.
        def digest(res):
            both = np.stack([res.messages, res.decoded]).astype("<i8")
            return hashlib.sha256(both.tobytes()).hexdigest()[:16]

        rng = np.random.default_rng
        assert [digest(run_coding_experiment(10, 3, 5.0, 12, 600, rng(24), fresh_codebook=False)),
                digest(run_coding_experiment(32, 3, 1e4, 1024, 300, rng(25),
                                             fresh_codebook=False)),
                digest(binary_subchannel_experiment(16, 4.0, 0.25, 600, rng(26))),
                digest(binary_subchannel_experiment(10, 4.0, 0.35, 600, rng(27)))] == [
            "9ac8e918609754d1", "2b70c769620600dd", "fff6053c7123478c", "c956c444e3a9ba91"]


class TestTubeLaw:
    def test_arcsine_case_exact(self):
        _, (analytic,) = tube_probability(2, 1, [math.sqrt(0.5)], 10, np.random.default_rng(0))
        assert analytic == pytest.approx(0.5, abs=1e-10)
        closed_form = (2.0 / math.pi) * math.asin(math.sqrt(0.5))
        assert analytic == pytest.approx(closed_form, abs=1e-10)

    def test_theta_near_one_saturates(self):
        (emp,), (analytic,) = tube_probability(10, 3, [0.999999], 2000, np.random.default_rng(1))
        assert analytic > 0.999
        assert emp > 0.99

    def test_monte_carlo_agreement(self):
        (emp,), (analytic,) = tube_probability(20, 5, [0.3], 100_000, np.random.default_rng(2))
        se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / 100_000)
        assert abs(emp - analytic) <= 4 * se + 1e-9

    def test_moderate_probability_agreement(self):
        (emp,), (analytic,) = tube_probability(8, 4, [0.6], 100_000, np.random.default_rng(3))
        se = math.sqrt(analytic * (1 - analytic) / 100_000)
        assert abs(emp - analytic) <= 4 * se

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            tube_probability(5, 5, [0.3], 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            tube_probability(5, 2, [1.5], 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            tube_probability(5, 2, [0.3, 0.0], 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            tube_probability(5, 2, [0.3], 0, np.random.default_rng(0))

    @pytest.mark.parametrize("d, r, thetas", [(64, 8, [0.88, 0.9, 0.92, 0.94, 0.97]),
                                              (10, 3, [0.3, 0.8, 0.81, 0.95])])
    def test_one_beta_call_and_one_loop(self, monkeypatch, d, r, thetas):
        # The analytic column is one betainc_reg call over every theta, and
        # that call runs one continued-fraction loop, though the theta^2 lie
        # on both sides of the switch point (a + 1)/(a + b + 2).
        a, b = (d - r) / 2.0, r / 2.0
        switch = (a + 1.0) / (a + b + 2.0)
        assert min(thetas) ** 2 < switch <= max(thetas) ** 2
        calls = []
        for name in ("betainc_reg", "_betacf"):
            monkeypatch.setattr(channel, name, lambda *args, f=getattr(channel, name), name=name:
                                calls.append(name) or f(*args))
        tube_probability(d, r, thetas, 100, np.random.default_rng(0))
        assert calls == ["betainc_reg", "_betacf"]

    def test_chunked_counts_equal_one_draw(self, monkeypatch):
        d, r, trials = 8, 3, 1001
        thetas = [0.3, 0.6, 0.8, 0.95]
        dist2 = subspace_distance_samples(d, r, trials, np.random.default_rng(40))
        want = [np.count_nonzero(dist2 <= theta**2) / trials for theta in thetas]
        # Two draws per point: 64 entries make 31 full chunks of 32 points and
        # a partial one, and 2 entries one point per chunk.
        for entries in (2, 64, 8 * 1001, 2**30):
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            emp, analytic = tube_probability(d, r, thetas, trials, np.random.default_rng(40))
            assert emp.tolist() == want
            assert analytic.tolist() == [betainc_reg(2.5, 1.5, theta**2) for theta in thetas]

    def test_chunks_stay_within_the_draw_cap(self, monkeypatch):
        # A tube call accepts every size it accepted when each chunk was d
        # normals a point: its chunks shrink to DRAW_MAX_ENTRIES // d points.
        d, r, trials = 64, 8, 1000
        dist2 = subspace_distance_samples(d, r, trials, np.random.default_rng(41))
        sizes = []
        draw = channel.subspace_distance_samples
        monkeypatch.setattr(channel, "subspace_distance_samples",
                            lambda *args: sizes.append(args[2]) or draw(*args))
        monkeypatch.setattr(channel, "DRAW_MAX_ENTRIES", 64 * 100)
        (emp,), _ = tube_probability(d, r, [0.9], trials, np.random.default_rng(41))
        assert sizes == [100] * 10
        assert emp == np.count_nonzero(dist2 <= 0.81) / trials

    def test_points_are_drawn_from_their_chi_square_statistics(self):
        # Point i takes chi^2_r, then chi^2_(d-r), from the caller's
        # generator, one point after another.
        d, r = 12, 5
        got = subspace_distance_samples(d, r, 300, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        for value in got:
            g2, h2 = rng.chisquare([r, d - r])
            assert value == h2 / (g2 + h2)
        head = subspace_distance_samples(d, r, 37, np.random.default_rng(42))
        assert np.array_equal(head, got[:37])

    @pytest.mark.parametrize("d, r", [(2, 1), (10, 1), (10, 9)])
    def test_edge_shapes_follow_the_beta_law(self, d, r):
        # Two-sided KS at alpha = 1e-3 against the in-house Beta CDF, at the
        # chi^2_1 edges: r = 1, d - r = 1 and both.
        n = 50_000
        dist2 = np.sort(subspace_distance_samples(d, r, n, np.random.default_rng(100 * d + r)))
        cdf = betainc_reg((d - r) / 2.0, r / 2.0, dist2)
        stat = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert stat < math.sqrt(-math.log(0.5e-3) / 2.0) / math.sqrt(n)


def packed_bits(words, count):
    """The first ``count`` bits of 64-bit ``words``, least-significant bit of
    each word first."""
    shifts = np.arange(64, dtype=np.uint64)
    bits = (np.asarray(words, dtype=np.uint64)[:, None] >> shifts) & np.uint64(1)
    return bits.reshape(-1)[:count]


def loop_subchannel(d, kappa, rate, trials, rng):
    """Per-trial reference: block b of BLOCK_TRIALS trials draws from the b-th
    spawned child, whose three grandchildren give each trial in turn its
    codebook, its message index and its noise in R^d.  The codebook is the
    first m*d bits of ceil(m*d/64) raw 64-bit words, least-significant bit
    first and row-major over (m, d); the decoder takes the argmax of
    codebook @ advantage."""
    m_code = int(math.floor(2.0 ** (rate * d)))
    words = -(-m_code * d // 64)
    messages, decoded = [], []
    blocks = rng.spawn(-(-trials // channel.BLOCK_TRIALS))
    for t in range(trials):
        if t % channel.BLOCK_TRIALS == 0:
            code_rng, message_rng, noise_rng = blocks[t // channel.BLOCK_TRIALS].spawn(3)
        raw = code_rng.bit_generator.random_raw(words)
        codebook = packed_bits(raw, m_code * d).reshape(m_code, d).astype(np.float64)
        m = message_rng.integers(m_code)
        y = noise_rng.standard_normal(d) * np.where(codebook[m] == 1.0, 1.0,
                                                    1.0 / math.sqrt(kappa))
        advantage = 0.5 * (kappa - 1.0) * y**2 - 0.5 * math.log(kappa)
        messages.append(m)
        decoded.append(np.argmax(codebook @ advantage))
    return np.array(messages), np.array(decoded)


class TestBinarySubchannel:
    @pytest.mark.parametrize("d, kappa, rate", [
        (16, 16.0, 0.1), (32, 16.0, 0.1), (64, 16.0, 0.1),
        (10, 2.0, 1.0),            # m = 1024 > 2**10: duplicate codewords tie
        (12, 1.0 + 1e-9, 0.25),    # near-degenerate channel
        (4, 16.0, 0.2),            # one codeword
    ])
    def test_batched_trials_match_a_per_trial_loop(self, d, kappa, rate):
        res = binary_subchannel_experiment(d, kappa, rate, 600, np.random.default_rng(d))
        messages, decoded = loop_subchannel(d, kappa, rate, 600, np.random.default_rng(d))
        assert np.array_equal(res.messages, messages)
        assert np.array_equal(res.decoded, decoded)
        assert res.errors == np.count_nonzero(messages != decoded)

    @pytest.mark.parametrize("d, seed, digest", [
        (16, 5, "9a26748d9e4f2b3ba43f24138055f96b417f5e7afab2b961a68f6c86794f4050"),
        (16, 23, "18c769009eb54cb220f54f13c1f9dc38f56f11fd1a690e2419778bc22d4766d7"),
        (32, 5, "bdfe6d7d67d257ab60446e8f593950d45b7184752f0948ded9db0e03f13a590c"),
        (32, 23, "bb337a24a8ac1d630ba8cf13242902cf64c17daea74b64d5a2fb05b39c6e3756"),
        (64, 5, "f6221f7b5820c0446a54ccfc27abba00bd7d85da174264e60766fdd75329d312"),
        (64, 23, "d31e0b0681c19a31cb7fab2ca286f9bcc37e0c384f907f1be3fd43b6613cc160"),
    ])
    def test_outcomes_are_pinned_per_seed(self, d, seed, digest):
        # SHA-256 of the (messages, decoded) int64 pair at the benchmark's
        # kappa = 16 and rate 0.1; 600 trials make three blocks, and at d = 64
        # each block runs in chunks of 24 trials.
        res = binary_subchannel_experiment(d, 16.0, 0.1, 600, np.random.default_rng(seed))
        both = np.stack([res.messages, res.decoded]).astype("<i8")
        assert hashlib.sha256(both.tobytes()).hexdigest() == digest

    def test_codebook_bits_are_fair(self, monkeypatch):
        # The decoder's one matrix product per chunk sees every codebook bit.
        seen = []
        monkeypatch.setattr(np, "matmul",
                            lambda a, b, matmul=np.matmul: seen.append(a.copy()) or matmul(a, b))
        binary_subchannel_experiment(32, 16.0, 0.1, 2000, np.random.default_rng(9))
        bits = np.concatenate([a.reshape(-1) for a in seen])
        assert bits.size == 2000 * 9 * 32
        assert np.all((bits == 0.0) | (bits == 1.0))
        assert abs(bits.mean() - 0.5) <= 5 * 0.5 / math.sqrt(bits.size)

    def test_single_codeword_never_errs(self):
        # rate*d small enough that floor(2**(rate*d)) == 1
        res = binary_subchannel_experiment(4, 16.0, 0.2, 300, np.random.default_rng(4))
        assert res.errors == 0

    def test_near_degenerate_channel_is_uniform_guessing(self):
        d, rate = 16, 0.125  # 4 messages
        res = binary_subchannel_experiment(d, 1.0 + 1e-9, rate, 4000,
                                           np.random.default_rng(5))
        m = 4
        want = 1.0 - 1.0 / m
        se = math.sqrt(want * (1 - want) / 4000)
        assert abs(res.error_rate - want) <= 3 * se

    @pytest.mark.filterwarnings("error")
    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            binary_subchannel_experiment(8, 1.0, 0.1, 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            binary_subchannel_experiment(8, 4.0, -0.1, 10, np.random.default_rng(0))
        # At kappa = inf the advantage would be inf - inf.
        for kappa in (math.inf, math.nan):
            with pytest.raises(ParameterError):
                binary_subchannel_experiment(8, kappa, 0.25, 10, np.random.default_rng(0))

    def test_first_trials_do_not_depend_on_the_trial_count(self):
        def run(trials):
            return binary_subchannel_experiment(16, 4.0, 0.25, trials, np.random.default_rng(7))

        full = run(600)  # three blocks, the last one partial
        for k in (1, 37, 300):
            part = run(k)
            assert np.array_equal(part.messages, full.messages[:k])
            assert np.array_equal(part.decoded, full.decoded[:k])

    def test_chunking_does_not_change_results(self, monkeypatch):
        def run():
            return binary_subchannel_experiment(16, 4.0, 0.25, 100, np.random.default_rng(6))

        base = run()
        for entries in (1, 16 * 16 * 7, 2**30):
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            other = run()
            assert np.array_equal(other.messages, base.messages)
            assert np.array_equal(other.decoded, base.decoded)

    # m * d = 11 * 10 = 110 bits pad the second word; 4 * 4 = 16 bits pad the first.
    @pytest.mark.parametrize("d, rate", [(10, 0.35), (4, 0.5)])
    def test_padded_codebooks_do_not_depend_on_chunks_or_trial_count(self, monkeypatch,
                                                                       d, rate):
        def run(trials):
            return binary_subchannel_experiment(d, 4.0, rate, trials, np.random.default_rng(8))

        full = run(600)  # three blocks, the last one partial
        m_code = int(math.floor(2.0 ** (rate * d)))
        for entries in (1, m_code * d * 7, 2**30):
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            for k in (1, 37, 300, 600):
                part = run(k)
                assert np.array_equal(part.messages, full.messages[:k])
                assert np.array_equal(part.decoded, full.decoded[:k])

    def test_codebook_bits_are_the_low_bits_first_of_the_code_words(self, monkeypatch):
        seen = []
        monkeypatch.setattr(np, "matmul",
                            lambda a, b, matmul=np.matmul: seen.append(a.copy()) or matmul(a, b))
        binary_subchannel_experiment(10, 4.0, 0.35, 5, np.random.default_rng(11))
        # Block 0's codebook grandchild; 110 bits take two words.
        code_rng = np.random.default_rng(11).spawn(1)[0].spawn(3)[0]
        w0, w1 = (int(w) for w in code_rng.bit_generator.random_raw(2))
        want = [(w0 >> j) & 1 for j in range(64)] + [(w1 >> j) & 1 for j in range(46)]
        assert seen[0][0].shape == (11, 10)
        assert seen[0][0].reshape(-1).tolist() == want

    @pytest.mark.filterwarnings("error")
    def test_workers_is_only_none_or_one(self):
        def run(workers):
            return binary_subchannel_experiment(16, 4.0, 0.25, 300, np.random.default_rng(6),
                                                workers=workers)

        base, one = run(None), run(1)
        assert np.array_equal(one.messages, base.messages)
        assert np.array_equal(one.decoded, base.decoded)
        for workers in (0, 2, 4):
            with pytest.raises(ParameterError, match="workers"):
                run(workers)

    @pytest.mark.parametrize("d, rate", [(64, 0.5), (64, 100.0), (2**21, 0.5)])
    def test_codebook_size_capped_before_allocation(self, d, rate):
        # (64, 0.5) alone would draw a 2**32 x 64 codebook (2 TiB) per trial.
        with pytest.raises(ParameterError):
            binary_subchannel_experiment(d, 16.0, rate, 1, np.random.default_rng(0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda rng: binary_subchannel_experiment(0, 16.0, 0.1, 10, rng),
    lambda rng: binary_subchannel_experiment(2.5, 16.0, 0.5, 10, rng),
    lambda rng: binary_subchannel_experiment(True, 16.0, 0.5, 10, rng),
    lambda rng: binary_subchannel_experiment(-5, 16.0, 0.1, 10, rng),
    lambda rng: run_coding_experiment(2.5, 1, 10.0, 2, 10, rng),
    lambda rng: run_coding_experiment(4, 1.5, 10.0, 2, 10, rng),
    lambda rng: run_coding_experiment(4, 1, 10.0, 2.5, 10, rng),
    lambda rng: run_coding_experiment(4, 1, 10.0, True, 10, rng),
    lambda rng: tube_probability(8.5, 3, [0.5], 10, rng),
    lambda rng: tube_probability(8, 1.5, [0.5], 10, rng),
    lambda rng: subspace_distance_samples(8, 1.5, 10, rng),
    lambda rng: subspace_distance_samples(8.5, 3, 10, rng),
    lambda rng: good_event_rate(8, 1.5, 10, rng),
    lambda rng: run_coding_experiment(8, 2, "4", 4, 10, rng),
    lambda rng: run_coding_experiment(8, 2, 4j, 4, 10, rng),
    lambda rng: binary_subchannel_experiment(8, "4", 0.2, 10, rng),
    lambda rng: binary_subchannel_experiment(8, 4.0, "0.2", 10, rng),
    lambda rng: binary_subchannel_experiment(8, 4.0, None, 10, rng),
    lambda rng: tube_probability(8, 2, ["a"], 10, rng),
    lambda rng: tube_probability(8, 2, [0.5, None], 10, rng),
    lambda rng: tube_probability(8, 2, ["0.5"], 10, rng),
    lambda rng: run_coding_experiment(8, 2, True, 4, 10, rng),
    lambda rng: run_coding_experiment(8, 2, np.True_, 4, 10, rng),
    lambda rng: binary_subchannel_experiment(8, 4.0, True, 10, rng),
    lambda rng: binary_subchannel_experiment(8, 4.0, np.True_, 10, rng),
    lambda rng: binary_subchannel_experiment(8, 4.0, 0.2, 10, rng, workers=1.0),
    lambda rng: tube_probability(8, 2, [True], 10, rng),
    lambda rng: tube_probability(8, 2, [np.True_], 10, rng),
    lambda rng: tube_probability(8, 2, [[0.3], 0.5], 10, rng),
], ids=["subchannel-d0", "subchannel-d-float", "subchannel-d-bool", "subchannel-d-negative",
        "coding-d-float", "coding-r-float", "coding-m-float", "coding-m-bool",
        "tube-d-float", "tube-r-float", "distances-r-float", "distances-d-float",
        "good-event-r-float", "coding-kappa-str", "coding-kappa-complex",
        "subchannel-kappa-str", "subchannel-rate-str", "subchannel-rate-none",
        "tube-theta-str", "tube-theta-none", "tube-theta-numeric-str",
        "coding-kappa-bool", "coding-kappa-numpy-bool", "subchannel-rate-bool",
        "subchannel-rate-numpy-bool", "subchannel-workers-float",
        "tube-theta-bool", "tube-theta-numpy-bool", "tube-thetas-ragged"])
def test_shapes_and_thresholds_are_checked(call):
    with pytest.raises(ParameterError):
        call(np.random.default_rng(0))
    # default_rng rejects a bare object: the check comes before any stream.
    with pytest.raises(ParameterError):
        call(object())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn, args", [
    (good_event_rate, (8, 3, channel.DRAW_MAX_ENTRIES // 8 + 1)),
    (subspace_distance_samples, (8, 3, channel.DRAW_MAX_ENTRIES // 8 + 1)),
    (subspace_distance_samples, (10**10, 3, 1)),  # one row of 74.5 GiB
    (tube_probability, (10**10, 3, [0.5], 1)),
], ids=["good-event", "distances", "distances-one-row", "tube-one-row"])
def test_one_shot_draws_are_capped_before_allocation(fn, args):
    with pytest.raises(ParameterError, match="exceeds the cap"):
        fn(*args, np.random.default_rng(0))


class TestGoodEvent:
    def test_half_two_constants_hold_at_desk_scales(self):
        # 1/2 and 2 satisfy the 5% budget for these (d, r); smaller ranks do not.
        for seed, (d, r) in enumerate([(16, 8), (32, 8), (32, 16), (64, 8), (64, 32)]):
            rate = good_event_rate(d, r, 100_000, np.random.default_rng(seed))
            assert rate <= 0.05

    @pytest.mark.parametrize("d, r", [(8, 2), (10, 1), (16, 8), (64, 8)])
    def test_rate_matches_the_chi_square_law(self, d, r):
        # The good event fails with probability
        # 1 - P(chi^2_r >= r/4) P(chi^2_(d-r) <= 4d).
        trials = 100_000
        want = 1.0 - (stats.chi2.sf(channel.GOOD_G**2 * r, r)
                      * stats.chi2.cdf(channel.GOOD_H**2 * d, d - r))
        rate = good_event_rate(d, r, trials, np.random.default_rng(50 + d + r))
        assert abs(rate - want) <= 4.0 * math.sqrt(want * (1.0 - want) / trials)

    def test_trials_are_drawn_from_their_chi_square_statistics(self):
        d, r, trials = 9, 4, 500
        g2, h2 = np.random.default_rng(51).chisquare([r, d - r], size=(trials, 2)).T
        want = np.mean((g2 < r / 4.0) | (h2 > 4.0 * d))
        assert good_event_rate(d, r, trials, np.random.default_rng(51)) == want

    @pytest.mark.filterwarnings("error")
    def test_trials_validation(self):
        # Unchecked, 0 trials is a mean of an empty slice and -1 a numpy ValueError.
        for trials in (0, -1):
            with pytest.raises(ParameterError):
                good_event_rate(16, 8, trials, np.random.default_rng(0))
