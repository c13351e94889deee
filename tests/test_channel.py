import math

import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc

from smoothscore import (ConverseInput, ParameterError, SubspaceCode,
                         betainc_reg, binary_subchannel_experiment,
                         bit_lower_bound_table, build_subspace_code,
                         channel_draw, converse_bound, decode_nearest,
                         fixed_error_bound, good_event_rate,
                         run_coding_experiment, subspace_distance_samples,
                         tube_probability)
from smoothscore import channel


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

    def test_vacuous_regime_raises(self):
        with pytest.raises(ParameterError):
            converse_bound(5, 0.7, 0.4)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            ConverseInput(5, 1.0, 0.0)
        with pytest.raises(ParameterError):
            ConverseInput(5, 0.2, -0.1)

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

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            betainc_reg(0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            betainc_reg(1.0, 1.0, 1.5)


class TestSubspaceCode:
    def test_bases_orthonormal(self):
        code = build_subspace_code(16, 4, 20, np.random.default_rng(0), kappa=100.0)
        for m in range(code.m_code):
            q = code.basis(m)
            assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-10

    def test_covariance_spectrum_is_two_valued(self):
        code = build_subspace_code(8, 3, 5, np.random.default_rng(1), kappa=50.0)
        ev = np.sort(np.linalg.eigvalsh(code.covariance(2)))
        assert ev[:5] == pytest.approx(np.full(5, 1.0 / 50.0), abs=1e-12)
        assert ev[5:] == pytest.approx(np.ones(3), abs=1e-12)

    def test_full_rank_code_is_identity_covariance(self):
        code = build_subspace_code(5, 5, 3, np.random.default_rng(2), kappa=10.0)
        for m in range(3):
            assert np.max(np.abs(code.covariance(m) - np.eye(5))) < 1e-10

    def test_rank_bounds_enforced(self):
        with pytest.raises(ParameterError):
            build_subspace_code(4, 0, 2, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            build_subspace_code(4, 5, 2, np.random.default_rng(0))

    def test_oversized_codebook_rejected_before_allocation(self):
        # 10**12 codewords of 32 x 3 would ask numpy for 698 TiB.
        for m_code in (10**12, channel.CODE_MAX_ENTRIES // 96 + 1):
            with pytest.raises(ParameterError):
                build_subspace_code(32, 3, m_code, np.random.default_rng(0))
            with pytest.raises(ParameterError):
                run_coding_experiment(32, 3, 1e4, m_code, 1, np.random.default_rng(0))
        assert build_subspace_code(32, 3, 1024, np.random.default_rng(0)).m_code == 1024

    def test_rank_deficient_draw_is_redrawn_from_its_own_stream(self):
        class ZeroFirstDraw:
            # A stream whose first codebook has a zero column in codeword 1.
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.calls = 0

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                if self.calls == 0:
                    out[1, :, 0] = 0.0
                self.calls += 1

        streams = [np.random.default_rng(20), ZeroFirstDraw(21), np.random.default_rng(22)]
        cols = channel._draw_codes(streams, 3, 6, 2)
        assert streams[1].calls == 2
        clean = np.random.default_rng(21)
        clean.standard_normal((3, 6, 2))
        redrawn = channel._draw_codes([clean], 3, 6, 2)
        assert np.array_equal(cols[:, 1], redrawn[:, 0])
        assert np.array_equal(cols[:, 0], channel._draw_codes([np.random.default_rng(20)], 3, 6, 2)[:, 0])


class TestChannelDraw:
    def test_kappa_one_is_standard_normal(self):
        code = build_subspace_code(6, 2, 3, np.random.default_rng(3), kappa=1.0)
        n = 20_000
        rng = np.random.default_rng(4)
        ys = np.stack([channel_draw(code, 0, rng) for _ in range(n)])
        emp = ys.T @ ys / n
        se = math.sqrt(2.0 / n)
        assert np.max(np.abs(np.diag(emp) - 1.0)) <= 4 * se

    def test_projection_energy_split(self):
        d, r, kap = 12, 3, 25.0
        code = build_subspace_code(d, r, 2, np.random.default_rng(5), kappa=kap)
        q = code.basis(1)
        n = 30_000
        rng = np.random.default_rng(6)
        on, off = 0.0, 0.0
        for _ in range(n):
            y = channel_draw(code, 1, rng)
            p = q.T @ y
            on += p @ p
            off += y @ y - p @ p
        on /= n
        off /= n
        # ||P_U Y||^2 ~ chi^2_r, ||P_perp Y||^2 ~ chi^2_{d-r}/kappa
        assert abs(on - r) <= 3 * math.sqrt(2.0 * r / n)
        assert abs(off - (d - r) / kap) <= 3 * math.sqrt(2.0 * (d - r) / n) / kap

    def test_covariance_matches_sigma_u(self):
        d, r, kap = 5, 2, 9.0
        code = build_subspace_code(d, r, 1, np.random.default_rng(7), kappa=kap)
        sigma_u = code.covariance(0)
        n = 100_000
        rng = np.random.default_rng(8)
        ys = np.stack([channel_draw(code, 0, rng) for _ in range(n)])
        emp = ys.T @ ys / n
        for i in range(d):
            for j in range(d):
                se = math.sqrt((sigma_u[i, i] * sigma_u[j, j] + sigma_u[i, j]**2) / n)
                assert abs(emp[i, j] - sigma_u[i, j]) <= 4 * se

    def test_message_bounds(self):
        code = build_subspace_code(4, 1, 2, np.random.default_rng(9))
        with pytest.raises(ParameterError):
            channel_draw(code, 2, np.random.default_rng(0))


class TestDecodeNearest:
    def make_axis_code(self):
        bases = np.zeros((2, 2, 1))
        bases[0, 0, 0] = 1.0  # span(e1)
        bases[1, 1, 0] = 1.0  # span(e2)
        return SubspaceCode(dim=2, rank=1, kappa=100.0, bases=bases)

    def test_two_axis_example(self):
        code = self.make_axis_code()
        assert decode_nearest(code, np.array([1.0, 0.1])) == 0
        assert decode_nearest(code, np.array([0.1, 1.0])) == 1

    def test_member_vector_decodes_exactly(self):
        code = build_subspace_code(8, 2, 6, np.random.default_rng(10))
        m = 4
        y = code.basis(m) @ np.array([0.3, -2.0])
        assert decode_nearest(code, y) == m

    def test_tie_breaks_toward_smaller_index(self):
        bases = np.zeros((2, 2, 1))
        bases[0, 0, 0] = 1.0
        bases[1, 0, 0] = 1.0  # duplicate codeword
        code = SubspaceCode(dim=2, rank=1, kappa=10.0, bases=bases)
        assert decode_nearest(code, np.array([2.0, 0.5])) == 0

    def test_scale_invariance(self):
        code = build_subspace_code(6, 2, 5, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        for _ in range(50):
            y = rng.standard_normal(6)
            base = decode_nearest(code, y)
            for c in (1e-6, 0.5, 3.0, 1e6):
                assert decode_nearest(code, c * y) == base

    def test_zero_vector_rejected(self):
        code = build_subspace_code(3, 1, 2, np.random.default_rng(13))
        with pytest.raises(ParameterError):
            decode_nearest(code, np.zeros(3))

    def test_closed_form_matches_residual_argmin(self):
        # Reference: the residual form ||y - Q Q^T y|| over every codeword.
        # r < d: at r = d every residual is roundoff and all codewords tie.
        rng = np.random.default_rng(30)
        for pair in range(1200):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d))
            code = build_subspace_code(d, r, int(rng.integers(1, 40)), rng)
            y = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            residual = [np.linalg.norm(y - q @ (q.T @ y)) for q in code.bases]
            assert decode_nearest(code, y) == int(np.argmin(residual)), pair


class TestCodingExperiment:
    def test_single_message_never_errs(self):
        res = run_coding_experiment(8, 2, 100.0, 1, 200, np.random.default_rng(14))
        assert res.errors == 0

    def test_kappa_one_is_uniform_guessing(self):
        res = run_coding_experiment(6, 2, 1.0, 2, 4000, np.random.default_rng(15))
        se = math.sqrt(0.25 / 4000)
        assert abs(res.error_rate - 0.5) <= 3 * se

    def test_fixed_codebook_mode_reproducible(self):
        a = run_coding_experiment(8, 2, 50.0, 4, 100, np.random.default_rng(16),
                                  fresh_codebook=False)
        b = run_coding_experiment(8, 2, 50.0, 4, 100, np.random.default_rng(16),
                                  fresh_codebook=False)
        assert np.array_equal(a.decoded, b.decoded)

    def test_worker_count_does_not_change_results(self):
        a = run_coding_experiment(8, 2, 50.0, 4, 200, np.random.default_rng(17),
                                  workers=1)
        b = run_coding_experiment(8, 2, 50.0, 4, 200, np.random.default_rng(17),
                                  workers=4)
        assert np.array_equal(a.decoded, b.decoded)
        assert np.array_equal(a.messages, b.messages)

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            run_coding_experiment(4, 1, 10.0, 2, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("fresh", [True, False])
    def test_chunking_and_workers_do_not_change_results(self, monkeypatch, fresh):
        def run(workers):
            return run_coding_experiment(8, 2, 20.0, 16, 150, np.random.default_rng(18),
                                         fresh_codebook=fresh, workers=workers)

        base = run(1)
        # 256 entries hold one fresh codebook, or the Q^T y of eight trials.
        for entries, workers in [(1, 1), (256, 1), (256 * 7, 2), (2**30, 2)]:
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            other = run(workers)
            assert np.array_equal(other.messages, base.messages)
            assert np.array_equal(other.decoded, base.decoded)
            assert other.errors == base.errors

    def test_one_trial_calls_agree_with_the_batched_trials(self):
        # A trial's stream feeds build_subspace_code, the message index and
        # channel_draw in that order; decode_nearest then gives its outcome.
        res = run_coding_experiment(10, 3, 5.0, 12, 40, np.random.default_rng(19))
        for t, stream in enumerate(np.random.default_rng(19).spawn(40)):
            code = build_subspace_code(10, 3, 12, stream, kappa=5.0)
            m = int(stream.integers(12))
            assert m == res.messages[t]
            assert decode_nearest(code, channel_draw(code, m, stream)) == res.decoded[t]

    def test_non_orthonormal_codeword_rejected_on_batched_path(self, monkeypatch):
        orthonormalize = channel._orthonormalize

        def skewed(raw):
            cols, deficient = orthonormalize(raw)
            cols[1, -1, -1] *= 1.0 + 1e-9  # the last codeword of the last codebook
            return cols, deficient

        monkeypatch.setattr(channel, "_orthonormalize", skewed)
        for fresh in (True, False):
            with pytest.raises(ParameterError, match="orthonormal"):
                run_coding_experiment(8, 2, 50.0, 4, 30, np.random.default_rng(0),
                                      fresh_codebook=fresh)


class TestTubeLaw:
    def test_arcsine_case_exact(self):
        _, analytic = tube_probability(2, 1, math.sqrt(0.5), 10, np.random.default_rng(0))
        assert analytic == pytest.approx(0.5, abs=1e-10)
        closed_form = (2.0 / math.pi) * math.asin(math.sqrt(0.5))
        assert analytic == pytest.approx(closed_form, abs=1e-10)

    def test_theta_near_one_saturates(self):
        emp, analytic = tube_probability(10, 3, 0.999999, 2000, np.random.default_rng(1))
        assert analytic > 0.999
        assert emp > 0.99

    def test_monte_carlo_agreement(self):
        emp, analytic = tube_probability(20, 5, 0.3, 100_000, np.random.default_rng(2))
        se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / 100_000)
        assert abs(emp - analytic) <= 4 * se + 1e-9

    def test_moderate_probability_agreement(self):
        emp, analytic = tube_probability(8, 4, 0.6, 100_000, np.random.default_rng(3))
        se = math.sqrt(analytic * (1 - analytic) / 100_000)
        assert abs(emp - analytic) <= 4 * se

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            tube_probability(5, 5, 0.3, 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            tube_probability(5, 2, 1.5, 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            tube_probability(5, 2, [0.3, 0.0], 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            tube_probability(5, 2, 0.3, 0, np.random.default_rng(0))

    def test_chunked_counts_equal_one_draw(self, monkeypatch):
        d, r, trials = 8, 3, 1001
        thetas = [0.3, 0.6, 0.8, 0.95]
        dist2 = subspace_distance_samples(d, r, trials, np.random.default_rng(40))
        want = [np.count_nonzero(dist2 <= theta**2) / trials for theta in thetas]
        # 8 rows per chunk over 1001 rows: 125 full chunks and a partial one.
        for entries in (64, 8 * 1001, 2**30):
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            emp, analytic = tube_probability(d, r, thetas, trials, np.random.default_rng(40))
            assert emp.tolist() == want
            assert analytic.tolist() == [betainc_reg(2.5, 1.5, theta**2) for theta in thetas]
        one = tube_probability(d, r, 0.6, trials, np.random.default_rng(40))
        assert one == (want[1], betainc_reg(2.5, 1.5, 0.6**2))


def loop_subchannel(d, kappa, rate, trials, rng):
    """Per-trial reference: each spawned stream draws its (m, d) uniform
    codebook (bit 1 below 1/2), the message index, then the noise in R^d,
    and the decoder takes the argmax of codebook @ advantage."""
    m_code = int(math.floor(2.0 ** (rate * d)))
    messages, decoded = [], []
    for stream in rng.spawn(trials):
        codebook = (stream.random((m_code, d)) < 0.5).astype(np.float64)
        m = stream.integers(m_code)
        y = stream.standard_normal(d) * np.where(codebook[m] == 1.0, 1.0, 1.0 / math.sqrt(kappa))
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

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            binary_subchannel_experiment(8, 1.0, 0.1, 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            binary_subchannel_experiment(8, 4.0, -0.1, 10, np.random.default_rng(0))

    def test_chunking_and_workers_do_not_change_results(self, monkeypatch):
        def run(workers):
            return binary_subchannel_experiment(16, 4.0, 0.25, 100, np.random.default_rng(6),
                                                workers=workers)

        base = run(1)
        for entries, workers in [(1, 1), (16 * 16 * 7, 2), (2**30, 2)]:
            monkeypatch.setattr(channel, "CHUNK_ENTRIES", entries)
            other = run(workers)
            assert np.array_equal(other.messages, base.messages)
            assert np.array_equal(other.decoded, base.decoded)

    @pytest.mark.parametrize("d, rate", [(64, 0.5), (64, 100.0), (2**21, 0.5)])
    def test_codebook_size_capped_before_allocation(self, d, rate):
        # (64, 0.5) alone would draw a 2**32 x 64 codebook (2 TiB) per trial.
        with pytest.raises(ParameterError):
            binary_subchannel_experiment(d, 16.0, rate, 1, np.random.default_rng(0))


class TestGoodEvent:
    def test_half_two_constants_hold_at_desk_scales(self):
        # 1/2 and 2 satisfy the 5% budget for these (d, r); smaller ranks do not.
        for seed, (d, r) in enumerate([(16, 8), (32, 8), (32, 16), (64, 8), (64, 32)]):
            rate = good_event_rate(d, r, 100_000, np.random.default_rng(seed))
            assert rate <= 0.05
