import json

import numpy as np
import pytest

from smoothscore import (GaussianTarget, ParameterError, ScoreOracle,
                         lambda_norm, target_from_dict, target_from_json,
                         target_to_json)

EPS = np.finfo(np.float64).eps


def random_rotation(d, rng):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


def bits_of(*messages):
    """'0'/'1' strings as the (len(messages), bits) uint8 array a finite-bit
    encoder returns."""
    return np.array([[int(c) for c in m] for m in messages], dtype=np.uint8)


def no_bits(count):
    return np.zeros((count, 0), dtype=np.uint8)


class TestTargetValidation:
    def test_spectrum_must_fit_interval(self):
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[0.5, 2.0], kappa=4.0)
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[1.0, 8.0], kappa=4.0)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[1.0], kappa=0.9)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[], kappa=2.0)

    def test_non_orthogonal_basis_rejected(self):
        bad = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0, basis=bad)

    @pytest.mark.parametrize("field, value", [
        ("eigvals", [float("nan"), 2.0]), ("eigvals", [1.0, float("inf")]),
        ("kappa", float("nan")), ("kappa", float("inf")),
        ("mean", [0.0, float("nan")]), ("mean", [float("-inf"), 0.0]),
        ("basis", [[float("nan"), 0.0], [0.0, 1.0]]),
    ])
    def test_non_finite_inputs_rejected(self, field, value):
        args = {"eigvals": [1.0, 2.0], "kappa": 4.0, field: value}
        with pytest.raises(ParameterError):
            GaussianTarget(**args)

    def test_covariance_spectrum_contract(self):
        t = GaussianTarget(eigvals=[1.0, 3.0, 9.0], kappa=9.0)
        assert np.all(t.cov_eigvals >= 1.0 / 9.0 - 1e-15)
        assert np.all(t.cov_eigvals <= 1.0 + 1e-15)

    def test_from_precision_requires_symmetry(self):
        with pytest.raises(ParameterError):
            GaussianTarget.from_precision(np.array([[2.0, 0.1], [0.0, 2.0]]))

    def test_from_precision_roundtrip(self):
        rng = np.random.default_rng(1)
        q = random_rotation(4, rng)
        lam = np.array([1.0, 2.0, 5.0, 10.0])
        P = q @ np.diag(lam) @ q.T
        t = GaussianTarget.from_precision(P, kappa=10.0)
        recon = t.basis @ np.diag(t.eigvals) @ t.basis.T
        assert np.max(np.abs(recon - P)) < 1e-10

    def test_from_covariance_roundtrip(self):
        rng = np.random.default_rng(2)
        q = random_rotation(3, rng)
        sig = np.array([1.0, 0.5, 0.125])
        S = q @ np.diag(sig) @ q.T
        t = GaussianTarget.from_covariance(S)
        assert t.kappa == pytest.approx(8.0, rel=1e-12)
        assert sorted(t.eigvals) == pytest.approx([1.0, 2.0, 8.0], rel=1e-12)


class TestSmoothedScore:
    def test_scalar_centered(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0], kappa=1.0))
        assert o.smoothed_score(1.0, np.array([2.0]))[0] == pytest.approx(-1.0)

    def test_scalar_shifted(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0], kappa=1.0, mean=[3.0]))
        assert o.smoothed_score(1.0, np.array([0.0]))[0] == pytest.approx(1.5)

    def test_vanishes_at_mean(self):
        rng = np.random.default_rng(3)
        t = GaussianTarget(eigvals=[1.0, 2.0, 4.0], kappa=4.0,
                           mean=[0.3, -1.2, 0.7], basis=random_rotation(3, rng))
        o = ScoreOracle(t)
        assert np.max(np.abs(o.smoothed_score(0.7, t.mean))) < 1e-14

    def test_deterministic_responses(self):
        t = GaussianTarget(eigvals=[1.0, 5.0], kappa=5.0)
        y = np.array([0.4, -2.2])
        a = ScoreOracle(t).smoothed_score(0.3, y)
        b = ScoreOracle(t).smoothed_score(0.3, y)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_tau(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0], kappa=1.0))
        with pytest.raises(ParameterError):
            o.smoothed_score(0.0, np.array([1.0]))
        with pytest.raises(ParameterError):
            o.finite_bit_query([-1.0], np.array([1.0]), lambda g: (None, no_bits(1)), 0)


def per_query_scores(oracle, taus, y):
    """Reference: one smoothed_score call per shift."""
    points = y if np.ndim(y) == 2 else [y] * len(taus)
    return np.array([oracle.smoothed_score(tau, p) for tau, p in zip(taus, points)])


class TestSmoothedScores:
    TAUS = np.array([3e-4, 0.02, 0.5, 1.0, 7.0, 250.0])

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("per_shift", [False, True])
    def test_matches_per_query_loop(self, rotated, centered, per_shift):
        rng = np.random.default_rng(11)
        d, q = 7, self.TAUS.size
        t = GaussianTarget(eigvals=np.geomspace(1.0, 1e3, d), kappa=1e3,
                           mean=None if centered else rng.standard_normal(d),
                           basis=random_rotation(d, rng) if rotated else None)
        y = rng.standard_normal((q, d) if per_shift else d)
        got = ScoreOracle(t).smoothed_scores(self.TAUS, y)
        want = per_query_scores(ScoreOracle(t), self.TAUS, y)
        assert got.shape == (q, d)
        if rotated:
            # The batch rotates back with one dense product instead of q
            # matvecs: a different summation order over d terms.
            assert np.max(np.abs(got - want)) <= 4 * d * EPS * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("per_shift", [False, True])
    def test_tape_records_each_shift_in_order(self, per_shift):
        t = GaussianTarget(eigvals=[1.0, 2.0, 4.0], kappa=4.0)
        o = ScoreOracle(t)
        y = np.arange(3.0 * (self.TAUS.size if per_shift else 1)).reshape(-1, 3)
        y = y if per_shift else y[0]
        o.smoothed_scores(self.TAUS, y)
        assert o.tape.query_count == self.TAUS.size
        assert o.tape.bits_sent == 0
        assert [tau for tau, _ in o.tape.queries] == list(self.TAUS)
        for j, (_, point) in enumerate(o.tape.queries):
            assert np.array_equal(point, y[j] if per_shift else y)

    @pytest.mark.parametrize("taus", [[1.0, 0.0], [-1.0], [1.0, float("nan")], [[1.0]]])
    def test_rejects_nonpositive_or_malformed_taus(self, taus):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        with pytest.raises(ParameterError):
            o.smoothed_scores(taus, np.zeros(2))
        assert o.tape.query_count == 0

    def test_rejects_point_shape(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        for y in (np.zeros((3, 2)), np.zeros(3), np.zeros((4, 3, 2)), np.zeros((4, 2, 3)),
                  np.zeros((2, 2, 2, 2))):
            with pytest.raises(ParameterError):
                o.smoothed_scores([1.0, 2.0], y)
        assert o.tape.query_count == 0

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("per_shift", [False, True])
    def test_block_of_runs_answers_each_run_as_alone(self, rotated, per_shift):
        # A block of n runs gets each run's scores bit for bit, and the tape
        # holds run 0's q queries first, then run 1's.
        rng = np.random.default_rng(3)
        d, q, n = 4, self.TAUS.size, 3
        t = GaussianTarget(eigvals=np.geomspace(1.0, 1e3, d), kappa=1e3,
                           basis=random_rotation(d, rng) if rotated else None)
        y = rng.standard_normal((n, q if per_shift else 1, d))
        o = ScoreOracle(t)
        g = o.smoothed_scores(self.TAUS, y)
        assert g.shape == (n, q, d)
        for i in range(n):
            alone = ScoreOracle(t).smoothed_scores(self.TAUS, y[i] if per_shift else y[i, 0])
            assert g[i].tobytes() == alone.tobytes()
        assert o.tape.query_count == n * q
        assert np.array_equal(o.tape.taus, np.tile(self.TAUS, n))
        assert np.array_equal(o.tape.points, np.broadcast_to(y, (n, q, d)).reshape(-1, d))
        assert np.array_equal(o.tape.bits, np.zeros(n * q))
        assert [tau for tau, _ in o.tape.queries] == list(np.tile(self.TAUS, n))


def resolvent_transform(oracle, tau, z):
    """One query giving tau*z + tau^2*s_tau(z) = (Lambda + I/tau)^{-1} z for
    centered targets, the identity the samplers' shared core relies on."""
    return tau * z + tau**2 * oracle.smoothed_score(tau, z)


class TestResolventTransform:
    def test_scalar_identity(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0], kappa=1.0))
        assert resolvent_transform(o, 1.0, np.array([2.0]))[0] == pytest.approx(1.0)

    def test_scalar_at_kappa(self):
        kap = 37.0
        o = ScoreOracle(GaussianTarget(eigvals=[kap], kappa=kap))
        out = resolvent_transform(o, 1.0 / kap, np.array([1.0]))[0]
        assert out == pytest.approx(1.0 / (2.0 * kap), rel=1e-14)

    def test_matches_direct_resolvent_on_random_targets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 17))
            kap = float(np.exp(rng.uniform(0.0, np.log(1e4))))
            lam = np.exp(rng.uniform(0.0, np.log(kap), size=d))
            lam = np.clip(lam, 1.0, kap)
            basis = random_rotation(d, rng) if rng.random() < 0.5 else None
            t = GaussianTarget(eigvals=lam, kappa=kap, basis=basis)
            tau = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e2))))
            z = rng.standard_normal(d)
            got = resolvent_transform(ScoreOracle(t), tau, z)
            ze = t.to_eigenbasis(z)
            want = t.from_eigenbasis(ze / (t.eigvals + 1.0 / tau))
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestTapeAccounting:
    def test_query_counter_is_exact(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        y = np.zeros(2)
        for k in range(5):
            assert o.tape.query_count == k
            o.smoothed_score(1.0 + k, y)
        assert o.tape.bits_sent == 0

    def test_zero_bit_encoder_counts_query_only(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        kept, msgs = o.finite_bit_query([1.0], np.zeros(2), lambda g: (g, no_bits(1)), 0)
        assert msgs.shape == (1, 0)
        assert kept.shape == (1, 2)
        assert o.tape.query_count == 1
        assert o.tape.bits_sent == 0

    def test_bit_budgets_add(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        o.finite_bit_query([1.0], np.zeros(2), lambda g: (None, bits_of("010")), 3)
        o.finite_bit_query([2.0, 3.0], np.zeros(2),
                           lambda g: (None, bits_of("10110", "00000")), 5)
        assert o.tape.bits_sent == 13
        assert o.tape.query_count == 3

    def test_encoder_length_contract_enforced(self):
        # Wrong length, values other than 0 and 1, a dtype other than uint8,
        # ragged rows, a flat message and a message count other than q all
        # raise before the tape records.
        o = ScoreOracle(GaussianTarget(eigvals=[1.0], kappa=1.0))
        for taus, messages, bits in [([1.0], bits_of("01"), 3),
                                     ([1.0], np.array([[0, 2]], dtype=np.uint8), 2),
                                     ([1.0], np.array([[0, 1]]), 2),
                                     ([1.0], bits_of("01").astype(bool), 2),
                                     ([1.0, 2.0], [bits_of("011")[0], bits_of("01")[0]], 3),
                                     ([1.0], bits_of("011")[0], 3),
                                     ([1.0, 2.0], bits_of(*["011"] * 3), 3)]:
            with pytest.raises(ParameterError):
                o.finite_bit_query(taus, np.zeros(1), lambda g: (None, messages), bits)
        assert o.tape.query_count == 0

    @pytest.mark.parametrize("messages", [[b"01"], ["0\u00e9"], ["01", b"01"],
                                          ["1-"], ["01", " 1"]])
    def test_non_str_non_ascii_or_sign_message_rejected(self, messages):
        # Messages are uint8 bit arrays; lists of strings or bytes, '0'/'1'
        # ones included, never cross the channel.
        o = ScoreOracle(GaussianTarget(eigvals=[1.0], kappa=1.0))
        with pytest.raises(ParameterError):
            o.finite_bit_query([1.0] * len(messages), np.zeros(1),
                               lambda g: (None, messages), 2)
        assert o.tape.query_count == 0
        assert o.tape.bits_sent == 0

    def test_quantizer_encoder_sends_d_times_b_bits(self):
        from smoothscore import QuantizerConfig, quantize_vector
        d, bits = 3, 5
        cfg = QuantizerConfig(bits=bits, clip_radius=2.0)
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0, 4.0], kappa=4.0))
        taus = [0.5, 2.0]
        _, msgs = o.finite_bit_query(taus, np.array([0.4, -1.0, 2.0]),
                                     lambda g: quantize_vector(cfg, g), d * bits)
        assert msgs.shape == (2, d * bits)
        assert o.tape.bits_sent == 2 * d * bits
        assert [tau for tau, _ in o.tape.queries] == taus

    def test_tape_keeps_bits_per_query_and_messages_are_returned(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        o.smoothed_score(1.0, np.zeros(2))
        messages = bits_of("010", "110", "000", "111")
        _, sent = o.finite_bit_query([1.0, 2.0], np.zeros((2, 1, 2)),
                                     lambda g: (None, messages), 3)
        assert sent is messages
        assert o.tape.bits.tolist() == [0, 3, 3, 3, 3]
        assert o.tape.bits_sent == 12

    def test_finite_bit_scores_match_exact_queries(self):
        t = GaussianTarget(eigvals=[1.0, 2.0, 4.0], kappa=4.0, mean=[0.5, 0.0, -1.0])
        y = np.arange(6.0).reshape(2, 3)
        g, _ = ScoreOracle(t).finite_bit_query([0.5, 2.0], y, lambda g: (g, no_bits(2)), 0)
        assert np.array_equal(g, ScoreOracle(t).smoothed_scores([0.5, 2.0], y))


class TestJsonDescriptor:
    def test_roundtrip_with_basis(self):
        rng = np.random.default_rng(9)
        t = GaussianTarget(eigvals=[1.0, 2.0, 7.0], kappa=7.0,
                           mean=[0.1, 0.2, 0.3], basis=random_rotation(3, rng))
        back = target_from_json(target_to_json(t))
        assert np.array_equal(back.eigvals, t.eigvals)
        assert np.array_equal(back.mean, t.mean)
        assert np.array_equal(back.basis, t.basis)
        assert back.kappa == t.kappa

    def test_reader_validates_dim(self):
        doc = {"dim": 3, "kappa": 2.0, "eigvals": [1.0, 2.0], "mean": [0, 0, 0]}
        with pytest.raises(ParameterError):
            target_from_json(json.dumps(doc))

    def test_reader_validates_spectrum(self):
        doc = {"dim": 1, "kappa": 2.0, "eigvals": [5.0], "mean": [0.0]}
        with pytest.raises(ParameterError):
            target_from_json(json.dumps(doc))

    def test_dict_reader_matches_text_reader(self):
        doc = {"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0], "mean": [0.5, -1.0],
               "basis": [0.0, 1.0, 1.0, 0.0]}
        a, b = target_from_dict(doc), target_from_json(json.dumps(doc))
        for field in ("eigvals", "mean", "basis"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.kappa == b.kappa
        with pytest.raises(ParameterError):
            target_from_dict({"dim": "two", "kappa": 3.0, "eigvals": [1.0, 3.0]})

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0], "mean": [1, "a"]}',
        '{"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0], "basis": [1, 0, 0, "q"]}',
        '{"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0], "mean": [[1], 2]}',
        '{"dim": 1e400, "kappa": 3.0, "eigvals": [1.0, 3.0]}',
        '{"dim": 1.9, "kappa": 3.0, "eigvals": [1.0]}',
        '{"dim": 2, "kappa": 3.0,',
        'not json',
        b'\xff\xfe',
    ], ids=["mean", "basis", "ragged-mean", "infinite-dim", "fractional-dim", "truncated",
            "not-json", "not-utf8"])
    def test_reader_rejects_malformed_entries(self, text):
        with pytest.raises(ParameterError):
            target_from_json(text)

    def test_reader_accepts_minimal_descriptor(self):
        doc = {"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0]}
        t = target_from_json(json.dumps(doc))
        assert t.is_centered
        assert t.basis is None


class TestLambdaNorm:
    def test_diagonal_case(self):
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        assert lambda_norm(t, np.array([3.0, 0.0])) == pytest.approx(3.0)
        assert lambda_norm(t, np.array([0.0, 3.0])) == pytest.approx(6.0)

    def test_rotation_invariant_form(self):
        rng = np.random.default_rng(5)
        q = random_rotation(4, rng)
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        t = GaussianTarget(eigvals=lam, kappa=4.0, basis=q)
        v = rng.standard_normal(4)
        direct = float(np.sqrt(v @ (q @ np.diag(lam) @ q.T) @ v))
        assert lambda_norm(t, v) == pytest.approx(direct, rel=1e-12)

    def test_large_vector_without_overflow(self):
        # v**2 overflows float64 here although the norm sqrt(73)*1e200 does not.
        t = GaussianTarget(eigvals=[1.0, 4.0], kappa=4.0)
        assert lambda_norm(t, np.array([3e200, 4e200])) == pytest.approx(np.sqrt(73.0) * 1e200)
