import json

import numpy as np
import pytest

from smoothscore import (GaussianTarget, ParameterError, ScoreOracle,
                         lambda_norm, target_from_dict, target_from_json,
                         target_to_json)

EPS = np.finfo(np.float64).eps


def random_rotation(d, rng):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


def fields(*messages):
    """Rows of level fields as the (len(messages), d) uint64 array a
    finite-bit encoder returns."""
    return np.array(messages, dtype=np.uint64)


def no_bits(count, d):
    """Messages of d zero-bit fields: ``bits`` = 0 admits only the field 0."""
    return np.zeros((count, d), dtype=np.uint64)


class TestTargetValidation:
    def test_spectrum_must_fit_interval(self):
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[0.5, 2.0], kappa=4.0)
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[1.0, 8.0], kappa=4.0)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ParameterError):
            GaussianTarget(eigvals=[1.0], kappa=0.9)

    @pytest.mark.parametrize("kappa", [True, np.True_])
    def test_bool_kappa_rejected(self, kappa):
        with pytest.raises(ParameterError, match="kappa"):
            GaussianTarget([1.0], kappa)

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
            o.finite_bit_query([-1.0], np.array([1.0]), lambda g: (None, no_bits(1, 1)), 0)


INF, NAN = float("inf"), float("nan")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("call", [
    lambda o: o.smoothed_score(INF, np.zeros(3)),
    lambda o: o.smoothed_scores([1.0, INF], np.zeros(3)),
    lambda o: o.finite_bit_query([INF], np.zeros(3), lambda g: (g, no_bits(1, 3)), 0),
    lambda o: o.smoothed_score(np.array([1.0, 2.0]), np.zeros(3)),
    lambda o: o.smoothed_score(np.array([1.0]), np.zeros(3)),
    lambda o: o.smoothed_score(1.0, np.ones((5, 3))),
    lambda o: o.smoothed_score(1.0, np.ones(4)),
    lambda o: o.smoothed_score(1.0, np.array([0.0, NAN, 0.0])),
    lambda o: o.smoothed_scores([1.0, 2.0], np.array([[0.0, 0.0, INF], [0.0, 0.0, 0.0]])),
    lambda o: o.finite_bit_query([1.0], np.full((2, 1, 3), -INF),
                                 lambda g: (g, no_bits(2, 3)), 0),
], ids=["score-tau-inf", "scores-tau-inf", "finite-bit-tau-inf", "score-tau-array",
        "score-tau-one-entry-array", "score-five-points", "score-wrong-dim",
        "score-nan-point", "scores-inf-point", "finite-bit-inf-point"])
def test_every_query_path_rejects_out_of_domain_input_unrecorded(rotated, call):
    # Each call used to be answered (with NaN or inf scores, or five scores
    # recorded as one query) or to fail inside numpy with a bare ValueError.
    t = GaussianTarget(eigvals=[1.0, 2.0, 4.0], kappa=4.0, mean=[0.5, 0.0, -1.0],
                       basis=random_rotation(3, np.random.default_rng(1)) if rotated else None)
    o = ScoreOracle(t)
    with pytest.raises(ParameterError):
        call(o)
    assert o.tape.query_count == 0
    assert o.tape.bits_sent == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("eigvals, kappa, mean, call", [
    ([1.0, 1e8], 1e8, None, lambda o: o.smoothed_scores([1e-9], np.array([1.0, 1e301]))),
    ([1.0, 2.0], 2.0, [1e308, 0.0], lambda o: o.smoothed_score(1.0, np.array([-1e308, 0.0]))),
    ([1.0, 2.0], 2.0, [1e308, 0.0],
     lambda o: o.finite_bit_query([1.0], np.array([-1e308, 0.0]), lambda g: (g, no_bits(1, 2)),
                                 0)),
], ids=["divide", "subtract", "finite-bit-subtract"])
def test_overflowing_scores_are_refused_unrecorded(rotated, eigvals, kappa, mean, call):
    # Finite points whose score, or whose y - mu, overflows float64 used to be
    # answered with inf and an overflow RuntimeWarning.
    t = GaussianTarget(eigvals=eigvals, kappa=kappa, mean=mean,
                       basis=random_rotation(2, np.random.default_rng(2)) if rotated else None)
    o = ScoreOracle(t)
    with pytest.raises(ParameterError, match="overflows"):
        call(o)
    assert o.tape.query_count == 0
    assert o.tape.bits_sent == 0


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
        kept, msgs = o.finite_bit_query([1.0], np.zeros(2), lambda g: (g, no_bits(1, 2)), 0)
        assert msgs.shape == (1, 2)
        assert kept.shape == (1, 2)
        assert o.tape.query_count == 1
        assert o.tape.bits_sent == 0

    def test_bit_budgets_add(self):
        # d = 2: 3-bit fields make 6-bit messages, 5-bit fields 10-bit ones.
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        o.finite_bit_query([1.0], np.zeros(2), lambda g: (None, fields([7, 0])), 6)
        o.finite_bit_query([2.0, 3.0], np.zeros(2),
                           lambda g: (None, fields([31, 5], [0, 16])), 10)
        assert o.tape.bits_sent == 26
        assert o.tape.query_count == 3

    @pytest.mark.parametrize("taus, messages, bits", [
        ([1.0], fields([0, 1]).astype(np.uint8), 4),
        ([1.0], fields([0, 1]).astype(np.int64), 4),
        ([1.0], fields([0, 1]).astype(np.float64), 4),
        ([1.0], fields([0, 1]).astype(">u8"), 4),
        ([1.0], fields([0, 1]), 3),
        ([1.0], fields([0, 1]), 5),
        ([1.0], fields([0, 1]), -2),
        ([1.0], fields([0, 1]), 4.0),
        ([1.0], fields([0, 1]), None),
        ([1.0], fields([0, 1]), True),
        ([1.0], fields([0, 1]), np.float64(4.0)),
        ([1.0], fields([4, 1]), 4),
        ([1.0], fields([0, 1]), 0),
        ([1.0, 2.0], fields([3, 3], [0, 2**63]), 126),
    ], ids=["uint8", "int64", "float", "big-endian", "bits-3-at-d-2",
            "bits-5-at-d-2", "negative-bits", "float-bits", "no-bits", "bool-bits",
            "numpy-float-bits", "field-2**B", "field-1-at-0-bits", "field-2**63-at-63-bits"])
    def test_message_contract_enforced(self, taus, messages, bits):
        # A wrong dtype, bits that are not a multiple of d and a field of
        # 2**B or more all raise before the tape records.
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        o.finite_bit_query([0.5], np.zeros(2), lambda g: (None, fields([1, 2])), 4)
        with pytest.raises(ParameterError):
            o.finite_bit_query(taus, np.zeros(2), lambda g: (None, messages), bits)
        assert o.tape.query_count == 1
        assert o.tape.bits_sent == 4

    def test_encoder_length_contract_enforced(self):
        # Rows of d + 1 fields, a flat message, and a message count other
        # than q raise before the tape records.
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        o.finite_bit_query([0.5], np.zeros(2), lambda g: (None, fields([1, 2])), 4)
        for taus, messages in [([1.0], fields([0, 1, 2])),
                               ([1.0], fields([0, 1])[0]),
                               ([1.0, 2.0], fields([0, 1])),
                               ([1.0], fields([0, 1], [1, 0])),
                               ([1.0, 2.0], fields([0, 1], [1, 0], [1, 1]))]:
            with pytest.raises(ParameterError):
                o.finite_bit_query(taus, np.zeros(2), lambda g: (None, messages), 4)
        assert o.tape.query_count == 1
        assert o.tape.bits_sent == 4

    @pytest.mark.parametrize("width", [*range(65), 100])
    def test_fields_must_fit_the_declared_width(self, width):
        # At d = 2 and bits = 2B a field of 2**B - 1 passes and one of 2**B
        # raises before recording.  From B = 64 on every uint64 passes: a
        # message declared wider than its fields is charged as declared.
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        top = fields([0, min(2**width, 2**64) - 1])
        assert o.finite_bit_query([1.0], np.zeros(2), lambda g: (None, top), 2 * width)[1] is top
        if width < 64:
            with pytest.raises(ParameterError):
                o.finite_bit_query([1.0], np.zeros(2), lambda g: (None, top + np.uint64(1)),
                                   2 * width)
        assert o.tape.query_count == 1
        assert o.tape.bits_sent == 2 * width

    @pytest.mark.parametrize("messages", [[b"01"], ["0\u00e9"], ["01", b"01"],
                                          ["1-"], ["01", " 1"]])
    def test_non_str_non_ascii_or_sign_message_rejected(self, messages):
        # Messages are uint64 field arrays; lists of strings or bytes, '0'/'1'
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
        scores, msgs = o.finite_bit_query(taus, np.array([0.4, -1.0, 2.0]),
                                          lambda g: (g, quantize_vector(cfg, g)), d * bits)
        assert msgs.shape == (2, d) and msgs.dtype == np.uint64
        assert np.array_equal(msgs, quantize_vector(cfg, scores))
        assert o.tape.bits_sent == 2 * d * bits
        assert [tau for tau, _ in o.tape.queries] == taus

    def test_tape_keeps_bits_per_query_and_messages_are_returned(self):
        o = ScoreOracle(GaussianTarget(eigvals=[1.0, 2.0], kappa=2.0))
        o.smoothed_score(1.0, np.zeros(2))
        messages = fields([0, 1], [2, 3], [3, 0], [1, 1])
        _, sent = o.finite_bit_query([1.0, 2.0], np.zeros((2, 1, 2)),
                                     lambda g: (None, messages), 4)
        assert sent is messages
        assert o.tape.bits.tolist() == [0, 4, 4, 4, 4]
        assert o.tape.bits_sent == 16

    def test_finite_bit_scores_match_exact_queries(self):
        t = GaussianTarget(eigvals=[1.0, 2.0, 4.0], kappa=4.0, mean=[0.5, 0.0, -1.0])
        y = np.arange(6.0).reshape(2, 3)
        g, _ = ScoreOracle(t).finite_bit_query([0.5, 2.0], y, lambda g: (g, no_bits(2, 3)), 0)
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
        '{"dim": 2, "kappa": "3.0", "eigvals": [1.0, 3.0]}',
        '{"dim": 2, "kappa": 3.0, "eigvals": ["1.0", "3.0"]}',
        '{"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0], "mean": ["0", "0"]}',
        '{"dim": 2, "kappa": 3.0, "eigvals": [1.0, 3.0], "basis": ["1", "0", "0", "1"]}',
        '{"dim": 2, "kappa": 1%s, "eigvals": [1.0, 3.0]}' % ("0" * 400),
    ], ids=["mean", "basis", "ragged-mean", "infinite-dim", "fractional-dim", "truncated",
            "not-json", "not-utf8", "numeric-str-kappa", "numeric-str-eigvals",
            "numeric-str-mean", "numeric-str-basis", "huge-int-kappa"])
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
