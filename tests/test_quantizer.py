import numpy as np
import pytest

from smoothscore import (ParameterError, QuantizerConfig, decode_vector,
                         quantize_vector, smallest_bit_depth)
from smoothscore.quantizer import MAX_BITS


def roundtrip(cfg, t):
    """Quantized values of t, checked to survive the wire format unchanged."""
    values, message = quantize_vector(cfg, t)
    assert np.array_equal(decode_vector(cfg, message), values)
    return values


@pytest.fixture
def cfg23():
    return QuantizerConfig(bits=2, clip_radius=3.0)


class TestConfig:
    def test_grid_geometry(self, cfg23):
        assert cfg23.levels == 4
        assert cfg23.step == pytest.approx(2.0)
        assert np.array_equal(cfg23.level_value(np.arange(cfg23.levels)),
                              [-3.0, -1.0, 1.0, 3.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            QuantizerConfig(bits=0, clip_radius=1.0)
        with pytest.raises(ParameterError):
            QuantizerConfig(bits=3, clip_radius=0.0)
        for bits in (53, 70):
            with pytest.raises(ParameterError):
                QuantizerConfig(bits=bits, clip_radius=1.0)

    @pytest.mark.parametrize("bits", [3.7, 0.5, 52.5, float("nan"), float("inf"), "3", None,
                                      True, np.True_])
    def test_rejects_fractional_or_non_numeric_bits(self, bits):
        with pytest.raises(ParameterError):
            QuantizerConfig(bits=bits, clip_radius=1.0)

    @pytest.mark.parametrize("bits", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_bit_depths_of_any_type_pass(self, bits):
        cfg = QuantizerConfig(bits=bits, clip_radius=1.0)
        assert cfg.bits == 3 and type(cfg.bits) is int and cfg.levels == 8

    @pytest.mark.parametrize("bits, radius", [(3, float("inf")), (3, -float("inf")),
                                              (3, float("nan")), (3, -1.0), (3, "1.0"),
                                              (3, 1e308), (1, 1e308), (52, 5e-324)])
    def test_rejects_radius_without_a_finite_nonzero_step(self, bits, radius):
        # An infinite radius makes the step infinite; 1e308 overflows the
        # grid span 2R; a subnormal radius at 52 bits rounds the step to 0.
        with pytest.raises(ParameterError):
            QuantizerConfig(bits=bits, clip_radius=radius)

    def test_widest_bit_depth_is_exact(self):
        cfg = QuantizerConfig(bits=52, clip_radius=1.0)
        w = np.array([0.3, -1.0, 1.0, -0.7])
        values, message = quantize_vector(cfg, w)
        assert np.max(np.abs(values - w)) <= cfg.step / 2
        assert np.array_equal(decode_vector(cfg, message), values)


class TestQuantizeScalar:
    """Per-coordinate rounding, seen through quantize_vector and decode_vector."""

    def test_interior_point(self, cfg23):
        assert np.array_equal(roundtrip(cfg23, [0.4]), [1.0])

    def test_clips_to_endpoint(self, cfg23):
        assert np.array_equal(roundtrip(cfg23, [5.0, -11.0]), [3.0, -3.0])

    def test_tie_breaks_toward_smaller_value(self, cfg23):
        assert np.array_equal(roundtrip(cfg23, [0.0, 2.0, -2.0]), [-1.0, 1.0, -3.0])

    def test_half_step_error_bound(self):
        rng = np.random.default_rng(0)
        cfg = QuantizerConfig(bits=5, clip_radius=1.7)
        ts = rng.uniform(-1.7, 1.7, size=500)
        assert np.max(np.abs(roundtrip(cfg, ts) - ts)) <= cfg.step / 2 + 1e-15

    def test_idempotent_on_grid(self):
        cfg = QuantizerConfig(bits=6, clip_radius=2.31)
        grid = cfg.level_value(np.arange(cfg.levels))
        assert np.array_equal(roundtrip(cfg, grid), grid)


class TestQuantizeVector:
    def test_zero_vector_takes_lower_neighbor(self, cfg23):
        qw, _ = quantize_vector(cfg23, np.zeros(4))
        assert np.array_equal(qw, [-1.0, -1.0, -1.0, -1.0])

    def test_fields_are_one_uint64_per_coordinate(self):
        cfg = QuantizerConfig(bits=7, clip_radius=1.0)
        _, fields = quantize_vector(cfg, np.linspace(-2, 2, 5))
        assert fields.dtype == np.uint64
        assert fields.shape == (5,)

    def test_sup_norm_bound_without_clipping(self):
        rng = np.random.default_rng(1)
        cfg = QuantizerConfig(bits=4, clip_radius=2.0)
        w = rng.uniform(-2.0, 2.0, size=64)
        qw, _ = quantize_vector(cfg, w)
        assert np.max(np.abs(qw - w)) <= cfg.step / 2 + 1e-15

    def test_l2_bound_without_clipping(self):
        rng = np.random.default_rng(2)
        cfg = QuantizerConfig(bits=3, clip_radius=1.0)
        w = rng.uniform(-1.0, 1.0, size=16)
        qw, _ = quantize_vector(cfg, w)
        assert np.linalg.norm(qw - w) <= np.sqrt(16) * cfg.step / 2 + 1e-12

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            bits = int(rng.integers(1, 11))
            radius = float(rng.uniform(0.1, 50.0))
            d = int(rng.integers(1, 9))
            cfg = QuantizerConfig(bits=bits, clip_radius=radius)
            w = rng.standard_normal(d) * radius * 1.5
            qw, msg = quantize_vector(cfg, w)
            assert np.array_equal(decode_vector(cfg, msg), qw)

    def test_fields_are_the_level_indices_in_coordinate_order(self):
        cfg = QuantizerConfig(bits=2, clip_radius=3.0)
        # indices: 0.4 -> 2, 5 -> 3, -7 -> 0, 0 -> 1
        _, fields = quantize_vector(cfg, np.array([0.4, 5.0, -7.0, 0.0]))
        assert fields.tolist() == [2, 3, 0, 1]

    def test_rows_encode_one_field_row_per_row(self):
        cfg = QuantizerConfig(bits=7, clip_radius=2.0)
        rows = np.random.default_rng(4).standard_normal((5, 3)) * 2.5
        values, fields = quantize_vector(cfg, rows)
        per_row = [quantize_vector(cfg, row) for row in rows]
        assert fields.shape == (5, 3) and fields.dtype == np.uint64
        assert np.array_equal(fields, np.array([f for _, f in per_row]))
        assert np.array_equal(values, np.array([v for v, _ in per_row]))
        assert np.array_equal(decode_vector(cfg, fields), values)

    def test_decode_keeps_the_shape(self, cfg23):
        # Each field decodes to one value: rows row by row, the joined rows
        # to the joined values, a block of runs to a block.
        values, fields = quantize_vector(cfg23, np.array([[0.3, -1.2], [2.0, 0.0]]))
        assert np.array_equal(decode_vector(cfg23, fields), values)
        assert np.array_equal(decode_vector(cfg23, fields.ravel()), values.ravel())
        block = fields.reshape(2, 1, 2)
        assert np.array_equal(decode_vector(cfg23, block), values.reshape(2, 1, 2))

    def test_values_false_sends_only_the_fields(self, cfg23):
        w = np.array([[0.3, -1.2], [2.0, 0.0]])
        values, fields = quantize_vector(cfg23, w)
        skipped, same = quantize_vector(cfg23, w, values=False)
        assert skipped is None
        assert np.array_equal(same, fields) and same.dtype == np.uint64

    def test_decode_rejects_ragged_message(self, cfg23):
        with pytest.raises(ParameterError):
            decode_vector(cfg23, [np.array([0, 1], dtype=np.uint64),
                                  np.array([2], dtype=np.uint64)])

    @pytest.mark.parametrize("bits, message", [(2, "1-"), (2, " 1"), (2, "0 "), (3, "1_0"),
                                               (2, "1+"), (2, "0\u00e9"), (2, b"01"),
                                               (2, np.frombuffer(b"0/", dtype=np.uint8)),
                                               (2, np.array([48, 49])), (2, [48, 49]),
                                               (2, "10"), (2, np.frombuffer(b"10", dtype=np.uint8)),
                                               (2, np.array([0, 2], dtype=np.uint8)),
                                               (2, np.array([1, 255], dtype=np.uint8)),
                                               (2, np.array([0, 1])), (2, np.array([0.0, 1.0])),
                                               (2, np.array([False, True])),
                                               (1, np.array(1, dtype=np.uint8)),
                                               (1, np.array(1, dtype=np.uint64)),
                                               (2, np.array([0, 1], dtype=">u8"))])
    def test_decode_rejects_characters_other_than_bits(self, bits, message):
        # A message is a native uint64 array of level fields and nothing
        # else: '0'/'1' strings, their ASCII codes, 0/1 bit arrays of any
        # other dtype and 0-d arrays are all refused.
        with pytest.raises(ParameterError):
            decode_vector(QuantizerConfig(bits=bits, clip_radius=3.0), message)


class TestQuantizeDomain:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 4)])
    def test_rejects_non_finite_entries(self, cfg23, bad, shape):
        w = np.zeros(shape)
        w.flat[-1] = bad
        with pytest.raises(ParameterError):
            quantize_vector(cfg23, w)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1), (2, 1, 1, 3)])
    def test_rejects_more_than_two_dimensions(self, cfg23, shape):
        with pytest.raises(ParameterError):
            quantize_vector(cfg23, np.zeros(shape))

    def test_scalar_vector_and_rows_still_quantize(self, cfg23):
        assert np.array_equal(roundtrip(cfg23, 0.4), [1.0])
        assert np.array_equal(roundtrip(cfg23, [0.4, 1e308, -1e308]), [1.0, 3.0, -3.0])
        assert np.array_equal(roundtrip(cfg23, [[0.4], [-5.0]]), [[1.0], [-3.0]])


def unit_step(bits):
    # R = (2**B - 1)/2 makes the step 1, so level L is the value L - R exactly.
    return QuantizerConfig(bits=bits, clip_radius=(2**bits - 1) / 2)


class TestFieldFormat:
    """A message is one uint64 level field per coordinate, each below 2**B."""

    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_round_trip_at_every_depth(self, bits):
        cfg = unit_step(bits)
        rng = np.random.default_rng(bits)
        for shape in [(1,), (9,), (3, 5), (4, 1024)]:
            levels = rng.integers(0, 2**bits, size=shape, dtype=np.uint64)
            levels.flat[0], levels.flat[-1] = 0, 2**bits - 1
            w = levels - cfg.clip_radius
            values, fields = quantize_vector(cfg, w)
            assert fields.dtype == np.uint64 and fields.shape == shape
            assert np.array_equal(fields, levels)
            assert np.array_equal(values, w)
            assert np.array_equal(decode_vector(cfg, fields), w)
        # The two extreme fields, alone and in a block of runs.
        top = np.array([0, 2**bits - 1], dtype=np.uint64)
        assert decode_vector(cfg, top).tolist() == [-cfg.clip_radius, cfg.clip_radius]
        assert decode_vector(cfg, top.reshape(2, 1, 1)).shape == (2, 1, 1)

    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_decode_refuses_a_field_of_2_to_the_b(self, bits):
        cfg, top = unit_step(bits), 2**bits - 1
        assert decode_vector(cfg, np.array([top], dtype=np.uint64)) == cfg.clip_radius
        for message in ([0, top + 1], [[top], [top + 1]], [[top + 1, 0]]):
            with pytest.raises(ParameterError):
                decode_vector(cfg, np.array(message, dtype=np.uint64))

    @pytest.mark.parametrize("shape, want", [((0,), (0,)), ((3, 0), (3, 0)), ((0, 2), (0, 2)),
                                             ((2, 0, 1), (2, 0, 1))])
    def test_empty_messages(self, shape, want):
        got = decode_vector(unit_step(13), np.zeros(shape, dtype=np.uint64))
        assert got.shape == want and got.dtype == np.float64

    def test_non_contiguous_rows_decode(self):
        cfg = unit_step(13)
        levels = np.random.default_rng(5).integers(0, 2**13, size=(6, 4), dtype=np.uint64)
        assert np.array_equal(decode_vector(cfg, levels[::2, ::-1]),
                              levels[::2, ::-1] - cfg.clip_radius)


class TestSmallestBitDepth:
    def test_threshold_crossings(self):
        assert smallest_bit_depth(0.5) == 1
        assert smallest_bit_depth(1.0) == 1
        assert smallest_bit_depth(1.5) == 2
        assert smallest_bit_depth(3.0) == 2
        assert smallest_bit_depth(3.5) == 3
        assert smallest_bit_depth(2**20 - 1) == 20
        assert smallest_bit_depth(2**20) == 21
