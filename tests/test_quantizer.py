import numpy as np
import pytest

from smoothscore import (ParameterError, QuantizerConfig, decode_vector,
                         quantize_vector, smallest_bit_depth)
from smoothscore.quantizer import MAX_BITS


def loop_pack(levels, bits):
    """Reference packer: each index MSB-first from format(), reversed to LSB first."""
    return "".join(format(int(level), f"0{bits}b")[::-1] for level in levels)


def bit_chars(message):
    """A message's 0/1 bits as the '0'/'1' characters loop_pack writes."""
    return (message + ord("0")).tobytes().decode("ascii")


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

    @pytest.mark.parametrize("bits", [3.7, 0.5, 52.5, float("nan"), float("inf"), "3", None])
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

    def test_bitstring_length(self):
        cfg = QuantizerConfig(bits=7, clip_radius=1.0)
        _, msg = quantize_vector(cfg, np.linspace(-2, 2, 5))
        assert msg.dtype == np.uint8
        assert msg.shape == (5 * 7,)

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

    def test_wire_format_little_endian_coordinate_order(self):
        cfg = QuantizerConfig(bits=2, clip_radius=3.0)
        # indices: 0.4 -> 2, 5 -> 3, -7 -> 0, 0 -> 1; LSB first per index
        _, msg = quantize_vector(cfg, np.array([0.4, 5.0, -7.0, 0.0]))
        assert bit_chars(msg) == "01" + "11" + "00" + "10"

    def test_rows_encode_one_bitstring_per_row(self):
        cfg = QuantizerConfig(bits=7, clip_radius=2.0)
        rows = np.random.default_rng(4).standard_normal((5, 3)) * 2.5
        values, msgs = quantize_vector(cfg, rows)
        per_row = [quantize_vector(cfg, row) for row in rows]
        assert msgs.shape == (5, 3 * 7)
        assert np.array_equal(msgs, np.array([m for _, m in per_row]))
        assert np.array_equal(values, np.array([v for v, _ in per_row]))
        assert np.array_equal(decode_vector(cfg, msgs), values)

    def test_decode_keeps_the_row_shape(self, cfg23):
        # Rows of messages decode row by row; joined into one message they
        # decode to the flattened rows.
        values, msgs = quantize_vector(cfg23, np.array([[0.3, -1.2], [2.0, 0.0]]))
        assert np.array_equal(decode_vector(cfg23, msgs), values)
        assert np.array_equal(decode_vector(cfg23, msgs.ravel()), values.ravel())
        with pytest.raises(ParameterError):
            decode_vector(cfg23, msgs.ravel()[:-1])

    def test_decode_rejects_ragged_message(self, cfg23):
        with pytest.raises(ParameterError):
            decode_vector(cfg23, np.array([0, 1, 0], dtype=np.uint8))

    @pytest.mark.parametrize("bits, message", [(2, "1-"), (2, " 1"), (2, "0 "), (3, "1_0"),
                                               (2, "1+"), (2, "0\u00e9"), (2, b"01"),
                                               (2, np.frombuffer(b"0/", dtype=np.uint8)),
                                               (2, np.array([48, 49])), (2, [48, 49]),
                                               (2, "10"), (2, np.frombuffer(b"10", dtype=np.uint8)),
                                               (2, np.array([0, 2], dtype=np.uint8)),
                                               (2, np.array([1, 255], dtype=np.uint8)),
                                               (2, np.array([0, 1])), (2, np.array([0.0, 1.0])),
                                               (2, np.array([False, True])),
                                               (1, np.array(1, dtype=np.uint8))])
    def test_decode_rejects_characters_other_than_bits(self, bits, message):
        # A message is a uint8 array of 0s and 1s and nothing else: '0'/'1'
        # strings, their ASCII codes, other dtypes, values above 1 and a
        # 0-d array are all refused.
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


def bits_of(levels, bits):
    """The loop_pack reference message of ``levels`` as a uint8 bit array."""
    return np.frombuffer(loop_pack(levels, bits).encode("ascii"), dtype=np.uint8) - ord("0")


class TestPackedStreamDecoder:
    """decode_vector parses the whole message as one packed byte stream, a
    64-bit word per field; these pin its edges against loop_pack."""

    @staticmethod
    def unit_step(bits):
        # R = (2**B - 1)/2 makes the step 1, so level L decodes to L - R exactly.
        return QuantizerConfig(bits=bits, clip_radius=(2**bits - 1) / 2)

    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_every_field_count_mod_8_and_both_extreme_last_fields(self, bits):
        cfg = self.unit_step(bits)
        rng = np.random.default_rng(1000 + bits)
        for count in range(1, 18):
            for last in (0, 2**bits - 1):
                levels = rng.integers(0, 2**bits, size=count)
                levels[-1] = last
                got = decode_vector(cfg, bits_of(levels, bits))
                assert got.shape == (count,)
                assert np.array_equal(got, levels - cfg.clip_radius)

    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_stacked_blocks_equal_per_row_decodes(self, bits):
        cfg = self.unit_step(bits)
        rng = np.random.default_rng(2000 + bits)
        for n, q, d in [(2, 3, 5), (3, 2, 1), (1, 4, 9)]:
            levels = rng.integers(0, 2**bits, size=(n, q, d))
            levels[-1, -1, -1] = 2**bits - 1
            block = np.stack([[bits_of(row, bits) for row in run] for run in levels])
            assert block.shape == (n, q, d * bits)
            got = decode_vector(cfg, block)
            assert got.shape == (n, q, d)
            per_row = [[decode_vector(cfg, msg) for msg in run] for run in block]
            assert np.array_equal(got, np.array(per_row))
            assert np.array_equal(got, levels - cfg.clip_radius)

    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_empty_messages(self, bits):
        cfg = self.unit_step(bits)
        for shape, want in [((0,), (0,)), ((3, 0), (3, 0)), ((0, 2 * bits), (0, 2)),
                            ((2, 0, bits), (2, 0, 1))]:
            got = decode_vector(cfg, np.zeros(shape, dtype=np.uint8))
            assert got.shape == want and got.dtype == np.float64

    def test_non_contiguous_rows_decode(self):
        cfg = self.unit_step(13)
        levels = np.random.default_rng(5).integers(0, 2**13, size=(6, 4))
        block = np.stack([bits_of(row, 13) for row in levels])
        assert np.array_equal(decode_vector(cfg, block[::2]), levels[::2] - cfg.clip_radius)


class TestWireFormatReference:
    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_matches_loop_packer(self, bits):
        # With R = (2**B - 1)/2 the step is 1, so w = level - R quantizes to
        # exactly ``level``, from 0 to 2**B - 1, at every bit depth.
        cfg = QuantizerConfig(bits=bits, clip_radius=(2**bits - 1) / 2)
        rng = np.random.default_rng(bits)
        for d in (1, 3, 1024):
            levels = rng.integers(0, 2**bits, size=(3, d))
            levels[0, 0], levels[-1, -1] = 0, 2**bits - 1
            w = levels - cfg.clip_radius
            values, msgs = quantize_vector(cfg, w)
            assert [bit_chars(m) for m in msgs] == [loop_pack(row, bits) for row in levels]
            assert np.array_equal(values, w)
            assert np.array_equal(decode_vector(cfg, msgs), w)
            assert np.array_equal(decode_vector(cfg, msgs.ravel()), w.ravel())
            for row, want in zip(w, msgs):
                values, msg = quantize_vector(cfg, row)
                assert np.array_equal(msg, want)
                assert np.array_equal(decode_vector(cfg, msg), row)


class TestSmallestBitDepth:
    def test_threshold_crossings(self):
        assert smallest_bit_depth(0.5) == 1
        assert smallest_bit_depth(1.0) == 1
        assert smallest_bit_depth(1.5) == 2
        assert smallest_bit_depth(3.0) == 2
        assert smallest_bit_depth(3.5) == 3
        assert smallest_bit_depth(2**20 - 1) == 20
        assert smallest_bit_depth(2**20) == 21
