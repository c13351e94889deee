"""Coordinatewise uniform scalar quantizer with clipping and bit packing.

The grid has 2**bits points spanning [-clip_radius, +clip_radius] at both
endpoints.  Inputs are clipped first, then mapped to the nearest grid point;
exact midpoints round toward the smaller grid value so runs are reproducible
across platforms.  The wire format is a uint8 array of 0/1 bits: each
coordinate's level index as ``bits`` bits, least significant bit first,
coordinate 0 first; a batch of rows is one such message per row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "QuantizerConfig",
    "quantize_vector",
    "decode_vector",
    "smallest_bit_depth",
]

# Level indices are computed in float64, where ceil(x - 1/2) is exact only
# while the index stays below 2**52.  The same cap lets the decoder read a
# field with one 64-bit word: a field of at most 52 bits starting at bit
# 0..7 of its first byte ends within 59 bits.
MAX_BITS = 52

# Where field j of a group of eight starts at each bit depth B: at byte
# jB // 8 of the group, bit jB % 8.  Row B serves depth B.
_LANE_BYTE, _LANE_SHIFT = np.divmod(np.outer(np.arange(MAX_BITS + 1), np.arange(8)), 8)
_LANE_BYTE.flags.writeable = _LANE_SHIFT.flags.writeable = False


@dataclass(frozen=True)
class QuantizerConfig:
    bits: int
    clip_radius: float

    def __post_init__(self):
        # Integral depths of any numeric type pass; 3.7, NaN and inf do not.
        if self.bits not in range(1, MAX_BITS + 1):
            raise ParameterError(f"bits must be an integer in [1, {MAX_BITS}], got {self.bits}")
        object.__setattr__(self, "bits", int(self.bits))
        # The grid -R, -R + step, ..., R must be finite with a nonzero step.
        if not (isinstance(self.clip_radius, numbers.Real) and self.clip_radius > 0.0
                and self.step > 0.0 and math.isfinite(self.step * (self.levels - 1))):
            raise ParameterError("clip_radius must be positive and finite with a nonzero "
                                 f"grid step, got {self.clip_radius} at {self.bits} bits")
        object.__setattr__(self, "clip_radius", float(self.clip_radius))

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def step(self) -> float:
        return 2.0 * self.clip_radius / (self.levels - 1)

    def level_value(self, level) -> np.ndarray:
        """Grid values -R + step * level in float64."""
        values = np.multiply(level, self.step, dtype=np.float64)
        values += -self.clip_radius
        return values


def _level_index(cfg: QuantizerConfig, t: np.ndarray) -> np.ndarray:
    # Clip to [-R, R]; then ceil(x - 1/2) rounds exact halves down, i.e.
    # toward the smaller grid point.  x >= -1/2 after the clip, so only the
    # top level needs a bound.
    x = np.maximum(t, -cfg.clip_radius)
    np.minimum(x, cfg.clip_radius, out=x)
    x += cfg.clip_radius
    x /= cfg.step
    x -= 0.5
    idx = np.ceil(x, out=x).astype(np.int64)
    return np.minimum(idx, cfg.levels - 1, out=idx)


def _pack_rows(levels: np.ndarray, bits: int) -> np.ndarray:
    # Each int64 index of the (n, d) rows as little-endian bytes, unpacked LSB
    # first to its low ``bits`` bits.
    n, d = levels.shape
    raw = np.ascontiguousarray(levels, dtype="<i8").view(np.uint8).reshape(n, d, 8)
    return np.unpackbits(raw, axis=-1, count=bits, bitorder="little").reshape(n, d * bits)


def quantize_vector(cfg: QuantizerConfig, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinatewise quantization plus the packed level-index bits.

    A vector of shape (d,) gives one message of d * bits bits; rows of shape
    (q, d) give a (q, d * bits) array, one message per row.  Decoding
    reproduces the quantized values exactly.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if w.ndim > 2:
        raise ParameterError(f"quantize_vector takes a vector or (q, d) rows, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ParameterError("quantize_vector takes finite entries only")
    levels = _level_index(cfg, w)
    messages = _pack_rows(np.atleast_2d(levels), cfg.bits)
    return cfg.level_value(levels), messages[0] if w.ndim == 1 else messages


def decode_vector(cfg: QuantizerConfig, message) -> np.ndarray:
    """Reconstruct grid values from packed bits: a uint8 array of 0s and 1s
    whose last axis is a multiple of ``bits`` long, else ParameterError.
    One message of shape (d * bits,) gives (d,); rows give one row each."""
    bits = cfg.bits
    if not (isinstance(message, np.ndarray) and message.dtype == np.uint8 and message.ndim):
        raise ParameterError(
            f"message must be a uint8 array of bits, got {type(message).__name__}")
    d, ragged = divmod(message.shape[-1], bits)
    if ragged:
        raise ParameterError(f"message length {message.shape[-1]} is not a multiple of {bits}")
    if message.max(initial=0) > 1:
        raise ParameterError("message holds values other than 0 and 1")
    # The whole message, rows joined, packs LSB first into one byte stream;
    # field i starts at bit i*B, and eight fields fill exactly B bytes.  Row k
    # of ``words`` holds the little-endian 64-bit words starting at each of
    # the B bytes of group k (a read-only view; the zero tail covers the last
    # group and the word read past it), so field 8k + j is the word at byte
    # jB // 8 shifted right by jB % 8, masked to B bits (which also drops
    # the sign bits of a negative int64 word).
    count = message.size // bits
    groups = -(-count // 8)
    stream = np.zeros(groups * bits + 8, dtype=np.uint8)
    packed = np.packbits(message, bitorder="little")
    stream[:packed.size] = packed
    words = np.ndarray((groups, bits), dtype="<i8", buffer=stream, strides=(bits, 1))
    words.flags.writeable = False
    fields = words[:, _LANE_BYTE[bits]] >> _LANE_SHIFT[bits] & (2**bits - 1)
    return cfg.level_value(fields.reshape(-1)[:count].reshape(message.shape[:-1] + (d,)))


def smallest_bit_depth(threshold: float) -> int:
    """Smallest B >= 1 with 2**B - 1 >= threshold."""
    if not math.isfinite(threshold):
        raise ParameterError(f"bit-depth threshold must be finite, got {threshold}")
    B = 1
    while 2**B - 1 < threshold:
        B += 1
    return B
