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
# while the index stays below 2**52.
MAX_BITS = 52


@dataclass(frozen=True)
class QuantizerConfig:
    bits: int
    clip_radius: float

    def __post_init__(self):
        if not 1 <= int(self.bits) <= MAX_BITS:
            raise ParameterError(f"bits must lie in [1, {MAX_BITS}], got {self.bits}")
        if not self.clip_radius > 0.0:
            raise ParameterError(f"clip_radius must be positive, got {self.clip_radius}")
        object.__setattr__(self, "bits", int(self.bits))
        object.__setattr__(self, "clip_radius", float(self.clip_radius))

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def step(self) -> float:
        return 2.0 * self.clip_radius / (self.levels - 1)

    def level_value(self, level) -> np.ndarray:
        return -self.clip_radius + self.step * np.asarray(level, dtype=np.float64)


def _level_index(cfg: QuantizerConfig, t) -> np.ndarray:
    clipped = np.clip(np.asarray(t, dtype=np.float64), -cfg.clip_radius, cfg.clip_radius)
    # ceil(x - 1/2) rounds exact halves down, i.e. toward the smaller grid point.
    idx = np.ceil((clipped + cfg.clip_radius) / cfg.step - 0.5).astype(np.int64)
    return np.clip(idx, 0, cfg.levels - 1)


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
    # Each chunk packs LSB first into ceil(bits/8) bytes, zero-padded to the
    # 8 little-endian bytes of its int64 index; B bits index only the 2**B
    # levels, so no index is out of range.
    packed = np.packbits(message.reshape(-1, bits), axis=1, bitorder="little")
    padded = np.zeros((len(packed), 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    return cfg.level_value(padded.view("<i8").reshape(message.shape[:-1] + (d,)))


def smallest_bit_depth(threshold: float) -> int:
    """Smallest B >= 1 with 2**B - 1 >= threshold."""
    if not math.isfinite(threshold):
        raise ParameterError(f"bit-depth threshold must be finite, got {threshold}")
    B = 1
    while 2**B - 1 < threshold:
        B += 1
    return B
