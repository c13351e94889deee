"""Coordinatewise uniform scalar quantizer with clipping and bit packing.

The grid has 2**bits points spanning [-clip_radius, +clip_radius] at both
endpoints.  Inputs are clipped first, then mapped to the nearest grid point;
exact midpoints round toward the smaller grid value so runs are reproducible
across platforms.  The wire format packs each coordinate's level index as
``bits`` characters, least significant bit first, coordinate 0 first; a
batch of rows is one such bitstring per row.
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


def _pack_rows(levels: np.ndarray, bits: int) -> list[str]:
    # Each int64 index of the (n, d) rows as little-endian bytes, unpacked LSB
    # first to its low ``bits`` bits; adding ord('0') makes them '0'/'1'.
    n, d = levels.shape
    raw = np.ascontiguousarray(levels, dtype="<i8").view(np.uint8).reshape(n, d, 8)
    chars = np.unpackbits(raw, axis=-1, count=bits, bitorder="little")
    chars += ord("0")
    return [row.tobytes().decode("ascii") for row in chars.reshape(n, d * bits)]


def _unpack(message, bits: int) -> np.ndarray:
    if isinstance(message, str):
        raw = np.frombuffer(message.encode("ascii", "replace"), dtype=np.uint8)
    elif isinstance(message, np.ndarray) and message.dtype == np.uint8:
        raw = message.ravel()
    else:
        raise ParameterError(
            f"bitstring must be a str or uint8 character codes, got {type(message).__name__}")
    if raw.size % bits != 0:
        raise ParameterError(f"bitstring length {raw.size} is not a multiple of {bits}")
    # Non-ASCII characters became '?'; every byte but '0' and '1' then maps
    # above 1 (uint8 wraps below ord('0')).
    digits = raw - ord("0")
    if digits.max(initial=0) > 1:
        raise ParameterError("bitstring holds characters other than '0' and '1'")
    # Each chunk packs LSB first into ceil(bits/8) bytes, zero-padded to the
    # 8 little-endian bytes of its int64 index.
    packed = np.packbits(digits.reshape(-1, bits), axis=1, bitorder="little")
    padded = np.zeros((len(packed), 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view("<i8").ravel()


def quantize_vector(cfg: QuantizerConfig, w: np.ndarray) -> tuple[np.ndarray, str | list[str]]:
    """Coordinatewise quantization plus the packed level-index bitstring.

    A vector of shape (d,) gives one bitstring of length d * bits; rows of
    shape (q, d) give q such bitstrings, which joined are the bitstring of
    the flattened rows.  Decoding reproduces the quantized values exactly.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    levels = _level_index(cfg, w)
    messages = _pack_rows(np.atleast_2d(levels), cfg.bits)
    message = messages[0] if w.ndim == 1 else messages
    return cfg.level_value(levels), message


def decode_vector(cfg: QuantizerConfig, message) -> np.ndarray:
    """Reconstruct grid values from a packed bitstring: a str of '0' and '1',
    or the uint8 array of its ASCII codes as ``OracleTape.received`` holds
    it, whose length is a multiple of ``bits``, else ParameterError."""
    levels = _unpack(message, cfg.bits)
    if np.any(levels >= cfg.levels):
        raise ParameterError("bitstring encodes a level index out of range")
    return cfg.level_value(levels)


def smallest_bit_depth(threshold: float) -> int:
    """Smallest B >= 1 with 2**B - 1 >= threshold."""
    if not math.isfinite(threshold):
        raise ParameterError(f"bit-depth threshold must be finite, got {threshold}")
    B = 1
    while 2**B - 1 < threshold:
        B += 1
    return B
