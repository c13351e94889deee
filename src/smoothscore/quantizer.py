"""Coordinatewise uniform scalar quantizer with clipping and bit packing.

The grid has 2**bits points spanning [-clip_radius, +clip_radius] at both
endpoints.  Inputs are clipped first, then mapped to the nearest grid point;
exact midpoints round toward the smaller grid value so runs are reproducible
across platforms.  The wire format packs each coordinate's level index as
``bits`` characters, least significant bit first, coordinate 0 first; a
batch of rows is one such bitstring per row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "QuantizerConfig",
    "quantize_scalar",
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

    def grid(self) -> np.ndarray:
        return -self.clip_radius + self.step * np.arange(self.levels)

    def level_value(self, level) -> np.ndarray:
        return -self.clip_radius + self.step * np.asarray(level, dtype=np.float64)

    def to_json(self) -> str:
        return json.dumps({"bits": self.bits, "clip_radius": self.clip_radius})

    @classmethod
    def from_json(cls, text: str) -> "QuantizerConfig":
        doc = json.loads(text)
        try:
            return cls(bits=int(doc["bits"]), clip_radius=float(doc["clip_radius"]))
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed quantizer config: {exc}") from exc


def _level_index(cfg: QuantizerConfig, t) -> np.ndarray:
    clipped = np.clip(np.asarray(t, dtype=np.float64), -cfg.clip_radius, cfg.clip_radius)
    # ceil(x - 1/2) rounds exact halves down, i.e. toward the smaller grid point.
    idx = np.ceil((clipped + cfg.clip_radius) / cfg.step - 0.5).astype(np.int64)
    return np.clip(idx, 0, cfg.levels - 1)


def quantize_scalar(cfg: QuantizerConfig, t: float) -> float:
    """Nearest grid point to clip(t); |result - clip(t)| <= step/2."""
    return float(cfg.level_value(_level_index(cfg, t)))


def _pack(levels: np.ndarray, bits: int) -> str:
    # Little-endian per index: format() yields MSB-first, so reverse each chunk.
    spec = f"0{bits}b"
    return "".join(format(int(level), spec)[::-1] for level in levels)


def _unpack(message: str, bits: int) -> np.ndarray:
    if len(message) % bits != 0:
        raise ParameterError(f"bitstring length {len(message)} is not a multiple of {bits}")
    try:
        levels = [int(message[pos:pos + bits][::-1], 2)
                  for pos in range(0, len(message), bits)]
    except ValueError as exc:
        raise ParameterError(f"malformed bitstring: {exc}") from exc
    return np.asarray(levels, dtype=np.int64)


def quantize_vector(cfg: QuantizerConfig, w: np.ndarray) -> tuple[np.ndarray, str | list[str]]:
    """Coordinatewise quantization plus the packed level-index bitstring.

    A vector of shape (d,) gives one bitstring of length d * bits; rows of
    shape (q, d) give q such bitstrings, which joined are the bitstring of
    the flattened rows.  Decoding reproduces the quantized values exactly.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    levels = _level_index(cfg, w)
    message = _pack(levels, cfg.bits) if w.ndim == 1 else [_pack(row, cfg.bits) for row in levels]
    return cfg.level_value(levels), message


def decode_vector(cfg: QuantizerConfig, message: str) -> np.ndarray:
    """Reconstruct grid values from a packed bitstring."""
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
