"""Coordinatewise uniform scalar quantizer with clipping.

The grid has 2**bits points spanning [-clip_radius, +clip_radius] at both
endpoints.  Inputs are clipped first, then mapped to the nearest grid point;
exact midpoints round toward the smaller grid value so runs are reproducible
across platforms.  A message is the level indices themselves: one uint64
field per coordinate, each below 2**bits, so a message of d fields carries
exactly d * bits bits; a batch of rows is one such message per row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_real_array, check_real

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
        # Integral depths of any numeric type pass; 3.7, NaN, inf and bools do not.
        if isinstance(self.bits, (bool, np.bool_)) or self.bits not in range(1, MAX_BITS + 1):
            raise ParameterError(f"bits must be an integer in [1, {MAX_BITS}], got {self.bits}")
        object.__setattr__(self, "bits", int(self.bits))
        object.__setattr__(self, "clip_radius", check_real(
            "clip_radius", self.clip_radius, 0.0, math.inf, open_low=True))
        # The grid -R, -R + step, ..., R must be finite, and its step normal:
        # a subnormal step loses the digits that make the top level reach R.
        if not (self.step >= sys.float_info.min and math.isfinite(self.step * (self.levels - 1))):
            raise ParameterError("clip_radius must give a finite grid with a normal "
                                 f"step, got {self.clip_radius} at {self.bits} bits")

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


def quantize_vector(cfg: QuantizerConfig, w) -> np.ndarray:
    """Coordinatewise quantization: the level fields of ``w``'s grid values,
    which :func:`decode_vector` turns into those values.

    A vector of shape (d,) gives one message of d fields; rows of shape
    (q, d) give (q, d) fields, one message per row.
    """
    w = np.atleast_1d(as_real_array("quantize_vector input", w))
    if w.ndim > 2:
        raise ParameterError(f"quantize_vector takes a vector or (q, d) rows, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ParameterError("quantize_vector takes finite entries only")
    # Clip to [-R, R]; then ceil(x - 1/2) rounds exact halves down, i.e.
    # toward the smaller grid point.  x >= -1/2 after the clip, so only the
    # top level needs a bound.
    x = np.maximum(w, -cfg.clip_radius)
    np.minimum(x, cfg.clip_radius, out=x)
    x += cfg.clip_radius
    x /= cfg.step
    x -= 0.5
    np.ceil(x, out=x)
    np.minimum(x, cfg.levels - 1, out=x)
    return x.astype(np.uint64)


def decode_vector(cfg: QuantizerConfig, message) -> np.ndarray:
    """Grid values of the level fields in ``message``: a uint64 array of at
    least one dimension whose every entry is below 2**bits, else
    ParameterError.  Each field decodes to one value, in the same shape."""
    if not (isinstance(message, np.ndarray) and message.dtype == np.uint64 and message.ndim):
        raise ParameterError("message must be a uint64 array of level fields, got "
                             f"{getattr(message, 'dtype', type(message).__name__)} "
                             f"of shape {getattr(message, 'shape', None)}")
    if message.max(initial=0) >= cfg.levels:
        raise ParameterError(f"message holds a field of more than {cfg.bits} bits")
    return cfg.level_value(message)


def smallest_bit_depth(threshold: float) -> int:
    """Smallest B >= 1 with 2**B - 1 >= threshold."""
    threshold = check_real("bit-depth threshold", threshold, -math.inf, math.inf)
    B = 1
    while 2**B - 1 < threshold:
        B += 1
    return B
