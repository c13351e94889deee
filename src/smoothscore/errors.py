"""The one home of the input rules: what counts as a count, a real number
and an array of reals.  Every module checks its inputs through these."""

import math
import numbers
import operator

import numpy as np

__all__ = ["ParameterError", "as_real_array", "check_count", "check_real"]


class ParameterError(ValueError):
    """Raised when an input lies outside the documented parameter domain."""


def check_count(name: str, value, low: int, high: int) -> int:
    """``value`` as an int in [low, high]; bools and non-integers are refused."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or not low <= n <= high:
        raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return n


def check_real(name: str, value, low: float, high: float, *,
               open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a float between low and high, each end included unless
    ``open_low``/``open_high``; bools, non-reals (strings, complex, None,
    arrays), NaN and +-inf are refused."""
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int or a fraction beyond float64
            pass
    if not (math.isfinite(x) and (low < x if open_low else low <= x)
            and (x < high if open_high else x <= high)):
        interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
        raise ParameterError(f"{name} must be a finite real number in {interval}, "
                             f"got {value!r}")
    return x


_FLOAT64 = np.dtype(np.float64)


def as_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; anything but real numbers, numeric
    strings, bools and ragged nests included, is refused."""
    try:
        a = np.asarray(value)
    except ValueError as exc:
        raise ParameterError(f"{name} must be an array of real numbers: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers only, got dtype {a.dtype}")
    return a if a.dtype == _FLOAT64 else a.astype(_FLOAT64)
