import operator

import numpy as np

__all__ = ["ParameterError", "as_real_array", "check_count"]


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


_FLOAT64 = np.dtype(np.float64)


def as_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; anything but real numbers, numeric
    strings and ragged nests included, is refused."""
    try:
        a = np.asarray(value)
    except ValueError as exc:
        raise ParameterError(f"{name} must be an array of real numbers: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must hold real numbers only, got dtype {a.dtype}")
    return a if a.dtype == _FLOAT64 else a.astype(_FLOAT64)
