import operator

__all__ = ["ParameterError", "check_count"]


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
