"""The one home of the input rules: what counts as a count, a real number,
an array of reals and a JSON document.  Every module checks its inputs
through these."""

import math
import numbers
import operator

import numpy as np
import orjson

__all__ = ["ParameterError", "as_real_array", "check_count", "check_real", "parse_json"]


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


def _holds_bool(items) -> bool:
    """Whether the nested lists and tuples ``items`` hold a bool at any depth."""
    if set(map(type, items)) <= {float, int}:  # a flat list, as JSON gives one
        return False
    return any(isinstance(v, (bool, np.bool_))
               or (isinstance(v, np.ndarray) and v.dtype.kind == "b")
               or (isinstance(v, (list, tuple)) and _holds_bool(v)) for v in items)


def as_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; anything but real numbers, numeric
    strings, bools and ragged nests included, is refused.  A bool among
    numbers converts to an exact 0 or 1, so a list or tuple is scanned for
    bools only when its array holds one of those."""
    try:
        a = np.asarray(value)
    except ValueError as exc:
        raise ParameterError(f"{name} must be an array of real numbers: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must hold real numbers only, got dtype {a.dtype}")
    if (isinstance(value, (list, tuple))
            and ((a == 0) | (a == 1)).any()
            and _holds_bool(value)):
        raise ParameterError(f"{name} must hold real numbers only, got a bool among them")
    return a if a.dtype == _FLOAT64 else a.astype(_FLOAT64)


# orjson recurses once per nesting level with no limit of its own, at 64-128
# bytes of C stack a level: 16384 levels overflowed a 1 MiB thread stack, and
# about 2*10**5 the 8 MiB main one.  A document nests no deeper than the
# arrays and objects it opens, so at most this many are read (half a MiB of
# stack); a descriptor opens a handful, or d + 1 with its basis given as rows.
_MAX_OPENS = 2**12


def parse_json(data: bytes | str, what: str):
    """The document in ``data``, strict UTF-8 JSON read by orjson: NaN,
    Infinity, a number beyond float64, a lone surrogate, a byte order mark and
    more than ``_MAX_OPENS`` arrays and objects are refused, and an integer
    beyond 64 bits reads as its nearest float.  Each float token gets the bits
    ``float()`` gives it, in a quarter of the json module's time on a d = 1024
    descriptor.

    The opens cap keeps orjson's recursion inside the 8 MiB main stack and
    the default thread stacks, but not inside every stack: a 4096-deep
    document crashed the process (SIGSEGV) in a thread started after
    ``threading.stack_size(256 * 1024)``, and 512 KiB sufficed.
    """
    if not isinstance(data, (bytes, bytearray, str)):
        raise ParameterError(f"{what} must be text or bytes, got {type(data).__name__}")
    opens = 0
    for bracket in ("[", "{") if isinstance(data, str) else (b"[", b"{"):
        i = data.find(bracket)  # a memchr scan: 2 ms over 23 MB
        while i >= 0 and opens <= _MAX_OPENS:
            opens += 1
            i = data.find(bracket, i + 1)
    if opens > _MAX_OPENS:
        raise ParameterError(f"{what} opens more than {_MAX_OPENS} arrays and objects")
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ParameterError(f"{what} is not JSON: {exc}") from exc
