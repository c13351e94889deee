"""Sinc-quadrature grid for rational approximation of the inverse square root.

The grid discretizes an integral representation of ``x**-0.5`` into a sum of
simple poles ``c_j/(x + alpha_j)`` on geometrically spaced shifts.  With the
step, truncation, and coefficient choices coded in :func:`build_grid`, the
resulting rational function ``r(x)`` satisfies

    |sqrt(x) * r(x) - 1| <= eta            uniformly on [1, kappa],
    |x * sum_j c_j^2 / (x+alpha_j)^2 - L_h| <= 2*eta   on the same interval,

which is everything the downstream samplers rely on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_real_array, check_count, check_real

__all__ = [
    "C0",
    "SincGrid",
    "build_grid",
    "eval_r",
    "eval_sq_sum",
    "sup_error_E1",
    "sup_error_E2",
]

# Kept as an expression, never a decimal literal, so the stored constant is
# bit-identical to the defining formula.
C0 = 12.0 / (1.0 - math.exp(-1.0))

# Largest shift exponent 2jh: exp(x), exp(-x) and 1/exp(-x) stay finite and
# nonzero in float64 (one unit of margin below log of the largest float).
_MAX_EXPONENT = math.log(sys.float_info.max) - 1.0
# Cap on n_points of one sup-error estimate: the finest log grid of the error
# study, 2**16 + 1 points.
MAX_EVAL_POINTS = 2**16 + 1
# Points are evaluated in chunks whose (points x poles) temporary holds at
# most this many entries (8 MiB of float64), or one point when a grid has more
# poles.
EVAL_CHUNK_ENTRIES = 2**20


@dataclass(frozen=True)
class SincGrid:
    """Immutable bundle of quadrature constants.

    ``alphas`` and ``coeffs`` are indexed j = -M..N in increasing order;
    ``alphas`` is strictly increasing and both arrays are positive.
    ``query_budget`` (= M + N + 1) is the number of pole terms, which equals
    the number of oracle calls a one-point rational sampler spends.
    """

    eta: float
    kappa: float
    h: float
    M: int
    N: int
    alphas: np.ndarray
    coeffs: np.ndarray
    L_h: float

    @property
    def query_budget(self) -> int:
        return self.M + self.N + 1


def build_grid(eta: float, kappa: float) -> SincGrid:
    """Construct the quadrature grid for accuracy ``eta`` on [1, kappa].

    Parameters
    ----------
    eta : float
        Target uniform accuracy, must lie strictly inside (0, 1/2).
    kappa : float
        Right endpoint of the approximation interval, must be finite and
        >= 1.  ``kappa == 1`` is allowed; the interval degenerates to {1}.

    Shifts exp(2jh) outside the float64 range (roughly 2 log(C0/eta) +
    log(kappa) > 708) are rejected up front, never returned as 0 or inf.
    """
    eta = check_real("eta", eta, 0.0, 0.5, open_low=True, open_high=True)
    kappa = check_real("kappa", kappa, 1.0, math.inf)

    log_ratio = math.log(C0 / eta)
    h = math.pi**2 / log_ratio
    M = math.ceil(log_ratio / h)
    N = math.ceil((0.5 * math.log(kappa) + log_ratio) / h)
    if 2.0 * h * max(M, N) > _MAX_EXPONENT:
        raise ParameterError(
            f"grid shifts exp(2jh) leave the float64 range at eta={eta}, kappa={kappa}")

    j = np.arange(-M, N + 1, dtype=np.float64)
    alphas = np.exp(2.0 * j * h)
    coeffs = (2.0 * h / math.pi) * np.exp(j * h)
    L_h = 2.0 * h / math.pi**2

    return SincGrid(eta=eta, kappa=kappa, h=h, M=M, N=N,
                    alphas=alphas, coeffs=coeffs, L_h=L_h)


def _pole_sum(grid: SincGrid, x, name: str, square: bool):
    """sum_j t_j over the poles for each finite x > 0, t_j = c_j / (x + alpha_j),
    or t_j^2 when ``square``.  Points run in chunks of at most
    ``EVAL_CHUNK_ENTRIES`` terms; each point's sum is the same in any chunk."""
    xs = as_real_array("x", x)
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise ParameterError(f"{name} requires finite x > 0")
    flat = xs.reshape(-1)
    out = np.empty(flat.shape)
    rows = max(1, EVAL_CHUNK_ENTRIES // grid.query_budget)
    buffer = np.empty((min(rows, flat.size), grid.query_budget))
    for lo in range(0, flat.size, rows):
        points = flat[lo:lo + rows, None]
        terms = np.add(points, grid.alphas, out=buffer[:len(points)])
        np.divide(grid.coeffs, terms, out=terms)
        if square:
            np.square(terms, out=terms)
        out[lo:lo + rows] = np.sum(terms, axis=-1)
    return float(out[0]) if np.isscalar(x) or xs.ndim == 0 else out.reshape(xs.shape)


def eval_r(grid: SincGrid, x):
    """Evaluate r(x) = sum_j c_j / (x + alpha_j) for finite x > 0.

    Accepts scalars or arrays; strictly positive and strictly decreasing.
    """
    return _pole_sum(grid, x, "eval_r", square=False)


def eval_sq_sum(grid: SincGrid, x):
    """Evaluate sum_j c_j^2 / (x + alpha_j)^2 for finite x > 0 (scalar or array)."""
    return _pole_sum(grid, x, "eval_sq_sum", square=True)


def _eval_points(kappa: float, n_points: int) -> np.ndarray:
    # Dyadically refined log grid: the point set for n is contained in the
    # point set for 2n, so refining n_points can never shrink the maximum.
    n_points = check_count("n_points", n_points, 2, MAX_EVAL_POINTS)
    if kappa == 1.0:
        return np.ones(1)
    level = max(1, math.ceil(math.log2(n_points - 1)))
    return np.geomspace(1.0, kappa, 2**level + 1)


def sup_error_E1(grid: SincGrid, n_points: int = 4000) -> float:
    """Estimate sup_{x in [1, kappa]} |sqrt(x) r(x) - 1| on a log grid.

    The grid holds at least ``n_points`` points (rounded up to the next
    dyadic refinement level); the estimate is a lower bound on the true sup.
    ``n_points`` must be an integer in [2, ``MAX_EVAL_POINTS``].
    """
    xs = _eval_points(grid.kappa, n_points)
    return float(np.max(np.abs(np.sqrt(xs) * eval_r(grid, xs) - 1.0)))


def sup_error_E2(grid: SincGrid, n_points: int = 4000) -> float:
    """Estimate sup_{x in [1, kappa]} |x * sum_j c_j^2/(x+alpha_j)^2 - L_h|."""
    xs = _eval_points(grid.kappa, n_points)
    return float(np.max(np.abs(xs * eval_sq_sum(grid, xs) - grid.L_h)))
