"""Closed-form KL/TV certificates for co-diagonal Gaussian laws.

Every sampler in this package outputs a Gaussian whose covariance commutes
with the target's, so the exact KL divergence is a function of the
per-eigendirection variance ratios T_i.  Pinsker's inequality then turns
the KL into a deterministic total-variation certificate.  Direct TV
estimation is statistically hopeless beyond d = 1; the tests check the
direction of the Pinsker bound against an exact scalar TV distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .gaussian import GaussianTarget
from .quadrature import SincGrid, eval_r, eval_sq_sum

__all__ = [
    "CoDiagonalLawPair",
    "kl_codiagonal",
    "tv_bound",
    "law_of_alg1",
    "law_of_alg2",
    "law_of_alg3_ideal",
    "empirical_covariance",
    "summary",
]


@dataclass(frozen=True)
class CoDiagonalLawPair:
    """Variance ratios (candidate over target) along shared eigendirections."""

    ratios: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.ratios, dtype=np.float64))
        if not np.all((r > 0.0) & (r < np.inf)):
            raise ParameterError("variance ratios must be positive and finite")
        object.__setattr__(self, "ratios", r)

    @property
    def max_deviation(self) -> float:
        return float(np.max(np.abs(self.ratios - 1.0)))


def kl_codiagonal(pair: CoDiagonalLawPair) -> float:
    """KL(candidate || target) = (1/2) sum_i (T_i - 1 - log T_i), >= 0."""
    T = pair.ratios
    return float(0.5 * np.sum(T - 1.0 - np.log(T)))


def tv_bound(pair: CoDiagonalLawPair) -> float:
    """Pinsker certificate sqrt(KL/2), an upper bound on the TV distance."""
    return math.sqrt(kl_codiagonal(pair) / 2.0)


def law_of_alg1(target: GaussianTarget, grid: SincGrid) -> CoDiagonalLawPair:
    """Exact output law of the one-point rational sampler: T_i = lam_i r(lam_i)^2."""
    lam = target.eigvals
    return CoDiagonalLawPair(lam * eval_r(grid, lam) ** 2)


def law_of_alg2(target: GaussianTarget, grid: SincGrid) -> CoDiagonalLawPair:
    """Output law under independent per-shift queries:
    T_i = (lam_i / L_h) * sum_j c_j^2 / (lam_i + alpha_j)^2."""
    lam = target.eigvals
    return CoDiagonalLawPair(lam * eval_sq_sum(grid, lam) / grid.L_h)


def law_of_alg3_ideal(target: GaussianTarget, grid: SincGrid, sigma2: float) -> CoDiagonalLawPair:
    """Ideal dithered law (no quantization error): T_i = lam_i (r(lam_i)^2 + sigma2)."""
    if sigma2 < 0.0:
        raise ParameterError("sigma2 must be nonnegative")
    lam = target.eigvals
    return CoDiagonalLawPair(lam * (eval_r(grid, lam) ** 2 + sigma2))


def empirical_covariance(samples) -> np.ndarray:
    """Mean-zero covariance estimator (1/n) sum_k y_k y_k^T for centered laws."""
    Y = np.asarray(samples, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] < 2:
        raise ParameterError("need at least 2 samples")
    if not np.all(np.isfinite(Y)):
        raise ParameterError("samples must be finite")
    return Y.T @ Y / Y.shape[0]


def summary(pair: CoDiagonalLawPair) -> dict:
    """JSON-ready certificate summary: {kl, tv_bound, max_ratio_dev}."""
    return {
        "kl": kl_codiagonal(pair),
        "tv_bound": tv_bound(pair),
        "max_ratio_dev": pair.max_deviation,
    }
