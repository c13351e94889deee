"""Rational samplers driven by smoothed-score queries.

Three samplers share one mechanism: a smoothed-score query at noise level
tau = 1/alpha_j, transformed as tau*z + tau^2*s_tau(z), applies the resolvent
(Lambda + alpha_j I)^{-1} to z.  Summing resolvents against the quadrature
coefficients applies the rational approximant r(Lambda), so the output of the
one-point sampler is exactly r(Lambda) Z with Z standard normal.

Each public sampler derives its full parameter tuple internally from
(delta_tv, kappa, d); the ``*_with_grid`` variants bypass those choices for
experimentation and carry no accuracy guarantee.

The q shifts of one sample are fixed before any query, so the exact-query
samplers ask all of them in one batched oracle call; the tape still records
q queries.

Randomness contract: one generator per run, draws in a fixed order (Z first,
then the dither G; per-shift vectors Z_j in index order, drawn as one (q, d)
array), so runs are bit-reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .gaussian import GaussianTarget, ScoreOracle
from .quadrature import C0, SincGrid, build_grid
from .quantizer import QuantizerConfig, decode_vector, quantize_vector, smallest_bit_depth

__all__ = [
    "SampleReport",
    "QuantizedParams",
    "exact_accuracy",
    "independent_accuracy",
    "quantized_params",
    "sample_exact",
    "sample_independent",
    "sample_quantized",
    "estimate_mean",
    "sample_uncentered",
    "sample_exact_with_grid",
    "sample_independent_with_grid",
]


@dataclass
class SampleReport:
    """One sampler run: the output vector plus full accounting."""

    output: np.ndarray
    query_count: int
    bits_total: int
    clip_overflow: bool
    params: dict
    noise_levels: np.ndarray = field(default_factory=lambda: np.empty(0))
    quant_error_norm: float | None = None


def _check_delta(delta_tv: float) -> float:
    delta_tv = float(delta_tv)
    if not (0.0 < delta_tv < 1.0):
        raise ParameterError(f"delta_tv must lie in (0, 1), got {delta_tv}")
    return delta_tv


def _require_centered(target: GaussianTarget) -> None:
    if not target.is_centered:
        raise ParameterError("this sampler requires a centered target; "
                             "use sample_uncentered for nonzero means")


def exact_accuracy(dim: int, delta_tv: float) -> float:
    """Quadrature accuracy used by the one-point sampler: delta_tv / (4 sqrt(d))."""
    return _check_delta(delta_tv) / (4.0 * math.sqrt(dim))


def independent_accuracy(dim: int, delta_tv: float) -> float:
    """Accuracy for the independent-query sampler:
    delta_tv / (8 sqrt(d) log(C0 sqrt(d)/delta_tv))."""
    delta_tv = _check_delta(delta_tv)
    rd = math.sqrt(dim)
    return delta_tv / (8.0 * rd * math.log(C0 * rd / delta_tv))


@dataclass(frozen=True)
class QuantizedParams:
    """Realized parameter tuple of the quantized sampler."""

    eta: float
    grid: SincGrid
    sigma2: float
    r_clip: float
    bits: int

    @property
    def query_budget(self) -> int:
        return self.grid.query_budget

    def total_bits(self, dim: int) -> int:
        return dim * self.bits * self.query_budget


def quantized_params(dim: int, kappa: float, delta_tv: float) -> QuantizedParams:
    """Derive (eta, grid, sigma^2, R_clip, B) for the quantized sampler.

    q is fixed by the grid before the clip radius and bit depth are chosen,
    so there is no circularity even though both formulas mention q.
    """
    delta_tv = _check_delta(delta_tv)
    rd = math.sqrt(dim)
    eta = delta_tv / (12.0 * rd)
    grid = build_grid(eta, kappa)
    q = grid.query_budget
    sigma2 = delta_tv / (12.0 * kappa * rd)
    r_clip = (grid.h / math.pi) * math.sqrt(2.0 * math.log(6.0 * dim * q / delta_tv))
    bits = smallest_bit_depth(q * rd * r_clip / (math.sqrt(sigma2) * delta_tv))
    return QuantizedParams(eta=eta, grid=grid, sigma2=sigma2, r_clip=r_clip, bits=bits)


def _grid_params(grid: SincGrid, **extra) -> dict:
    params = {"eta": grid.eta, "h": grid.h, "M": grid.M, "N": grid.N,
              "sigma2": None, "r_clip": None, "bits": None}
    params.update(extra)
    return params


# The transform tau z + tau^2 s_tau(z) cancels down to the resolvent, so the
# combined output carries a float64 roundoff of about eps * sum_j c_j tau_j
# (~ eps * C0 / eta) relative to |z|.  A grid whose roundoff would exceed a
# tenth of its own accuracy eta is rejected: its output would no longer be
# the r(Lambda) Z that the certificates describe.  This puts a floor of about
# 2e-7 under eta, i.e. delta_tv >~ 8e-7 sqrt(d) for the one-point sampler.
_ROUNDOFF_PER_ETA = 10.0 * np.finfo(np.float64).eps


def _rational_combine(oracle: ScoreOracle, grid: SincGrid, z: np.ndarray,
                      shift: np.ndarray | None = None) -> np.ndarray:
    """Sum c_j * (tau_j z_j + tau_j^2 s_{tau_j}(z_j + shift)) over the grid,
    tau_j = 1/alpha_j, with all q queries answered in one oracle call.

    ``z`` is one point of shape (d,) for every shift or one per shift, shape
    (q, d).  The terms are added over j in index order, as a loop over the
    shifts would add them (for d = 1 numpy pairs the single column's terms up
    instead).  Regrouping the sum, e.g. as (sum_j c_j tau_j) z + ..., would
    change the roundoff of the cancellation.
    """
    taus = 1.0 / grid.alphas
    if _ROUNDOFF_PER_ETA * float(np.sum(grid.coeffs * taus)) > grid.eta:
        raise ParameterError(
            f"eta={grid.eta:.3g} lies below the float64 roundoff floor of the "
            "resolvent transform; increase delta_tv")
    g = oracle.smoothed_scores(taus, z if shift is None else z + shift)
    t = taus[:, None]
    return np.sum(grid.coeffs[:, None] * (t * z + t**2 * g), axis=0)


def _one_point_report(oracle: ScoreOracle, grid: SincGrid, y: np.ndarray,
                      params: dict) -> SampleReport:
    return SampleReport(output=y,
                        query_count=oracle.tape.query_count,
                        bits_total=oracle.tape.bits_sent,
                        clip_overflow=False,
                        params=params,
                        noise_levels=1.0 / grid.alphas)


def sample_exact_with_grid(target: GaussianTarget, grid: SincGrid,
                           rng: np.random.Generator) -> SampleReport:
    """One-point rational sampler on a caller-supplied grid (no TV guarantee)."""
    _require_centered(target)
    oracle = ScoreOracle(target)
    z = rng.standard_normal(target.dim)
    y = _rational_combine(oracle, grid, z)
    return _one_point_report(oracle, grid, y, _grid_params(grid))


def sample_exact(target: GaussianTarget, delta_tv: float,
                 rng: np.random.Generator) -> SampleReport:
    """Draw one sample whose law is within delta_tv of the centered target,
    using one exact smoothed-score query per quadrature shift.

    The output is exactly r(Lambda) Z, so its law is N(0, r(Lambda)^2); the
    TV guarantee is the KL->Pinsker certificate on those variance ratios.
    """
    eta = exact_accuracy(target.dim, delta_tv)
    grid = build_grid(eta, target.kappa)
    report = sample_exact_with_grid(target, grid, rng)
    report.params["delta_tv"] = float(delta_tv)
    return report


def sample_independent_with_grid(target: GaussianTarget, grid: SincGrid,
                                 rng: np.random.Generator) -> SampleReport:
    """Independent-query variant on a caller-supplied grid (no TV guarantee)."""
    _require_centered(target)
    oracle = ScoreOracle(target)
    z = rng.standard_normal((grid.query_budget, target.dim))
    y = _rational_combine(oracle, grid, z) / math.sqrt(grid.L_h)
    return _one_point_report(oracle, grid, y, _grid_params(grid))


def sample_independent(target: GaussianTarget, delta_tv: float,
                       rng: np.random.Generator) -> SampleReport:
    """Rational sampler querying an independent standard normal per shift.

    Output law is N(0, (1/L_h) sum_j c_j^2 (Lambda + alpha_j I)^{-2}).
    """
    eta = independent_accuracy(target.dim, delta_tv)
    grid = build_grid(eta, target.kappa)
    report = sample_independent_with_grid(target, grid, rng)
    report.params["delta_tv"] = float(delta_tv)
    return report


def sample_quantized(target: GaussianTarget, delta_tv: float,
                     rng: np.random.Generator) -> SampleReport:
    """Finite-bit sampler: per-shift contributions W_j = c_j X_j are clipped,
    uniformly quantized coordinatewise, sent as d*B bits per query, and the
    reconstructed sum is dithered with sigma*G.

    Clipping is reported, never raised: the TV budget already pays for it.
    """
    _require_centered(target)
    params = quantized_params(target.dim, target.kappa, delta_tv)
    grid = params.grid
    cfg = QuantizerConfig(bits=params.bits, clip_radius=params.r_clip)
    sigma = math.sqrt(params.sigma2)
    d = target.dim

    oracle = ScoreOracle(target)
    z = rng.standard_normal(d)

    y_hat = np.zeros(d)
    quant_error = np.zeros(d)
    clipped = False
    for alpha, c in zip(grid.alphas, grid.coeffs):
        tau = 1.0 / alpha
        sent = {}

        def encode(g, _tau=tau, _c=c, _sent=sent):
            w = _c * (_tau * z + _tau**2 * g)
            _sent["w"] = w
            _, message = quantize_vector(cfg, w)
            return message

        message = oracle.finite_bit_query(tau, z, encode, d * cfg.bits)
        w_hat = decode_vector(cfg, message)
        w = sent["w"]
        clipped = clipped or bool(np.any(np.abs(w) > cfg.clip_radius))
        y_hat += w_hat
        quant_error += w_hat - w

    g_dither = rng.standard_normal(d)
    y = y_hat + sigma * g_dither

    run_params = _grid_params(grid, sigma2=params.sigma2, r_clip=params.r_clip,
                              bits=params.bits, delta_tv=float(delta_tv))
    return SampleReport(output=y,
                        query_count=oracle.tape.query_count,
                        bits_total=oracle.tape.bits_sent,
                        clip_overflow=clipped,
                        params=run_params,
                        noise_levels=1.0 / grid.alphas,
                        quant_error_norm=float(np.linalg.norm(quant_error)))


def estimate_mean(target: GaussianTarget, delta_mu: float,
                  oracle: ScoreOracle | None = None) -> np.ndarray:
    """Estimate the mean to ||mu_hat - mu||_Lambda <= delta_mu.

    Two exact queries at the origin: b = s_1(0) bounds ||mu|| <= 2||b||, and
    mu_hat = tau_mu * s_{tau_mu}(0) with tau_mu = 2||b||/delta_mu.  If b = 0
    the mean is exactly zero and one query suffices.  Pass an oracle to share
    its tape with a surrounding run.
    """
    if not delta_mu > 0.0:
        raise ParameterError(f"delta_mu must be positive, got {delta_mu}")
    if oracle is None:
        oracle = ScoreOracle(target)
    origin = np.zeros(target.dim)
    b = oracle.smoothed_score(1.0, origin)
    if not np.any(b):
        return origin
    tau_mu = 2.0 * float(np.linalg.norm(b)) / delta_mu
    return tau_mu * oracle.smoothed_score(tau_mu, origin)


def sample_uncentered(target: GaussianTarget, delta_tv: float, delta_mu: float,
                      rng: np.random.Generator) -> SampleReport:
    """Mean estimation followed by the one-point sampler on recentered queries.

    Conditioned on mu_hat the output is Gaussian with covariance r(Lambda)^2
    and mean mu_hat plus a residual-mean term that the caller can evaluate in
    closed form; the mean certificate ||mu_hat - mu||_Lambda <= delta_mu is
    reported separately rather than folded into a combined TV claim.
    """
    delta_tv = _check_delta(delta_tv)
    eta = exact_accuracy(target.dim, delta_tv)
    grid = build_grid(eta, target.kappa)

    oracle = ScoreOracle(target)
    mu_hat = estimate_mean(target, delta_mu, oracle=oracle)
    z = rng.standard_normal(target.dim)
    y = _rational_combine(oracle, grid, z, shift=mu_hat) + mu_hat
    return _one_point_report(oracle, grid, y,
                             _grid_params(grid, delta_tv=delta_tv,
                                          delta_mu=float(delta_mu), mu_hat=mu_hat))
