"""Rational samplers driven by smoothed-score queries.

All four samplers share one mechanism: a smoothed-score query at noise level
tau = 1/alpha_j, transformed as tau*z + tau^2*s_tau(z), applies the resolvent
(Lambda + alpha_j I)^{-1} to z.  Summing resolvents against the quadrature
coefficients applies the rational approximant r(Lambda), so the output of the
one-point sampler is exactly r(Lambda) Z with Z standard normal.  The
quantized sampler quantizes each resolvent term before the sum.

Each public sampler derives its full parameter tuple and output law from
(delta_tv, kappa, d) through :func:`sampler_params`; the ``*_with_grid``
variants bypass those choices for experimentation and carry no guarantee.

The q shifts of one sample are fixed before any query, so every sampler asks
all of them in one batched oracle call (one finite-bit call for the quantized
sampler); the tape still records q queries.

Randomness contract: one generator per run, draws in a fixed order (Z first,
then the dither G; per-shift vectors Z_j in index order, drawn as one (q, d)
array), so runs are bit-reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import diagnostics
from .errors import ParameterError
from .gaussian import GaussianTarget, ScoreOracle
from .quadrature import C0, SincGrid, build_grid
from .quantizer import QuantizerConfig, decode_vector, quantize_vector, smallest_bit_depth

__all__ = [
    "SampleReport",
    "SamplerParams",
    "exact_accuracy",
    "independent_accuracy",
    "sampler_params",
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
class SamplerParams:
    """Realized parameter tuple of one sampler: its quadrature grid (which
    carries the accuracy eta) and, for the quantized sampler only, the dither
    variance sigma^2, clip radius R_clip and bit depth B."""

    algorithm: str
    grid: SincGrid
    sigma2: float | None = None
    r_clip: float | None = None
    bits: int | None = None

    def total_bits(self, dim: int) -> int:
        """Q = d*B*q, zero for the exact-query samplers."""
        return dim * (self.bits or 0) * self.grid.query_budget

    def law(self, target: GaussianTarget) -> diagnostics.CoDiagonalLawPair:
        """Output law on ``target`` whose tv_bound certifies a run (for the
        quantized sampler the ideal dithered law)."""
        if self.algorithm == "independent":
            return diagnostics.law_of_alg2(target, self.grid)
        if self.algorithm == "quantized":
            return diagnostics.law_of_alg3_ideal(target, self.grid, self.sigma2)
        return diagnostics.law_of_alg1(target, self.grid)


def sampler_params(algorithm: str, dim: int, kappa: float, delta_tv: float) -> SamplerParams:
    """Derive the parameter tuple of ``algorithm`` ("exact", "independent",
    "quantized" or "uncentered") from (delta_tv, kappa, d).

    For the quantized sampler q is fixed by the grid before the clip radius
    and bit depth are chosen, so there is no circularity even though both
    formulas mention q.  B is reported as derived, also above the 52 bits
    that :class:`QuantizerConfig` accepts.
    """
    if algorithm in ("exact", "uncentered"):
        return SamplerParams(algorithm, build_grid(exact_accuracy(dim, delta_tv), kappa))
    if algorithm == "independent":
        return SamplerParams(algorithm, build_grid(independent_accuracy(dim, delta_tv), kappa))
    if algorithm != "quantized":
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    delta_tv = _check_delta(delta_tv)
    rd = math.sqrt(dim)
    grid = build_grid(delta_tv / (12.0 * rd), kappa)
    q = grid.query_budget
    sigma2 = delta_tv / (12.0 * kappa * rd)
    r_clip = (grid.h / math.pi) * math.sqrt(2.0 * math.log(6.0 * dim * q / delta_tv))
    bits = smallest_bit_depth(q * rd * r_clip / (math.sqrt(sigma2) * delta_tv))
    return SamplerParams(algorithm, grid, sigma2=sigma2, r_clip=r_clip, bits=bits)


# The transform tau z + tau^2 s_tau(z) cancels down to the resolvent, so the
# combined output carries a float64 roundoff of about eps * sum_j c_j tau_j
# (~ eps * C0 / eta) relative to the query point.  A grid whose roundoff would
# exceed a tenth of its own accuracy eta is rejected: its output would no
# longer be the r(Lambda) Z that the certificates describe.  At unit scale
# this puts a floor of about 2e-7 under eta, i.e. delta_tv >~ 8e-7 sqrt(d) for
# the one-point sampler.
_ROUNDOFF_PER_ETA = 10.0 * np.finfo(np.float64).eps


def _shift_levels(grid: SincGrid, scale: float = 1.0) -> np.ndarray:
    """tau_j = 1/alpha_j, once the grid passes the roundoff floor for query
    points of sup-norm up to ``scale`` (at least 1)."""
    taus = 1.0 / grid.alphas
    if _ROUNDOFF_PER_ETA * scale * float(np.sum(grid.coeffs * taus)) > grid.eta:
        raise ParameterError(
            f"eta={grid.eta:.3g} lies below the float64 roundoff floor of the "
            f"resolvent transform at query points of size {scale:.3g}; "
            "increase delta_tv")
    return taus


def _resolvent_terms(grid: SincGrid, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row j is c_j * (tau_j z_j + tau_j^2 g_j), the j-th resolvent term;
    ``z`` has shape (d,) or one row per shift, ``g`` holds the (q, d) scores.

    Summing the rows over j in index order adds them as a loop over the
    shifts would (for d = 1 numpy pairs the single column's terms up
    instead).  Regrouping the sum, e.g. as (sum_j c_j tau_j) z + ..., would
    change the roundoff of the cancellation.
    """
    t = (1.0 / grid.alphas)[:, None]
    return grid.coeffs[:, None] * (t * z + t**2 * g)


def _rational_combine(oracle: ScoreOracle, grid: SincGrid, z: np.ndarray,
                      shift: np.ndarray | None = None) -> np.ndarray:
    """Sum c_j * (tau_j z_j + tau_j^2 s_{tau_j}(z_j + shift)) over the grid,
    with all q queries answered in one oracle call.  The roundoff floor
    scales with the shift, since the queries are made at z + shift."""
    scale = 1.0 if shift is None else max(1.0, float(np.abs(shift).max()))
    taus = _shift_levels(grid, scale)
    g = oracle.smoothed_scores(taus, z if shift is None else z + shift)
    return np.sum(_resolvent_terms(grid, z, g), axis=0)


def _report(oracle: ScoreOracle, spec: SamplerParams, y: np.ndarray,
            clip_overflow: bool = False, quant_error_norm: float | None = None,
            **extra) -> SampleReport:
    g = spec.grid
    return SampleReport(output=y,
                        query_count=oracle.tape.query_count,
                        bits_total=oracle.tape.bits_sent,
                        clip_overflow=clip_overflow,
                        params={"eta": g.eta, "h": g.h, "M": g.M, "N": g.N,
                                "sigma2": spec.sigma2, "r_clip": spec.r_clip,
                                "bits": spec.bits, **extra},
                        noise_levels=1.0 / g.alphas,
                        quant_error_norm=quant_error_norm)


def sample_exact_with_grid(target: GaussianTarget, grid: SincGrid,
                           rng: np.random.Generator) -> SampleReport:
    """One-point rational sampler on a caller-supplied grid (no TV guarantee)."""
    _require_centered(target)
    oracle = ScoreOracle(target)
    z = rng.standard_normal(target.dim)
    y = _rational_combine(oracle, grid, z)
    return _report(oracle, SamplerParams("exact", grid), y)


def sample_exact(target: GaussianTarget, delta_tv: float,
                 rng: np.random.Generator) -> SampleReport:
    """Draw one sample whose law is within delta_tv of the centered target,
    using one exact smoothed-score query per quadrature shift.

    The output is exactly r(Lambda) Z, so its law is N(0, r(Lambda)^2); the
    TV guarantee is the KL->Pinsker certificate on those variance ratios.
    """
    spec = sampler_params("exact", target.dim, target.kappa, delta_tv)
    report = sample_exact_with_grid(target, spec.grid, rng)
    report.params["delta_tv"] = float(delta_tv)
    return report


def sample_independent_with_grid(target: GaussianTarget, grid: SincGrid,
                                 rng: np.random.Generator) -> SampleReport:
    """Independent-query variant on a caller-supplied grid (no TV guarantee)."""
    _require_centered(target)
    oracle = ScoreOracle(target)
    z = rng.standard_normal((grid.query_budget, target.dim))
    y = _rational_combine(oracle, grid, z) / math.sqrt(grid.L_h)
    return _report(oracle, SamplerParams("independent", grid), y)


def sample_independent(target: GaussianTarget, delta_tv: float,
                       rng: np.random.Generator) -> SampleReport:
    """Rational sampler querying an independent standard normal per shift.

    Output law is N(0, (1/L_h) sum_j c_j^2 (Lambda + alpha_j I)^{-2}).
    """
    spec = sampler_params("independent", target.dim, target.kappa, delta_tv)
    report = sample_independent_with_grid(target, spec.grid, rng)
    report.params["delta_tv"] = float(delta_tv)
    return report


def _encode_terms(cfg: QuantizerConfig, grid: SincGrid, z: np.ndarray, g: np.ndarray):
    """Finite-bit encoder: the resolvent terms W_j, quantized into one message
    per shift.  W itself stays off the channel, kept for the run report."""
    w = _resolvent_terms(grid, z, g)
    return w, quantize_vector(cfg, w)[1]


def sample_quantized(target: GaussianTarget, delta_tv: float,
                     rng: np.random.Generator) -> SampleReport:
    """Finite-bit sampler: per-shift contributions W_j = c_j X_j are clipped,
    uniformly quantized coordinatewise, sent as d*B bits per query, and the
    reconstructed sum is dithered with sigma*G.

    Clipping is reported, never raised: the TV budget already pays for it.
    """
    _require_centered(target)
    spec = sampler_params("quantized", target.dim, target.kappa, delta_tv)
    cfg = QuantizerConfig(bits=spec.bits, clip_radius=spec.r_clip)
    taus = _shift_levels(spec.grid)
    oracle = ScoreOracle(target)
    z = rng.standard_normal(target.dim)
    w, messages = oracle.finite_bit_query(taus, z, partial(_encode_terms, cfg, spec.grid, z),
                                          target.dim * cfg.bits)
    w_hat = decode_vector(cfg, "".join(messages)).reshape(w.shape)
    y = np.sum(w_hat, axis=0) + math.sqrt(spec.sigma2) * rng.standard_normal(target.dim)
    return _report(oracle, spec, y,
                   clip_overflow=bool(np.any(np.abs(w) > cfg.clip_radius)),
                   quant_error_norm=float(np.linalg.norm(np.sum(w_hat - w, axis=0))),
                   delta_tv=float(delta_tv))


def estimate_mean(target: GaussianTarget, delta_mu: float,
                  oracle: ScoreOracle | None = None) -> np.ndarray:
    """Estimate the mean to ||mu_hat - mu||_Lambda <= delta_mu.

    Two exact queries at the origin: b = s_1(0) bounds ||mu|| <= 2||b||, and
    mu_hat = tau_mu * s_{tau_mu}(0) with tau_mu = 2||b||/delta_mu.  If b = 0
    the mean is exactly zero and one query suffices.  Pass an oracle to share
    its tape with a surrounding run.  A mean so large that ||b|| or tau_mu
    overflows float64 is rejected.
    """
    if not delta_mu > 0.0:
        raise ParameterError(f"delta_mu must be positive, got {delta_mu}")
    if oracle is None:
        oracle = ScoreOracle(target)
    origin = np.zeros(target.dim)
    b = oracle.smoothed_score(1.0, origin)
    if not np.any(b):
        return origin
    with np.errstate(over="ignore"):
        norm_b = float(np.linalg.norm(b))
        if not math.isfinite(norm_b):
            # sqrt(b.b) overflows once ||b|| > ~1.3e154.  Only then is the
            # norm rescaled by m = max |b_i|, so smaller means keep their
            # mu_hat bit for bit.
            m = float(np.max(np.abs(b)))
            norm_b = m * float(np.linalg.norm(b / m))
        tau_mu = 2.0 * norm_b / delta_mu
    if not math.isfinite(tau_mu):
        raise ParameterError("mean too large to estimate: ||b|| or tau_mu overflows float64")
    return tau_mu * oracle.smoothed_score(tau_mu, origin)


def sample_uncentered(target: GaussianTarget, delta_tv: float, delta_mu: float,
                      rng: np.random.Generator) -> SampleReport:
    """Mean estimation followed by the one-point sampler on recentered queries.

    Conditioned on mu_hat the output is Gaussian with covariance r(Lambda)^2
    and mean mu_hat plus a residual-mean term that the caller can evaluate in
    closed form; the mean certificate ||mu_hat - mu||_Lambda <= delta_mu is
    reported separately rather than folded into a combined TV claim.
    """
    spec = sampler_params("uncentered", target.dim, target.kappa, delta_tv)
    oracle = ScoreOracle(target)
    mu_hat = estimate_mean(target, delta_mu, oracle=oracle)
    z = rng.standard_normal(target.dim)
    y = _rational_combine(oracle, spec.grid, z, shift=mu_hat) + mu_hat
    return _report(oracle, spec, y, delta_tv=float(delta_tv),
                   delta_mu=float(delta_mu), mu_hat=mu_hat)
