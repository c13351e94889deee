"""Rational samplers driven by smoothed-score queries.

All four samplers share one mechanism: a smoothed-score query at noise level
tau = 1/alpha_j, transformed as tau*z + tau^2*s_tau(z), applies the resolvent
(Lambda + alpha_j I)^{-1} to z.  Summing resolvents against the quadrature
coefficients applies the rational approximant r(Lambda), so the output of the
one-point sampler is exactly r(Lambda) Z with Z standard normal.  The
quantized sampler quantizes each resolvent term before the sum.

Every sampler derives its full parameter tuple and output law from
(delta_tv, kappa, d) through :func:`sampler_params`; no caller can replace
them, so every output carries the certificate of its law.

The q shifts of one sample are fixed before any query, so n runs on one
target are n*q queries on one grid.  :func:`sample_many` is the one sampling
path: it builds the spec and grid once and asks the queries of a block of
runs in one batched oracle call (one finite-bit call for the quantized
sampler); the tape still records every query, and each run reports its own
q and Q.  The per-run samplers are its one-run calls.

Randomness contract: one generator per run, draws in a fixed order (Z first,
then the dither G; per-shift vectors Z_j in index order, drawn as one (q, d)
array), so runs are bit-reproducible from the seed, alone or in a block.
Run i of a seeded call draws from the i-th child of ``SeedSequence(seed)``,
the stream ``np.random.default_rng(seed).spawn(runs)[i]``;
``streams.run_streams`` (``streams.py`` also builds the channel experiments'
block streams) makes those same generators, state for state, in a few array
operations instead of numpy's per-child set-up.  Unlike the channel
experiments, which spawn one stream per block of trials, the samplers keep
one stream per run: the ``sample`` command's rows stay the same per seed,
and the benchmark's checks rebuild Z from this contract with numpy's own
``spawn``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import diagnostics
from .errors import ParameterError, check_count, check_real
from .gaussian import GaussianTarget, ScoreOracle
from .quadrature import C0, SincGrid, build_grid, eval_r, eval_sq_sum
from .quantizer import QuantizerConfig, decode_vector, quantize_vector, smallest_bit_depth

__all__ = [
    "SampleBlock",
    "SampleReport",
    "SamplerParams",
    "exact_accuracy",
    "independent_accuracy",
    "sampler_params",
    "sample_many",
    "sample_exact",
    "sample_independent",
    "sample_quantized",
    "estimate_mean",
    "sample_uncentered",
]


@dataclass
class SampleReport:
    """One sampler run: the output vector plus full accounting."""

    output: np.ndarray
    query_count: int
    bits_total: int
    clip_overflow: bool
    params: dict
    noise_levels: np.ndarray
    quant_error_norm: float | None


def exact_accuracy(dim: int, delta_tv: float) -> float:
    """Quadrature accuracy used by the one-point sampler: delta_tv / (4 sqrt(d))."""
    dim = check_count("dim", dim, 1, sys.maxsize)
    delta_tv = check_real("delta_tv", delta_tv, 0.0, 1.0, open_low=True, open_high=True)
    return delta_tv / (4.0 * math.sqrt(dim))


def independent_accuracy(dim: int, delta_tv: float) -> float:
    """Accuracy for the independent-query sampler:
    delta_tv / (8 sqrt(d) log(C0 sqrt(d)/delta_tv))."""
    dim = check_count("dim", dim, 1, sys.maxsize)
    delta_tv = check_real("delta_tv", delta_tv, 0.0, 1.0, open_low=True, open_high=True)
    rd = math.sqrt(dim)
    return delta_tv / (8.0 * rd * math.log(C0 * rd / delta_tv))


_ALGORITHMS = ("exact", "independent", "quantized", "uncentered")


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

    def __post_init__(self):
        """Refuse an unknown algorithm, a quantized spec without sigma^2 >= 0,
        R_clip > 0 and B >= 1, and any other spec that sets one of them."""
        if self.algorithm not in _ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        given = [v is not None for v in (self.sigma2, self.r_clip, self.bits)]
        if not (all(given) if self.algorithm == "quantized" else not any(given)):
            raise ParameterError(
                "sigma2, r_clip and bits are set for the quantized sampler, all three, and "
                f"only for it; got {self.sigma2!r}, {self.r_clip!r} and {self.bits!r} for "
                f"{self.algorithm!r}")
        if self.algorithm == "quantized":
            object.__setattr__(self, "sigma2", check_real("sigma2", self.sigma2, 0.0, math.inf))
            object.__setattr__(self, "r_clip", check_real("r_clip", self.r_clip, 0.0, math.inf,
                                                          open_low=True))
            object.__setattr__(self, "bits", check_count("bits", self.bits, 1, sys.maxsize))

    def total_bits(self, dim: int) -> int:
        """Q = d*B*q, zero for the exact-query samplers."""
        return dim * (self.bits or 0) * self.grid.query_budget

    def law(self, target: GaussianTarget) -> diagnostics.CoDiagonalLawPair:
        """Output law on ``target`` whose tv_bound certifies a run: the variance
        ratios T_i along its eigendirections.  The independent sampler's are
        (lam_i / L_h) sum_j c_j^2 / (lam_i + alpha_j)^2; every other one's are
        lam_i (r(lam_i)^2 + sigma^2), with sigma^2 = 0 but for the quantized
        sampler (whose law is then the ideal dithered one).  The uncentered
        sampler's is its centered part's only."""
        g, lam = self.grid, target.eigvals
        if self.algorithm == "independent":
            return diagnostics.CoDiagonalLawPair(lam * eval_sq_sum(g, lam) / g.L_h)
        return diagnostics.CoDiagonalLawPair(lam * (eval_r(g, lam) ** 2 + (self.sigma2 or 0.0)))


def sampler_params(algorithm: str, dim: int, kappa: float, delta_tv: float) -> SamplerParams:
    """Derive the parameter tuple of ``algorithm`` ("exact", "independent",
    "quantized" or "uncentered") from (delta_tv, kappa, d).

    For the quantized sampler q is fixed by the grid before the clip radius
    and bit depth are chosen, so there is no circularity even though both
    formulas mention q.  B is reported as derived, also above the 52 bits
    that :class:`QuantizerConfig` accepts.
    """
    dim = check_count("dim", dim, 1, sys.maxsize)
    if algorithm in ("exact", "uncentered"):
        return SamplerParams(algorithm, build_grid(exact_accuracy(dim, delta_tv), kappa))
    if algorithm == "independent":
        return SamplerParams(algorithm, build_grid(independent_accuracy(dim, delta_tv), kappa))
    if algorithm != "quantized":
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    delta_tv = check_real("delta_tv", delta_tv, 0.0, 1.0, open_low=True, open_high=True)
    rd = math.sqrt(dim)
    grid = build_grid(delta_tv / (12.0 * rd), kappa)
    q = grid.query_budget
    sigma2 = delta_tv / (12.0 * grid.kappa * rd)
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
    """Row j of each run is c_j * (tau_j z_j + tau_j^2 g_j), the j-th
    resolvent term; ``g`` holds the (n, q, d) scores of n runs and ``z`` the
    points of each run, (n, 1, d) or one row per shift (n, q, d).

    Summing a run's rows over j in index order adds them as a loop over the
    shifts would (for d = 1 numpy pairs the single column's terms up
    instead).  Regrouping the sum, e.g. as (sum_j c_j tau_j) z + ..., would
    change the roundoff of the cancellation.
    """
    t = (1.0 / grid.alphas)[:, None]
    return grid.coeffs[:, None] * (t * z + t**2 * g)


# Runs are answered in blocks of at most about this many entries, each block
# by one oracle handle, so memory stays bounded however many runs a call asks
# for.  A run counts q*d entries, one float per shift and coordinate, times
# the bit depth B for the quantized sampler.  Its message holds only q*d
# level fields, but its encode and decode keep several (q, d) arrays per run,
# and blocks sized by q*d alone ran 0.77-0.80x as fast on 20-run d = 1024
# quantized calls, so B stays as a block-size factor.
_BLOCK_ENTRIES = 2**17


def _encode_terms(cfg: QuantizerConfig, grid: SincGrid, z: np.ndarray, g: np.ndarray):
    """Finite-bit encoder: the resolvent terms W_j of every run, quantized
    into one message of level fields per query; their values are left to
    the decoder.  W itself stays off the channel, kept for the run
    reports."""
    w = _resolvent_terms(grid, z, g)
    return w, quantize_vector(cfg, w.reshape(-1, w.shape[-1]))


@dataclass
class SampleBlock:
    """n runs of one sampler on one target.  Row i of ``outputs`` and entry
    i of each per-run array belong to run i; ``spec``, ``params`` and
    ``noise_levels`` are shared by every run."""

    outputs: np.ndarray
    query_counts: np.ndarray
    bits_totals: np.ndarray
    clip_overflow: np.ndarray
    quant_error_norms: np.ndarray | None
    spec: SamplerParams
    params: dict
    noise_levels: np.ndarray

    def report(self, run: int) -> SampleReport:
        """Run ``run`` as the report of a run of its own."""
        errors = self.quant_error_norms
        return SampleReport(output=self.outputs[run],
                            query_count=int(self.query_counts[run]),
                            bits_total=int(self.bits_totals[run]),
                            clip_overflow=bool(self.clip_overflow[run]),
                            params=self.params,
                            noise_levels=self.noise_levels,
                            quant_error_norm=None if errors is None else float(errors[run]))


def sample_many(algorithm: str, target: GaussianTarget, delta_tv: float, streams,
                *, delta_mu: float | None = None) -> SampleBlock:
    """One run of ``algorithm`` per generator in ``streams``; the queries of
    a block of runs, (runs, q, d), are answered by one oracle call.

    The spec, the grid, the quantizer and the roundoff floor are set up
    once.  Run i draws from ``streams[i]`` what a run of its own draws, in
    the same order (Z, or the (q, d) Z_j, then the dither G), so it equals
    that run bit for bit: output, q and Q (read off the tape), clip flag and
    quantization error.  The uncentered sampler estimates the mean once for
    the block; every run's q counts those queries, as a run of its own
    spends them.

    The spec always comes from :func:`sampler_params` on (delta_tv, kappa,
    d).  With no streams the call still makes every check a run makes before
    its first query (the roundoff floor at unit scale, as no mean is
    estimated) and returns an empty block.  A given ``delta_mu`` must be
    positive and finite for every algorithm; only the uncentered one uses it.
    """
    streams = list(streams)
    n, d = len(streams), target.dim
    spec = sampler_params(algorithm, d, target.kappa, delta_tv)
    if delta_mu is not None:
        delta_mu = check_real("delta_mu", delta_mu, 0.0, math.inf, open_low=True)
    elif algorithm == "uncentered":
        raise ParameterError("uncentered sampling requires delta_mu")
    if algorithm != "uncentered" and not target.is_centered:
        raise ParameterError(f"the {algorithm!r} sampler requires a centered target; "
                             "use the 'uncentered' algorithm for nonzero means")
    cfg = None if spec.bits is None else QuantizerConfig(bits=spec.bits, clip_radius=spec.r_clip)
    g = spec.grid
    params = {"eta": g.eta, "h": g.h, "M": g.M, "N": g.N, "sigma2": spec.sigma2,
              "r_clip": spec.r_clip, "bits": spec.bits, "delta_tv": float(delta_tv)}
    shift, shared = None, 0
    if algorithm == "uncentered" and n:
        mean_oracle = ScoreOracle(target)
        shift = estimate_mean(target, delta_mu, oracle=mean_oracle)
        shared = mean_oracle.tape.query_count
        params.update(delta_mu=delta_mu, mu_hat=shift)
    # The queries are made at z + shift, so the floor scales with it.
    taus = _shift_levels(g, 1.0 if shift is None else max(1.0, float(np.abs(shift).max())))
    y = np.empty((n, d))
    query_counts = np.empty(n, dtype=np.int64)
    bits_totals = np.empty(n, dtype=np.int64)
    clip = np.zeros(n, dtype=bool)
    quant_errors = None if cfg is None else np.empty(n)
    # The quantized sampler's blocks are B times narrower (see _BLOCK_ENTRIES).
    width = taus.size * d * (1 if cfg is None else cfg.bits)
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    for lo in range(0, n, step):
        part = streams[lo:lo + step]
        rows = slice(lo, lo + len(part))
        if algorithm == "independent":
            z = np.stack([s.standard_normal((taus.size, d)) for s in part])
        else:
            z = np.stack([s.standard_normal(d) for s in part])[:, None]
        oracle = ScoreOracle(target)
        if cfg is None:
            scores = oracle.smoothed_scores(taus, z if shift is None else z + shift)
            y[rows] = np.sum(_resolvent_terms(g, z, scores), axis=1)
        else:
            w, messages = oracle.finite_bit_query(taus, z, partial(_encode_terms, cfg, g, z),
                                                  d * cfg.bits)
            w_hat = decode_vector(cfg, messages).reshape(w.shape)
            dither = np.stack([s.standard_normal(d) for s in part])
            y[rows] = np.sum(w_hat, axis=1) + math.sqrt(spec.sigma2) * dither
            clip[rows] = np.any(np.abs(w) > cfg.clip_radius, axis=(1, 2))
            quant_errors[rows] = [np.linalg.norm(e) for e in np.sum(w_hat - w, axis=1)]
        run_bits = oracle.tape.bits.reshape(len(part), -1)
        query_counts[rows] = shared + run_bits.shape[1]
        bits_totals[rows] = run_bits.sum(axis=1)
    if algorithm == "independent":
        y /= math.sqrt(g.L_h)
    if shift is not None:
        y += shift
    return SampleBlock(y, query_counts, bits_totals, clip, quant_errors, spec, params, taus)


def sample_exact(target: GaussianTarget, delta_tv: float,
                 rng: np.random.Generator) -> SampleReport:
    """Draw one sample whose law is within delta_tv of the centered target,
    using one exact smoothed-score query per quadrature shift.

    The output is exactly r(Lambda) Z, so its law is N(0, r(Lambda)^2); the
    TV guarantee is the KL->Pinsker certificate on those variance ratios.
    """
    return sample_many("exact", target, delta_tv, [rng]).report(0)


def sample_independent(target: GaussianTarget, delta_tv: float,
                       rng: np.random.Generator) -> SampleReport:
    """Rational sampler querying an independent standard normal per shift.

    Output law is N(0, (1/L_h) sum_j c_j^2 (Lambda + alpha_j I)^{-2}).
    """
    return sample_many("independent", target, delta_tv, [rng]).report(0)


def sample_quantized(target: GaussianTarget, delta_tv: float,
                     rng: np.random.Generator) -> SampleReport:
    """Finite-bit sampler: per-shift contributions W_j = c_j X_j are clipped,
    uniformly quantized coordinatewise, sent as d*B bits per query, and the
    reconstructed sum is dithered with sigma*G.

    Clipping is reported, never raised: the TV budget already pays for it.
    """
    return sample_many("quantized", target, delta_tv, [rng]).report(0)


# Float64 roundoff of mu_hat in the Lambda-norm: a few roundings per
# coordinate plus the oracle's two dense rotations, about
# (4 + 2d) * eps * ||mu|| in the 2-norm, times sqrt(kappa), with
# ||mu|| <= 2 ||b||.
_MEAN_ROUNDOFF = 2.0 * np.finfo(np.float64).eps
# From 2**53 on, tau + sigma rounds to tau for every covariance eigenvalue
# sigma <= 1.
_ABSORBING_TAU = 2.0**53


def estimate_mean(target: GaussianTarget, delta_mu: float,
                  oracle: ScoreOracle | None = None) -> np.ndarray:
    """Estimate the mean to ||mu_hat - mu||_Lambda <= delta_mu.

    Two exact queries at the origin: b = s_1(0) bounds ||mu|| <= 2||b||, and
    mu_hat = tau_mu * s_{tau_mu}(0) with tau_mu = 2||b||/delta_mu.  If b = 0
    the mean is exactly zero and one query suffices.  Pass an oracle to share
    its tape with a surrounding run.

    Once the float64 roundoff of mu_hat, about (4 + 2d) eps sqrt(kappa)
    2||b||, reaches delta_mu, the bound would hold only by chance, and the
    mean is rejected with ParameterError.  Diagonal targets are the
    exception: there tau_mu is raised to a power of two of at least 2**53,
    against which every covariance eigenvalue vanishes, so the second answer
    is mu / tau_mu exactly and mu_hat = mu (barring underflow, which is
    checked).  A mean so large that ||b|| or tau_mu overflows float64 is
    rejected too.
    """
    delta_mu = check_real("delta_mu", delta_mu, 0.0, math.inf, open_low=True)
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
    scale = math.sqrt(target.kappa)
    if _MEAN_ROUNDOFF * (4 + 2 * target.dim) * scale * norm_b < delta_mu:
        return tau_mu * oracle.smoothed_score(tau_mu, origin)
    tau_mu = math.ldexp(1.0, math.ceil(math.log2(max(tau_mu, _ABSORBING_TAU))))
    # mu_i / tau_mu is exact unless it falls below the normal range, where
    # its error is at most 2**-1075 before the product with tau_mu.
    underflow = math.sqrt(target.dim) * scale * math.ldexp(tau_mu, -1075)
    if target.basis is not None or not math.isfinite(tau_mu) or underflow >= delta_mu:
        raise ParameterError(
            f"mean too large for delta_mu={delta_mu:g}: the float64 roundoff of the "
            "estimate can reach it")
    return tau_mu * oracle.smoothed_score(tau_mu, origin)


def sample_uncentered(target: GaussianTarget, delta_tv: float, delta_mu: float,
                      rng: np.random.Generator) -> SampleReport:
    """Mean estimation followed by the one-point sampler on recentered queries.

    Conditioned on mu_hat the output is Gaussian with covariance r(Lambda)^2
    and mean mu + (1 - r(0) + r(Lambda)) e, where e = mu_hat - mu and r(0) =
    sum_j c_j tau_j.  The reported tv_bound (of the centered law) and the
    mean certificate ||e||_Lambda <= delta_mu together do not bound this
    law: e reaches the output amplified by up to A = max_i |1 - r(0) +
    r(lam_i)|, about 1.4e3 to 1.4e4 for d <= 64 and 4.7e4 at d = 1024 at
    delta_tv = 0.1.
    """
    return sample_many("uncentered", target, delta_tv, [rng], delta_mu=delta_mu).report(0)
