"""Output checks computed apart from the program under test.

Nothing here imports ``smoothscore``.  The quadrature constants the checks
need are re-derived from the paper's formulas, the Gaussian laws from the
benchmark's own eigenvalues, basis and mean, and the statistical bounds from
scipy.  A row check returns one boolean per output row, a pooled check one
boolean for the run; ``test_checks.py`` shows that each one rejects a
deliberately perturbed output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc
from scipy.stats import chi2, norm

C0 = 12.0 / (1.0 - math.exp(-1.0))
EPS = np.finfo(np.float64).eps
# Largest whitened coordinate any valid sampler row may show: a N(0, ~1)
# coordinate exceeds 8 with probability about 1e-15.
WHITENED_MAX = 8.0
# Two-sided tail of a five-sigma deviation; split over the directions tested.
FIVE_SIGMA_TAIL = 2.0 * norm.sf(5.0)


def exact_eta(d: int, delta_tv: float) -> float:
    return delta_tv / (4.0 * math.sqrt(d))


def independent_eta(d: int, delta_tv: float) -> float:
    rd = math.sqrt(d)
    return delta_tv / (8.0 * rd * math.log(C0 * rd / delta_tv))


def quantized_eta(d: int, delta_tv: float) -> float:
    return delta_tv / (12.0 * math.sqrt(d))


def sinc_grid(eta: float, kappa: float):
    """(alphas, coeffs, h, L_h) of the paper's sinc quadrature for x^(-1/2)."""
    log_ratio = math.log(C0 / eta)
    h = math.pi**2 / log_ratio
    M = math.ceil(log_ratio / h)
    N = math.ceil((0.5 * math.log(kappa) + log_ratio) / h)
    j = np.arange(-M, N + 1, dtype=np.float64)
    return np.exp(2.0 * j * h), (2.0 * h / math.pi) * np.exp(j * h), h, 2.0 * h / math.pi**2


def regenerate_z(seed: int, runs: int, d: int) -> np.ndarray:
    """The standard normal Z of each run, by the samplers' randomness
    contract: one stream spawned per run from the run seed, Z drawn first."""
    streams = np.random.default_rng(seed).spawn(runs)
    return np.stack([s.standard_normal(d) for s in streams])


def whiten(y, eigvals, basis, mean):
    """Rows sqrt(lam_i) * (B^T (y - mu))_i, one per output row."""
    centered = np.atleast_2d(y) - mean
    coords = centered if basis is None else centered @ basis
    return np.sqrt(eigvals) * coords


def check_one_point(y, z, eigvals, kappa, basis, mean, delta_tv, delta_mu=0.0):
    """Exact and uncentered rows: each whitened coordinate must equal the
    rotated Z to relative accuracy eta = delta_tv/(4 sqrt d), up to roundoff.

    For the uncentered sampler the residual mean of the recentered queries
    adds (1 - K_i) * sqrt(lam_i) * e_i with e = mu_hat - mu, where
    K_i = sum_j c_j tau_j^2 / (1/lam_i + tau_j); the mean certificate
    ||e||_Lambda <= delta_mu bounds sqrt(lam_i)|e_i| by delta_mu.
    """
    y, z = np.atleast_2d(y), np.atleast_2d(z)
    d = eigvals.size
    eta = exact_eta(d, delta_tv)
    alphas, coeffs, _, _ = sinc_grid(eta, kappa)
    taus = 1.0 / alphas
    zr = z if basis is None else z @ basis
    w = whiten(y, eigvals, basis, mean)
    # Roundoff: each shift's tau*z + tau^2*s cancels terms of size c_j tau_j |z|,
    # and each dense rotation adds O(d eps) relative error.
    scale = np.linalg.norm(z, axis=1) + float(np.linalg.norm(mean))
    roundoff = (64.0 * (d + 16) * EPS * (1.0 + float(np.sum(coeffs * taus)))
                * np.sqrt(eigvals)[None, :] * scale[:, None])
    k = np.sum(coeffs[None, :] * taus[None, :] ** 2
               / (1.0 / eigvals[:, None] + taus[None, :]), axis=1)
    mean_term = np.abs(1.0 - k) * delta_mu
    bound = eta * np.abs(zr) + roundoff + mean_term[None, :]
    return np.all(np.abs(w - zr) <= bound, axis=1) & np.all(np.isfinite(y), axis=1)


def check_magnitude(y, eigvals, basis, mean):
    """Independent and quantized rows: every whitened coordinate is at most 8."""
    w = whiten(y, eigvals, basis, mean)
    return np.all(np.abs(w) <= WHITENED_MAX, axis=1) & np.all(np.isfinite(w), axis=1)


def independent_band(d, kappa, delta_tv):
    """Deviation |T_i - 1| <= 2 eta / L_h of the independent-query sampler's
    variance ratios that the E2 certificate allows."""
    eta = independent_eta(d, delta_tv)
    _, _, _, L_h = sinc_grid(eta, kappa)
    return 2.0 * eta / L_h


def quantized_band(eigvals, kappa, delta_tv, q, bits):
    """The dithered sampler's certified deviation and its quantization bound.

    Ideal ratios lam_i (r(lam_i)^2 + sigma^2) deviate from 1 by at most
    3 eta + eta^2, since E1 <= eta and kappa sigma^2 = eta.  The quantization
    error of a row is at most q sqrt(d) step/2 in norm, so at most
    sqrt(lam_i) q sqrt(d) step/2 along whitened direction i.
    """
    d = eigvals.size
    eta = quantized_eta(d, delta_tv)
    _, _, h, _ = sinc_grid(eta, kappa)
    r_clip = (h / math.pi) * math.sqrt(2.0 * math.log(6.0 * d * q / delta_tv))
    step = 2.0 * r_clip / (2.0**bits - 1.0)
    return 3.0 * eta + eta**2, np.sqrt(eigvals) * math.sqrt(d) * q * step / 2.0


def check_whitened_variance(w, dev, quant=0.0, tests=1):
    """Pooled whitened rows of one configuration: for every direction the rms
    must lie within the certificate's band 1 +- dev, widened by the
    quantization error bound ``quant`` and by the exact chi-square law of
    the variance estimate at a five-sigma tail split over ``tests``
    directions."""
    w = np.atleast_2d(w)
    n = w.shape[0]
    alpha = FIVE_SIGMA_TAIL / tests
    lo = math.sqrt(max(0.0, 1.0 - dev) * chi2.ppf(alpha / 2.0, n) / n)
    hi = math.sqrt((1.0 + dev) * chi2.isf(alpha / 2.0, n) / n)
    rms = np.sqrt(np.mean(w**2, axis=0))
    return bool(np.all(rms >= lo - quant) and np.all(rms <= hi + quant))


def check_bit_depth(q, bits_total, d):
    """Quantized configuration: Q/(d q) is one whole number B >= 1 on every row."""
    q = np.asarray(q, dtype=np.int64)
    bits_total = np.asarray(bits_total, dtype=np.int64)
    per = bits_total // (d * q)
    ok = (per * d * q == bits_total) & (per >= 1) & (q >= 1)
    return bool(np.all(ok) and np.all(per == per[0])), int(per[0])


def check_tube(d, r, thetas, empirical, analytic, trials):
    """Tube table rows: the analytic column is the Beta((d-r)/2, r/2) CDF at
    theta^2 to 1e-12, and the empirical column lies within five binomial
    standard errors of it."""
    thetas = np.asarray(thetas, dtype=np.float64)
    ref = betainc((d - r) / 2.0, r / 2.0, thetas**2)
    se = np.sqrt(ref * (1.0 - ref) / trials)
    return ((np.abs(np.asarray(analytic) - ref) <= 1e-12)
            & (np.abs(np.asarray(empirical) - ref) <= 5.0 * se))


def check_strictly_falling(errors, trials):
    """Subchannel error rates, in increasing d: each must exceed the next by
    more than three standard errors of their difference."""
    p = np.asarray(errors, dtype=np.float64) / np.asarray(trials, dtype=np.float64)
    se2 = p * (1.0 - p) / np.asarray(trials, dtype=np.float64)
    gaps = p[:-1] - p[1:]
    return bool(np.all(gaps > 3.0 * np.sqrt(se2[:-1] + se2[1:])))
