"""Lower-bound laboratory: channel-synthesis converse and coding experiments.

A finite-bit sampler that is delta_tv-accurate for every covariance in the
class simulates the covariance-to-sample channel, so any code for that
channel converts simulation accuracy into a transcript-size lower bound:

    Q >= k' - log2(1 / (1 - delta_tv - eps(k'))).

The experiments here measure achievable one-shot error rates eps(k') for two
explicit code families (random low-rank subspace codes decoded by nearest
subspace, and a diagonal binary-variance product code decoded by maximum
likelihood), which instantiate the converse with measured numbers instead of
asymptotic constants.

Trial-parallel contract: every trial consumes its own child stream spawned
from the caller's generator, so error counts are reproducible and independent
of execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "ConverseInput",
    "converse_bound",
    "fixed_error_bound",
    "bit_lower_bound_table",
    "SubspaceCode",
    "build_subspace_code",
    "channel_draw",
    "decode_nearest",
    "ExperimentResult",
    "run_coding_experiment",
    "subspace_distance_samples",
    "tube_probability",
    "binary_subchannel_experiment",
    "good_event_rate",
    "betainc_reg",
]

_ORTHO_TOL = 1e-10
# Cap on m * d, the entries of one trial's random codebook in the binary
# subchannel experiment (2**22 int64 entries, 32 MiB per trial).
SUBCHANNEL_MAX_ENTRIES = 2**22


# ---------------------------------------------------------------------------
# Converse arithmetic

@dataclass(frozen=True)
class ConverseInput:
    """Inputs to the transcript lower bound: message bits, simulation accuracy,
    and the achievable channel error at that message size."""

    k_prime: float
    delta_tv: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.delta_tv < 1.0:
            raise ParameterError(f"delta_tv must lie in [0, 1), got {self.delta_tv}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")


def converse_bound(k_prime: float, delta_tv: float, epsilon: float) -> float:
    """Transcript bits needed by any delta_tv-accurate simulator, given a
    k_prime-bit code with error epsilon: k' - log2(1/(1 - delta - eps))."""
    ConverseInput(k_prime, delta_tv, epsilon)
    slack = 1.0 - delta_tv - epsilon
    if slack <= 0.0:
        raise ParameterError(
            f"vacuous regime: delta_tv + epsilon = {delta_tv + epsilon} >= 1")
    return k_prime + math.log2(slack)


def fixed_error_bound(k_prime: float, delta_tv: float) -> float:
    """Fixed-error specialization with epsilon = (1 - delta_tv)/2:
    Q >= k' - log2(2/(1 - delta_tv))."""
    return converse_bound(k_prime, delta_tv, (1.0 - delta_tv) / 2.0)


def bit_lower_bound_table(kappa_list, delta_tv: float, empirical_errors) -> list[dict]:
    """Instantiate the converse with measured errors, one row per kappa.

    ``empirical_errors`` holds one (d, k_prime, eps_hat) triple per kappa as
    measured by :func:`run_coding_experiment`.  Rows with
    delta_tv + eps_hat >= 1 are flagged vacuous, never dropped.
    """
    rows = []
    for kappa, (d, k_prime, eps_hat) in zip(kappa_list, empirical_errors, strict=True):
        vacuous = delta_tv + eps_hat >= 1.0
        rows.append({
            "d": int(d),
            "kappa": float(kappa),
            "k_prime": float(k_prime),
            "eps_hat": float(eps_hat),
            "q_lower": None if vacuous else converse_bound(k_prime, delta_tv, eps_hat),
            "vacuous": vacuous,
        })
    return rows


# ---------------------------------------------------------------------------
# Regularized incomplete beta via continued fraction (Lentz's method)

_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 500


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    # Modified Lentz evaluation of the standard continued fraction for the
    # incomplete beta; converged entries are frozen so late factors cannot
    # drift them.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
    d = 1.0 / d
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
        d = 1.0 / d
        h = np.where(done, h, h * d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
        d = 1.0 / d
        delt = d * c
        h = np.where(done, h, h * delt)
        done |= np.abs(delt - 1.0) < _CF_EPS
        if done.all():
            return h
    raise ParameterError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}")


def betainc_reg(a: float, b: float, x) -> float | np.ndarray:
    """Regularized incomplete beta I_x(a, b), absolute accuracy ~1e-14."""
    if a <= 0.0 or b <= 0.0:
        raise ParameterError("beta parameters must be positive")
    xs = np.asarray(x, dtype=np.float64)
    if np.any((xs < 0.0) | (xs > 1.0)):
        raise ParameterError("x must lie in [0, 1]")
    scalar = np.isscalar(x) or xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.empty_like(xs)

    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    interior = (xs > 0.0) & (xs < 1.0)
    out[xs == 0.0] = 0.0
    out[xs == 1.0] = 1.0
    if np.any(interior):
        xi = xs[interior]
        front = np.exp(a * np.log(xi) + b * np.log1p(-xi) - log_beta)
        direct = xi < (a + 1.0) / (a + b + 2.0)
        vals = np.empty_like(xi)
        if np.any(direct):
            vals[direct] = front[direct] * _betacf(a, b, xi[direct]) / a
        if np.any(~direct):
            vals[~direct] = 1.0 - front[~direct] * _betacf(b, a, 1.0 - xi[~direct]) / b
        out[interior] = vals
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Random low-rank subspace codes

@dataclass(frozen=True)
class SubspaceCode:
    """Codebook of rank-r subspaces of R^d, each encoding the covariance
    P_U + (1/kappa)(I - P_U).  ``bases`` stacks one orthonormal d x r basis
    per message."""

    dim: int
    rank: int
    kappa: float
    bases: np.ndarray

    def __post_init__(self):
        if not 1 <= self.rank <= self.dim:
            raise ParameterError(f"need 1 <= rank <= dim, got {self.rank}, {self.dim}")
        if not self.kappa >= 1.0:
            raise ParameterError(f"kappa must be >= 1, got {self.kappa}")
        b = self.bases
        if b.ndim != 3 or b.shape[1:] != (self.dim, self.rank):
            raise ParameterError(f"bases must stack (dim, rank) matrices, got {b.shape}")
        gram = np.einsum("mdr,mds->mrs", b, b)
        resid = np.max(np.abs(gram - np.eye(self.rank)))
        if resid > _ORTHO_TOL:
            raise ParameterError(f"codeword bases not orthonormal: residual {resid:.3e}")

    @property
    def m_code(self) -> int:
        return self.bases.shape[0]

    def basis(self, m: int) -> np.ndarray:
        return self.bases[m]

    def basis_perp(self, m: int) -> np.ndarray:
        """Orthonormal basis of the codeword's orthogonal complement."""
        full, _ = np.linalg.qr(self.bases[m], mode="complete")
        return full[:, self.rank:]

    def covariance(self, m: int) -> np.ndarray:
        q = self.basis(m)
        p = q @ q.T
        return p + (np.eye(self.dim) - p) / self.kappa


def build_subspace_code(d: int, r: int, m_code: int,
                        rng: np.random.Generator, kappa: float = math.inf) -> SubspaceCode:
    """Draw m_code independent uniformly random rank-r subspaces.

    Each basis orthonormalizes a d x r standard Gaussian matrix, the
    rotation-invariant construction; rank-deficient draws (probability zero)
    are redrawn.  Orthonormalization runs batched over the codebook via the
    Gram-matrix Cholesky factor, which for Gaussian draws with d >> r is
    well-conditioned.  With the default infinite kappa the codeword
    covariance degenerates to the pure projection; pass a finite kappa for
    channel draws.
    """
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    if m_code < 1:
        raise ParameterError(f"m_code must be >= 1, got {m_code}")
    rng = np.random.default_rng(rng)
    raw = rng.standard_normal((m_code, d, r))
    while True:
        gram = np.einsum("mdr,mds->mrs", raw, raw)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raw = rng.standard_normal((m_code, d, r))
            continue
        break
    # bases = raw @ chol^{-T}, solved batched as chol^{-1} raw^T.
    bases = np.linalg.solve(chol, np.transpose(raw, (0, 2, 1))).transpose(0, 2, 1)
    return SubspaceCode(dim=d, rank=r, kappa=float(kappa), bases=bases)


def channel_draw(code: SubspaceCode, m: int, rng: np.random.Generator) -> np.ndarray:
    """One channel output Y = Q G + kappa^{-1/2} Q_perp H for message m."""
    if not 0 <= m < code.m_code:
        raise ParameterError(f"message index {m} out of range")
    rng = np.random.default_rng(rng)
    g = rng.standard_normal(code.rank)
    h = rng.standard_normal(code.dim - code.rank)
    return code.basis(m) @ g + code.basis_perp(m) @ h / math.sqrt(code.kappa)


def decode_nearest(code: SubspaceCode, y: np.ndarray) -> int:
    """Index of the codeword subspace minimizing ||y - Q Q^T y|| / ||y||,
    ties broken toward the smallest index."""
    y = np.asarray(y, dtype=np.float64)
    norm = np.linalg.norm(y)
    if norm == 0.0:
        raise ParameterError("cannot decode the zero vector")
    coords = np.einsum("mdr,d->mr", code.bases, y)
    residual = y[None, :] - np.einsum("mdr,mr->md", code.bases, coords)
    return int(np.argmin(np.linalg.norm(residual, axis=1) / norm))


# ---------------------------------------------------------------------------
# Monte Carlo experiments

@dataclass(frozen=True)
class ExperimentResult:
    """Error accounting for a batch of decoding trials."""

    trials: int
    errors: int
    messages: np.ndarray | None = None
    decoded: np.ndarray | None = None

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def stderr(self) -> float:
        p = self.error_rate
        return math.sqrt(p * (1.0 - p) / self.trials)


def _map_trials(trial_fn, streams, workers: int | None):
    workers = max(1, int(workers or 1))
    if workers == 1:
        return [trial_fn(s) for s in streams]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial_fn, streams))


def run_coding_experiment(d: int, r: int, kappa: float, m_code: int, trials: int,
                          rng, fresh_codebook: bool = True,
                          workers: int | None = None) -> ExperimentResult:
    """Average decoding error of the subspace code over Monte Carlo trials.

    By default every trial draws a fresh random codebook (the random-coding
    average); with ``fresh_codebook=False`` one codebook is drawn up front
    and reused, for studying a single code.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not kappa >= 1.0:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    rng = np.random.default_rng(rng)
    fixed = None if fresh_codebook else build_subspace_code(d, r, m_code, rng, kappa=kappa)
    streams = rng.spawn(trials)

    def one_trial(stream):
        code = fixed if fixed is not None else build_subspace_code(
            d, r, m_code, stream, kappa=kappa)
        m = int(stream.integers(m_code))
        y = channel_draw(code, m, stream)
        return m, decode_nearest(code, y)

    outcomes = _map_trials(one_trial, streams, workers)
    messages = np.fromiter((m for m, _ in outcomes), dtype=np.int64, count=trials)
    decoded = np.fromiter((g for _, g in outcomes), dtype=np.int64, count=trials)
    return ExperimentResult(trials=trials, errors=int(np.sum(messages != decoded)),
                            messages=messages, decoded=decoded)


def subspace_distance_samples(d: int, r: int, trials: int, rng) -> np.ndarray:
    """Squared normalized distances of uniform sphere points to a fixed
    r-dimensional subspace; distributed Beta((d-r)/2, r/2)."""
    if not 1 <= r < d:
        raise ParameterError(f"need 1 <= r < d, got r={r}, d={d}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((trials, d))
    sq = g**2
    tail = np.sum(sq[:, r:], axis=1)
    return tail / np.sum(sq, axis=1)


def tube_probability(d: int, r: int, theta: float, trials: int, rng) -> tuple[float, float]:
    """Empirical and analytic probability that a uniform sphere point lies
    within normalized distance theta of a fixed r-subspace.

    The analytic value is the Beta((d-r)/2, r/2) CDF at theta^2, evaluated by
    the in-house continued fraction; the Monte Carlo side doubles as its
    cross-check.
    """
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    dist2 = subspace_distance_samples(d, r, trials, rng)
    empirical = float(np.mean(dist2 <= theta**2))
    analytic = float(betainc_reg((d - r) / 2.0, r / 2.0, theta**2))
    return empirical, analytic


def binary_subchannel_experiment(d: int, kappa: float, rate: float, trials: int,
                                 rng, workers: int | None = None) -> ExperimentResult:
    """Random-coding error of the diagonal binary-variance product channel.

    Messages are floor(2**(rate*d)) i.i.d. fair-bit vectors b; coordinate i of
    the output is N(0, 1/kappa) when b_i = 0 and N(0, 1) when b_i = 1.
    Decoding is exact maximum likelihood via per-coordinate log-density sums.
    Sizes with m * d > ``SUBCHANNEL_MAX_ENTRIES`` are rejected before any
    codebook is drawn.
    """
    if not rate > 0.0:
        raise ParameterError(f"rate must be positive, got {rate}")
    if not kappa > 1.0:
        raise ParameterError(f"kappa must exceed 1, got {kappa}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    # The min keeps 2**(rate*d) finite; any exponent that large is over the cap.
    m_code = int(math.floor(2.0 ** min(rate * d, 1023.0)))
    if m_code * d > SUBCHANNEL_MAX_ENTRIES:
        raise ParameterError(
            f"codebook of {m_code} x {d} entries exceeds the cap of "
            f"{SUBCHANNEL_MAX_ENTRIES}; lower rate or d")
    if m_code < 1:
        raise ParameterError("codebook is empty; increase rate or d")
    rng = np.random.default_rng(rng)
    streams = rng.spawn(trials)
    sigma0 = 1.0 / math.sqrt(kappa)
    log_kappa = math.log(kappa)

    def one_trial(stream):
        codebook = stream.integers(0, 2, size=(m_code, d))
        m = int(stream.integers(m_code))
        scale = np.where(codebook[m] == 1, 1.0, sigma0)
        y = stream.standard_normal(d) * scale
        # Log-likelihood advantage of bit 1 over bit 0 per coordinate.
        advantage = 0.5 * (kappa - 1.0) * y**2 - 0.5 * log_kappa
        return m, int(np.argmax(codebook @ advantage))

    outcomes = _map_trials(one_trial, streams, workers)
    messages = np.fromiter((m for m, _ in outcomes), dtype=np.int64, count=trials)
    decoded = np.fromiter((g for _, g in outcomes), dtype=np.int64, count=trials)
    return ExperimentResult(trials=trials, errors=int(np.sum(messages != decoded)),
                            messages=messages, decoded=decoded)


def good_event_rate(d: int, r: int, trials: int, rng,
                    a: float = 0.5, b: float = 2.0) -> float:
    """Measured failure rate of the decoding good event
    {||G|| >= a sqrt(r)} and {||H|| <= b sqrt(d)} for G in R^r, H in R^{d-r}."""
    if not 1 <= r < d:
        raise ParameterError(f"need 1 <= r < d, got r={r}, d={d}")
    rng = np.random.default_rng(rng)
    g2 = np.sum(rng.standard_normal((trials, r)) ** 2, axis=1)
    h2 = np.sum(rng.standard_normal((trials, d - r)) ** 2, axis=1)
    bad = (g2 < (a**2) * r) | (h2 > (b**2) * d)
    return float(np.mean(bad))
