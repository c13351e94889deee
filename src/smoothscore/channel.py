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
of execution order, chunking or worker count.  A coding trial draws its
codebook as one (m, d, r) normal array (unless the codebook is fixed), then
the message index, G in R^r and H in R^d.  Trials run in chunks of about
``CHUNK_ENTRIES`` floats: one vectorized Gram-Schmidt orthonormalizes a
chunk's codebooks, and each output is decoded in closed form to the codeword
maximizing ||Q^T y||.  The one-code functions are one-trial calls of the
same code.  A binary-subchannel trial draws its codebook as one (m, d)
uniform array, bit 1 where an entry lies below 1/2, then the message index
and the noise in R^d; its chunks are decoded by one stacked matrix product.
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
# Cap on m * d * r, the entries of one subspace codebook (32 MiB of float64).
CODE_MAX_ENTRIES = 2**22
# Coding trials and tube points run in chunks of about this many floats.
CHUNK_ENTRIES = 2**17
# Cap on m * d, the entries of one trial's random codebook in the binary
# subchannel experiment (2**22 float64 entries, 32 MiB per trial).
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
        _check_orthonormal(np.moveaxis(b, -1, 0))

    @property
    def m_code(self) -> int:
        return self.bases.shape[0]

    def basis(self, m: int) -> np.ndarray:
        return self.bases[m]

    def covariance(self, m: int) -> np.ndarray:
        q = self.basis(m)
        p = q @ q.T
        return p + (np.eye(self.dim) - p) / self.kappa


def _code_entries(d: int, r: int, m_code: int) -> int:
    """m_code * d * r for a valid code shape, at most ``CODE_MAX_ENTRIES``."""
    if not 1 <= r <= d:
        raise ParameterError(f"need 1 <= r <= d, got r={r}, d={d}")
    if m_code < 1:
        raise ParameterError(f"m_code must be >= 1, got {m_code}")
    if m_code * d * r > CODE_MAX_ENTRIES:
        raise ParameterError(f"codebook of {m_code} x {d} x {r} entries exceeds the cap "
                             f"of {CODE_MAX_ENTRIES}; lower m_code, d or r")
    return m_code * d * r


def _orthonormalize(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt of every (d, r) matrix of the stack raw (..., d, r)
    at once.  Returns the basis columns (r, ..., d), cols[k] holding the k-th
    basis vector of every matrix, and a mask (...) of rank-deficient ones."""
    cols = np.ascontiguousarray(np.moveaxis(raw, -1, 0))
    deficient = np.zeros(raw.shape[:-2], dtype=bool)
    for j, v in enumerate(cols):
        for u in cols[:j]:
            v -= np.einsum("...d,...d->...", u, v)[..., None] * u
        norm = np.sqrt(np.einsum("...d,...d->...", v, v))
        deficient |= norm == 0.0
        v /= np.where(norm == 0.0, 1.0, norm)[..., None]
    return cols, deficient


def _check_orthonormal(cols: np.ndarray) -> None:
    """Reject unless max |Q^T Q - I| <= _ORTHO_TOL for every basis of cols."""
    gram = np.einsum("i...d,j...d->...ij", cols, cols)
    resid = np.max(np.abs(gram - np.eye(len(cols))), initial=0.0)
    if not resid <= _ORTHO_TOL:
        raise ParameterError(f"codeword bases not orthonormal: residual {resid:.3e}")


def _draw_codes(streams, m_code: int, d: int, r: int) -> np.ndarray:
    """Basis columns (r, n, m_code, d) of one codebook per stream, drawn as one
    (m_code, d, r) normal array, and drawn again while rank-deficient."""
    raw = np.empty((len(streams), m_code, d, r))
    for stream, out in zip(streams, raw):
        stream.standard_normal(out=out)
    cols, deficient = _orthonormalize(raw)
    while (redraw := np.flatnonzero(deficient.any(axis=1))).size:
        for i in redraw:
            streams[i].standard_normal(out=raw[i])
        cols[:, redraw], deficient[redraw] = _orthonormalize(raw[redraw])
    _check_orthonormal(cols)
    return cols


def _channel_outputs(cols: np.ndarray, noise: np.ndarray, kappa: float) -> np.ndarray:
    """Rows Y = Q G + kappa^{-1/2} (H - Q Q^T H) for bases cols (r, n, d) and
    noise rows (G, H) in R^(r+d); Y ~ N(0, Q Q^T + (I - Q Q^T) / kappa)."""
    g, h = noise[:, :len(cols)], noise[:, len(cols):]
    scale = 1.0 / math.sqrt(kappa)
    return np.einsum("rnd,nr->nd", cols, g - scale * np.einsum("rnd,nd->nr", cols, h)) + scale * h


def _decode(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest codeword to each row of y, ties to the smallest index, from one
    codebook cols (r, m, d) or one per row (r, n, m, d): the argmax of
    ||Q^T y||^2, as ||y - Q Q^T y||^2 = ||y||^2 - ||Q^T y||^2."""
    if cols.ndim == 3:
        r, m, d = cols.shape
        coords = (y @ cols.reshape(r * m, d).T).reshape(len(y), r, m)
        return np.argmax(np.einsum("nrm,nrm->nm", coords, coords), axis=1)
    coords = np.matmul(cols, y[:, :, None])[..., 0]
    return np.argmax(np.einsum("rnm,rnm->nm", coords, coords), axis=1)


def build_subspace_code(d: int, r: int, m_code: int,
                        rng: np.random.Generator, kappa: float = math.inf) -> SubspaceCode:
    """Draw m_code independent uniformly random rank-r subspaces.

    Each basis orthonormalizes a d x r standard Gaussian matrix, the
    rotation-invariant construction; rank-deficient draws (probability zero)
    are redrawn.  m_code * d * r may not exceed ``CODE_MAX_ENTRIES``.  With
    the default infinite kappa the codeword covariance degenerates to the
    pure projection; pass a finite kappa for channel draws.
    """
    _code_entries(d, r, m_code)
    cols = _draw_codes([np.random.default_rng(rng)], m_code, d, r)[:, 0]
    return SubspaceCode(dim=d, rank=r, kappa=float(kappa), bases=np.moveaxis(cols, 0, -1))


def channel_draw(code: SubspaceCode, m: int, rng: np.random.Generator) -> np.ndarray:
    """One channel output Y = Q G + kappa^{-1/2} (I - Q Q^T) H for message m,
    drawing G in R^r, then H in R^d."""
    if not 0 <= m < code.m_code:
        raise ParameterError(f"message index {m} out of range")
    noise = np.random.default_rng(rng).standard_normal((1, code.rank + code.dim))
    return _channel_outputs(code.basis(m).T[:, None], noise, code.kappa)[0]


def decode_nearest(code: SubspaceCode, y: np.ndarray) -> int:
    """Index of the codeword subspace minimizing ||y - Q Q^T y||, ties broken
    toward the smallest index; computed as the argmax of ||Q^T y||."""
    y = np.asarray(y, dtype=np.float64)
    if np.linalg.norm(y) == 0.0:
        raise ParameterError("cannot decode the zero vector")
    return int(_decode(np.moveaxis(code.bases, -1, 0), y[None])[0])


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


def _map_trials(chunk_fn, streams, size: int, workers: int | None) -> ExperimentResult:
    """Pool the (messages, decoded) of ``chunk_fn`` over consecutive chunks of
    at most ``size`` trial streams, run on up to ``workers`` threads."""
    chunks = [streams[i:i + size] for i in range(0, len(streams), size)]
    workers = max(1, int(workers or 1))
    if workers == 1:
        outcomes = [chunk_fn(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(chunk_fn, chunks))
    messages = np.concatenate([m for m, _ in outcomes])
    decoded = np.concatenate([g for _, g in outcomes])
    return ExperimentResult(trials=len(streams), errors=int(np.sum(messages != decoded)),
                            messages=messages, decoded=decoded)


def run_coding_experiment(d: int, r: int, kappa: float, m_code: int, trials: int,
                          rng, fresh_codebook: bool = True,
                          workers: int | None = None) -> ExperimentResult:
    """Average decoding error of the subspace code over Monte Carlo trials.

    By default every trial draws a fresh random codebook (the random-coding
    average); with ``fresh_codebook=False`` one codebook is drawn up front
    from ``rng`` and reused, for studying a single code.  Each trial's stream
    draws its codebook (if fresh), the message index, G in R^r, then H in R^d.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not kappa >= 1.0:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    entries = _code_entries(d, r, m_code)
    rng = np.random.default_rng(rng)
    fixed = None if fresh_codebook else _draw_codes([rng], m_code, d, r)[:, 0]
    streams = rng.spawn(trials)

    def chunk_trials(chunk):
        n = len(chunk)
        cols = fixed if fixed is not None else _draw_codes(chunk, m_code, d, r)
        messages = np.empty(n, dtype=np.int64)
        noise = np.empty((n, r + d))
        for i, stream in enumerate(chunk):
            messages[i] = stream.integers(m_code)
            stream.standard_normal(out=noise[i])
        sent = cols[:, messages] if fixed is not None else cols[:, np.arange(n), messages]
        return messages, _decode(cols, _channel_outputs(sent, noise, kappa))

    # A chunk holds its fresh codebooks, or its Q^T y against the fixed one.
    per_trial = entries if fixed is None else m_code * r
    return _map_trials(chunk_trials, streams, max(1, CHUNK_ENTRIES // per_trial), workers)


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


def tube_probability(d: int, r: int, thetas, trials: int, rng):
    """Empirical and analytic probability that a uniform sphere point lies
    within normalized distance theta of a fixed r-subspace: floats for one
    theta, arrays for a sequence.  All thetas count the same points, drawn in
    chunks as one :func:`subspace_distance_samples` call draws them.  The
    analytic value, the Beta((d-r)/2, r/2) CDF at theta^2 by the in-house
    continued fraction, is what the Monte Carlo side cross-checks.
    """
    thetas_1d = [float(theta) for theta in np.atleast_1d(thetas)]
    if not all(0.0 < theta < 1.0 for theta in thetas_1d) or trials < 1:
        raise ParameterError(f"need thetas in (0, 1) and trials >= 1, got {thetas}, {trials}")
    # theta**2 in Python float arithmetic, shared by the counts and the CDF.
    radii2 = [theta**2 for theta in thetas_1d]
    rng = np.random.default_rng(rng)
    counts = np.zeros(len(radii2), dtype=np.int64)
    rows = max(1, CHUNK_ENTRIES // d)
    for start in range(0, trials, rows):
        dist2 = subspace_distance_samples(d, r, min(rows, trials - start), rng)
        counts += np.count_nonzero(dist2 <= np.array(radii2)[:, None], axis=1)
    empirical = counts / trials
    analytic = np.array([betainc_reg((d - r) / 2.0, r / 2.0, x) for x in radii2])
    if np.ndim(thetas) == 0:
        return float(empirical[0]), float(analytic[0])
    return empirical, analytic


def binary_subchannel_experiment(d: int, kappa: float, rate: float, trials: int,
                                 rng, workers: int | None = None) -> ExperimentResult:
    """Random-coding error of the diagonal binary-variance product channel.

    Messages are floor(2**(rate*d)) i.i.d. fair-bit vectors b; coordinate i of
    the output is N(0, 1/kappa) when b_i = 0 and N(0, 1) when b_i = 1.
    Decoding is exact maximum likelihood via per-coordinate log-density sums,
    ties broken toward the smallest index.  Each trial's stream draws its
    codebook as one (m, d) uniform array with b = 1 below 1/2, then the
    message index, then the noise in R^d; trials run in chunks of about
    ``CHUNK_ENTRIES`` codebook entries.  Sizes with
    m * d > ``SUBCHANNEL_MAX_ENTRIES`` are rejected before any codebook is
    drawn.
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

    def chunk_trials(chunk):
        n = len(chunk)
        codebooks = np.empty((n, m_code, d))
        messages = np.empty(n, dtype=np.int64)
        noise = np.empty((n, d))
        for i, stream in enumerate(chunk):
            stream.random(out=codebooks[i])
            messages[i] = stream.integers(m_code)
            stream.standard_normal(out=noise[i])
        # Bit 1 below 1/2: uniforms are multiples of 2**-53, so exactly half.
        np.less(codebooks, 0.5, out=codebooks)
        y = noise * np.where(codebooks[np.arange(n), messages] == 1.0, 1.0, sigma0)
        # Log-likelihood advantage of bit 1 over bit 0 per coordinate.
        advantage = 0.5 * (kappa - 1.0) * y**2 - 0.5 * log_kappa
        return messages, np.argmax(np.matmul(codebooks, advantage[:, :, None])[..., 0], axis=1)

    return _map_trials(chunk_trials, streams, max(1, CHUNK_ENTRIES // (m_code * d)), workers)


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
