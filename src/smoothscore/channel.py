"""Lower-bound laboratory: channel-synthesis converse and coding experiments.

A finite-bit sampler that is delta_tv-accurate for every covariance in the
class simulates the covariance-to-sample channel, so any code for that
channel converts simulation accuracy into a transcript-size lower bound:

    Q >= k' - log2(1 / (1 - delta_tv - eps(k'))),

vacuous once delta_tv + eps >= 1, where :func:`converse_bound` returns None.
The experiments here measure achievable one-shot error rates eps(k') for two
explicit code families (random low-rank subspace codes decoded by nearest
subspace, and a diagonal binary-variance product code decoded by maximum
likelihood), which instantiate the converse with measured numbers instead of
asymptotic constants.

Randomness contract (v2): the trials of one call form blocks of
``BLOCK_TRIALS`` consecutive trials, and block b draws from the b-th child
spawned from the caller's generator.  Each block's child spawns three
grandchildren, one per kind of draw: the codebooks, the message indices and
the noise.  Every draw is made in trial order, as one array per block or in
slices of at most one chunk of about ``CHUNK_ENTRIES`` entries.  The fills
are sequential, so trial i's values depend only on the seed, i and the
problem shape: not on the trial count or the chunk size.  The blocks run in
order on the calling thread.  :func:`~.streams.spawn_tree` builds every
block's three generators in a few array operations, with the states numpy's
``spawn`` gives them, and advances the caller's spawn counter as
``rng.spawn`` does; other bit generators go through numpy's own spawn.

A fresh-codebook coding trial is drawn from its sufficient statistics, with
no codebook.  A wrong codeword is a uniform r-subspace independent of the
output y, so it scores ||Q^T y||^2 = ||y||^2 B with B ~ Beta(r/2, (d-r)/2);
the sent one scores ||G||^2 ~ chi^2_r, and ||y||^2 = ||G||^2 +
chi^2_(d-r)/kappa.  Given T = ||G||^2/||y||^2 the nearest-subspace decoder
errs with probability 1 - I_T(r/2, (d-r)/2)^(m-1), and an error decodes to
a uniform other message.  Trial i draws, interleaved per trial, its message
and one index among the m - 1 others from the message stream, chi^2_r and
chi^2_(d-r) from the noise stream, and one uniform that decides the error
from the codebook stream.  Each block makes these draws as one array per
stream; the draws of ``CHUNK_ENTRIES // (8 * BLOCK_TRIALS)`` consecutive
blocks (16384 trials) are then decided together.  The union bound
(m - 1) I_x(a, b) <= (m - 1) x^a (1 - x)^min(b-1, 0) / (a B(a, b)), with
x = 1 - T, a = (d-r)/2 and b = r/2, screens out every trial whose uniform is
at least twice it, which cannot err; one :func:`betainc_reg` call, which
gives each entry the same bits in any batch, decides the others, so the
screen changes no outcome.  A fixed codebook
is one (m, d, r) normal array, orthonormalized by one vectorized
Gram-Schmidt, drawn from the caller's generator before the blocks are
spawned; a single code is studied through
``run_coding_experiment(fresh_codebook=False)``.  Its trials draw their
messages as one array per block and their noise (G, H) in R^(r+d) in trial
order, and each output is decoded in closed form to the codeword maximizing
||Q^T y||.  A binary-subchannel trial's (m, d) codebook of fair bits is
ceil(m*d/64) uniform 64-bit words, unpacked least-significant bit first and
row-major over (m, d); the padding bits of its last word are dropped.  Its
noise lies in R^d.  Each chunk's bits are copied into one float64 buffer
made once per call and decoded by one stacked matrix product.

The tube and good-event Monte Carlo draw from the caller's generator, with
no blocks, and also through sufficient statistics: a point or trial draws
||P g||^2 ~ chi^2_r and ||P_perp g||^2 ~ chi^2_(d-r), interleaved per point,
in place of d standard normals, since a sum of k squared standard normals is
chi^2_k.  The tube law, Beta((d-r)/2, r/2), is only checked against these
draws, never used to make them.

The samplers keep one stream per run (see ``samplers.py``): the ``sample``
command's rows stay the same per seed, and the benchmark's checks rebuild Z
from that contract.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_real_array, check_count, check_real
from .streams import spawn_tree

__all__ = [
    "converse_bound",
    "fixed_error_bound",
    "bit_lower_bound_table",
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
# Coding trials and tube draws run in chunks of about this many floats.
CHUNK_ENTRIES = 2**17
# Trials per random block (contract v2).  Changing it changes every seed's
# trials, so it is part of the contract and not a memory setting.
BLOCK_TRIALS = 256
# Cap on m * d, the entries of one trial's random codebook in the binary
# subchannel experiment (2**22 float64 entries, 32 MiB per trial).
SUBCHANNEL_MAX_ENTRIES = 2**22
# Cap on the trials of one coding or subchannel call, checked before any
# stream is spawned; the result holds two int64 arrays of this many entries.
MAX_TRIALS = 2**22
# Cap on trials * d, the coordinates of the points one subspace_distance_samples
# or good_event_rate call stands for (it draws two chi-square values a point);
# the largest caller asks for 100000 points at d = 64.
DRAW_MAX_ENTRIES = 2**23
# The paper's good-event thresholds: ||G|| >= GOOD_G sqrt(r), ||H|| <= GOOD_H sqrt(d).
GOOD_G = 0.5
GOOD_H = 2.0


# ---------------------------------------------------------------------------
# Converse arithmetic

def converse_bound(k_prime: float, delta_tv: float, epsilon: float) -> float | None:
    """Transcript bits needed by any delta_tv-accurate simulator, given a
    k_prime-bit code with error epsilon: k' - log2(1/(1 - delta - eps)), or
    None when the bound is vacuous, delta_tv + epsilon >= 1.  k_prime must be
    finite, delta_tv lie in [0, 1) and the error epsilon in [0, 1]."""
    k_prime = check_real("k_prime", k_prime, -math.inf, math.inf)
    delta_tv = check_real("delta_tv", delta_tv, 0.0, 1.0, open_high=True)
    epsilon = check_real("epsilon", epsilon, 0.0, 1.0)
    if delta_tv + epsilon >= 1.0:
        return None
    return k_prime + math.log2(1.0 - delta_tv - epsilon)


def fixed_error_bound(k_prime: float, delta_tv: float) -> float | None:
    """Fixed-error specialization with epsilon = (1 - delta_tv)/2:
    Q >= k' - log2(2/(1 - delta_tv)); None only at delta_tv = 1 - 2**-53,
    where delta_tv + epsilon rounds to 1."""
    delta_tv = check_real("delta_tv", delta_tv, 0.0, 1.0, open_high=True)
    return converse_bound(k_prime, delta_tv, (1.0 - delta_tv) / 2.0)


def bit_lower_bound_table(kappa_list, delta_tv: float, empirical_errors) -> list[dict]:
    """Instantiate the converse with measured errors, one row per kappa.

    ``empirical_errors`` holds one (d, k_prime, eps_hat) triple per kappa as
    measured by :func:`run_coding_experiment`.  Rows where
    :func:`converse_bound` is vacuous are flagged, never dropped.
    """
    kappa_list, empirical_errors = list(kappa_list), list(empirical_errors)
    if len(kappa_list) != len(empirical_errors):
        raise ParameterError(f"{len(kappa_list)} kappas but {len(empirical_errors)} "
                             "measured errors")
    rows = []
    for kappa, (d, k_prime, eps_hat) in zip(kappa_list, empirical_errors):
        q_lower = converse_bound(k_prime, delta_tv, eps_hat)
        rows.append({
            "d": check_count("d", d, 1, sys.maxsize),
            "kappa": check_real("kappa", kappa, 1.0, math.inf),
            "k_prime": check_real("k_prime", k_prime, -math.inf, math.inf),
            "eps_hat": check_real("eps_hat", eps_hat, 0.0, 1.0),
            "q_lower": q_lower,
            "vacuous": q_lower is None,
        })
    return rows


# ---------------------------------------------------------------------------
# Regularized incomplete beta via continued fraction (Lentz's method)

_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 500
# Cap on a + b: the largest a + b = d/2 a caller passes, with d at most
# DRAW_MAX_ENTRIES in the tube.  Beyond it the lgamma difference log B(a, b)
# loses digits until, from about 1e11, values leave [0, 1].
BETAINC_MAX_AB = DRAW_MAX_ENTRIES / 2


def _betacf(a, b, x: np.ndarray) -> np.ndarray | None:
    # Modified Lentz evaluation of the standard continued fraction for the
    # incomplete beta, a and b scalars or one per entry of x; converged
    # entries are frozen so late factors cannot drift them.  None if some
    # entry has not converged.
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
    return None


def betainc_reg(a: float, b: float, x) -> float | np.ndarray:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, a + b <= ``BETAINC_MAX_AB``;
    absolute accuracy ~1e-14 up to a + b ~ 100, beyond which the lgamma
    difference log B(a, b) loses digits, to ~1e-8 at the cap.  Entries
    x >= (a + 1)/(a + b + 2) are 1 - I_(1-x)(b, a), run in the same Lentz
    loop as the others."""
    a = check_real("a", a, 0.0, math.inf, open_low=True)
    b = check_real("b", b, 0.0, math.inf, open_low=True)
    if not a + b <= BETAINC_MAX_AB:
        raise ParameterError(f"a + b = {a + b!r} exceeds {BETAINC_MAX_AB!r}")
    xs = as_real_array("x", x)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
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
        # A one-branch call, as every coding block is, keeps scalar parameters.
        if direct.all():
            ae, be, xe = a, b, xi
        elif not direct.any():
            ae, be, xe = b, a, 1.0 - xi
        else:
            ae, be = np.where(direct, a, b), np.where(direct, b, a)
            xe = np.where(direct, xi, 1.0 - xi)
        cf = _betacf(ae, be, xe)
        if cf is None:
            raise ParameterError("incomplete beta continued fraction failed to converge "
                                 f"for a={a}, b={b}")
        part = front * cf / ae
        out[interior] = np.where(direct, part, 1.0 - part)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Random low-rank subspace codes

def _check_subspace(d, r, proper: bool) -> tuple[int, int]:
    """(d, r) as ints with 1 <= r <= d, or 1 <= r < d when ``proper``; bools
    and non-integers are refused.  Caps on what they size are checked after."""
    d = check_count("d", d, 2 if proper else 1, sys.maxsize)
    return d, check_count("r", r, 1, d - 1 if proper else d)


def _check_code(d, r, m_code) -> tuple[int, int, int]:
    """(d, r, m_code) as ints for a valid code shape of at most
    ``CODE_MAX_ENTRIES`` entries m_code * d * r."""
    d, r = _check_subspace(d, r, proper=False)
    m_code = check_count("m_code", m_code, 1, sys.maxsize)
    if m_code * d * r > CODE_MAX_ENTRIES:
        raise ParameterError(f"codebook of {m_code} x {d} x {r} entries exceeds the cap "
                             f"of {CODE_MAX_ENTRIES}; lower m_code, d or r")
    return d, r, m_code


def _orthonormalize(raw: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt of every (d, r) matrix of the stack raw (..., d, r)
    at once.  Returns the basis columns (r, ..., d), cols[k] holding the k-th
    basis vector of every matrix; a zero column stays zero."""
    cols = np.ascontiguousarray(np.moveaxis(raw, -1, 0))
    for j, v in enumerate(cols):
        for u in cols[:j]:
            v -= np.einsum("...d,...d->...", u, v)[..., None] * u
        norm = np.sqrt(np.einsum("...d,...d->...", v, v))
        v /= np.where(norm == 0.0, 1.0, norm)[..., None]
    return cols


def _draw_code(rng, m_code: int, d: int, r: int) -> np.ndarray:
    """Basis columns (r, m_code, d) of one codebook, drawn from rng as one
    (m_code, d, r) normal array.  Every basis must pass
    max |Q^T Q - I| <= _ORTHO_TOL, so a rank-deficient draw (probability
    zero) raises ParameterError."""
    cols = _orthonormalize(rng.standard_normal((m_code, d, r)))
    gram = np.einsum("imd,jmd->mij", cols, cols)
    resid = np.max(np.abs(gram - np.eye(r)), initial=0.0)
    if not resid <= _ORTHO_TOL:
        raise ParameterError(f"codeword bases not orthonormal: residual {resid:.3e}")
    return cols


def _channel_outputs(cols: np.ndarray, noise: np.ndarray, kappa: float) -> np.ndarray:
    """Rows Y = Q G + kappa^{-1/2} (H - Q Q^T H) for bases cols (r, n, d) and
    noise rows (G, H) in R^(r+d); Y ~ N(0, Q Q^T + (I - Q Q^T) / kappa)."""
    g, h = noise[:, :len(cols)], noise[:, len(cols):]
    scale = 1.0 / math.sqrt(kappa)
    return np.einsum("rnd,nr->nd", cols, g - scale * np.einsum("rnd,nd->nr", cols, h)) + scale * h


def _decode(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest codeword of the codebook cols (r, m, d) to each row of y, ties
    to the smallest index: the argmax of ||Q^T y||^2, as
    ||y - Q Q^T y||^2 = ||y||^2 - ||Q^T y||^2."""
    r, m, d = cols.shape
    coords = (y @ cols.reshape(r * m, d).T).reshape(len(y), r, m)
    return np.argmax(np.einsum("nrm,nrm->nm", coords, coords), axis=1)


# ---------------------------------------------------------------------------
# Monte Carlo experiments

@dataclass(frozen=True)
class ExperimentResult:
    """Error accounting for a batch of decoding trials."""

    trials: int
    errors: int
    messages: np.ndarray
    decoded: np.ndarray

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def stderr(self) -> float:
        p = self.error_rate
        return math.sqrt(p * (1.0 - p) / self.trials)


def _check_trials(trials, d: int | None = None) -> int:
    """``trials`` as an int in [1, ``MAX_TRIALS``]; bools and non-integers are
    refused.  With ``d``, trials * d must not exceed ``DRAW_MAX_ENTRIES``."""
    n = check_count("trials", trials, 1, MAX_TRIALS)
    if d is not None and n * d > DRAW_MAX_ENTRIES:
        raise ParameterError(f"trials x d = {n} x {d} exceeds the cap of "
                             f"{DRAW_MAX_ENTRIES}; lower trials or d")
    return n


def _map_trials(block_fn, rng: np.random.Generator, trials: int,
                decide=lambda messages, decoded: (messages, decoded)) -> ExperimentResult:
    """Pool the (messages, decoded) of the blocks of at most ``BLOCK_TRIALS``
    consecutive trials, run in order on the calling thread.  Block b draws
    from the b-th child spawned from rng: ``block_fn`` gets its trial count
    and the child's codebook, message and noise streams, built by
    :func:`~.streams.spawn_tree` with numpy's states, and returns arrays that
    ``decide`` maps to (messages, decoded), joined over chunks of
    ``CHUNK_ENTRIES // (8 * BLOCK_TRIALS)`` blocks; by default a block's
    arrays are its outcomes."""
    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]
    blocks = (block_fn(n, *streams) for streams, n in zip(spawn_tree(rng, len(sizes), 3), sizes))
    step = max(1, CHUNK_ENTRIES // (8 * BLOCK_TRIALS))
    outcomes = [decide(*map(np.concatenate, zip(*itertools.islice(blocks, step))))
                for _ in range(0, len(sizes), step)]
    messages = np.concatenate([m for m, _ in outcomes])
    decoded = np.concatenate([g for _, g in outcomes])
    return ExperimentResult(trials=trials, errors=int(np.sum(messages != decoded)),
                            messages=messages, decoded=decoded)


def run_coding_experiment(d: int, r: int, kappa: float, m_code: int, trials: int,
                          rng, fresh_codebook: bool = True) -> ExperimentResult:
    """Average decoding error of the subspace code over Monte Carlo trials.

    By default every trial has a fresh random codebook (the random-coding
    average), drawn through its sufficient statistics; with
    ``fresh_codebook=False`` one codebook is drawn up front from ``rng`` and
    reused, for studying a single code.  Trials draw by the module's block
    contract and depend only on the seed, i and the shape; fresh trials are
    decided in chunks of ``CHUNK_ENTRIES // (8 * BLOCK_TRIALS)`` blocks, each
    by at most one incomplete-beta call on the trials a union bound leaves
    (see the module docstring), which changes no outcome.  At r = d, or
    with one codeword, every codeword scores ||y||^2, so every trial decodes
    to index 0 by the decoder's tie rule.  ``trials`` must be an integer in
    [1, ``MAX_TRIALS``], and m_code * d * r at most ``CODE_MAX_ENTRIES`` on
    both paths.  The blocks run on the calling thread.
    """
    trials = _check_trials(trials)
    kappa = check_real("kappa", kappa, 1.0, math.inf)
    d, r, m_code = _check_code(d, r, m_code)
    rng = np.random.default_rng(rng)

    def tied_trials(n, _code_rng, message_rng, _noise_rng):
        return message_rng.integers(m_code, size=n), np.zeros(n, dtype=np.int64)

    def fresh_draws(n, code_rng, message_rng, noise_rng):
        # Drawn interleaved in trial order, so trial i's values do not depend on n.
        return (message_rng.integers([m_code, m_code - 1], size=(n, 2)),
                noise_rng.chisquare([r, d - r], size=(n, 2)), code_rng.random(n))

    def fresh_decide(picks, chi2, uniform):
        messages, other = picks.T
        g2, h2 = chi2.T
        h2 /= kappa
        # A wrong codeword scores ||y||^2 B, B ~ Beta(r/2, (d-r)/2), and the
        # sent one ||y||^2 T with T = g2 / (g2 + h2); at least one of the
        # m - 1 wrong ones beats it with probability 1 - (1 - P(B > T))^(m-1),
        # with P(B > T) = I_x(a, b) at x = 1 - T.
        x = h2 / (g2 + h2)
        # Only a trial whose uniform lies below twice the union bound on that
        # probability can err; NaN bounds and u = 0 stay candidates.
        with np.errstate(divide="ignore"):  # log 0 at u = 0, x = 0 or x = 1
            log_bound = a * np.log(x) + log_scale
            if b < 1.0:
                log_bound += (b - 1.0) * np.log1p(-x)
            candidates = np.flatnonzero(~((uniform > 0.0) & (np.log(uniform) >= log_bound)))
        wrong = np.zeros(len(uniform), dtype=bool)
        if candidates.size:
            tail = betainc_reg(a, b, x[candidates])
            with np.errstate(divide="ignore"):  # tail = 1 when g2 = 0
                p_error = -np.expm1((m_code - 1) * np.log1p(-tail))
            wrong[candidates] = uniform[candidates] < p_error
        # On an error the decoded index is uniform over the other messages.
        return messages, np.where(wrong, other + (other >= messages), messages)

    def fixed_trials(n, _code_rng, message_rng, noise_rng):
        # A chunk holds its sent bases and Q^T y against the fixed codebook.
        rows = max(1, CHUNK_ENTRIES // ((m_code + d) * r))
        messages = message_rng.integers(m_code, size=n)
        decoded = np.empty(n, dtype=np.int64)
        for lo in range(0, n, rows):
            k = min(rows, n - lo)
            noise = noise_rng.standard_normal((k, r + d))
            sent = fixed[:, messages[lo:lo + k]]
            decoded[lo:lo + k] = _decode(fixed, _channel_outputs(sent, noise, kappa))
        return messages, decoded

    if r == d or m_code == 1:
        return _map_trials(tied_trials, rng, trials)
    if fresh_codebook:
        # I_x(a, b) <= x^a (1 - x)^min(b-1, 0) / (a B(a, b)), bounding the
        # integrand's (1 - t)^(b-1) by its largest value on [0, x]; the screen
        # doubles (m - 1) times that bound, a margin for the exact path's rounding.
        a, b = (d - r) / 2.0, r / 2.0
        log_scale = (math.log(2.0 * (m_code - 1)) - math.log(a)
                     - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))
        return _map_trials(fresh_draws, rng, trials, fresh_decide)
    fixed = _draw_code(rng, m_code, d, r)
    return _map_trials(fixed_trials, rng, trials)


def subspace_distance_samples(d: int, r: int, trials: int, rng) -> np.ndarray:
    """Squared normalized distances of uniform sphere points to a fixed
    r-dimensional subspace; distributed Beta((d-r)/2, r/2).  The points are
    drawn as their two chi-square statistics (see the module docstring) by one
    ``rng.chisquare([r, d - r], size=(trials, 2))`` call.  ``trials`` lies in
    [1, ``MAX_TRIALS``] and trials * d is at most ``DRAW_MAX_ENTRIES``."""
    d, r = _check_subspace(d, r, proper=True)
    trials = _check_trials(trials, d)
    rng = np.random.default_rng(rng)
    g2, h2 = rng.chisquare([r, d - r], size=(trials, 2)).T
    return h2 / (g2 + h2)


def tube_probability(d: int, r: int, thetas, trials: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Empirical and analytic probabilities that a uniform sphere point lies
    within normalized distance theta of a fixed r-subspace, one per theta of
    the 1-d sequence ``thetas``.  All thetas count the same points, drawn in
    chunks of about ``CHUNK_ENTRIES // 2`` points as one
    :func:`subspace_distance_samples` call draws them.  The analytic values,
    the Beta((d-r)/2, r/2) CDF at every theta^2 by one :func:`betainc_reg`
    call, are what the Monte Carlo side cross-checks.  A chunk holds at
    least one point and at most ``DRAW_MAX_ENTRIES // d``, so d is at most
    ``DRAW_MAX_ENTRIES``.
    """
    if as_real_array("thetas", thetas).ndim != 1:
        raise ParameterError(f"thetas must be a 1-d sequence, got {thetas!r}")
    thetas = [check_real("theta", theta, 0.0, 1.0, open_low=True, open_high=True)
              for theta in thetas]
    d, r = _check_subspace(d, r, proper=True)
    trials = _check_trials(trials)
    # theta**2 in Python float arithmetic, shared by the counts and the CDF.
    radii2 = [theta**2 for theta in thetas]
    rng = np.random.default_rng(rng)
    counts = np.zeros(len(radii2), dtype=np.int64)
    # Two chi-square values per point; each call stays within its trials * d cap.
    rows = max(1, min(CHUNK_ENTRIES // 2, DRAW_MAX_ENTRIES // d))
    for start in range(0, trials, rows):
        dist2 = subspace_distance_samples(d, r, min(rows, trials - start), rng)
        counts += np.count_nonzero(dist2 <= np.array(radii2)[:, None], axis=1)
    return counts / trials, betainc_reg((d - r) / 2.0, r / 2.0, np.array(radii2))


def binary_subchannel_experiment(d: int, kappa: float, rate: float, trials: int,
                                 rng, workers: int | None = None) -> ExperimentResult:
    """Random-coding error of the diagonal binary-variance product channel.

    Messages are floor(2**(rate*d)) i.i.d. fair-bit vectors b; coordinate i of
    the output is N(0, 1/kappa) when b_i = 0 and N(0, 1) when b_i = 1.
    Decoding is exact maximum likelihood via per-coordinate log-density sums,
    ties broken toward the smallest index.  Trials draw by the module's block
    contract: trial i's codebook, message index and noise in R^d come from
    its block's codebook, message and noise streams, and depend only on the
    seed and i.  The codebook is ceil(m*d/64) uniform 64-bit words whose bits,
    least-significant first, fill the (m, d) bits row by row; the unused bits
    of the last word are dropped.  Trials run in chunks of about
    ``CHUNK_ENTRIES`` codebook entries.  A d that is not a positive integer,
    sizes with m * d > ``SUBCHANNEL_MAX_ENTRIES``, and trial counts outside
    [1, ``MAX_TRIALS``] are rejected before any stream is spawned.  The blocks
    run on the calling thread: ``workers`` may only be None or 1, and goes
    with the next change to ``bench/workloads.py``, which passes 1.
    """
    if workers is not None:
        check_count("workers", workers, 1, 1)
    d = check_count("d", d, 1, SUBCHANNEL_MAX_ENTRIES)
    rate = check_real("rate", rate, 0.0, math.inf, open_low=True)
    kappa = check_real("kappa", kappa, 1.0, math.inf, open_low=True)
    trials = _check_trials(trials)
    # The min keeps 2**(rate*d) finite; any exponent that large is over the cap.
    m_code = int(math.floor(2.0 ** min(rate * d, 1023.0)))
    entries = m_code * d
    if entries > SUBCHANNEL_MAX_ENTRIES:
        raise ParameterError(
            f"codebook of {m_code} x {d} entries exceeds the cap of "
            f"{SUBCHANNEL_MAX_ENTRIES}; lower rate or d")
    words = -(-entries // 64)
    rng = np.random.default_rng(rng)
    # Noise scale of a coordinate whose sent bit is 0 or 1, looked up by the bit.
    scales = np.array([1.0 / math.sqrt(kappa), 1.0])
    log_kappa = math.log(kappa)
    rows = max(1, CHUNK_ENTRIES // entries)
    # One float64 copy of a chunk's codebooks, reused by every chunk of the
    # call; a chunk never spans two blocks.
    codebooks = np.empty((min(rows, BLOCK_TRIALS, trials), m_code, d))

    def block_trials(n, code_rng, message_rng, noise_rng):
        messages = message_rng.integers(m_code, size=n)
        decoded = np.empty(n, dtype=np.int64)
        for lo in range(0, n, rows):
            k = min(rows, n - lo)
            # Each trial's words, least-significant bit first ('<u8' fixes the
            # byte order), less the padding of its last word.
            raw = code_rng.integers(0, 2**64, size=(k, words), dtype=np.uint64)
            bits = np.unpackbits(raw.astype("<u8", copy=False).view(np.uint8), axis=1,
                                 count=entries, bitorder="little").reshape(k, m_code, d)
            y = noise_rng.standard_normal((k, d))
            y *= scales.take(bits[np.arange(k), messages[lo:lo + k]])
            # Log-likelihood advantage of bit 1 over bit 0 per coordinate.
            advantage = 0.5 * (kappa - 1.0) * y**2 - 0.5 * log_kappa
            np.copyto(codebooks[:k], bits)
            scores = np.matmul(codebooks[:k], advantage[:, :, None])
            decoded[lo:lo + k] = np.argmax(scores[..., 0], axis=1)
        return messages, decoded

    return _map_trials(block_trials, rng, trials)


def good_event_rate(d: int, r: int, trials: int, rng) -> float:
    """Measured failure rate of the decoding good event
    {||G|| >= GOOD_G sqrt(r)} and {||H|| <= GOOD_H sqrt(d)} for G in R^r,
    H in R^{d-r}, with the paper's constants GOOD_G = 1/2 and GOOD_H = 2.
    ||G||^2 and ||H||^2 are drawn as in :func:`subspace_distance_samples`;
    trials * d is at most ``DRAW_MAX_ENTRIES``."""
    d, r = _check_subspace(d, r, proper=True)
    trials = _check_trials(trials, d)
    rng = np.random.default_rng(rng)
    g2, h2 = rng.chisquare([r, d - r], size=(trials, 2)).T
    bad = (g2 < (GOOD_G**2) * r) | (h2 > (GOOD_H**2) * d)
    return float(np.mean(bad))
