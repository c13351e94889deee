"""Gaussian targets and the two smoothed-score oracle models.

A target N(mu, Sigma) is stored eigen-decomposed: ``eigvals`` holds the
spectrum of the precision matrix Lambda = Sigma^{-1} (normalized to lie in
[1, kappa]) and ``basis`` holds the shared orthonormal eigenvectors (columns).
All oracle responses are then exact per-eigendirection arithmetic.

Oracle handles own a tape recording every query, its bits and the totals
``q`` and ``Q``; a block of sampling runs shares one handle, and each run
reads its own share off the tape.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_real_array, check_count, check_real, parse_json

__all__ = [
    "GaussianTarget",
    "OracleTape",
    "ScoreOracle",
    "lambda_norm",
    "target_from_dict",
    "target_from_json",
    "target_to_json",
]

_ORTHO_TOL = 1e-10
_SYM_TOL = 1e-10
# Absorbs eigendecomposition roundoff in the [1, kappa] membership check;
# genuinely out-of-range spectra are an error, never clamped.
_SPEC_SLACK = 1e-9


@dataclass(frozen=True)
class GaussianTarget:
    """Eigen-decomposed Gaussian target with spec(Lambda) in [1, kappa].

    ``eigvals`` are the precision eigenvalues, so covariance eigenvalues
    1/eigvals lie in [1/kappa, 1] (Sigma <= I).  ``basis`` may be None,
    meaning the identity (diagonal model).
    """

    eigvals: np.ndarray
    kappa: float
    mean: np.ndarray | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        lam = np.atleast_1d(as_real_array("eigvals", self.eigvals))
        if lam.ndim != 1 or lam.size == 0:
            raise ParameterError("eigvals must be a nonempty 1-d array")
        kappa = check_real("kappa", self.kappa, 1.0, math.inf)
        if not np.all(np.isfinite(lam)):
            raise ParameterError("eigvals must be finite")
        if np.any(lam < 1.0 - _SPEC_SLACK) or np.any(lam > kappa * (1.0 + _SPEC_SLACK)):
            raise ParameterError(
                f"precision eigenvalues must lie in [1, kappa={kappa}], "
                f"got range [{lam.min()}, {lam.max()}]")
        d = lam.size
        mean = np.zeros(d) if self.mean is None else as_real_array("mean", self.mean)
        if mean.shape != (d,):
            raise ParameterError(f"mean must have shape ({d},), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ParameterError("mean must be finite")
        basis = self.basis
        if basis is not None:
            basis = as_real_array("basis", basis)
            if basis.shape != (d, d):
                raise ParameterError(f"basis must be {d}x{d}, got {basis.shape}")
            if not np.all(np.isfinite(basis)):
                raise ParameterError("basis must be finite")
            resid = np.max(np.abs(basis.T @ basis - np.eye(d)))
            if resid > _ORTHO_TOL:
                raise ParameterError(
                    f"basis is not orthogonal: max |Q^T Q - I| = {resid:.3e}")
        object.__setattr__(self, "eigvals", lam)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.eigvals.size

    @property
    def is_centered(self) -> bool:
        return not np.any(self.mean)

    @property
    def cov_eigvals(self) -> np.ndarray:
        return 1.0 / self.eigvals

    @classmethod
    def from_precision(cls, precision, kappa=None, mean=None) -> "GaussianTarget":
        """Build a target from a dense symmetric precision matrix."""
        lam, Q = _symmetric_eigh("precision", precision)
        kappa = max(float(lam.max()), 1.0) if kappa is None else kappa
        return cls(eigvals=lam, kappa=kappa, mean=mean, basis=Q)

    @classmethod
    def from_covariance(cls, covariance, kappa=None, mean=None) -> "GaussianTarget":
        """Build a target from a dense symmetric covariance matrix."""
        sig, Q = _symmetric_eigh("covariance", covariance)
        if np.any(sig <= 0):
            raise ParameterError("covariance must be positive definite")
        lam = 1.0 / sig
        kappa = max(float(lam.max()), 1.0) if kappa is None else kappa
        return cls(eigvals=lam, kappa=kappa, mean=mean, basis=Q)

    def to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis.T @ v

    def from_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis @ v


def _symmetric_eigh(name: str, matrix):
    """``np.linalg.eigh`` of a dense square symmetric matrix, else ParameterError."""
    a = as_real_array(name, matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"{name} must be a square matrix")
    if not (a.size and np.isfinite(a).all()):
        raise ParameterError(f"{name} must be a nonempty finite matrix")
    if np.max(np.abs(a - a.T)) > _SYM_TOL:
        raise ParameterError(f"{name} matrix is not symmetric")
    return np.linalg.eigh(a)


class OracleTape:
    """Columnar record of oracle traffic, one entry per query in call order:
    its noise level tau, its query point and the bits its answer sent.

    Each oracle call appends one chunk; the columns :attr:`taus`,
    :attr:`points` and :attr:`bits` join the chunks when read, and
    :attr:`queries` is a read-only view of the (tau, point) pairs.
    """

    def __init__(self):
        self._chunks: list[tuple[np.ndarray, np.ndarray, int]] = []
        self.query_count = 0
        self.bits_sent = 0

    def record(self, taus, points, bits: int = 0) -> None:
        """Append the queries (taus[i], points[i]), each sending ``bits``
        bits; both arrays share their leading shape, points add a last axis."""
        taus = as_real_array("tau", taus)
        self._chunks.append((taus, points, bits))
        self.query_count += taus.size
        self.bits_sent += bits * taus.size

    @property
    def taus(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t, _, _ in self._chunks] or [np.empty(0)])

    @property
    def points(self) -> np.ndarray:
        return np.concatenate([p.reshape(t.size, -1) for t, p, _ in self._chunks]
                              or [np.empty((0, 0))])

    @property
    def bits(self) -> np.ndarray:
        return np.concatenate([np.full(t.size, b, dtype=np.int64) for t, _, b in self._chunks]
                              or [np.empty(0, dtype=np.int64)])

    @property
    def queries(self) -> tuple:
        """(tau, point) per query, in call order."""
        return tuple(zip(self.taus, self.points))


class ScoreOracle:
    """Smoothed-score oracle handle for one target, with its own tape.

    Every query, exact or finite-bit, takes one checked path: a refused call
    records nothing, an answered one records each query it answers.

    Single-owner: a handle may move between threads but must not be shared.
    Responses are deterministic functions of (tau, y).
    """

    def __init__(self, target: GaussianTarget):
        self.target = target
        self.tape = OracleTape()
        self._cov = target.cov_eigvals

    def _query(self, taus, y, encoder=None, bits: int = 0, *, one: bool = False):
        # Checks, answers, checks the answer is finite, encodes (finite-bit
        # calls only), then records.
        # One query is a scalar tau with y of shape (d,); a batch is 1-d taus
        # with y of shape (d,), (q, d), (n, 1, d) or (n, q, d).
        taus = as_real_array("tau", taus)
        y = as_real_array("y", y)
        if taus.ndim != (0 if one else 1) or not ((taus > 0.0) & (taus < np.inf)).all():
            want = "one positive finite level" if one else "a 1-d array of positive finite levels"
            raise ParameterError(f"tau must be {want}, got {taus}")
        d, q = self.target.dim, taus.size
        if not (y.shape == (d,) if one else y.shape in ((d,), (q, d))
                or y.ndim == 3 and y.shape[1:] in ((1, d), (q, d))):
            raise ParameterError(f"y of shape {y.shape} does not fit {q} noise level(s) "
                                 f"in dimension {d}")
        if not np.isfinite(y).all():
            raise ParameterError("query points must be finite")
        if encoder is not None:
            bits = check_count("bits", bits, 0, sys.maxsize)
            if bits % d:
                raise ParameterError(f"bits must be a multiple of d={d}, got {bits}")
        # Rows are points and the basis acts on columns, hence the swaps; a
        # stacked matmul applies the basis to each run's (d, k) block with the
        # BLAS call a single run makes, so a block of runs is answered bit for
        # bit as the runs one at a time.
        t = self.target
        # Finite points far from the mean, or at tiny tau, can overflow; such
        # answers are refused below instead of warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            w = _swap(t.to_eigenbasis(_swap(y - t.mean)))
            g = _swap(t.from_eigenbasis(_swap(w / -(self._cov + taus[..., None]))))
        if not np.isfinite(g).all():
            raise ParameterError("the score at these query points overflows float64")
        lead = y.shape[:-2] + taus.shape  # run-major: run 0's q queries first
        if encoder is not None:
            kept, messages = encoder(g)
            count, width = math.prod(lead), bits // d
            if not (isinstance(messages, np.ndarray) and messages.dtype == np.uint64
                    and messages.shape == (count, d)
                    and int(messages.max(initial=0)) >> width == 0):
                raise ParameterError(f"encoder must return a ({count}, {d}) uint64 array "
                                     f"of fields below 2**{width}")
        # broadcast_to costs more than one query's arithmetic: skip it where
        # the shapes already agree, as for every one-query call.
        self.tape.record(taus if taus.shape == lead else np.broadcast_to(taus, lead),
                         y if y.shape == lead + (d,) else np.broadcast_to(y, lead + (d,)), bits)
        return g if encoder is None else (kept, messages)

    def smoothed_score(self, tau: float, y: np.ndarray) -> np.ndarray:
        """Exact query: returns -(Sigma + tau I)^{-1} (y - mu) for one
        positive finite ``tau`` and one point ``y`` of shape (d,), and
        records it."""
        return self._query(tau, y, one=True)

    def smoothed_scores(self, taus, y: np.ndarray) -> np.ndarray:
        """q exact queries answered in one call: row j is s_{tau_j}(y_j).

        ``y`` is one point of shape (d,) shared by every shift, or one point
        per shift of shape (q, d), giving (q, d) scores.  A block of n runs
        passes (n, 1, d) or (n, q, d) and gets (n, q, d).  The tape records
        the queries (tau_j, y_j) run by run in index order, exactly as one
        :meth:`smoothed_score` call per query would.
        """
        return self._query(taus, y)

    def finite_bit_query(self, taus, y: np.ndarray, encoder, bits: int):
        """Finite-bit queries in one call: the oracle computes the scores
        s_{tau_j}(y_j), ``y`` shaped as in :meth:`smoothed_scores`, and
        returns ``encoder(scores)``, a pair ``(kept, messages)``.

        ``bits`` is the declared length of one message, d * B for fields of
        B bits, and must be a nonnegative multiple of d.  Only ``messages``
        crosses the channel: a (queries, d) uint64 array, one row of d
        fields per query in the tape's order, every field below 2**B.  Its
        dtype, shape and range are checked before anything is recorded; the
        tape then records each query as ``bits`` bits.  Both are handed
        back, ``messages`` for the receiver to decode and ``kept`` for the
        caller's report.
        """
        return self._query(taus, y, encoder, bits)


def _swap(a: np.ndarray) -> np.ndarray:
    return a if a.ndim < 2 else np.swapaxes(a, -1, -2)


def lambda_norm(target: GaussianTarget, v: np.ndarray) -> float:
    """Precision-weighted norm ||v||_Lambda = sqrt(v^T Lambda v) of one vector v
    of shape (d,)."""
    v = as_real_array("v", v)
    if v.shape != (target.dim,):
        raise ParameterError(f"v must have shape ({target.dim},), got {v.shape}")
    w = target.to_eigenbasis(v)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(target.eigvals * w**2)))
    if np.isinf(norm) and np.all(np.isfinite(w)):
        # w**2 overflowed; rescaling by max |w_i| keeps smaller inputs bit for bit.
        m = float(np.max(np.abs(w)))
        norm = m * float(np.sqrt(np.sum(target.eigvals * (w / m) ** 2)))
    return norm


def target_to_json(target: GaussianTarget) -> str:
    """Serialize to the interchange descriptor (basis row-major, optional)."""
    doc = {
        "dim": target.dim,
        "kappa": target.kappa,
        "eigvals": target.eigvals.tolist(),
        "mean": target.mean.tolist(),
    }
    if target.basis is not None:
        doc["basis"] = target.basis.reshape(-1).tolist()
    return json.dumps(doc)


def target_from_json(text: str | bytes) -> GaussianTarget:
    """Parse and validate the JSON target descriptor (text, or its UTF-8
    bytes)."""
    return target_from_dict(parse_json(text, "target descriptor"))


def target_from_dict(doc) -> GaussianTarget:
    """Validate an already parsed target descriptor: the object that
    :func:`target_from_json` reads from its text."""
    try:
        d = operator.index(doc["dim"])  # an integer, not truncated
        kappa = doc["kappa"]
        eigvals = as_real_array("eigvals", doc["eigvals"])
        mean = as_real_array("mean", doc.get("mean", np.zeros(d)))
        basis = doc.get("basis")
        if basis is not None:
            basis = as_real_array("basis", basis)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed target descriptor: {exc}") from exc
    if eigvals.shape != (d,):
        raise ParameterError(f"descriptor dim={d} but {eigvals.size} eigvals given")
    if basis is not None:
        if basis.size != d * d:
            raise ParameterError("basis must hold dim*dim row-major entries")
        basis = basis.reshape(d, d)
    return GaussianTarget(eigvals=eigvals, kappa=kappa, mean=mean, basis=basis)
