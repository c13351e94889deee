"""Gaussian targets and the two smoothed-score oracle models.

A target N(mu, Sigma) is stored eigen-decomposed: ``eigvals`` holds the
spectrum of the precision matrix Lambda = Sigma^{-1} (normalized to lie in
[1, kappa]) and ``basis`` holds the shared orthonormal eigenvectors (columns).
All oracle responses are then exact per-eigendirection arithmetic.

Oracle handles own a tape counting queries ``q`` and transmitted bits ``Q``;
one handle per sampling run keeps the accounting unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

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
        lam = np.atleast_1d(np.asarray(self.eigvals, dtype=np.float64))
        if lam.ndim != 1 or lam.size == 0:
            raise ParameterError("eigvals must be a nonempty 1-d array")
        kappa = float(self.kappa)
        if not (np.isfinite(kappa) and kappa >= 1.0):
            raise ParameterError(f"kappa must be finite and >= 1, got {kappa}")
        if not np.all(np.isfinite(lam)):
            raise ParameterError("eigvals must be finite")
        if np.any(lam < 1.0 - _SPEC_SLACK) or np.any(lam > kappa * (1.0 + _SPEC_SLACK)):
            raise ParameterError(
                f"precision eigenvalues must lie in [1, kappa={kappa}], "
                f"got range [{lam.min()}, {lam.max()}]")
        d = lam.size
        mean = np.zeros(d) if self.mean is None else np.asarray(self.mean, dtype=np.float64)
        if mean.shape != (d,):
            raise ParameterError(f"mean must have shape ({d},), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ParameterError("mean must be finite")
        basis = self.basis
        if basis is not None:
            basis = np.asarray(basis, dtype=np.float64)
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
        P = np.asarray(precision, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ParameterError("precision must be a square matrix")
        if np.max(np.abs(P - P.T)) > _SYM_TOL:
            raise ParameterError("precision matrix is not symmetric")
        lam, Q = np.linalg.eigh(P)
        if kappa is None:
            kappa = max(float(lam.max()), 1.0)
        return cls(eigvals=lam, kappa=float(kappa), mean=mean, basis=Q)

    @classmethod
    def from_covariance(cls, covariance, kappa=None, mean=None) -> "GaussianTarget":
        """Build a target from a dense symmetric covariance matrix."""
        S = np.asarray(covariance, dtype=np.float64)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ParameterError("covariance must be a square matrix")
        if np.max(np.abs(S - S.T)) > _SYM_TOL:
            raise ParameterError("covariance matrix is not symmetric")
        sig, Q = np.linalg.eigh(S)
        if np.any(sig <= 0):
            raise ParameterError("covariance must be positive definite")
        lam = 1.0 / sig
        if kappa is None:
            kappa = max(float(lam.max()), 1.0)
        return cls(eigvals=lam, kappa=float(kappa), mean=mean, basis=Q)

    def to_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis.T @ v

    def from_eigenbasis(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis @ v


@dataclass
class OracleTape:
    """Ordered record of oracle traffic: query points, q, and bit total Q."""

    queries: list = field(default_factory=list)   # (tau, y) in call order
    bits_sent: int = 0

    @property
    def query_count(self) -> int:
        return len(self.queries)

    def record(self, tau: float, y: np.ndarray, bits: int = 0) -> None:
        self.queries.append((tau, y))
        self.bits_sent += bits


class ScoreOracle:
    """Smoothed-score oracle handle for one target, with its own tape.

    Single-owner: a handle may move between threads but must not be shared.
    Responses are deterministic functions of (tau, y).
    """

    def __init__(self, target: GaussianTarget):
        self.target = target
        self.tape = OracleTape()
        self._cov = target.cov_eigvals
        self._plain = target.basis is None and target.is_centered

    def _score(self, tau, y: np.ndarray) -> np.ndarray:
        # tau is a scalar with y of shape (d,), or a (q, 1) column with y of
        # shape (d,) or (q, d), giving one row per shift.  Rows are points and
        # the basis acts on columns, hence the transposes (no-ops in 1-d), so
        # q shifts cost one rotation in and one dense product back.
        y = np.asarray(y, dtype=np.float64)
        if self._plain:
            return y / -(self._cov + tau)
        t = self.target
        w = t.to_eigenbasis((y - t.mean).T).T
        return t.from_eigenbasis((-w / (self._cov + tau)).T).T

    def smoothed_score(self, tau: float, y: np.ndarray) -> np.ndarray:
        """Exact query: returns -(Sigma + tau I)^{-1} (y - mu), records it."""
        if not tau > 0.0:
            raise ParameterError(f"tau must be positive, got {tau}")
        g = self._score(tau, y)
        self.tape.record(tau, y)
        return g

    def smoothed_scores(self, taus, y: np.ndarray) -> np.ndarray:
        """q exact queries answered in one call: row j is s_{tau_j}(y_j).

        ``y`` is one point of shape (d,) shared by every shift, or one point
        per shift of shape (q, d).  The tape records the q queries
        (tau_j, y_j) in index order, exactly as q calls of
        :meth:`smoothed_score` would.
        """
        taus = np.asarray(taus, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if taus.ndim != 1 or not np.all(taus > 0.0):
            raise ParameterError(f"taus must be a 1-d array of positive levels, got {taus}")
        d = self.target.dim
        if y.shape not in ((d,), (taus.size, d)):
            raise ParameterError(
                f"y must have shape ({d},) or ({taus.size}, {d}), got {y.shape}")
        g = self._score(taus[:, None], y)
        for tau, point in zip(taus, y if y.ndim == 2 else [y] * taus.size):
            self.tape.record(tau, point)
        return g

    def resolvent_transform(self, tau: float, z: np.ndarray) -> np.ndarray:
        """One query giving tau*z + tau^2*s_tau(z) = (Lambda + I/tau)^{-1} z
        for centered targets."""
        z = np.asarray(z, dtype=np.float64)
        return tau * z + tau**2 * self.smoothed_score(tau, z)

    def finite_bit_query(self, tau: float, y: np.ndarray, encoder, bits: int) -> str:
        """Finite-bit query: the oracle computes s_tau(y) but transmits only
        encoder(s_tau(y)), a '0'/'1' string of the declared length ``bits``."""
        if not tau > 0.0:
            raise ParameterError(f"tau must be positive, got {tau}")
        if bits < 0:
            raise ParameterError("bit budget must be nonnegative")
        message = encoder(self._score(tau, y))
        if len(message) != bits or (message and set(message) - {"0", "1"}):
            raise ParameterError(
                f"encoder must return a bitstring of declared length {bits}")
        self.tape.record(tau, y, bits=bits)
        return message


def lambda_norm(target: GaussianTarget, v: np.ndarray) -> float:
    """Precision-weighted norm ||v||_Lambda = sqrt(v^T Lambda v)."""
    w = target.to_eigenbasis(np.asarray(v, dtype=np.float64))
    return float(np.sqrt(np.sum(target.eigvals * w**2)))


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


def target_from_json(text: str) -> GaussianTarget:
    """Parse and validate the JSON target descriptor."""
    return target_from_dict(json.loads(text))


def target_from_dict(doc) -> GaussianTarget:
    """Validate an already parsed target descriptor: the object that
    :func:`target_from_json` reads from its text."""
    try:
        d = int(doc["dim"])
        kappa = float(doc["kappa"])
        eigvals = np.asarray(doc["eigvals"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed target descriptor: {exc}") from exc
    if eigvals.shape != (d,):
        raise ParameterError(f"descriptor dim={d} but {eigvals.size} eigvals given")
    mean = np.asarray(doc.get("mean", np.zeros(d)), dtype=np.float64)
    basis = doc.get("basis")
    if basis is not None:
        basis = np.asarray(basis, dtype=np.float64)
        if basis.size != d * d:
            raise ParameterError("basis must hold dim*dim row-major entries")
        basis = basis.reshape(d, d)
    return GaussianTarget(eigvals=eigvals, kappa=kappa, mean=mean, basis=basis)
