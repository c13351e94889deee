"""The benchmark's workloads: inputs made from the seed, and the operations
that drive the program through its public entry points.

Every operation is one call into the program: ``smoothscore.cli.main(argv)``
in-process for the CLI commands, or ``channel.binary_subchannel_experiment``,
which has no CLI command.  Only that call is timed.  Writing the run
descriptor before it, and reading and checking the output after it, are the
benchmark's own work.

A round calls every operation of its workload once, in a fixed order.  Each
workload reports every end-to-end metric, so each round also holds a small
fixed probe of the operations its own mix leaves out (channel operations on
the sampling workloads, sampler operations on ``channel-lab``).  A probe is
timed as its own operation and never enters the rate of another.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

import checks

DELTA_TV = 0.1
# Mean accuracy of the uncentered configurations.  The recentered queries
# amplify the mean error e by about sum_j c_j tau_j (~2.5e3 at kappa = 1e4),
# so a loose delta_mu leaves a whitened bias far above eta; see checks.py.
DELTA_MU = 1e-6
SUBCHANNEL_KAPPA = 16.0
SUBCHANNEL_RATE = 0.1
KNOWN_FAULT_SEED = 20260117


@dataclass
class Target:
    """The benchmark's own copy of a Gaussian target; the program sees only
    its JSON descriptor."""

    eigvals: np.ndarray
    kappa: float
    basis: np.ndarray | None
    mean: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigvals.size

    @cached_property
    def descriptor(self) -> str:
        doc = {"dim": self.dim, "kappa": self.kappa, "eigvals": self.eigvals.tolist(),
               "mean": self.mean.tolist()}
        if self.basis is not None:
            doc["basis"] = self.basis.reshape(-1).tolist()
        return json.dumps(doc)


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def draw_target(rng: np.random.Generator, d: int, kappa: float, rotated: bool,
                centered: bool = True) -> Target:
    """Spectrum holding both ends 1 and kappa, the rest log-uniform between.

    A rotated basis is the Kronecker product of two Haar factors: dense and
    exactly orthogonal, and at d = 1024 it costs milliseconds instead of the
    second a full QR takes, which would otherwise dominate set-up time.
    """
    inner = np.exp(rng.uniform(0.0, math.log(kappa), d - 2))
    eigvals = rng.permutation(np.concatenate(([1.0, kappa], inner)))
    basis = None
    if rotated:
        a = int(round(math.sqrt(d)))
        while d % a:
            a -= 1
        basis = np.kron(haar(rng, a), haar(rng, d // a))
    mean = np.zeros(d) if centered else 3.0 * rng.standard_normal(d)
    return Target(eigvals=eigvals, kappa=float(kappa), basis=basis, mean=mean)


@dataclass
class Outcome:
    """One operation's call: how much it did, how long the call took, and
    how many of its output rows passed their checks."""

    rows: int
    passed: int
    seconds: float
    work: int            # units of the operation's rate (samples, trials, points)
    detail: str = ""     # first failed check, for stderr
    data: dict = field(default_factory=dict)
    scaled: float = 0.0  # seconds at the reference host speed, set by the caller


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    body = np.array([ln.split(",") for ln in lines[1:]], dtype=object)
    return header, body.reshape(len(lines) - 1, len(header))


class Op:
    """One operation of a round: ``run`` makes the call and checks its
    output; ``absorb`` keeps what the run-wide checks need, and
    ``pooled_failures`` makes those checks once the run ends."""

    kind: str
    known_fault = False

    def absorb(self, outcome: Outcome) -> None:
        pass

    def pooled_failures(self) -> list[str]:
        return []


class SampleOp(Op):
    """``smoothscore sample`` on one target and algorithm, ``runs`` rows."""

    def __init__(self, algorithm: str, target: Target, runs: int,
                 known_fault: bool = False):
        self.kind = algorithm
        self.target = target
        self.runs = runs
        self.known_fault = known_fault
        self.delta_mu = DELTA_MU if algorithm == "uncentered" else 0.0
        extra = f', "delta_mu": {self.delta_mu!r}' if algorithm == "uncentered" else ""
        self._head = (f'{{"algorithm": "{algorithm}", "delta_tv": {DELTA_TV!r}{extra}, '
                      f'"runs": {runs}, "seed": ')
        self._tail = ', "target": ' + target.descriptor + "}"
        self.label = (f"{algorithm} d={target.dim} kappa={target.kappa:g} "
                      f"{'rotated' if target.basis is not None else 'diagonal'}")
        # Pooled over the run for the statistical checks.
        self.whitened: list[np.ndarray] = []
        self.q: list[int] = []
        self.bits: list[int] = []

    def run(self, ctx, seed: int) -> Outcome:
        cfg = os.path.join(ctx.workdir, "run.json")
        out = os.path.join(ctx.workdir, "sample.csv")
        with open(cfg, "w") as fh:
            fh.write(self._head + str(seed) + self._tail)
        if os.path.exists(out):
            os.remove(out)
        t0 = perf_counter()
        code = ctx.cli.main(["sample", "--config", cfg, "--output", out])
        seconds = perf_counter() - t0
        if code != 0 or not os.path.exists(out):
            return Outcome(self.runs, 0, seconds, 0, f"{self.label}: exit code {code}")
        outcome = self._check(out, seed, seconds)
        outcome.data["csv_bytes"] = os.path.getsize(out)
        return outcome

    def _check(self, path: str, seed: int, seconds: float) -> Outcome:
        t, d = self.target, self.target.dim
        header, body = _read_csv(path)
        if body.shape[0] != self.runs or header[1:d + 1] != [f"y{i}" for i in range(d)]:
            return Outcome(self.runs, 0, seconds, 0, f"{self.label}: malformed table")
        y = body[:, 1:d + 1].astype(np.float64)
        q = body[:, d + 1].astype(np.int64)
        bits = body[:, d + 2].astype(np.int64)
        cert = body[:, d + 4].astype(np.float64)
        ok = (cert <= DELTA_TV) & (q >= 1)
        if self.kind in ("exact", "uncentered"):
            z = checks.regenerate_z(seed, self.runs, d)
            ok &= checks.check_one_point(y, z, t.eigvals, t.kappa, t.basis, t.mean,
                                         DELTA_TV, self.delta_mu)
        else:
            ok &= checks.check_magnitude(y, t.eigvals, t.basis, t.mean)
        if self.kind != "quantized":
            ok &= bits == 0
        passed = int(np.sum(ok))
        data = {"q": q[ok], "bits": bits[ok]}
        if self.kind in ("independent", "quantized"):
            data["whitened"] = checks.whiten(y[ok], t.eigvals, t.basis, t.mean)
        detail = "" if passed == self.runs else f"{self.label}: {self.runs - passed} rows failed"
        return Outcome(self.runs, passed, seconds, passed, detail, data)

    def absorb(self, outcome: Outcome) -> None:
        if "q" in outcome.data:
            self.q.extend(outcome.data["q"].tolist())
            self.bits.extend(outcome.data["bits"].tolist())
        if "whitened" in outcome.data:
            self.whitened.append(outcome.data["whitened"])

    def pooled_failures(self) -> list[str]:
        """Statistical and consistency checks over every row of the run."""
        if self.known_fault:
            return []
        t, d = self.target, self.target.dim
        failures = []
        if self.kind == "quantized" and self.q:
            same, per = checks.check_bit_depth(self.q, self.bits, d)
            if not same:
                failures.append(f"{self.label}: Q/(d q) is not one whole B >= 1")
            dev, quant = checks.quantized_band(t.eigvals, t.kappa, DELTA_TV, self.q[0], per)
        elif self.kind == "independent":
            dev, quant = checks.independent_band(d, t.kappa, DELTA_TV), 0.0
        else:
            return failures
        w = np.concatenate(self.whitened) if self.whitened else np.empty((0, d))
        if w.shape[0] >= 2 and not checks.check_whitened_variance(w, dev, quant, tests=d):
            failures.append(f"{self.label}: whitened variance outside the certified band")
        return failures


class ChannelExpOp(Op):
    """``smoothscore channel-exp``: fresh codebook per trial (``coding``) or
    one fixed codebook (``fixed_code``)."""

    def __init__(self, d: int, r: int, kappa: float, m_code: int, trials: int,
                 fixed: bool):
        self.kind = "fixed_code" if fixed else "coding"
        self.args = ["--d", str(d), "--r", str(r), "--kappa", repr(kappa),
                     "--mcode", str(m_code), "--trials", str(trials)]
        if fixed:
            self.args.append("--fixed-codebook")
        self.m_code = m_code
        self.trials = trials
        self.label = f"channel-exp d={d} r={r} m={m_code}{' fixed' if fixed else ''}"

    def run(self, ctx, seed: int) -> Outcome:
        out = os.path.join(ctx.workdir, "trials.csv")
        summary = os.path.join(ctx.workdir, "summary.json")
        t0 = perf_counter()
        code = ctx.cli.main(["channel-exp", *self.args, "--seed", str(seed),
                             "--output", out, "--summary", summary])
        seconds = perf_counter() - t0
        if code != 0:
            return Outcome(self.trials, 0, seconds, 0, f"{self.label}: exit code {code}")
        _, body = _read_csv(out)
        with open(summary) as fh:
            doc = json.load(fh)
        msg = body[:, 1].astype(np.int64)
        dec = body[:, 2].astype(np.int64)
        ok = ((msg >= 0) & (msg < self.m_code) & (dec >= 0) & (dec < self.m_code)
              & ((body[:, 3] == "true") == (msg == dec)))
        errors = int(np.sum(msg != dec))
        detail = ""
        if body.shape[0] != self.trials or doc["errors"] != errors or doc["trials"] != self.trials:
            ok[:] = False
            detail = f"{self.label}: table and summary disagree"
        elif errors / self.trials > 0.1:
            ok[:] = False
            detail = f"{self.label}: error rate {errors / self.trials} above 0.1"
        passed = int(np.sum(ok))
        return Outcome(self.trials, passed, seconds, passed, detail)


class TubeOp(Op):
    """``smoothscore tube``: empirical tube probabilities against the Beta CDF."""

    def __init__(self, d: int, r: int, thetas: tuple[float, ...], trials: int):
        self.kind = "tube"
        self.d, self.r, self.thetas, self.trials = d, r, thetas, trials
        self.label = f"tube d={d} r={r}"

    def run(self, ctx, seed: int) -> Outcome:
        out = os.path.join(ctx.workdir, "tube.csv")
        t0 = perf_counter()
        code = ctx.cli.main(["tube", "--d", str(self.d), "--r", str(self.r),
                             "--thetas", ",".join(map(repr, self.thetas)),
                             "--trials", str(self.trials), "--seed", str(seed),
                             "--output", out])
        seconds = perf_counter() - t0
        rows = len(self.thetas)
        if code != 0:
            return Outcome(rows, 0, seconds, 0, f"{self.label}: exit code {code}")
        _, body = _read_csv(out)
        table = body.astype(np.float64)
        ok = np.zeros(rows, dtype=bool)
        if table.shape[0] == rows and np.array_equal(table[:, 0], self.thetas):
            ok = checks.check_tube(self.d, self.r, table[:, 0], table[:, 1], table[:, 2],
                                   self.trials)
        passed = int(np.sum(ok))
        detail = "" if passed == rows else f"{self.label}: {rows - passed} rows failed"
        return Outcome(rows, passed, seconds, self.trials if passed == rows else 0, detail)


class SubchannelOp(Op):
    """``channel.binary_subchannel_experiment`` at one d (no CLI command)."""

    def __init__(self, d: int, trials: int, group: list, min_pooled: int):
        self.kind = "subchannel"
        self.d, self.trials, self.min_pooled = d, trials, min_pooled
        self.m_code = int(math.floor(2.0 ** (SUBCHANNEL_RATE * d)))
        self.errors = 0
        self.done = 0
        # Ops of one d-ladder share the list, for the strictly-falling check.
        self.group = group
        group.append(self)
        self.label = f"subchannel d={d}"

    def run(self, ctx, seed: int) -> Outcome:
        t0 = perf_counter()
        res = ctx.channel.binary_subchannel_experiment(
            self.d, SUBCHANNEL_KAPPA, SUBCHANNEL_RATE, self.trials,
            np.random.default_rng(seed), workers=1)
        seconds = perf_counter() - t0
        msg, dec = np.asarray(res.messages), np.asarray(res.decoded)
        ok = (msg >= 0) & (msg < self.m_code) & (dec >= 0) & (dec < self.m_code)
        errors = int(np.sum(msg != dec))
        if res.trials != self.trials or res.errors != errors or msg.size != self.trials:
            ok = np.zeros(self.trials, dtype=bool)
        passed = int(np.sum(ok))
        detail = "" if passed == self.trials else f"{self.label}: inconsistent result"
        return Outcome(self.trials, passed, seconds, passed, detail, {"errors": errors})

    def absorb(self, outcome: Outcome) -> None:
        self.errors += outcome.data.get("errors", 0)
        self.done += outcome.rows

    def pooled_failures(self) -> list[str]:
        if self is not self.group[-1] or any(op.done < op.min_pooled for op in self.group):
            return []
        if checks.check_strictly_falling([op.errors for op in self.group],
                                         [op.done for op in self.group]):
            return []
        rates = [f"d={op.d}: {op.errors}/{op.done}" for op in self.group]
        return ["subchannel error does not fall strictly in d: " + ", ".join(rates)]


# Pooled trials the strictly-falling check needs at d = 16, 32, 64: error
# rates there are about 0.026, 0.006 and < 1e-4, so these counts separate
# neighbours by more than 4.5 standard errors where the check asks for 3.
SUBCHANNEL_POWER = {16: 3000, 32: 10000, 64: 2000}


def channel_ops(coding_trials: int, fixed_trials: int, tube_trials: int,
                subchannel_share: int) -> list:
    """The channel lab: the criterion-9 point with a fresh codebook per trial,
    the same point with one fixed m = 1024 codebook, the tube law at
    (d=64, r=8), and the binary-variance subchannel at d = 16, 32, 64 with
    1/``subchannel_share`` of ``SUBCHANNEL_POWER`` trials per call.  The
    strictly-falling check runs once the pooled trials reach that power.
    """
    ladder: list = []
    return [
        ChannelExpOp(32, 3, 1e4, 64, coding_trials, fixed=False),
        ChannelExpOp(32, 3, 1e4, 1024, fixed_trials, fixed=True),
        TubeOp(64, 8, (0.88, 0.9, 0.92, 0.94, 0.97), tube_trials),
    ] + [SubchannelOp(d, n // subchannel_share, ladder, n)
         for d, n in SUBCHANNEL_POWER.items()]


def known_fault_op() -> SampleOp:
    """Quantized sampling at d = 4, kappa = 1e100, on inputs fixed apart from
    the seed.  The quantizer's float64 level index breaks for B > 52 (here
    B = 182): every coordinate comes out at -R_clip and the rows fail the
    whitened-magnitude check, while the CLI still exits 0."""
    target = Target(eigvals=np.array([1.0, 1e33, 1e66, 1e100]), kappa=1e100,
                    basis=None, mean=np.zeros(4))
    return SampleOp("quantized", target, runs=2, known_fault=True)


def sample_small(rng: np.random.Generator) -> list:
    ops = [
        SampleOp("exact", draw_target(rng, 3, 1e2, rotated=False), 20),
        SampleOp("exact", draw_target(rng, 8, 1e4, rotated=True), 20),
        SampleOp("exact", draw_target(rng, 16, 1e8, rotated=True), 20),
        SampleOp("independent", draw_target(rng, 4, 1e2, rotated=True), 20),
        SampleOp("independent", draw_target(rng, 12, 1e8, rotated=False), 20),
        SampleOp("quantized", draw_target(rng, 3, 1e4, rotated=False), 5),
        SampleOp("quantized", draw_target(rng, 8, 1e8, rotated=True), 5),
        SampleOp("uncentered", draw_target(rng, 5, 1e4, rotated=True, centered=False), 20),
        SampleOp("uncentered", draw_target(rng, 16, 1e2, rotated=False, centered=False), 20),
        known_fault_op(),
    ]
    return ops + channel_ops(coding_trials=40, fixed_trials=200, tube_trials=20000,
                             subchannel_share=10)


def sample_large(rng: np.random.Generator) -> list:
    """Each round has two dense-basis calls (1.5-2 s each, most of the round)
    and, after each, the light operations, so that these are sampled twice
    as often across the host's speed states."""
    rotated = draw_target(rng, 1024, 1e4, rotated=True)
    shifted = draw_target(rng, 1024, 1e4, rotated=False, centered=False)
    diagonal = draw_target(rng, 1024, 1e8, rotated=False)
    ops = []
    for heavy in ("exact", "independent"):
        ops += [SampleOp("uncentered", shifted, 20), SampleOp(heavy, rotated, 20),
                SampleOp("quantized", diagonal, 4)]
        ops += channel_ops(coding_trials=40, fixed_trials=200, tube_trials=20000,
                           subchannel_share=10)
    return ops


def channel_lab(rng: np.random.Generator) -> list:
    probe = [
        SampleOp("exact", draw_target(rng, 3, 1e2, rotated=False), 10),
        SampleOp("independent", draw_target(rng, 4, 1e4, rotated=True), 10),
        SampleOp("quantized", draw_target(rng, 3, 1e4, rotated=False), 4),
        SampleOp("uncentered", draw_target(rng, 3, 1e2, rotated=False, centered=False), 10),
    ]
    return channel_ops(coding_trials=400, fixed_trials=1000, tube_trials=100000,
                       subchannel_share=1) + probe


WORKLOADS = {
    "sample-small": sample_small,
    "sample-large": sample_large,
    "channel-lab": channel_lab,
}
