"""Batch command-line front end emitting CSV/JSON experiment tables.

Every run is fully determined by (subcommand, flags, seed): rerunning a
command reproduces the data rows byte for byte.  The only volatile output is
a timestamp confined to a leading '#' comment line, so files stay directly
comparable.  Exit code 0 on success, 2 on a parameter-domain error.

Worker parallelism for trial-parallel experiments is capped by the
SMOOTHSCORE_THREADS environment variable (default 1); results do not depend
on the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import channel, diagnostics, samplers
from .errors import ParameterError
from .gaussian import ScoreOracle, lambda_norm, target_from_dict, target_from_json
from .quadrature import build_grid, sup_error_E1, sup_error_E2
from .quantizer import MAX_BITS
from .samplers import estimate_mean

__all__ = ["main"]

DEFAULT_ETAS = [10.0 ** (-5.0 + 0.5 * k) for k in range(9)]
DEFAULT_KAPPAS = [1.0, 100.0, 10000.0]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_floats(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [float(tok) for tok in text.split(",")]


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("SMOOTHSCORE_THREADS", "1")))
    except ValueError:
        return 1


def _cmd_validate_quadrature(args) -> int:
    etas = _parse_floats(args.etas) if args.etas is not None else DEFAULT_ETAS
    kappas = _parse_floats(args.kappas) if args.kappas is not None else DEFAULT_KAPPAS
    rows = []
    for kappa in kappas:
        for eta in etas:
            try:
                grid = build_grid(eta, kappa)
            except ParameterError as exc:
                print(f"skipping (eta={eta}, kappa={kappa}): {exc}", file=sys.stderr)
                continue
            rows.append((eta, kappa, grid.h, grid.M, grid.N, grid.query_budget,
                         sup_error_E1(grid, args.n_points),
                         sup_error_E2(grid, args.n_points)))
    _write_csv(args.output, ["eta", "kappa", "h", "M", "N", "q", "E1", "E2"], rows)
    return 0


_SAMPLE_DISPATCH = {
    "exact": lambda target, cfg, rng: samplers.sample_exact(target, cfg["delta_tv"], rng),
    "independent": lambda target, cfg, rng: samplers.sample_independent(target, cfg["delta_tv"], rng),
    "quantized": lambda target, cfg, rng: samplers.sample_quantized(target, cfg["delta_tv"], rng),
    "uncentered": lambda target, cfg, rng: samplers.sample_uncentered(
        target, cfg["delta_tv"], cfg["delta_mu"], rng),
}


def _sample_certificate(algorithm: str, target, delta_tv: float) -> float:
    d = target.dim
    if algorithm in ("exact", "uncentered"):
        grid = build_grid(samplers.exact_accuracy(d, delta_tv), target.kappa)
        return diagnostics.tv_bound(diagnostics.law_of_alg1(target, grid))
    if algorithm == "independent":
        grid = build_grid(samplers.independent_accuracy(d, delta_tv), target.kappa)
        return diagnostics.tv_bound(diagnostics.law_of_alg2(target, grid))
    params = samplers.quantized_params(d, target.kappa, delta_tv)
    # The sampler's quantizer cannot represent B > 52: refuse before any run.
    if params.bits > MAX_BITS:
        raise ParameterError(
            f"quantized sampling needs B={params.bits} bits per coordinate; "
            f"the quantizer supports at most {MAX_BITS}")
    return diagnostics.tv_bound(
        diagnostics.law_of_alg3_ideal(target, params.grid, params.sigma2))


def _cmd_sample(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    algorithm = cfg.get("algorithm")
    if algorithm not in _SAMPLE_DISPATCH:
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    if algorithm == "uncentered" and "delta_mu" not in cfg:
        raise ParameterError("uncentered sampling requires delta_mu")
    missing = {"target", "delta_tv", "seed"} - cfg.keys()
    if missing:
        raise ParameterError(f"run descriptor lacks keys: {sorted(missing)}")
    target = target_from_dict(cfg["target"])
    runs = int(cfg.get("runs", 1))
    if runs < 0:
        raise ParameterError(f"runs must be >= 0, got {runs}")
    certificate = _sample_certificate(algorithm, target, float(cfg["delta_tv"]))

    rows = []
    if runs > 0:
        master = np.random.default_rng(int(cfg["seed"]))
        for run, stream in enumerate(master.spawn(runs)):
            report = _SAMPLE_DISPATCH[algorithm](target, cfg, stream)
            rows.append((run, *report.output, report.query_count, report.bits_total,
                         report.clip_overflow, certificate))
    header = (["run"] + [f"y{i}" for i in range(target.dim)]
              + ["q", "Q", "clip_overflow", "tv_certificate"])
    _write_csv(args.output, header, rows)
    return 0


def _cmd_scaling(args) -> int:
    kappas = _parse_floats(args.kappas)
    d = args.d
    rows = []
    for kappa in kappas:
        q_exact = build_grid(samplers.exact_accuracy(d, args.delta_tv), kappa).query_budget
        q_indep = build_grid(samplers.independent_accuracy(d, args.delta_tv), kappa).query_budget
        params = samplers.quantized_params(d, kappa, args.delta_tv)
        rows.append((kappa, d, q_exact, q_indep, params.total_bits(d),
                     params.bits, params.r_clip, params.sigma2))
    _write_csv(args.output,
               ["kappa", "d", "q_exact", "q_independent", "Q_quantized",
                "B", "R_clip", "sigma2"], rows)
    return 0


def _cmd_channel_exp(args) -> int:
    result = channel.run_coding_experiment(
        args.d, args.r, args.kappa, args.mcode, args.trials,
        np.random.default_rng(args.seed),
        fresh_codebook=not args.fixed_codebook, workers=_workers())
    rows = [(t, int(m), int(g), m == g)
            for t, (m, g) in enumerate(zip(result.messages, result.decoded))]
    _write_csv(args.output, ["trial", "message", "decoded", "correct"], rows)

    k_prime = int(math.floor(math.log2(args.mcode)))
    vacuous = args.delta_tv + result.error_rate >= 1.0
    summary = {
        "d": args.d, "r": args.r, "kappa": args.kappa, "m_code": args.mcode,
        "trials": args.trials, "errors": result.errors,
        "error_rate": result.error_rate, "stderr": result.stderr,
        "k_prime": k_prime, "delta_tv": args.delta_tv,
        "vacuous": vacuous,
        "q_lower": None if vacuous else channel.converse_bound(
            k_prime, args.delta_tv, result.error_rate),
    }
    summary_path = args.summary or args.output + ".summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_tube(args) -> int:
    thetas = _parse_floats(args.thetas)
    for theta in thetas:
        if not 0.0 < theta < 1.0:
            raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    dist2 = channel.subspace_distance_samples(
        args.d, args.r, args.trials, np.random.default_rng(args.seed))
    rows = []
    for theta in thetas:
        empirical = float(np.mean(dist2 <= theta**2))
        analytic = channel.betainc_reg((args.d - args.r) / 2.0, args.r / 2.0, theta**2)
        rows.append((theta, empirical, analytic))
    _write_csv(args.output, ["theta", "empirical", "analytic"], rows)
    return 0


def _cmd_mean_est(args) -> int:
    with open(args.target) as fh:
        target = target_from_json(fh.read())
    oracle = ScoreOracle(target)
    mu_hat = estimate_mean(target, args.delta_mu, oracle=oracle)
    err = lambda_norm(target, mu_hat - target.mean)
    row = (args.delta_mu, oracle.tape.query_count, err, *mu_hat)
    header = ["delta_mu", "q", "err_lambda"] + [f"muhat{i}" for i in range(target.dim)]
    _write_csv(args.output, header, [row])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothscore",
        description="Batch experiments for smoothed-score Gaussian sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-quadrature",
                       help="uniform-error table for the rational approximant")
    p.add_argument("--etas", default=None,
                   help="comma-separated accuracies (default: the 9-point half-decade ladder)")
    p.add_argument("--kappas", default=None,
                   help="comma-separated interval endpoints (default: 1,100,10000)")
    p.add_argument("--n-points", type=int, default=4000)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_validate_quadrature)

    p = sub.add_parser("sample", help="run a sampler from a JSON run descriptor")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("scaling", help="query/bit budgets across condition numbers")
    p.add_argument("--kappas", required=True)
    p.add_argument("--delta-tv", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("channel-exp", help="subspace-code decoding experiment")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--mcode", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fixed-codebook", action="store_true")
    p.add_argument("--delta-tv", type=float, default=0.5)
    p.add_argument("--output", required=True)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=_cmd_channel_exp)

    p = sub.add_parser("tube", help="tube-probability table: empirical vs Beta CDF")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--thetas", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_tube)

    p = sub.add_parser("mean-est", help="two-query mean estimation from a target JSON")
    p.add_argument("--target", required=True)
    p.add_argument("--delta-mu", type=float, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_mean_est)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
