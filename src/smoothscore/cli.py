"""Batch command-line front end emitting CSV/JSON experiment tables.

Every run is fully determined by (subcommand, flags, seed): rerunning a
command reproduces the data rows byte for byte.  The only volatile output is
a timestamp confined to a leading '#' comment line, so files stay directly
comparable.  Exit code 0 on success, 2 on a parameter-domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import channel, diagnostics, samplers
from .errors import ParameterError
from .gaussian import ScoreOracle, lambda_norm, target_from_dict, target_from_json
from .quadrature import build_grid, sup_error_E1, sup_error_E2
from .samplers import estimate_mean

__all__ = ["main"]

DEFAULT_ETAS = [10.0 ** (-5.0 + 0.5 * k) for k in range(9)]
DEFAULT_KAPPAS = [1.0, 100.0, 10000.0]
# Cap on runs * d, the output entries of one `sample` call, checked before any
# run's stream is built (each costs about 3 us and 0.8 KB).
SAMPLE_MAX_ENTRIES = 2**20


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _open_output(path: str):
    """``open(path, "w")``, but an existing regular file is overwritten in
    place and cut to the new length when the block ends.  Truncating a file
    to zero before rewriting it makes ext4 start its writeback at close, which
    took 110-230 us per file against 20-30 us in place, and longer while the
    disk was busy; pipes and devices are never truncated."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _write_lines(path: str, header: list[str], lines) -> None:
    with _open_output(path) as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    _write_lines(path, header, (",".join(_fmt(v) for v in row) for row in rows))


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError as exc:  # names the bad token
        raise ParameterError(f"bad number list {text!r}: {exc}") from None


def _number(key: str, value, count: bool = False):
    # A finite JSON number as a float, or with ``count`` a non-negative
    # integer; bools are neither.
    ok = not isinstance(value, bool) and isinstance(value, int if count else (int, float))
    if ok and count and value >= 0:
        return value
    if ok and not count and abs(value) <= sys.float_info.max:
        return float(value)
    raise ParameterError(
        f"{key} must be {'an integer >= 0' if count else 'a finite number'}, got {value!r}")


def _open_input(path: str, mode: str = "r"):
    try:
        return open(path, mode)
    except OSError as exc:
        raise ParameterError(f"cannot open {path}: {exc.strerror}") from None


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


def _cmd_sample(args) -> int:
    with _open_input(args.config) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"run descriptor is not JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError(f"run descriptor must be a JSON object, got {type(cfg).__name__}")
    missing = {"target", "delta_tv", "seed"} - cfg.keys()
    if missing:
        raise ParameterError(f"run descriptor lacks keys: {sorted(missing)}")
    target = target_from_dict(cfg["target"])
    runs = _number("runs", cfg.get("runs", 1), count=True)
    if runs * target.dim > SAMPLE_MAX_ENTRIES:
        raise ParameterError(f"{runs} runs at d = {target.dim} exceed the cap of "
                             f"{SAMPLE_MAX_ENTRIES} output entries; lower runs")
    streams = samplers.run_streams(_number("seed", cfg["seed"], count=True), runs)
    delta_mu = cfg.get("delta_mu")
    block = samplers.sample_many(
        cfg.get("algorithm"), target, _number("delta_tv", cfg["delta_tv"]), streams,
        delta_mu=None if delta_mu is None else _number("delta_mu", delta_mu))
    # Written as _fmt writes them: floats by repr, flags as true/false.
    tail = f",{diagnostics.tv_bound(block.spec.law(target))!r}"
    lines = (",".join([str(run), *map(repr, y), str(q), str(bits), _fmt(clip)]) + tail
             for run, (y, q, bits, clip) in enumerate(zip(
                 block.outputs.tolist(), block.query_counts.tolist(),
                 block.bits_totals.tolist(), block.clip_overflow.tolist())))
    header = (["run"] + [f"y{i}" for i in range(target.dim)]
              + ["q", "Q", "clip_overflow", "tv_certificate"])
    _write_lines(args.output, header, lines)
    return 0


def _cmd_scaling(args) -> int:
    kappas = _parse_floats(args.kappas)
    d = args.d
    rows = []
    for kappa in kappas:
        exact, indep, quant = (samplers.sampler_params(alg, d, kappa, args.delta_tv)
                               for alg in ("exact", "independent", "quantized"))
        rows.append((kappa, d, exact.grid.query_budget, indep.grid.query_budget,
                     quant.total_bits(d), quant.bits, quant.r_clip, quant.sigma2))
    _write_csv(args.output,
               ["kappa", "d", "q_exact", "q_independent", "Q_quantized",
                "B", "R_clip", "sigma2"], rows)
    return 0


def _cmd_channel_exp(args) -> int:
    if not 0.0 <= args.delta_tv < 1.0:
        raise ParameterError(f"delta_tv must lie in [0, 1), got {args.delta_tv}")
    result = channel.run_coding_experiment(
        args.d, args.r, args.kappa, args.mcode, args.trials,
        np.random.default_rng(_number("seed", args.seed, count=True)),
        fresh_codebook=not args.fixed_codebook)
    # Written as _fmt writes them: integers by str, flags as true/false.
    lines = (f"{t},{m},{g},{'true' if m == g else 'false'}"
             for t, (m, g) in enumerate(zip(result.messages.tolist(), result.decoded.tolist())))
    _write_lines(args.output, ["trial", "message", "decoded", "correct"], lines)

    k_prime = int(math.floor(math.log2(args.mcode)))
    q_lower = channel.converse_bound(k_prime, args.delta_tv, result.error_rate)
    summary = {
        "d": args.d, "r": args.r, "kappa": args.kappa, "m_code": args.mcode,
        "trials": args.trials, "errors": result.errors,
        "error_rate": result.error_rate, "stderr": result.stderr,
        "k_prime": k_prime, "delta_tv": args.delta_tv,
        "vacuous": q_lower is None, "q_lower": q_lower,
    }
    summary_path = args.summary or args.output + ".summary.json"
    with _open_output(summary_path) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_tube(args) -> int:
    thetas = _parse_floats(args.thetas)
    empirical, analytic = channel.tube_probability(
        args.d, args.r, thetas, args.trials,
        np.random.default_rng(_number("seed", args.seed, count=True)))
    _write_csv(args.output, ["theta", "empirical", "analytic"],
               zip(thetas, empirical.tolist(), analytic.tolist()))
    return 0


def _cmd_mean_est(args) -> int:
    with _open_input(args.target, "rb") as fh:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs far more than parsing; it is never mutated.
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
