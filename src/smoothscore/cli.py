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
import orjson

from . import channel, samplers
from .errors import ParameterError, check_count, check_real, parse_json
from .gaussian import ScoreOracle, lambda_norm, target_from_dict, target_from_json
from .quadrature import build_grid, sup_error_E1, sup_error_E2
from .samplers import estimate_mean
from .streams import run_streams

__all__ = ["main"]

DEFAULT_ETAS = [10.0 ** (-5.0 + 0.5 * k) for k in range(9)]
DEFAULT_KAPPAS = [1.0, 100.0, 10000.0]
# Cap on runs * d, the output entries of one `sample` call, checked before any
# run's stream is built (each costs about 3 us and 0.8 KB).
SAMPLE_MAX_ENTRIES = 2**20
# Entries formatted by one orjson call, so the text held at once stays a few
# MB whatever the block's size; a longer row is a call of its own.
FORMAT_CHUNK_ENTRIES = 2**16


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


def _float_rows(values: np.ndarray):
    """Yield each row of the 2-d float64 array ``values`` as its entries
    joined by commas, byte for byte ``",".join(map(repr, row))``.

    orjson writes the shortest round-trip digits, in repr's layout for every
    zero and every |v| in [1e-4, 1e16), in 2-3 ms against repr's 22 ms on a
    20 x 1024 block.  It writes 0.00001 for 1e-05, 1e16 for 1e+16 and null for NaN
    and +-inf, so those fields are rewritten from the array's own values.
    Each chunk of rows, at most ``FORMAT_CHUNK_ENTRIES`` entries or one row,
    is one orjson call.
    """
    n, d = values.shape
    step = max(1, FORMAT_CHUNK_ENTRIES // max(d, 1))
    for start in range(0, n, step):
        chunk = np.ascontiguousarray(values[start:start + step], dtype=np.float64)
        text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)
        lines = text[2:-2].decode().split("],[")
        a = np.abs(chunk)
        rows, cols = np.nonzero(((a < 1e-4) & (a > 0)) | ~(a < 1e16))  # ~ takes NaN too
        fields = {}
        for i, j, v in zip(rows.tolist(), cols.tolist(), chunk[rows, cols].tolist()):
            if i not in fields:
                fields[i] = lines[i].split(",")
            fields[i][j] = repr(v)
        for i, row in fields.items():
            lines[i] = ",".join(row)
        yield from lines


def _trial_rows(messages: np.ndarray, decoded: np.ndarray):
    """Yield the rows ``trial,message,decoded,correct`` of a coding
    experiment, ``FORMAT_CHUNK_ENTRIES`` rows a text joined by newlines, as
    ``_fmt`` writes them: integers by str, flags as true/false.  orjson lays
    out ints and bools as str does, so its text needs no fix-ups."""
    for lo in range(0, len(messages), FORMAT_CHUNK_ENTRIES):
        m = messages[lo:lo + FORMAT_CHUNK_ENTRIES]
        g = decoded[lo:lo + FORMAT_CHUNK_ENTRIES]
        text = orjson.dumps(list(zip(range(lo, lo + len(m)), m.tolist(), g.tolist(),
                                     (m == g).tolist())))
        yield text[2:-2].replace(b"],[", b"\n").decode()


def _write_lines(path: str, header: list[str], lines) -> None:
    """The comment, header and ``lines`` through the file's own buffer; the
    lines before one that raises are still written."""
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


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
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
    data = _read_bytes(args.config)
    cfg = parse_json(data, "run descriptor")
    if not isinstance(cfg, dict):
        raise ParameterError(f"run descriptor must be a JSON object, got {type(cfg).__name__}")
    missing = {"target", "delta_tv", "seed"} - cfg.keys()
    if missing:
        raise ParameterError(f"run descriptor lacks keys: {sorted(missing)}")
    if isinstance(cfg["seed"], float):
        # orjson reads an integer beyond 64 bits as a float, yet a seed may be
        # any non-negative integer.  This is the one place the stdlib reader
        # remains: it re-reads the document for the seed as written, and
        # check_count decides.  Unlike orjson, json can exhaust the recursion
        # limit on a deeply nested document.
        try:
            cfg["seed"] = json.loads(data)["seed"]
        except RecursionError:
            raise ParameterError("run descriptor nests too deeply") from None
    target = target_from_dict(cfg["target"])
    runs = check_count("runs", cfg.get("runs", 1), 0, math.inf)
    if runs * target.dim > SAMPLE_MAX_ENTRIES:
        raise ParameterError(f"{runs} runs at d = {target.dim} exceed the cap of "
                             f"{SAMPLE_MAX_ENTRIES} output entries; lower runs")
    streams = run_streams(cfg["seed"], runs)
    block = samplers.sample_many(cfg.get("algorithm"), target, cfg["delta_tv"], streams,
                                 delta_mu=cfg.get("delta_mu"))
    # Written as _fmt writes them: floats by repr, flags as true/false.
    tail = f",{block.spec.certificate(target, cfg.get('delta_mu'))!r}"
    lines = (f"{run},{y},{q},{bits},{_fmt(clip)}{tail}"
             for run, (y, q, bits, clip) in enumerate(zip(
                 _float_rows(block.outputs), block.query_counts.tolist(),
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
    # The converse's domain, checked before any trial runs.
    check_real("delta_tv", args.delta_tv, 0.0, 1.0, open_high=True)
    result = channel.run_coding_experiment(
        args.d, args.r, args.kappa, args.mcode, args.trials,
        np.random.default_rng(check_count("seed", args.seed, 0, math.inf)),
        fresh_codebook=not args.fixed_codebook)
    _write_lines(args.output, ["trial", "message", "decoded", "correct"],
                 _trial_rows(result.messages, result.decoded))

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
        np.random.default_rng(check_count("seed", args.seed, 0, math.inf)))
    _write_csv(args.output, ["theta", "empirical", "analytic"],
               zip(thetas, empirical.tolist(), analytic.tolist()))
    return 0


def _cmd_mean_est(args) -> int:
    target = target_from_json(_read_bytes(args.target))
    oracle = ScoreOracle(target)
    mu_hat = estimate_mean(target, args.delta_mu, oracle=oracle)
    err = lambda_norm(target, mu_hat - target.mean)
    fields = ",".join(_fmt(v) for v in (args.delta_mu, oracle.tape.query_count, err))
    header = ["delta_mu", "q", "err_lambda"] + [f"muhat{i}" for i in range(target.dim)]
    _write_lines(args.output, header, (f"{fields},{y}" for y in _float_rows(mu_hat[None])))
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
