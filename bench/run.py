"""Benchmark of smoothscore: certified samples/s, channel-lab trials/s, and a
traced per-layer split.

    python3 bench/run.py --workload sample-small --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are defined in ``workloads.py``, the output checks in
``checks.py`` and the span tracing in ``tracer.py``.  Load is a closed loop
with one caller: each operation starts when the previous one has returned.
With ``--trace 0`` the run does whole rounds for ``--seconds`` and reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# Fixed before numpy loads: the CLI's trial workers stay at their default of
# one, and BLAS runs on the caller's thread, so the closed loop holds one core.
os.environ.setdefault("SMOOTHSCORE_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import KNOWN_FAULT_SEED, WORKLOADS, SampleOp  # noqa: E402

SETUPS = 3
SETUP_PROBES = 8
RATE_METRICS = {
    "exact": ("exact_samples_per_s", "samples/s"),
    "independent": ("independent_samples_per_s", "samples/s"),
    "quantized": ("quantized_samples_per_s", "samples/s"),
    "uncentered": ("uncentered_samples_per_s", "samples/s"),
    "coding": ("coding_trials_per_s", "trials/s"),
    "fixed_code": ("fixed_code_trials_per_s", "trials/s"),
    "subchannel": ("subchannel_trials_per_s", "trials/s"),
    "tube": ("tube_points_per_s", "points/s"),
}
LAYER_UNITS = {
    "quadrature.build_grid_us": "us/call",
    "quadrature.build_grid_calls_per_sample": "calls",
    "quadrature.query_budget": "queries",
    "gaussian.score_diag_us": "us/query",
    "gaussian.score_rotated_us": "us/query",
    "gaussian.finite_bit_query_self_us": "us/query",
    "gaussian.queries_per_sample": "queries",
    "gaussian.basis_bytes_per_sample": "bytes",
    "gaussian.target_from_json_s": "s/call",
    "quantizer.quantize_vector_us": "us/call",
    "quantizer.decode_vector_us": "us/call",
    "quantizer.message_bytes": "bytes/query",
    "quantizer.bits_per_query": "bits",
    "samplers.self_us": "us/sample",
    "samplers.exact_us": "us/sample",
    "samplers.independent_us": "us/sample",
    "samplers.quantized_us": "us/sample",
    "samplers.uncentered_us": "us/sample",
    "diagnostics.certificate_us": "us/call",
    "cli.self_s": "s/call",
    "cli.csv_bytes_per_row": "bytes",
    "channel.build_subspace_code_us": "us/call",
    "channel.channel_draw_us": "us/call",
    "channel.decode_nearest_us": "us/call",
    "channel.subchannel_trial_us": "us/trial",
    "channel.subspace_distance_samples_us": "us/call",
    "channel.betainc_reg_us": "us/call",
    "trace.overhead_s": "s",
}
# The layers' self times must cover at least this share of the traced calls'
# wall time; the rest is the wrappers' own entry and exit.
MIN_TRACE_COVERAGE = 0.95


class Context:
    """What an operation needs at call time.  Modules are looked up through
    here on every call, so the traced run sees the wrapped functions."""

    def __init__(self, workdir: str, modules: dict, host: "HostSpeed"):
        self.workdir = workdir
        self.cli = modules["cli"]
        self.channel = modules["channel"]
        self.modules = modules
        self.host = host


def import_program() -> dict:
    """Import the program afresh, so every set-up pays its own import."""
    for name in [n for n in sys.modules if n == "smoothscore" or n.startswith("smoothscore.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"smoothscore.{name}")
            for name in ("cli", "samplers", "gaussian", "diagnostics", "channel")}


def op_seed(seed: int, round_no: int, index: int, op) -> int:
    if op.known_fault:
        return KNOWN_FAULT_SEED
    return int(np.random.SeedSequence([seed, round_no, index]).generate_state(1)[0])


def set_up(workload: str, seed: int, workdir: str, host: HostSpeed):
    """Import, build the inputs, and make one warm-up call; returns the
    set-up time scaled to the reference host speed."""
    probes = [host.probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    modules = import_program()
    ops = WORKLOADS[workload](np.random.default_rng(seed))
    ctx = Context(workdir, modules, host)
    ops[0].run(ctx, op_seed(seed, 0, 0, ops[0]))
    elapsed = perf_counter() - t0
    probes += [host.probe() for _ in range(SETUP_PROBES)]
    return elapsed * host.scale(probes), ops, ctx


class Record:
    """Per-round, per-kind tallies of passed work and scaled call seconds,
    and the run's attempted and failed operation counts."""

    def __init__(self):
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.sample_rows = 0
        self.csv_bytes = 0
        self.call_seconds = 0.0
        self.scaled_seconds = 0.0

    def add_round(self, outcomes):
        tally: dict = {}
        for op, out in outcomes:
            self.attempted += out.rows
            self.failed += out.rows - out.passed
            self.call_seconds += out.seconds
            self.scaled_seconds += out.scaled
            if out.passed < out.rows and not op.known_fault:
                self.unexpected.append(out.detail)
            if op.kind in ("exact", "independent", "quantized", "uncentered"):
                self.sample_rows += out.rows
                self.csv_bytes += out.data.get("csv_bytes", 0)
            if op.known_fault:
                continue
            work, secs = tally.get(op.kind, (0, 0.0))
            tally[op.kind] = (work + out.work, secs + out.scaled)
        self.rounds.append(tally)


class HostSpeed:
    """Times a fixed reference computation between measured calls.

    The host this benchmark runs on is shared: its speed drifts between
    states up to 1.7x apart that last from under a second to tens of
    seconds, so raw call times of the same code scatter by 20-40% between
    runs.  The reference mixes the kinds of work the program does
    (interpreter loop, JSON number formatting and parsing, small and medium
    numpy calls).  Scaling a round's call times by REFERENCE_SECONDS over the
    median reference time measured in that round gives the times the calls
    would take at the host's reference speed.
    """

    # The reference computation's time on an uncontended host (2-core
    # x86-64 VM, Python 3.11, numpy 2.4).
    REFERENCE_SECONDS = 2.0e-3

    def __init__(self):
        self._floats = [i * 0.1234567 for i in range(1500)]
        self._matrix = np.random.default_rng(0).standard_normal((64, 64))
        self._rng = np.random.default_rng(0)

    def probe(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i
        json.loads(json.dumps(self._floats))
        v = np.ones(64)
        for _ in range(100):
            v = self._matrix @ v
            v /= np.linalg.norm(v)
        x = self._rng.standard_normal(20000)
        float(np.sum(x * x))
        return perf_counter() - t0

    def scale(self, probes) -> float:
        return self.REFERENCE_SECONDS / statistics.median(probes)


def another_fits(began: float, deadline: float, done: int) -> bool:
    """Whether one more unit of work, as long as the mean so far, ends by
    ``deadline``; the first unit always runs."""
    now = perf_counter()
    return done == 0 or now + (now - began) / done <= deadline


def run_rounds(ops, ctx, seed, record, first_round, count=None, deadline=None):
    """``count`` whole rounds, or as many as fit before ``deadline``."""
    began = perf_counter()
    done = 0
    while (done < count) if count is not None else another_fits(began, deadline, done):
        round_no = first_round + done
        outcomes = []
        probes = []
        for index, op in enumerate(ops):
            probes.append(ctx.host.probe())
            out = op.run(ctx, op_seed(seed, round_no, index, op))
            op.absorb(out)
            outcomes.append((op, out))
        probes.append(ctx.host.probe())
        scale = ctx.host.scale(probes)
        for _, out in outcomes:
            out.scaled = out.seconds * scale
        record.add_round(outcomes)
        done += 1
    return done


def interquartile_mean(values) -> float:
    """Mean of the middle half: robust to the host's slow bursts, and less
    noisy than the median over the few rounds of a long workload."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def end_to_end(record: Record, ops, setup_times) -> dict:
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for kind, (name, unit) in RATE_METRICS.items():
        rates = [t[kind][0] / t[kind][1] for t in record.rounds if kind in t and t[kind][1] > 0]
        metrics[name] = (interquartile_mean(rates) if rates else 0.0, unit)
    sample_ops = [op for op in ops if isinstance(op, SampleOp) and not op.known_fault]
    q = [v for op in sample_ops for v in op.q]
    bits = [v for op in sample_ops if op.kind == "quantized" for v in op.bits]
    metrics["queries_per_sample"] = (float(np.mean(q)) if q else 0.0, "queries")
    metrics["bits_per_sample"] = (float(np.mean(bits)) if bits else 0.0, "bits")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return metrics


def traced_run(args, ops, ctx, record: Record):
    """Untraced and traced rounds alternate, so both meet the same host
    conditions; the difference of their call times is the tracing overhead.
    Returns the per-layer metrics and whether the layers' self times account
    for the traced call time."""
    traced_record = Record()
    tracer = tracing.Tracer()
    m = ctx.modules
    began = perf_counter()
    pairs = 0
    while another_fits(began, began + args.seconds, pairs):
        run_rounds(ops, ctx, args.seed, record, 2 * pairs, count=1)
        tracing.install(tracer, m["cli"], m["samplers"], m["gaussian"],
                        m["diagnostics"], m["channel"])
        try:
            run_rounds(ops, ctx, args.seed, traced_record, 2 * pairs + 1, count=1)
        finally:
            tracer.restore()
        pairs += 1
    traced = traced_record.call_seconds
    overhead = traced_record.scaled_seconds - record.scaled_seconds
    layer = tracing.layer_metrics(tracer, traced_record.sample_rows, traced_record.csv_bytes)
    layer["trace.overhead_s"] = overhead
    covered = tracing.top_level_seconds(tracer)
    print(f"trace: {len(tracer.names)} spans; layer self times sum to {covered:.4f} s of "
          f"{traced:.4f} s traced call time; overhead {overhead:.4f} s at reference speed "
          f"over {pairs} round pairs", file=sys.stderr)
    if tracer.missing:
        print("trace: not found, left unwrapped: " + ", ".join(sorted(set(tracer.missing))),
              file=sys.stderr)
    tracer.write(HERE / "_work" / f"trace-{args.workload}.jsonl")
    record.attempted += traced_record.attempted
    record.failed += traced_record.failed
    record.unexpected += traced_record.unexpected
    metrics = {name: (value, LAYER_UNITS[name]) for name, value in layer.items()}
    return metrics, covered >= MIN_TRACE_COVERAGE * traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "smoothscore" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        setup_times = []
        host = HostSpeed()
        for _ in range(SETUPS):
            elapsed, ops, ctx = set_up(args.workload, args.seed, workdir, host)
            setup_times.append(elapsed)

        record = Record()
        if args.trace == 0:
            run_rounds(ops, ctx, args.seed, record, 0,
                       deadline=perf_counter() + args.seconds)
            metrics = end_to_end(record, ops, setup_times)
            coverage_ok = True
        else:
            metrics, coverage_ok = traced_run(args, ops, ctx, record)
        pooled = [msg for op in ops for msg in op.pooled_failures()]
        for msg in record.unexpected[:5] + pooled:
            print(f"check failed: {msg}", file=sys.stderr)
        if not coverage_ok:
            print("check failed: layer self times do not account for the traced wall time",
                  file=sys.stderr)
        correct = not record.unexpected and not pooled and coverage_ok
        result = {
            "correct": correct,
            "attempted": record.attempted,
            "failed": record.failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
