"""Span tracing of the program's layers from outside the program.

``install`` replaces each layer's public functions, at the names through
which their callers reach them, with wrappers that record a span (name,
start, end, parent) in memory.  ``restore`` puts the originals back.  A span
name is ``<layer>.<function>``; the layer is the module under
``src/smoothscore``.  A layer's self time is its spans' durations minus the
part their child spans cover; since the program runs on one thread and spans
nest, that part is the sum of the direct children's durations.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

SAMPLERS = ("exact", "independent", "quantized", "uncentered")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: dict[int, float] = {}
        self.basis_bytes = 0.0
        self._stack = [-1]
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, value=None):
        """``fn`` recording a span per call; ``value(args, kwargs, result)``
        attaches one number to the span."""
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.starts[i] = t0
                self.ends[i] = t1
            if value is not None:
                self.values[i] = value(args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr, name, value=None, replace=None):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        inner = replace(original) if replace is not None else original
        setattr(owner, attr, self.wrap(name, inner, value) if name else inner)
        self._undo.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> np.ndarray:
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        inner = parents >= 0
        np.subtract.at(own, parents[inner], dur[inner])
        return own

    def write(self, path):
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def install(tracer: Tracer, cli, samplers, gaussian, diagnostics, channel) -> None:
    """Wrap every layer's public functions at their callers' names."""
    for owner in (samplers, cli):
        tracer.patch(owner, "build_grid", "quadrature.build_grid",
                     value=lambda a, k, out: out.query_budget)
    oracle = gaussian.ScoreOracle
    tracer.patch(oracle, "smoothed_score", "gaussian.smoothed_score",
                 value=lambda a, k, out: float(a[0].target.basis is not None))

    def with_traced_encoder(fbq):
        def call(self, tau, y, encoder, bits):
            return fbq(self, tau, y, tracer.wrap("samplers.encoder", encoder), bits)
        return call
    tracer.patch(oracle, "finite_bit_query", "gaussian.finite_bit_query",
                 value=lambda a, k, out: _arg(a, k, 4, "bits"), replace=with_traced_encoder)

    def counting_rotation(rotate):
        def call(self, v):
            if self.basis is not None:
                tracer.basis_bytes += 8.0 * self.basis.size
            return rotate(self, v)
        return call
    for attr in ("to_eigenbasis", "from_eigenbasis"):
        tracer.patch(gaussian.GaussianTarget, attr, None, replace=counting_rotation)
    tracer.patch(cli, "target_from_json", "gaussian.target_from_json")

    tracer.patch(samplers, "quantize_vector", "quantizer.quantize_vector",
                 value=lambda a, k, out: len(out[1]))
    tracer.patch(samplers, "decode_vector", "quantizer.decode_vector")

    for alg in SAMPLERS:
        tracer.patch(samplers, f"sample_{alg}", f"samplers.{alg}",
                     value=lambda a, k, out: out.query_count)
    for fn in ("quantized_params", "exact_accuracy", "independent_accuracy", "estimate_mean"):
        tracer.patch(samplers, fn, f"samplers.{fn}")

    for fn in ("law_of_alg1", "law_of_alg2", "law_of_alg3_ideal", "tv_bound"):
        tracer.patch(diagnostics, fn, f"diagnostics.{fn}")

    for fn in ("run_coding_experiment", "build_subspace_code", "channel_draw",
               "decode_nearest", "subspace_distance_samples", "betainc_reg"):
        tracer.patch(channel, fn, f"channel.{fn}")
    tracer.patch(channel, "binary_subchannel_experiment", "channel.binary_subchannel_experiment",
                 value=lambda a, k, out: out.trials)
    tracer.patch(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, samples: int, csv_bytes: int) -> dict:
    """Per-layer figures from the recorded spans, keyed by metric name."""
    names = np.asarray(tracer.names, dtype=object)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    own = tracer.self_times()
    layer = np.asarray([n.split(".", 1)[0] for n in tracer.names], dtype=object)
    vals = tracer.values

    def sel(name):
        return np.flatnonzero(names == name)

    def mean_us(name, use=None):
        idx = sel(name)
        idx = idx if use is None else idx[use(idx)]
        return float(np.mean(dur[idx]) * 1e6) if idx.size else 0.0

    def mean_value(name):
        idx = sel(name)
        return float(np.mean([vals[i] for i in idx])) if idx.size else 0.0

    def per(total, count):
        return float(total / count) if count else 0.0

    rotated = np.zeros(names.size, dtype=bool)
    for i in sel("gaussian.smoothed_score"):
        rotated[i] = vals[i] > 0.0
    sampler_spans = np.concatenate([sel(f"samplers.{a}") for a in SAMPLERS])
    certificate = np.concatenate([sel(f"diagnostics.{f}") for f in
                                  ("law_of_alg1", "law_of_alg2", "law_of_alg3_ideal", "tv_bound")])
    cli_calls = sel("cli.main").size
    subchannel = sel("channel.binary_subchannel_experiment")
    metrics = {
        "quadrature.build_grid_us": mean_us("quadrature.build_grid"),
        "quadrature.build_grid_calls_per_sample": per(sel("quadrature.build_grid").size, samples),
        "quadrature.query_budget": mean_value("quadrature.build_grid"),
        "gaussian.score_diag_us": mean_us("gaussian.smoothed_score", lambda i: ~rotated[i]),
        "gaussian.score_rotated_us": mean_us("gaussian.smoothed_score", lambda i: rotated[i]),
        "gaussian.finite_bit_query_self_us": per(
            np.sum(own[sel("gaussian.finite_bit_query")]) * 1e6, sel("gaussian.finite_bit_query").size),
        "gaussian.queries_per_sample": per(sum(vals[i] for i in sampler_spans), sampler_spans.size),
        "gaussian.basis_bytes_per_sample": per(tracer.basis_bytes, samples),
        "gaussian.target_from_json_s": mean_us("gaussian.target_from_json") / 1e6,
        "quantizer.quantize_vector_us": mean_us("quantizer.quantize_vector"),
        "quantizer.decode_vector_us": mean_us("quantizer.decode_vector"),
        "quantizer.message_bytes": mean_value("quantizer.quantize_vector"),
        "quantizer.bits_per_query": mean_value("gaussian.finite_bit_query"),
        "samplers.self_us": per(np.sum(own[layer == "samplers"]) * 1e6, samples),
        "diagnostics.certificate_us": per(np.sum(dur[certificate]) * 1e6,
                                          sel("diagnostics.tv_bound").size),
        "cli.self_s": per(np.sum(own[layer == "cli"]), cli_calls),
        "cli.csv_bytes_per_row": per(csv_bytes, samples),
        "channel.build_subspace_code_us": mean_us("channel.build_subspace_code"),
        "channel.channel_draw_us": mean_us("channel.channel_draw"),
        "channel.decode_nearest_us": mean_us("channel.decode_nearest"),
        "channel.subchannel_trial_us": per(np.sum(dur[subchannel]) * 1e6,
                                           sum(vals[i] for i in subchannel)),
        "channel.subspace_distance_samples_us": mean_us("channel.subspace_distance_samples"),
        "channel.betainc_reg_us": mean_us("channel.betainc_reg"),
    }
    for alg in SAMPLERS:
        metrics[f"samplers.{alg}_us"] = mean_us(f"samplers.{alg}")
    return metrics


def top_level_seconds(tracer: Tracer) -> float:
    """Total duration of the spans no other span contains: what the layers'
    self times add up to."""
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    return float(np.sum(dur[np.asarray(tracer.parents) < 0]))
