"""Seeded log-uniform sweeps of the public numeric functions over their
documented domains and just outside them.

Every call must either raise ParameterError or return a result that meets
the function's invariant; any warning is an error.  Each sweep also checks
that it reached both outcomes' share of the domain it means to cover.
"""

import math
import sys

import numpy as np
import pytest

from smoothscore import (ParameterError, QuantizerConfig, build_grid, converse_bound,
                         decode_vector, eval_r, quantize_vector, sampler_params)
from smoothscore.quantizer import MAX_BITS

pytestmark = pytest.mark.filterwarnings("error")

EPS = np.finfo(np.float64).eps
OUTSIDE = [0.0, -1.0, math.inf, -math.inf, math.nan]


def log_uniform(rng, lo, hi, size=None):
    """10**U(log10 lo, log10 hi)."""
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size)


REFUSED = object()


def outcome(call):
    """The call's result, or REFUSED when it raises ParameterError."""
    try:
        return call()
    except ParameterError:
        return REFUSED


@pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
def test_decoded_fields_lie_within_half_a_step_of_the_clipped_input(bits):
    # Clip radii run from subnormal to near the float64 maximum; a radius
    # whose step is subnormal is refused.  The level is found and decoded in
    # float64, which adds roundings of values up to R to the step/2 bound.
    rng = np.random.default_rng(bits)
    accepted = 0
    for radius in [*log_uniform(rng, 1e-320, 1e307, 12), 5e-324, 1.7e308]:
        cfg = outcome(lambda: QuantizerConfig(bits=bits, clip_radius=radius))
        if cfg is REFUSED:
            continue
        accepted += 1
        w = radius * rng.choice([-1.0, 1.0], 64) * log_uniform(rng, 1e-3, 1e1, 64)
        w[:4] = [0.0, radius, -radius, cfg.step / 2.0]
        fields = quantize_vector(cfg, w)
        assert fields.dtype == np.uint64 and int(fields.max()) < cfg.levels
        got = decode_vector(cfg, fields)
        clipped = np.clip(w, -radius, radius)
        assert np.all(np.abs(got - clipped) <= cfg.step / 2.0 + 2.0 * EPS * radius)
    assert accepted >= 10


def test_eval_r_is_positive_finite_and_nonincreasing():
    rng = np.random.default_rng(7)
    grids = [outcome(lambda: build_grid(eta, kappa))
             for eta, kappa in zip(log_uniform(rng, 1e-30, 0.5, 40),
                                   log_uniform(rng, 1.0, 1e300, 40))]
    grids = [g for g in grids if g is not REFUSED]
    assert len(grids) >= 20
    for g in grids:
        # The domain ends where x + alpha_max would overflow.
        top = np.nextafter(sys.float_info.max - g.alphas[-1], 0.0)
        x = np.sort(np.concatenate([log_uniform(rng, 5e-324, top, 400), [5e-324, 1.0, top]]))
        r = eval_r(g, x)
        assert np.all((r > 0.0) & np.isfinite(r)) and np.all(np.diff(r) <= 0.0)
        for bad in [*OUTSIDE, sys.float_info.max - g.alphas[-1], sys.float_info.max]:
            with pytest.raises(ParameterError):
                eval_r(g, bad)
    for eta, kappa in [(0.5, 10.0), (0.0, 10.0), (0.1, 0.5), (0.1, math.inf), (math.nan, 2.0)]:
        with pytest.raises(ParameterError):
            build_grid(eta, kappa)


@pytest.mark.parametrize("algorithm", ["exact", "independent", "quantized", "uncentered"])
def test_total_bits_is_d_times_b_times_q(algorithm):
    rng = np.random.default_rng(len(algorithm))
    accepted = 0
    dims = np.rint(log_uniform(rng, 1.0, 2.0**62, 60)).astype(np.int64).tolist()
    for d, kappa, delta in zip(dims, log_uniform(rng, 1.0, 1e300, 60),
                               log_uniform(rng, 1e-12, 1.0, 60)):
        spec = outcome(lambda: sampler_params(algorithm, d, kappa, delta))
        if spec is REFUSED:
            continue
        accepted += 1
        q, bits = spec.grid.query_budget, spec.bits or 0
        assert type(spec.total_bits(d)) is int and spec.total_bits(d) == d * bits * q
        assert (bits > 0) == (algorithm == "quantized")
    assert accepted >= 20
    for d in (0, -3, 2.5, sys.maxsize + 1):
        with pytest.raises(ParameterError):
            sampler_params(algorithm, d, 10.0, 0.1)


def test_converse_bound_is_at_most_k_prime():
    rng = np.random.default_rng(11)
    n = 4000
    k_primes = rng.choice([-1.0, 1.0], n) * log_uniform(rng, 1e-300, 1e300, n)
    deltas = np.concatenate([1.0 - log_uniform(rng, 1e-17, 1.0, n // 2),
                             log_uniform(rng, 1e-300, 1.0, n // 2)])
    epsilons = np.concatenate([log_uniform(rng, 1e-300, 1.0, n // 2),
                               1.0 - log_uniform(rng, 1e-17, 1.0, n // 2)])
    rng.shuffle(epsilons)
    counts = {"bound": 0, "vacuous": 0, "refused": 0}
    for k, delta, eps in zip(k_primes.tolist(), deltas.tolist(), epsilons.tolist()):
        bound = outcome(lambda: converse_bound(k, delta, eps))
        if bound is REFUSED:
            counts["refused"] += 1
            assert delta == 1.0  # 1 - a tiny draw rounds to 1
        elif bound is None:
            counts["vacuous"] += 1
            assert delta + eps >= 1.0
        else:
            counts["bound"] += 1
            assert math.isfinite(bound) and bound <= k
    assert min(counts["bound"], counts["vacuous"]) >= n // 10
    for args in [(math.inf, 0.1, 0.1), (1.0, 1.0, 0.0), (1.0, -0.1, 0.1), (1.0, 0.1, 1.5),
                 (1.0, 0.1, math.nan), (math.nan, 0.1, 0.1)]:
        with pytest.raises(ParameterError):
            converse_bound(*args)
