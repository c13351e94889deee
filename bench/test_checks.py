"""The benchmark's own tests: each output check accepts the program's real
output and rejects a deliberately perturbed copy of it.

    python -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from smoothscore import GaussianTarget, samplers  # noqa: E402
from workloads import DELTA_MU, DELTA_TV, draw_target  # noqa: E402


def program_target(t):
    return GaussianTarget(eigvals=t.eigvals, kappa=t.kappa, mean=t.mean, basis=t.basis)


def cli_rows(sampler, t, seed, runs, *extra):
    """Rows as the CLI makes them: one spawned stream per run."""
    target = program_target(t)
    streams = np.random.default_rng(seed).spawn(runs)
    reports = [sampler(target, DELTA_TV, *extra, s) for s in streams]
    return np.stack([r.output for r in reports]), reports


@pytest.mark.parametrize("d, kappa, rotated", [(3, 1e2, False), (16, 1e8, True), (64, 1e4, True)])
def test_one_point_check_rejects_a_scaled_exact_sample(d, kappa, rotated):
    t = draw_target(np.random.default_rng(d), d, kappa, rotated)
    y, _ = cli_rows(samplers.sample_exact, t, 7, 20)
    z = checks.regenerate_z(7, 20, d)
    assert checks.check_one_point(y, z, t.eigvals, t.kappa, t.basis, t.mean, DELTA_TV).all()
    assert not checks.check_one_point(1.05 * y, z, t.eigvals, t.kappa, t.basis, t.mean,
                                      DELTA_TV).any()
    # A Z from another stream is not the sampler's Z.
    other = checks.regenerate_z(8, 20, d)
    assert not checks.check_one_point(y, other, t.eigvals, t.kappa, t.basis, t.mean,
                                      DELTA_TV).any()


def test_one_point_check_rejects_a_scaled_uncentered_sample():
    t = draw_target(np.random.default_rng(5), 5, 1e4, rotated=True, centered=False)
    y, _ = cli_rows(samplers.sample_uncentered, t, 3, 20, DELTA_MU)
    z = checks.regenerate_z(3, 20, 5)
    args = (t.eigvals, t.kappa, t.basis, t.mean, DELTA_TV, DELTA_MU)
    assert checks.check_one_point(y, z, *args).all()
    assert not checks.check_one_point(t.mean + 1.05 * (y - t.mean), z, *args).any()


def test_magnitude_check_rejects_a_far_coordinate_and_the_wide_index_fault():
    t = draw_target(np.random.default_rng(1), 8, 1e8, rotated=True)
    y, _ = cli_rows(samplers.sample_quantized, t, 2, 10)
    assert checks.check_magnitude(y, t.eigvals, t.basis, t.mean).all()
    far = y.copy()
    far[0] = t.basis @ (np.where(np.arange(8) == 3, 9.0, 0.0) / np.sqrt(t.eigvals))
    assert list(checks.check_magnitude(far, t.eigvals, t.basis, t.mean)) == [False] + [True] * 9
    # kappa = 1e100 asks for B = 182 bits; the float64 level index then
    # returns -R_clip in every coordinate.
    lam = np.array([1.0, 1e33, 1e66, 1e100])
    with np.errstate(invalid="ignore"):
        bad = samplers.sample_quantized(GaussianTarget(eigvals=lam, kappa=1e100), DELTA_TV,
                                        np.random.default_rng(0)).output
    assert not checks.check_magnitude(bad, lam, None, np.zeros(4)).any()


def test_variance_check_rejects_rescaled_independent_samples():
    t = draw_target(np.random.default_rng(4), 4, 1e2, rotated=True)
    y, _ = cli_rows(samplers.sample_independent, t, 9, 300)
    w = checks.whiten(y, t.eigvals, t.basis, t.mean)
    dev = checks.independent_band(4, t.kappa, DELTA_TV)
    assert checks.check_whitened_variance(w, dev, tests=4)
    assert not checks.check_whitened_variance(1.3 * w, dev, tests=4)
    assert not checks.check_whitened_variance(0.7 * w, dev, tests=4)


def test_variance_and_bit_depth_checks_on_quantized_samples():
    t = draw_target(np.random.default_rng(3), 3, 1e4, rotated=False)
    y, reports = cli_rows(samplers.sample_quantized, t, 5, 300)
    q = [r.query_count for r in reports]
    bits = [r.bits_total for r in reports]
    same, per = checks.check_bit_depth(q, bits, 3)
    assert same and per == reports[0].params["bits"]
    assert not checks.check_bit_depth(q, [bits[0] + 3] + bits[1:], 3)[0]
    assert not checks.check_bit_depth(q, [b * 2 for b in bits[:1]] + bits[1:], 3)[0]
    dev, quant = checks.quantized_band(t.eigvals, t.kappa, DELTA_TV, q[0], per)
    w = checks.whiten(y, t.eigvals, t.basis, t.mean)
    assert checks.check_whitened_variance(w, dev, quant, tests=3)
    assert not checks.check_whitened_variance(1.3 * w, dev, quant, tests=3)


def test_tube_check_rejects_a_beta_cdf_off_by_1e_minus_6():
    d, r, n = 64, 8, 100000
    thetas = np.array([0.88, 0.9, 0.94])
    g = np.random.default_rng(0).standard_normal((n, d)) ** 2
    dist2 = np.sum(g[:, r:], axis=1) / np.sum(g, axis=1)
    empirical = np.mean(dist2[:, None] <= thetas**2, axis=0)
    from smoothscore.channel import betainc_reg
    analytic = np.array([betainc_reg((d - r) / 2.0, r / 2.0, th**2) for th in thetas])
    assert checks.check_tube(d, r, thetas, empirical, analytic, n).all()
    assert not checks.check_tube(d, r, thetas, empirical, analytic + 1e-6, n).any()
    se = np.sqrt(analytic * (1 - analytic) / n)
    assert not checks.check_tube(d, r, thetas, empirical + 6 * se, analytic, n).any()


def test_falling_check_needs_three_standard_errors_between_neighbours():
    assert checks.check_strictly_falling([78, 60, 0], [3000, 10000, 2000])
    assert not checks.check_strictly_falling([78, 60, 60], [3000, 10000, 10000])
    assert not checks.check_strictly_falling([60, 78, 0], [10000, 3000, 2000])
    # 0.006 against 0.004 over 2000 trials each is under three standard errors.
    assert not checks.check_strictly_falling([12, 8], [2000, 2000])


def test_layer_self_times_add_up_to_the_top_level_spans():
    tracer = tracing.Tracer()

    def leaf():
        return sum(i * i for i in range(20000))

    traced_leaf = tracer.wrap("b.leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf() + sum(range(5000))

    top = tracer.wrap("a.top", tracer.wrap("b.middle", middle))
    for _ in range(3):
        top()
    own = tracer.self_times()
    assert len(tracer.names) == 12
    assert math.isclose(float(np.sum(own)), tracing.top_level_seconds(tracer), rel_tol=1e-9)
    assert np.all(own >= 0.0)
    leaves = [i for i, n in enumerate(tracer.names) if n == "b.leaf"]
    assert all(own[i] == tracer.ends[i] - tracer.starts[i] for i in leaves)
