#!/usr/bin/env python3
"""Sampling an ill-conditioned Gaussian from smoothed-score queries.

One smoothed-score query at noise level tau applies the precision resolvent
(Lambda + I/tau)^{-1}; summing resolvents against the quadrature weights
applies r(Lambda) ~ Lambda^{-1/2} to a standard normal vector.  The output
law is known in closed form, so every run carries a deterministic
KL -> Pinsker total-variation certificate.
"""

import numpy as np

from smoothscore import (GaussianTarget, ScoreOracle, empirical_covariance,
                         estimate_mean, eval_r, lambda_norm, run_streams,
                         sample_exact, sample_independent, sample_many,
                         sample_uncentered, sampler_params)
from smoothscore.diagnostics import summary

kappa = 1e4
target = GaussianTarget(eigvals=[1.0, 100.0, kappa], kappa=kappa)
delta_tv = 0.1
rng = np.random.default_rng(0)

print("=== one-point sampler ===")
rep = sample_exact(target, delta_tv, rng)
spec = sampler_params("exact", target.dim, kappa, delta_tv)
print(f"sample: {np.array_str(rep.output, precision=4)}")
print(f"queries: {rep.query_count} (noise levels from {rep.noise_levels[-1]:.2e} "
      f"to {rep.noise_levels[0]:.2e})")
cert = summary(spec.law(target))
print(f"certificate: kl={cert['kl']:.3e}  tv_bound={cert['tv_bound']:.4f} "
      f"<= delta_tv={delta_tv}")

print()
print("=== independent-query variant ===")
rep2 = sample_independent(target, delta_tv, rng)
cert2 = summary(sampler_params("independent", target.dim, kappa, delta_tv).law(target))
print(f"queries: {rep2.query_count}  tv_bound={cert2['tv_bound']:.4f} "
      f"<= delta_tv/4={delta_tv / 4}")

print()
print("=== empirical covariance vs the exact output law (20k runs, d=3) ===")
n = 20_000
samples = sample_many("exact", target, delta_tv, run_streams(1, n)).outputs
emp = empirical_covariance(samples)
want = eval_r(spec.grid, target.eigvals) ** 2
print("empirical diag:", np.array_str(np.diag(emp), precision=5))
print("law diag:      ", np.array_str(want, precision=5))
print("target diag:   ", np.array_str(1.0 / target.eigvals, precision=5))

print()
print("=== uncentered target: estimate the mean, recenter, sample ===")
# The recentering queries pass the residual mu - mu_hat through tau^2-scaled
# resolvents, so it is amplified by roughly the largest noise level; ask for
# a mean accuracy well below 1/max(tau) to keep the composed shift small.
shifted = GaussianTarget(eigvals=[1.0, 100.0, kappa], kappa=kappa,
                         mean=[5.0, -2.0, 0.5])
oracle = ScoreOracle(shifted)
delta_mu = 1e-9
mu_hat = estimate_mean(shifted, delta_mu, oracle=oracle)
print(f"mean estimate (2 queries): {np.array_str(mu_hat, precision=5)}")
print(f"precision-norm error: {lambda_norm(shifted, mu_hat - shifted.mean):.2e} "
      f"<= {delta_mu}")
rep3 = sample_uncentered(shifted, delta_tv, delta_mu, np.random.default_rng(2))
print(f"uncentered sample: {np.array_str(rep3.output, precision=4)} "
      f"({rep3.query_count} queries total)")
