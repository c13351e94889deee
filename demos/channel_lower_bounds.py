#!/usr/bin/env python3
"""Lower bounds on sampler traffic via channel coding.

A sampler accurate for every covariance in the class simulates the
covariance-to-sample channel, so any working code for that channel forces
the transcript length up: Q >= k' - log2(1/(1 - delta_tv - eps)).  This
script measures decoding errors for two concrete code families and
instantiates the bound with the measured numbers.
"""

import math

import numpy as np

from smoothscore import (binary_subchannel_experiment, bit_lower_bound_table,
                         converse_bound, good_event_rate,
                         run_coding_experiment, tube_probability)

print("=== tube probability: Monte Carlo vs Beta CDF ===")
print(f"{'d':>4} {'r':>3} {'theta':>7} {'empirical':>10} {'analytic':>10}")
for d, r, theta in ((8, 2, 0.4), (20, 5, 0.5), (64, 8, 0.45)):
    (emp,), (ana,) = tube_probability(d, r, [theta], 50_000, np.random.default_rng(d))
    print(f"{d:4d} {r:3d} {theta:7.2f} {emp:10.5f} {ana:10.5f}")

print()
print("=== random low-rank subspace code, nearest-subspace decoding ===")
d, kappa = 32, 1e4
r = max(1, int(d / math.log(kappa)))
print(f"d={d}, kappa={kappa:.0f}, rank r={r}, theta scale "
      f"sqrt(d/(kappa r))={math.sqrt(d / (kappa * r)):.4f}")
results = {}
for m_code in (4, 64, 1024):
    res = run_coding_experiment(d, r, kappa, m_code, 2000, np.random.default_rng(m_code))
    results[m_code] = res
    print(f"  m_code={m_code:5d} (k'={int(math.log2(m_code)):2d} bits):  "
          f"error={res.error_rate:.4f} +/- {res.stderr:.4f}")

print()
print("=== converse: measured error -> transcript lower bound ===")
delta_tv = 0.5
rows = bit_lower_bound_table(
    [kappa] * 3, delta_tv,
    [(d, int(math.log2(m)), results[m].error_rate) for m in (4, 64, 1024)])
for row in rows:
    bound = "vacuous" if row["vacuous"] else f"Q >= {row['q_lower']:.2f} bits"
    print(f"  k'={row['k_prime']:4.0f}, eps_hat={row['eps_hat']:.4f}, "
          f"delta_tv={delta_tv}: {bound}")
print(f"(perfect-code reference: converse_bound(10, 0.5, 0.25) = "
      f"{converse_bound(10, 0.5, 0.25)})")

print()
print("=== decoding good event: measured failure rates for (a, b) = (1/2, 2) ===")
for dd, rr in ((32, 3), (32, 8), (64, 8), (64, 32)):
    rate = good_event_rate(dd, rr, 100_000, np.random.default_rng(dd + rr))
    print(f"  d={dd:3d} r={rr:3d}: {rate:.4f}")

print()
print("=== binary-variance product channel: error decays with dimension ===")
for dd in (16, 32, 64):
    res = binary_subchannel_experiment(dd, 16.0, 0.1, 5000, np.random.default_rng(dd))
    m = int(math.floor(2 ** (0.1 * dd)))
    print(f"  d={dd:3d} ({m:3d} messages): error={res.error_rate:.4f} "
          f"+/- {res.stderr:.4f}")
