"""Seeded Monte Carlo estimates and their reproducibility guarantees.

Trial i reads the i-th uniform of one stream seeded by ``seed``, and the
counts come from the two-row branch table, so the stats are a pure function
of (target, trials, seed): reruns cannot change them, and the worker count
never does.
"""

import numpy as np

from bellrsp import SQRT_HALF, canonicalize_target, exact_analyze, monte_carlo

general = canonicalize_target(0.6, 0.8j, 2)
equatorial = canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(0.5j), 4)

trials, seed = 50_000, 2026

for name, target in (("general", general), ("equatorial", equatorial)):
    exact = exact_analyze(target)
    stats = monte_carlo(target, trials, seed)
    sigma = 0.5 / np.sqrt(trials)
    print(f"{name} target, {trials} trials, seed {seed}")
    print(f"  success_rate {stats.success_rate:.5f}   "
          f"(exact {exact.p_success:.1f}, sampling sigma ~ {sigma:.5f})")
    print(f"  mean_bits    {stats.mean_bits:.5f}   "
          f"(exact {exact.expected_bits:.1f})\n")

print("Reruns with the same seed are identical:")
again = monte_carlo(general, trials, seed)
print(f"  {monte_carlo(general, trials, seed) == again}")

print("The worker count never changes the result:")
one = monte_carlo(general, 10_000, seed=7, workers=1)
four = monte_carlo(general, 10_000, seed=7, workers=4)
print(f"  workers=1 == workers=4: {one == four}")
