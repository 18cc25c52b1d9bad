"""Exact success probability and classical cost by branch enumeration.

No sampling here: both branches are forced, weighted by their Born
probabilities (each exactly 1/2 for a Bell channel). The headline figures are
0.5 success / 0.5 bits for a general target and 1.0 / 1.5 for the two special
cases, independent of the number of target qubits.
"""

import numpy as np

from bellrsp import SQRT_HALF, canonicalize_target, exact_analyze

targets = {
    "general": canonicalize_target(0.6, 0.8j, 2),
    "real": canonicalize_target(0.6, 0.8, 2),
    "equatorial": canonicalize_target(SQRT_HALF, SQRT_HALF * np.exp(1.1j), 2),
}

for name, target in targets.items():
    analysis = exact_analyze(target)
    print(f"{name} target (m={target.m})")
    print(f"  p_success      {analysis.p_success:.12f}")
    print(f"  expected_bits  {analysis.expected_bits:.12f}")
    for branch in analysis.per_branch:
        print(f"    {branch.outcome.value:<9} p={branch.probability:.3f}  "
              f"bits={branch.bits_sent}  fidelity={branch.fidelity:.6f}")
    print()

print("The figures do not depend on the register size m:")
for m in (2, 5, 10):
    target = canonicalize_target(0.6, 0.8, m)
    analysis = exact_analyze(target)
    print(f"  m={m:>2}  p_success={analysis.p_success:.6f}  "
          f"expected_bits={analysis.expected_bits:.6f}")

print("\nCost arithmetic: general 1/2 * 1 + 1/2 * 0 = 0.5 bits;")
print("special cases  1/2 * 1 + 1/2 * 2 = 1.5 bits.")
