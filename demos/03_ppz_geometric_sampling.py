"""PPZ as a geometric sampler: far solutions are hit surprisingly often.

One PPZ iteration assigns variables in random order, copying random
bits unless a unit clause forces the value.  Its exact output
distribution (enumerating all 2^n n! samples) shows that for any anchor
point, solutions far from the anchor keep a guaranteed slice of the
probability mass -- that is what turns repetition into a farthest-point
oracle.
"""

from fractions import Fraction

import numpy as np

from dispersat import (
    OracleConfig,
    enumerate_solutions,
    ppz_farthest_sum,
    ppz_solve,
    tau_exact,
)
from dispersat.cnf import Assignment
from dispersat.generators import random_kcnf
from dispersat.ppz import tau_histogram

rng = np.random.default_rng(7)
formula = random_kcnf(6, 3, 10, rng)
solutions = enumerate_solutions(formula).members
n, k = formula.n, formula.k
print(f"random 3-CNF: n={n}, m={formula.num_clauses}, |solutions|={len(solutions)}")

counts, denom = tau_histogram(formula)
print("\nper-solution iteration probabilities tau(F, z):")
for z in solutions[:8]:
    print(f"  {z.to_string()}  tau = {Fraction(int(counts[z.key]), denom)}")

anchor = Assignment.zeros(n)
r = max(anchor.distance(z) for z in solutions)
threshold = -((-(k - 1) * r) // k)  # ceil((1 - 1/k) r)
far = [z for z in solutions if anchor.distance(z) >= threshold]
tau_far = tau_exact(formula, far)
bound = 1 / (2 * n) * 2.0 ** (-n + n / k)
print(f"\nanchor {anchor.to_string()}: farthest solution at distance {r}")
print(f"far set = solutions at distance >= {threshold}: {len(far)} of them")
print(f"tau(far set) = {tau_far} ~ {float(tau_far):.5f}  >=  bound {bound:.5f}")
assert float(tau_far) >= bound

# repetition turns the mass into an oracle
cfg = OracleConfig(seed=123)
z0 = ppz_solve(formula, cfg)
far_point = ppz_farthest_sum(formula, [anchor], cfg)
print(f"\nppz_solve found {z0.to_string()};",
      f"ppz_farthest_sum from {anchor.to_string()} found {far_point.to_string()}",
      f"at distance {anchor.distance(far_point)} (max possible {r})")
