"""From farthest-point oracles to s dispersed solutions.

Farthest insertion gives half the optimal min-dispersion; for the sum
objective a swap local search pushes the factor to (s-1)/(s+1).  Any
oracle plugs in: exact (brute force), PPZ, or anchored Schoening, and
each one brings its own seed solution.
Weight windows come for free by anchoring at the all-zeros point.
"""

import numpy as np
from fractions import Fraction

from dispersat import (
    DispersionObjective,
    OracleConfig,
    WeightKind,
    brute_opt,
    disperse_weighted_min,
    enumerate_solutions,
    exact_oracle,
    gonzalez_min,
    make_plan,
    min_pairwise_distance,
    ppz_oracle,
    sum_disperse,
    sum_pairwise_distance,
)
from dispersat.generators import planted_kcnf

rng = np.random.default_rng(3)
formula, _ = planted_kcnf(9, 3, 27, rng)
print(f"planted 3-CNF: n=9, m=27, |solutions|={len(enumerate_solutions(formula))}")

s = 4
opt_min, _ = brute_opt(formula, s, DispersionObjective.MIN_PD)
out = gonzalez_min(formula, s, exact_oracle(DispersionObjective.MIN_PD))
print(f"\nmin-dispersion, s={s}: optimum {opt_min}")
print("  farthest insertion (exact oracle):",
      [z.to_string() for z in out], "minPD", min_pairwise_distance(out))

cfg = OracleConfig(seed=42, effort=0.5)
out_ppz = gonzalez_min(formula, s, ppz_oracle(cfg, DispersionObjective.MIN_PD))
print("  farthest insertion (PPZ oracle):  ",
      [z.to_string() for z in out_ppz], "minPD", min_pairwise_distance(out_ppz))

opt_sum, _ = brute_opt(formula, s, DispersionObjective.SUM_PD)
out_sum = sum_disperse(formula, s, exact_oracle(DispersionObjective.SUM_PD))
got = sum_pairwise_distance(out_sum)
print(f"\nsum-dispersion, s={s}: optimum {opt_sum}, insertion+swaps got {got}")
print(f"  guarantee at s={s}: >= {(s - 1)}/{(s + 1)} of optimum "
      f"({(s - 1) * opt_sum / (s + 1):.1f})")

plan = make_plan(9, 3, Fraction(1, 2), "v1")
heavy = disperse_weighted_min(
    formula, 2, 6, WeightKind.AT_LEAST, plan, OracleConfig(seed=9, effort=2.0)
)
print("\nweight-constrained pair (weight >= (1-delta) 6 = 3):",
      [(z.to_string(), z.weight()) for z in heavy],
      "minPD", min_pairwise_distance(heavy))
