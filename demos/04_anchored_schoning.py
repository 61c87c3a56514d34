"""Anchored walks: controlling where Schoening lands.

A plain random walk finds some solution; anchoring the start point in a
Hamming annulus around z and capping the walk length guarantees the
output stays far from z.  The delta knob trades the guarantee against
the repetition budget, whose per-variable growth base is computable in
closed form.
"""

from fractions import Fraction

import numpy as np

from dispersat import (
    OracleConfig,
    enumerate_solutions,
    growth_base,
    make_plan,
    schoning_farthest_weighted,
)
from dispersat.brute import farthest_min
from dispersat.cnf import Assignment
from dispersat.generators import random_kcnf
from dispersat.schoning import schoning_solve_counted

rng = np.random.default_rng(11)
formula = random_kcnf(10, 7, 60, rng)
print(f"random 7-CNF: n=10, m=60, |solutions|={len(enumerate_solutions(formula))}")

anchor = Assignment.ones(10)
true_far = farthest_min(formula, [anchor])
print(f"anchor 1^n; true farthest solution sits at distance "
      f"{true_far.distance(anchor)}")

for delta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
    plan = make_plan(10, 7, delta, "v1")
    out = schoning_farthest_weighted(
        formula, [anchor], 0, plan, OracleConfig(seed=5)
    )
    print(f"  delta={delta}:  R={plan.R}, found distance "
          f"{out.distance(anchor)}  (guarantee {(1 - delta)} of max)")

print("\nbudget growth bases 2 c^rho / 2^H(rho):")
for label, c in (("walk base k", 7), ("walk base k-1", 6)):
    base = growth_base(c, 1, 0.5)
    print(f"  {label}={c}, alpha=1, delta=1/2  ->  {base:.4f}^n")

plan = make_plan(60, 7, Fraction(1, 2), "v2")
base = growth_base(plan.c, plan.alpha, plan.delta)
print(f"\nvariant v2 at n=60, delta=1/2: annulus cap R={plan.R}, "
      f"total budget ~ {plan.budget():.3e} = {base:.4f}^60-ish")

z, _ = schoning_solve_counted(formula, OracleConfig(seed=6))
print(f"\nplain restarts still solve: {z.to_string()}")
