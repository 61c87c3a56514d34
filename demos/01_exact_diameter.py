"""Exact diameter of a solution space through XOR self-convolution.

A positive entry of f*f at difference vector y proves two solutions sit
exactly y apart, so the heaviest positive entry is the diameter.  We
build a small formula, show the convolution table, and cross-check the
answer against plain enumeration.
"""

import numpy as np

from dispersat import (
    CnfFormula,
    enumerate_solutions,
    exact_diameter,
    min_pairwise_distance,
)
from dispersat.fwht import convolve, indicator_table

# (x1 or x2) and (x3 or not x1): 5 solutions on 3 variables
formula = CnfFormula(3, [(1, 2), (3, -1)])
solutions = enumerate_solutions(formula)
print("solutions:", [z.to_string() for z in solutions])

table = indicator_table(formula)
conv = convolve(table, np.int64)
print("\n(f*f)(y) by difference vector y:")
for y, count in enumerate(conv):
    print(f"  y={y:03b}  pairs={int(count)}")
print("entry at y=000 equals the solution count:", int(conv[0]))

z1, z2 = exact_diameter(formula)
print(f"\ndiameter pair: {z1.to_string()} <-> {z2.to_string()}",
      f"distance {z1.distance(z2)}")

brute = max(
    a.distance(b) for a in solutions.members for b in solutions.members
)
assert z1.distance(z2) == brute
print("matches the brute-force diameter:", brute)

# the same machinery scales to anything with an indicator table
big = CnfFormula(16, [(i, i + 1, -(i + 2)) for i in range(1, 15)])
z1, z2 = exact_diameter(big)
print(f"\nn=16 example: diameter {z1.distance(z2)} found over 2^16 table")
print("pair measures:", min_pairwise_distance(enumerate_solutions(big)),
      "= min pairwise distance over the whole space")
