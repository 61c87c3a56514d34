"""Diverse near-minimum solutions for subset problems.

Vertex cover, independent set and hitting set reduce to CNF without
distorting sizes or Hamming distances, so the whole dispersion toolkit
applies.  For hitting sets (vertex cover is hitting the edges) the
monotone extension search stands in for the random walks: it grows a
set until it hits every member of the family, and the anchored
machinery runs unchanged on the reduction.
"""

from fractions import Fraction

from dispersat import (
    Graph,
    OracleConfig,
    SetFamily,
    diverse_min,
    enumerate_solutions,
    hitting_set_monotone_search,
    min_pairwise_distance,
    reduce_vertex_cover,
)
from dispersat.subsets import _assignment_to_set, minimum_feasible_weight

# a 5-cycle: minimum vertex covers have size 3 and there are 5 of them
cycle = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
formula = reduce_vertex_cover(cycle)
covers = enumerate_solutions(formula)
print(f"5-cycle: {len(covers)} covers as CNF solutions; "
      f"minimum size {min(z.weight() for z in covers)}")

edges = SetFamily.from_lists(5, cycle.edges)
opt, witness = minimum_feasible_weight(edges)
print(f"extension search agrees: OPT={opt}, e.g. {sorted(witness)}")

print("feasibility search from {1}: within 2 additions ->",
      sorted(hitting_set_monotone_search(edges, {1}, 2)))

out = diverse_min(edges, 2, Fraction(1, 2), OracleConfig(seed=31, effort=2.0))
pair = [_assignment_to_set(z) for z in out]
print(f"\ntwo dispersed covers of size <= (1+1/2) OPT = {opt * 3 // 2}:")
for cover in pair:
    print("  ", sorted(cover))
print("symmetric difference:", min_pairwise_distance(out))

family = SetFamily.from_lists(6, [[1, 2], [3, 4], [5, 6]])
out = diverse_min(family, 3, Fraction(1, 2), OracleConfig(seed=32, effort=2.0))
print("\nthree dispersed hitting sets of {1,2},{3,4},{5,6}:")
for z in out:
    print("  ", sorted(_assignment_to_set(z)), f"(size {z.weight()})")
print("pairwise min distance:", min_pairwise_distance(out))
