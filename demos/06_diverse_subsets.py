"""Diverse near-minimum solutions for subset problems.

Vertex cover, independent set and hitting set reduce to CNF without
distorting sizes or Hamming distances, so the whole dispersion toolkit
applies.  Problems with a monotone extension search skip CNF entirely:
the search plugs in as a local feasibility routine and the anchored
machinery runs unchanged.
"""

from fractions import Fraction

from dispersat import (
    Graph,
    OracleConfig,
    SetFamily,
    diverse_min,
    enumerate_solutions,
    hitting_set_system,
    min_pairwise_distance,
    reduce_vertex_cover,
)
from dispersat.subsets import (
    _assignment_to_set,
    minimum_feasible_weight,
    plfs_from_monotone,
    vertex_cover_system,
)

# a 5-cycle: minimum vertex covers have size 3 and there are 5 of them
cycle = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
formula = reduce_vertex_cover(cycle)
covers = enumerate_solutions(formula)
print(f"5-cycle: {len(covers)} covers as CNF solutions; "
      f"minimum size {min(z.weight() for z in covers)}")

system = vertex_cover_system(cycle)
opt, witness = minimum_feasible_weight(system)
print(f"extension search agrees: OPT={opt}, e.g. {sorted(witness)}")

plfs = plfs_from_monotone(system)
print("feasibility search from {1}: within 2 additions ->",
      sorted(plfs(frozenset({1}), 2)))

out = diverse_min(system, 2, Fraction(1, 2), OracleConfig(seed=31, effort=2.0))
pair = [_assignment_to_set(z) for z in out]
print(f"\ntwo dispersed covers of size <= (1+1/2) OPT = {opt * 3 // 2}:")
for cover in pair:
    print("  ", sorted(cover))
print("symmetric difference:", min_pairwise_distance(out))

family = SetFamily.from_lists(6, [[1, 2], [3, 4], [5, 6]])
out = diverse_min(
    hitting_set_system(family), 3, Fraction(1, 2), OracleConfig(seed=32, effort=2.0)
)
print("\nthree dispersed hitting sets of {1,2},{3,4},{5,6}:")
for z in out:
    print("  ", sorted(_assignment_to_set(z)), f"(size {z.weight()})")
print("pairwise min distance:", min_pairwise_distance(out))
