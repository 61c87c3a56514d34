"""The solution graph of a formula, for the tests of the PPZ coding
lemma: hypercube edges between satisfying assignments."""

from dispersat.brute import enumerate_solutions


def solution_adjacency(formula):
    """(keys, adjacency): the solution keys, and a map from each to the
    sorted list of neighboring solution keys."""
    keys = [z.key for z in enumerate_solutions(formula)]
    keyset = set(keys)
    adjacency = {
        key: sorted(
            key ^ (1 << b) for b in range(formula.n) if key ^ (1 << b) in keyset
        )
        for key in keys
    }
    return keys, adjacency
