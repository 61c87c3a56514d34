"""Exhaustive ground-truth oracles: solution enumeration, exact optima
for every dispersion objective, exact farthest points, and Min-Ones.

Everything here is exponential by design and guarded by an enumeration
limit; the rest of the library is tested against these functions.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import numpy as np

from .cnf import (
    Assignment,
    CapabilityError,
    InfeasibleError,
    UnsatError,
    evaluate_keys,  # unused here; the benchmark tracer rebinds brute.evaluate_keys
    rotate,
    solution_indicator,
)
from .measures import DispersionObjective, NO_WEIGHT, SolutionCollection, popcount

ENUMERATION_LIMIT = 24  # 16M assignments; `enumerate --limit` may raise it


def solution_keys(formula, limit=None):
    """Keys of all satisfying assignments, ascending, as an int64 array."""
    limit = ENUMERATION_LIMIT if limit is None else limit
    n = formula.n
    if n > limit:
        raise CapabilityError(
            f"n={n} exceeds enumeration limit {limit}; only `enumerate --limit` "
            "can raise it"
        )
    return np.flatnonzero(solution_indicator(formula))


def enumerate_solutions(formula, limit=None):
    """All satisfying assignments in lexicographic order."""
    keys = solution_keys(formula, limit).tolist()
    return SolutionCollection(
        [Assignment(formula.n, key) for key in keys], distinct=True
    )


def distance_matrix(keys):
    """Pairwise Hamming distances of assignment keys, as int64."""
    keys = np.asarray(keys, dtype=np.int64)
    return popcount(keys[:, None] ^ keys[None, :])


def _filter_weight(solutions, weight):
    return [z for z in solutions if weight.admits(z)]


def _best_min_pd_sets(keys, dmat, s):
    """(value, index tuple) of the max-minPD s-subset; lexicographic
    first among maximizers.  Indices refer to the (sorted) `keys`."""
    m = len(keys)
    if s == 2:
        flat = int(np.argmax(dmat))
        i, j = divmod(flat, m)
        if i == j:  # all distances 0 can't happen for distinct points
            i, j = 0, 1
        return int(dmat[i, j]), (min(i, j), max(i, j))
    best_val = -1
    best_idx = None
    if s == 3:
        for i in range(m - 2):
            for j in range(i + 1, m - 1):
                dij = dmat[i, j]
                if dij <= best_val:
                    continue
                tail = np.minimum(dmat[i, j + 1 :], dmat[j, j + 1 :])
                np.minimum(tail, dij, out=tail)
                k_rel = int(np.argmax(tail))
                if tail[k_rel] > best_val:
                    best_val = int(tail[k_rel])
                    best_idx = (i, j, j + 1 + k_rel)
        return best_val, best_idx
    if s == 4:
        for i in range(m - 3):
            for j in range(i + 1, m - 2):
                dij = int(dmat[i, j])
                if dij <= best_val:
                    continue
                w = np.minimum(dmat[i], dmat[j])
                for k in range(j + 1, m - 1):
                    cap = min(dij, int(w[k]))
                    if cap <= best_val:
                        continue
                    tail = np.minimum(w[k + 1 :], dmat[k, k + 1 :])
                    np.minimum(tail, cap, out=tail)
                    l_rel = int(np.argmax(tail))
                    if tail[l_rel] > best_val:
                        best_val = int(tail[l_rel])
                        best_idx = (i, j, k, k + 1 + l_rel)
        return best_val, best_idx
    for idx in combinations(range(m), s):
        val = min(dmat[a, b] for a, b in combinations(idx, 2))
        if val > best_val:
            best_val = int(val)
            best_idx = idx
    return best_val, best_idx


def _best_sum_pd(dmat, s, with_replacement):
    m = dmat.shape[0]
    gen = combinations_with_replacement if with_replacement else combinations
    best_val = -1
    best_idx = None
    for idx in gen(range(m), s):
        val = 0
        for a, b in combinations(idx, 2):
            val += dmat[a, b]
        if val > best_val:
            best_val = int(val)
            best_idx = idx
    return best_val, best_idx


def brute_opt(formula, s, objective, weight=NO_WEIGHT):
    """Exact optimum dispersion over s solutions of `formula`.

    MIN_PD and SUM_PD_DISTINCT range over sets, SUM_PD over multisets;
    ties are broken lexicographically on the sorted witness.  Returns
    (value, SolutionCollection).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    solutions = enumerate_solutions(formula).members
    if not solutions:
        raise UnsatError("formula has no satisfying assignment")
    pool = _filter_weight(solutions, weight)
    if objective.distinct and len(pool) < s:
        raise InfeasibleError(
            f"only {len(pool)} qualifying solutions, need a set of {s}"
        )
    if not pool:
        raise InfeasibleError("no solution meets the weight constraint")
    if s == 1:
        witness = SolutionCollection([pool[0]], distinct=True)
        if objective is DispersionObjective.MIN_PD:
            return formula.n + 1, witness
        return 0, witness
    keys = np.array([z.key for z in pool], dtype=np.int64)
    dmat = distance_matrix(keys)
    if objective is DispersionObjective.MIN_PD:
        val, idx = _best_min_pd_sets(keys, dmat, s)
    elif objective is DispersionObjective.SUM_PD:
        val, idx = _best_sum_pd(dmat, s, with_replacement=True)
    else:
        val, idx = _best_sum_pd(dmat, s, with_replacement=False)
    return val, SolutionCollection([pool[i] for i in idx], objective.distinct)


def farthest_min(formula, anchors):
    """Exact farthest point by min-distance: the satisfying assignment
    maximizing min-d_H(anchors, .); lexicographically smallest argmax."""
    return max(
        enumerate_solutions(formula).members,
        key=lambda z: min(z.distance(a) for a in anchors),
        default=None,
    )


def farthest_sum(formula, anchors, exclude=False):
    """Exact farthest point by sum-distance; exclude=True skips points
    equal to an anchor."""
    banned = set(anchors) if exclude else ()
    return max(
        (z for z in enumerate_solutions(formula) if z not in banned),
        key=lambda z: sum(z.distance(a) for a in anchors),
        default=None,
    )


def min_ones_brute(formula):
    """A minimum-Hamming-weight solution (lexicographically smallest on ties)."""
    solutions = enumerate_solutions(formula).members
    if not solutions:
        raise UnsatError("formula has no satisfying assignment")
    return min(solutions, key=lambda z: (z.weight(), z.key))


def diameter_via_min_ones(formula):
    """A 1/2-approximate diameter pair through the Min-Ones reduction.

    Finds any solution alpha, rotates the formula so alpha maps to the
    all-ones point, solves Min-Ones there, and maps back.  The returned
    pair is guaranteed to span at least half the true diameter.
    """
    solutions = enumerate_solutions(formula).members
    if not solutions:
        raise UnsatError("formula has no satisfying assignment")
    alpha = solutions[0]
    rotated = rotate(formula, alpha)
    beta_rot = min_ones_brute(rotated)
    beta = beta_rot ^ alpha.complement()
    return alpha, beta
