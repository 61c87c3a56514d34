"""Exhaustive ground-truth oracles: solution enumeration, exact optima
for every dispersion objective, exact farthest points, and Min-Ones.

Everything here is exponential by design and guarded by an enumeration
limit; the rest of the library is tested against these functions.  All
of it reads the ascending solution keys `solution_keys` caches on the
formula, and the dispersion optima come from one tuple search.
"""

from __future__ import annotations

import numpy as np

from .cnf import (
    Assignment,
    CapabilityError,
    InfeasibleError,
    UnsatError,
    clause_masks,
    evaluate_keys,  # unused here; the benchmark tracer rebinds brute.evaluate_keys
    rotate,
    solution_indicator,
)
from .measures import DispersionObjective, NO_WEIGHT, SolutionCollection, WeightKind
from .measures import anchor_keys_of, best_index, farthest, popcount

ENUMERATION_LIMIT = 24  # 16M assignments; `enumerate --limit` may raise it
CLIQUE_BLOCK_LIMIT = 1 << 24  # int64 entries of a distance or part-pair block
_FRONTIER_SHIFT = 4  # past 2^n >> 4 live prefixes the 2^n indicator is cheaper
_CLAUSE_SHIFT = 9  # one clause's prefix test costs about 2^9 indicator entries


def _prefix_keys(formula):
    """Ascending solution keys grown by prefix over variables 1..n: each
    clause whose last variable is j drops the prefixes it falsifies by its
    `clause_masks` test shifted right by n - j.  `solution_indicator` is read
    for an empty clause, when 2^n is small, or once the frontier is large."""
    n, clauses = formula.n, formula.clauses
    if () not in clauses and len(clauses) << _CLAUSE_SHIFT < 1 << n:
        pos, neg = clause_masks(formula)
        tests = [[] for _ in range(n + 1)]
        for clause, g, v in zip(clauses, neg.tolist(), (pos | neg).tolist()):
            tests[abs(clause[-1])].append((g, v))
        keys = np.zeros(1, dtype=np.int64)
        for j in range(1, n + 1):
            keys = (keys[:, None] << 1 | (0, 1)).reshape(-1)
            for g, v in tests[j]:
                keys = keys[(keys ^ g >> (n - j)) & (v >> (n - j)) != 0]
            if keys.size > (1 << n) >> _FRONTIER_SHIFT:
                break
        else:
            return keys
    return np.flatnonzero(solution_indicator(formula)).astype(np.int64, copy=False)


def solution_keys(formula, limit=None):
    """Ascending keys of all satisfying assignments, a read-only int64 array
    built once per formula; `limit` (default ENUMERATION_LIMIT) is checked each call."""
    return _solution_space(formula, limit)[0]


def _solution_space(formula, limit=None):
    """(keys, bits, base): `solution_keys`, the coordinates they disagree
    on, increasing, and the key of the bits they share; cached together."""
    limit = ENUMERATION_LIMIT if limit is None else limit
    if formula.n > limit:
        raise CapabilityError(
            f"n={formula.n} exceeds enumeration limit {limit}; only "
            "`enumerate --limit` can raise it"
        )
    space = vars(formula).get("_solution_space")
    if space is None:
        keys = _prefix_keys(formula)
        keys.flags.writeable = False
        base = int(np.bitwise_and.reduce(keys)) if keys.size else 0
        free = int(np.bitwise_or.reduce(keys)) ^ base
        space = formula._solution_space = keys, [b for b in range(formula.n) if free >> b & 1], base
    return space


def enumerate_solutions(formula, limit=None):
    """All satisfying assignments in lexicographic order."""
    keys = solution_keys(formula, limit).tolist()
    return SolutionCollection([Assignment(formula.n, key) for key in keys])


def distance_matrix(keys):
    """Pairwise Hamming distances of assignment keys, as int64."""
    keys = np.asarray(keys, dtype=np.int64)
    return popcount(keys[:, None] ^ keys[None, :])


def _best_tuple(dmat, s, fold, repeat, width):
    """(value, index tuple) of the s-tuple whose pairwise distances in
    `dmat`, folded by `fold` (np.minimum or np.add), are largest; the
    tuples run in combinations order, combinations_with_replacement
    order when `repeat`, and the first maximiser wins.  A prefix carries
    its folded pair value and `reach`, its folded distances to each point
    from `lo` on, so the last level is one argmax over the tail.  A prefix
    whose bound is no better than the best found is skipped.  Under
    np.minimum the bound is its value, and the identity is the largest
    distance, which no s-set's minimum beats, so reaching it ends the
    search.  Under np.add the bound of t points is their value, plus
    s - t times their largest reach, plus C(s - t, 2) times the largest
    distance, capped by `width` s^2 / 4 for points that differ on `width`
    coordinates: a coordinate on which c of them are 1 adds c (s - c)."""
    m, step, prune = len(dmat), int(not repeat), fold is np.minimum
    top, cap = int(dmat.max()), width * (s * s // 4)
    best = [-1, None]

    def extend(prefix, value, reach, lo):
        left = s - len(prefix) - 1  # points still to add after a child
        if not left:
            tail = fold(reach, value)
            k = int(np.argmax(tail))
            if tail[k] > best[0]:
                best[:] = int(tail[k]), (*prefix, lo + k)
            return
        # values[j]: the prefix extended by point lo + j, leaving room after it
        values = fold(reach[: m - left * step - lo], value)
        pairs = left * (left - 1) // 2 * top
        bound = values if prune else np.full(values.size, cap)
        for j in np.flatnonzero(bound > best[0]):
            if bound[j] <= best[0]:
                continue  # the best rose since `bound` was screened
            nxt = lo + j + step
            moved = fold(reach[j + step :], dmat[lo + j, nxt:])
            if prune or min(values[j] + left * int(moved.max()) + pairs, cap) > best[0]:
                extend((*prefix, lo + j), values[j], moved, nxt)

    identity = top if prune else 0
    extend((), identity, np.full(m, identity, dtype=np.int64), 0)
    return tuple(best)


def brute_opt(formula, s, objective, weight=NO_WEIGHT):
    """Exact optimum dispersion over s solutions of `formula`.

    MIN_PD and SUM_PD_DISTINCT range over sets, SUM_PD over multisets;
    ties are broken lexicographically on the sorted witness.  Returns
    (value, SolutionCollection).  More than CLIQUE_BLOCK_LIMIT pool x
    pool distances are refused before the matrix is built.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    pool = solution_keys(formula)
    if not pool.size:
        raise UnsatError("formula has no satisfying assignment")
    if weight.kind is not WeightKind.NONE:
        ones, at_least = popcount(pool), weight.kind is WeightKind.AT_LEAST
        pool = pool[ones >= weight.w if at_least else ones <= weight.w]
    m = pool.size
    if objective.distinct and m < s:
        raise InfeasibleError(f"only {m} qualifying solutions, need a set of {s}")
    if not m:
        raise InfeasibleError("no solution meets the weight constraint")
    minimum = objective is DispersionObjective.MIN_PD
    if s == 1:
        value, idx = (formula.n + 1 if minimum else 0), (0,)
    elif m * m > CLIQUE_BLOCK_LIMIT:
        raise CapabilityError(
            f"{m} qualifying solutions: {m * m} pairwise distances exceed "
            f"the limit {CLIQUE_BLOCK_LIMIT}"
        )
    else:
        fold, repeat = (np.minimum if minimum else np.add), not objective.distinct
        width = int(np.bitwise_or.reduce(pool ^ pool[0])).bit_count()
        value, idx = _best_tuple(distance_matrix(pool), s, fold, repeat, width)
    members = [Assignment(formula.n, key) for key in pool[list(idx)].tolist()]
    return value, SolutionCollection(members, objective.distinct or s == 1)


def _farthest(formula, anchors, reduce, exclude=False):
    """farthest_index's answer among the solutions, or None if there is none."""
    keys = solution_keys(formula)
    anchor_keys = anchor_keys_of(formula.n, anchors)
    keys = np.setdiff1d(keys, anchor_keys) if exclude else keys
    return farthest(formula.n, keys, anchor_keys, reduce)


def farthest_min(formula, anchors):
    """Exact farthest point by min-distance: the satisfying assignment
    maximizing min-d_H(anchors, .); lexicographically smallest argmax."""
    return _farthest(formula, anchors, np.min)


def farthest_sum(formula, anchors, exclude=False):
    """Exact farthest point by sum-distance; exclude=True skips points
    equal to an anchor."""
    return _farthest(formula, anchors, np.sum, exclude)


def min_ones_brute(formula):
    """A minimum-Hamming-weight solution (lexicographically smallest on ties)."""
    keys = solution_keys(formula)
    if not keys.size:
        raise UnsatError("formula has no satisfying assignment")
    return Assignment(formula.n, int(keys[best_index(-popcount(keys), keys)]))


def diameter_via_min_ones(formula):
    """A 1/2-approximate diameter pair through the Min-Ones reduction.

    Finds any solution alpha, rotates the formula so alpha maps to the
    all-ones point, solves Min-Ones there, and maps back.  The returned
    pair is guaranteed to span at least half the true diameter.
    """
    keys = solution_keys(formula)
    if not keys.size:
        raise UnsatError("formula has no satisfying assignment")
    alpha = Assignment(formula.n, int(keys[0]))
    return alpha, min_ones_brute(rotate(formula, alpha)) ^ alpha.complement()
