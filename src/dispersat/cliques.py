"""Exact dispersion over an explicit point set via triangle finding.

The s points are split into three tuple groups; tuples become vertices
of one tripartite graph whose vertex and edge weights fold the pairwise
distances by min or by sum.  Thresholding the min-folded graph at d
leaves a triangle iff an s-set with minPD >= d exists (Opt-min); the
heaviest triangle of the sum-folded graph is the Opt-sum optimum.
Works for any points of the hypercube, not just solution spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np

from .brute import CLIQUE_BLOCK_LIMIT, distance_matrix
from .cnf import CapabilityError, InfeasibleError
from .measures import (
    SolutionCollection,
    min_pairwise_distance,
    sum_pairwise_distance,
)

_NEG = -(10**12)  # a point paired with itself; dominates any distance sum
_PAIRS = ((0, 1), (0, 2), (1, 2))  # the part pairs of blocks 12, 13, 23


@dataclass
class TupleGraph:
    """Tripartite graph over point-index tuples with boolean adjacency
    blocks between the parts."""

    parts: tuple  # three arrays of shape (V_k, g_k)
    a12: np.ndarray
    a13: np.ndarray
    a23: np.ndarray


def triangle_detect(graph):
    """First triangle (i, j, k) of part indices in row-major order, or None.

    Uses the path-count matrix product: (A12 . A23) intersected with A13,
    in float32 for BLAS; a sum of 0/1 terms is positive as in integers."""
    paths = graph.a12.astype(np.float32) @ graph.a23.astype(np.float32)
    hits = (paths > 0) & graph.a13
    if not hits.any():
        return None
    flat = int(np.argmax(hits))
    i, k = divmod(flat, hits.shape[1])
    j = int(np.argmax(graph.a12[i] & graph.a23[:, k]))
    return i, j, k


def check_clique_size(m, s, minimum, with_replacement):
    """Refuse s-point subsets (multisets when `with_replacement`) of m
    points before any tuple exists: ValueError for s < 3 (with a hint
    for the Opt-min `minimum`), InfeasibleError for fewer than s distinct
    points, then CapabilityError when the largest part-pair block would
    hold more than CLIQUE_BLOCK_LIMIT entries."""
    if s < 3:
        hint = " (use the pairwise maximum for s=2)" if minimum else ""
        raise ValueError(f"s must be >= 3{hint}")
    if not with_replacement and m < s:
        raise InfeasibleError(f"need {s} distinct points, have {m}")
    sizes = ((s + 2) // 3, (s + 1) // 3, s // 3)
    counts = [comb(m + (g - 1) * with_replacement, g) for g in sizes]
    entries = max(counts[a] * counts[b] for a, b in _PAIRS)
    if entries > CLIQUE_BLOCK_LIMIT:
        raise CapabilityError(
            f"s={s} over {m} points: a tuple-graph block of {entries} int64 "
            f"entries exceeds the clique limit {CLIQUE_BLOCK_LIMIT}"
        )
    return sizes


def _tuple_graph(x, s, fold, with_replacement):
    """(points, parts, vertex weights, edge weights) of the tuple graph
    for s-point subsets of the distinct points `x`, or s-point multisets
    when `with_replacement`.

    The s points split into three groups of sizes ceil(s/3), ..., and
    part k holds every index tuple of group k's size; parts of equal
    size share their arrays.  A vertex weight folds the distances inside
    a tuple, and an edge weight (blocks 12, 13, 23) the distances across
    two tuples, by `fold` (np.minimum or np.add) in place.  Without
    replacement a point paired with itself weighs _NEG, so no triple
    that shares a point qualifies.  `check_clique_size` refuses the
    graph first.
    """
    points = list(x)
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    m = len(points)
    sizes = check_clique_size(m, s, fold is np.minimum, with_replacement)
    dmat = distance_matrix([p.key for p in points])
    if not with_replacement:
        np.fill_diagonal(dmat, _NEG)
    identity = 0 if fold is np.add else np.iinfo(np.int64).max

    def folded(shape, index_pairs):
        out = np.full(shape, identity, dtype=np.int64)
        for p, q in index_pairs:
            fold(out, dmat[p, q], out=out)
        return out

    gen = combinations_with_replacement if with_replacement else combinations
    tuples = {
        g: np.array(list(gen(range(m), g)), dtype=np.int64).reshape(-1, g)
        for g in set(sizes)
    }
    weights = {g: folded(len(t), combinations(t.T, 2)) for g, t in tuples.items()}
    blocks = {}
    for ga, gb in {(sizes[a], sizes[b]) for a, b in _PAIRS}:
        ta, tb = tuples[ga], tuples[gb]
        blocks[ga, gb] = folded(
            (len(ta), len(tb)), product(ta.T[:, :, None], tb.T[:, None, :])
        )
    return (
        points,
        tuple(tuples[g] for g in sizes),
        tuple(weights[g] for g in sizes),
        tuple(blocks[sizes[a], sizes[b]] for a, b in _PAIRS),
    )


def _witness(points, parts, triple, distinct):
    """The sorted points indexed by the tuples at `triple` of `parts`."""
    members = sorted(points[q] for part, i in zip(parts, triple) for q in part[i])
    return SolutionCollection(members, distinct=distinct)


def opt_min_clique(x, s):
    """Exact Opt-min over s-point subsets of `x` by binary search on the
    distance threshold plus triangle detection."""
    points, parts, weights, blocks = _tuple_graph(
        x, s, np.minimum, with_replacement=False
    )
    # threshold 1 holds for any s distinct points, so the search hits
    lo, hi = 1, points[0].n
    while lo <= hi:
        d = (lo + hi) // 2
        masks = [w >= d for w in weights]
        graph = TupleGraph(
            tuple(part[mk] for part, mk in zip(parts, masks)),
            *(
                e[np.ix_(masks[a], masks[b])] >= d
                for e, (a, b) in zip(blocks, _PAIRS)
            ),
        )
        hit = triangle_detect(graph)
        if hit is None:
            hi = d - 1
        else:
            best_d, witness = d, _witness(points, graph.parts, hit, distinct=True)
            lo = d + 1
    if min_pairwise_distance(witness) != best_d:
        raise AssertionError("threshold search broke")
    return witness


def opt_sum_clique(x, s, distinct=True):
    """Exact Opt-sum (distinct=False: over multisets) via the maximum
    total-weight triangle of the tuple graph.

    Vertex weights carry intra-tuple distance sums and edge weights the
    cross sums, so the heaviest triangle is the exact optimum.  It is
    found by a plain O(V1 V2 V3) scan: for each part-1 vertex, one grid
    of every part-2, part-3 completion and its argmax; the first
    heaviest triangle in row-major order wins.
    """
    points, parts, (w1, w2, w3), (e12, e13, e23) = _tuple_graph(
        x, s, np.add, with_replacement=not distinct
    )
    best_val, best = _NEG, None
    for a in range(len(w1)):
        grid = (w2 + e12[a])[:, None] + (w3 + e13[a])[None, :] + e23
        b, c = divmod(int(np.argmax(grid)), grid.shape[1])
        val = int(grid[b, c]) + int(w1[a])
        if val > best_val:
            best_val, best = val, (a, b, c)
    if best is None:
        raise InfeasibleError("no qualifying tuple triple exists")
    witness = _witness(points, parts, best, distinct)
    if sum_pairwise_distance(witness) != best_val:
        raise AssertionError("weight bookkeeping broke")
    return witness
