"""Exact dispersion over an explicit point set via triangle finding.

The s points are split into three tuple groups; tuples become vertices
of a tripartite graph whose edges encode distance thresholds, so an
s-set with minPD >= d exists iff the graph for threshold d has a
triangle.  Works for any points of the hypercube, not just solution
spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .cnf import InfeasibleError
from .brute import distance_matrix
from .measures import (
    SolutionCollection,
    min_pairwise_distance,
    sum_pairwise_distance,
)

_NEG = -(10**12)  # forbidden edge weight, dominates any distance sum


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

    Uses the path-count matrix product: (A12 . A23) intersected with A13.
    """
    paths = graph.a12.astype(np.int64) @ graph.a23.astype(np.int64)
    hits = (paths > 0) & graph.a13
    if not hits.any():
        return None
    flat = int(np.argmax(hits))
    i, k = divmod(flat, hits.shape[1])
    j = int(np.argmax(graph.a12[i] & graph.a23[:, k]))
    return i, j, k


def _group_sizes(s):
    return (s + 2) // 3, (s + 1) // 3, s // 3


def _tuples(m, g, with_replacement):
    gen = combinations_with_replacement if with_replacement else combinations
    arr = np.array(list(gen(range(m), g)), dtype=np.int64)
    return arr.reshape(-1, g)


def _intra_min(dmat, tuples):
    g = tuples.shape[1]
    if g == 1:
        return np.full(tuples.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    vals = None
    for i in range(g):
        for j in range(i + 1, g):
            d = dmat[tuples[:, i], tuples[:, j]]
            vals = d if vals is None else np.minimum(vals, d)
    return vals


def _intra_sum(dmat, tuples):
    g = tuples.shape[1]
    vals = np.zeros(tuples.shape[0], dtype=np.int64)
    for i in range(g):
        for j in range(i + 1, g):
            vals += dmat[tuples[:, i], tuples[:, j]]
    return vals


def _cross(dmat, ta, tb, reduce_min):
    out = None
    for i in range(ta.shape[1]):
        for j in range(tb.shape[1]):
            d = dmat[ta[:, i][:, None], tb[None, :, j]]
            if out is None:
                out = d.copy()
            elif reduce_min:
                np.minimum(out, d, out=out)
            else:
                out += d
    return out


def _shares_point(ta, tb):
    out = np.zeros((ta.shape[0], tb.shape[0]), dtype=bool)
    for i in range(ta.shape[1]):
        for j in range(tb.shape[1]):
            out |= ta[:, i][:, None] == tb[None, :, j]
    return out


def _as_points(x):
    members = list(x)
    if len(set(members)) != len(members):
        raise ValueError("points must be distinct")
    return members


def opt_min_clique(x, s):
    """Exact Opt-min over s-point subsets of `x` by binary search on the
    distance threshold plus triangle detection."""
    points = _as_points(x)
    m = len(points)
    if s < 3:
        raise ValueError("s must be >= 3 (use the pairwise maximum for s=2)")
    if m < s:
        raise InfeasibleError(f"need {s} distinct points, have {m}")
    n = points[0].n
    dmat = distance_matrix([p.key for p in points])
    sizes = _group_sizes(s)
    tuples = {g: _tuples(m, g, with_replacement=False) for g in set(sizes)}
    intra = {g: _intra_min(dmat, t) for g, t in tuples.items()}
    cross = {}
    for a in range(3):
        for b in range(a + 1, 3):
            key = (sizes[a], sizes[b])
            if key not in cross:
                cross[key] = _cross(
                    dmat, tuples[sizes[a]], tuples[sizes[b]], reduce_min=True
                )

    def graph_for(d):
        masks = [intra[g] >= d for g in sizes]
        if not all(mk.any() for mk in masks):
            return None
        parts = tuple(tuples[g][mk] for g, mk in zip(sizes, masks))
        blocks = {}
        for a in range(3):
            for b in range(a + 1, 3):
                cm = cross[(sizes[a], sizes[b])]
                blocks[(a, b)] = cm[np.ix_(masks[a], masks[b])] >= d
        return TupleGraph(parts, blocks[(0, 1)], blocks[(0, 2)], blocks[(1, 2)])

    def feasible(d):
        if d == 0:
            return True, None
        graph = graph_for(d)
        if graph is None:
            return False, None
        tri = triangle_detect(graph)
        return tri is not None, (graph, tri)

    best_d, best_hit = 0, None
    lo, hi = 1, n
    while lo <= hi:
        mid = (lo + hi) // 2
        ok, hit = feasible(mid)
        if ok:
            best_d, best_hit = mid, hit
            lo = mid + 1
        else:
            hi = mid - 1
    if best_d == 0:
        members = sorted(points)[:s]
    else:
        graph, (i, j, k) = best_hit
        idx = list(graph.parts[0][i]) + list(graph.parts[1][j]) + list(
            graph.parts[2][k]
        )
        members = sorted(points[q] for q in idx)
    witness = SolutionCollection(members, distinct=True)
    got = min_pairwise_distance(witness)
    if not (got == best_d or (best_d == 0 and got >= 0)):
        raise AssertionError("threshold search broke")
    return witness


def opt_sum_clique(x, s, distinct=True):
    """Exact Opt-sum (distinct=False: over multisets) via the maximum
    total-weight triangle of the tuple graph.

    Enumerating the six threshold values of the tripartite construction
    is equivalent to scanning the tight values realized by actual tuple
    triples, which is what this does: vertex weights carry intra-tuple
    distance sums, edge weights carry cross sums, and the best triangle
    is the exact optimum.
    """
    points = _as_points(x)
    m = len(points)
    if s < 3:
        raise ValueError("s must be >= 3")
    if distinct and m < s:
        raise InfeasibleError(f"need {s} distinct points, have {m}")
    dmat = distance_matrix([p.key for p in points])
    sizes = _group_sizes(s)
    tuples = {
        g: _tuples(m, g, with_replacement=not distinct) for g in set(sizes)
    }
    weight = {g: _intra_sum(dmat, t) for g, t in tuples.items()}
    edges = {}
    for a in range(3):
        for b in range(a + 1, 3):
            key = (sizes[a], sizes[b])
            if key in edges:
                continue
            e = _cross(dmat, tuples[sizes[a]], tuples[sizes[b]], reduce_min=False)
            if distinct:
                e = np.where(
                    _shares_point(tuples[sizes[a]], tuples[sizes[b]]), _NEG, e
                )
            edges[key] = e
    e12 = edges[(sizes[0], sizes[1])]
    e13 = edges[(sizes[0], sizes[2])]
    e23 = edges[(sizes[1], sizes[2])]
    w1, w2, w3 = (weight[g] for g in sizes)
    best_val = _NEG
    best = None
    for a in range(tuples[sizes[0]].shape[0]):
        grid = (w2 + e12[a])[:, None] + (w3 + e13[a])[None, :] + e23
        flat = int(np.argmax(grid))
        b, c = divmod(flat, grid.shape[1])
        val = int(grid[b, c]) + int(w1[a])
        if val > best_val:
            best_val = val
            best = (a, b, c)
    if best is None or best_val <= _NEG // 2:
        raise InfeasibleError("no qualifying tuple triple exists")
    a, b, c = best
    idx = (
        list(tuples[sizes[0]][a])
        + list(tuples[sizes[1]][b])
        + list(tuples[sizes[2]][c])
    )
    members = sorted(points[q] for q in idx)
    witness = SolutionCollection(members, distinct=distinct)
    if sum_pairwise_distance(witness) != best_val:
        raise AssertionError("weight bookkeeping broke")
    return witness
