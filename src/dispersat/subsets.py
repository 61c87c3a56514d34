"""Subset-problem applications: isometric reductions to CNF, the
monotone extension search for hitting sets, and diverse
approximately-minimum hitting sets.

Subsets of the ground set [n] double as hypercube points, and the
hitting-set reduction keeps their weights and distances, so the whole
dispersion machinery carries over.  One extension search on the
reduction's walk engine serves the OPT deepening and the anchored search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cnf import (
    Assignment,
    CnfFormula,
    InfeasibleError,
    ParseError,
    PartialSetError,
    UnsatError,
    check_key_width,
)
from .dispersion import FarthestOracle, gonzalez_min
from .measures import DispersionObjective, popcount
from .ppz import packed_engine
from .schoning import (
    BudgetPlan,
    _Walker,
    anchored_farthest_min,
    anchored_walks,
    weight_window,
)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: normalized edge list, no self-loops."""

    num_vertices: int
    edges: tuple

    @classmethod
    def from_edges(cls, num_vertices, edges):
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.add((min(u, v), max(u, v)))
        return cls(num_vertices, tuple(sorted(norm)))


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of [n]; d is the maximum set size."""

    n: int
    sets: tuple

    @classmethod
    def from_lists(cls, n, sets):
        norm = []
        for s in sets:
            fs = frozenset(int(e) for e in s)
            if not fs:
                raise ValueError("empty set in family")
            if any(not 1 <= e <= n for e in fs):
                raise ValueError("set element out of range")
            norm.append(fs)
        return cls(n, tuple(norm))

    @property
    def d(self):
        return max((len(s) for s in self.sets), default=0)


def _ints(line, lineno):
    """The line's tokens as integers; ParseError names a bad line."""
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError(f"expected integers, got {line!r}", lineno) from None


def parse_graph(text):
    """Edge-list text: "n m" header, one "u v" edge per line."""
    lines = [
        (i, raw.strip())
        for i, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty graph input")
    lineno, header = lines[0]
    header = _ints(header, lineno)
    if len(header) != 2 or header[0] < 0:
        raise ParseError("expected 'n m' header with n >= 0", lineno)
    n, m = header
    edges = []
    for lineno, line in lines[1:]:
        edge = _ints(line, lineno)
        if len(edge) != 2:
            raise ParseError("expected 'u v' edge", lineno)
        try:
            edges += Graph.from_edges(n, [edge]).edges
        except ValueError as err:
            raise ParseError(str(err), lineno) from None
    if len(edges) != m:
        raise ParseError(f"header declared {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def parse_set_family(text):
    """One set per line of space-separated 1-based indices."""
    sets = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        elems = _ints(line, lineno)
        if min(elems) < 1:
            raise ParseError(f"set element {min(elems)} below 1", lineno)
        sets.append(elems)
        top = max(top, max(elems))
    if not sets:
        raise ParseError("empty set-family input")
    return SetFamily.from_lists(top, sets)


def reduce_vertex_cover(graph):
    """2-CNF whose solutions are exactly the vertex covers, with identical
    weights and pairwise distances (an isometric reduction)."""
    return CnfFormula(graph.num_vertices, graph.edges)


def reduce_independent_set(graph):
    """2-CNF whose solutions are exactly the independent sets."""
    clauses = [(-u, -v) for u, v in graph.edges]
    return CnfFormula(graph.num_vertices, clauses)


def reduce_hitting_set(family):
    """d-CNF whose solutions are exactly the hitting sets of the family."""
    return CnfFormula(family.n, family.sets)


def hitting_set_monotone_search(family, base, t):
    """Feasible superset of `base` within t additions, by branching on
    the first un-hit set (at most d branches, depth t): one task of the
    packed extension search, on the family's hitting-set reduction."""
    if t < 0:
        raise ValueError("t must be >= 0")
    walker = packed_engine(_reduction(family), _Walker)  # checks the key width
    keys = np.array([_set_to_assignment(family.n, base).key], dtype=np.int64)
    out, hit = walker.extend(keys, np.array([t]))
    return _assignment_to_set(Assignment(family.n, int(out[0]))) if hit[0] else None


def _reduction(family):
    """reduce_hitting_set(family), built once per family with its engines."""
    if "_reduction" not in vars(family):
        vars(family)["_reduction"] = reduce_hitting_set(family)
    return vars(family)["_reduction"]


def _extension_search(formula):
    """The anchored search's block search on a hitting-set reduction:
    `search(keys, t, blocks)` -> (int64 keys, hit) extends every start
    keys[i] within t[i] additions, as hitting_set_monotone_search does,
    and draws from no generator of `blocks`.  A tree of depth t has at
    most d^t <= ceil(c^t) leaves, the count the anchored cap charges per
    task.  The walk engine is built on first use, once per formula."""

    def search(keys, t, blocks):
        out, hit = packed_engine(formula, _Walker).extend(keys, t)
        if ((out & keys) != keys)[hit].any() or (popcount(out ^ keys) > t)[hit].any():
            raise AssertionError("extension left its cone")
        return out, hit

    return search


def _set_to_assignment(n, subset):
    return Assignment(n, sum(1 << (n - e) for e in set(subset)))


def _assignment_to_set(z):
    return frozenset(z.n - i for i in range(z.n) if z.key >> i & 1)


def minimum_feasible_weight(family):
    """Smallest hitting-set size, by deepening the extension search."""
    for t in range(family.n + 1):
        found = hitting_set_monotone_search(family, frozenset(), t)
        if found is not None:
            return len(found), found
    raise UnsatError("the family has no hitting set")


def diverse_min(family, s, delta, cfg):
    """s dispersed hitting sets, each of size at most (1+delta) OPT.

    The CNF anchored machinery runs on the family's hitting-set
    reduction with the packed extension search in place of the walks:
    anchors are the current sets plus the empty set, starts come from
    the anchored search's block sampler, and the exact-weight target is
    OPT, so qualifying outputs stay near-minimum while min-distance is
    pushed up.  The driver checks every member against the reduction.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    n = family.n
    check_key_width(n)  # before the deepening, which grows as d^OPT
    delta = Fraction(delta)
    plan = BudgetPlan(n, delta, 1, max(family.d, 2))
    if s > 1:
        anchored_walks(plan, cfg.effort, 2)  # the first oracle call's cap
    opt, witness = minimum_feasible_weight(family)
    window = weight_window(delta, opt)
    formula = _reduction(family)
    search = _extension_search(formula)

    def fn(formula, anchors, salt):
        stream = cfg.spawn(2, *salt)
        return anchored_farthest_min(n, anchors, plan, stream, window, search)

    seed = _set_to_assignment(n, witness)
    oracle = FarthestOracle(DispersionObjective.MIN_PD, fn, lambda _: (seed, 0))
    try:
        return gonzalez_min(formula, s, oracle)
    except PartialSetError as err:
        raise InfeasibleError(
            f"fewer than {s} qualifying dispersed sets found at this budget"
        ) from err
