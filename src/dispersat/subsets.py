"""Subset-problem applications: isometric reductions to CNF, monotone
local search for hitting sets, the hereditary bridge to local
feasibility search, and diverse approximately-minimum solutions.

Subsets of the ground set [n] double as hypercube points, so the whole
dispersion machinery carries over once a parameterized feasibility
search replaces the CNF walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cnf import (
    Assignment,
    CapabilityError,
    CnfFormula,
    InfeasibleError,
    ParseError,
    PartialSetError,
    UnsatError,
)
from .dispersion import FarthestOracle, gonzalez_min
from .schoning import BudgetPlan, anchored_farthest_min, weight_window


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
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("expected 'n m' header", lineno)
    n, m = int(parts[0]), int(parts[1])
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'u v' edge", lineno)
        edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise ParseError(f"header declared {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def parse_set_family(text):
    """One set per line of space-separated 1-based indices."""
    sets = []
    top = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        elems = [int(tok) for tok in line.split()]
        sets.append(elems)
        top = max(top, max(elems))
    if not sets:
        raise ParseError("empty set-family input")
    return SetFamily.from_lists(top, sets)


def reduce_vertex_cover(graph):
    """2-CNF whose solutions are exactly the vertex covers, with identical
    weights and pairwise distances (an isometric reduction)."""
    clauses = [(u, v) for u, v in graph.edges]
    return CnfFormula(graph.num_vertices, clauses)


def reduce_independent_set(graph):
    """2-CNF whose solutions are exactly the independent sets."""
    clauses = [(-u, -v) for u, v in graph.edges]
    return CnfFormula(graph.num_vertices, clauses)


def reduce_hitting_set(family):
    """d-CNF whose solutions are exactly the hitting sets of the family."""
    clauses = [tuple(sorted(s)) for s in family.sets]
    return CnfFormula(family.n, clauses)


@dataclass(frozen=True)
class ImplicitSetSystem:
    """n, a feasibility predicate on subsets of [n], an optional monotone
    extension search (A, t) -> feasible superset within t additions, and
    a hereditary declaration (supersets of feasible sets are feasible)."""

    n: int
    feasible: object
    monotone_search: object = None
    hereditary: bool = False
    c: Fraction = Fraction(2)  # branching base of the extension search


def hitting_set_monotone_search(family, base, t):
    """Feasible superset of `base` within t additions, by branching on
    the first un-hit set (at most d branches, depth t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    base = frozenset(base)
    for s in family.sets:
        if not s & base:
            if t == 0:
                return None
            for element in sorted(s):
                found = hitting_set_monotone_search(
                    family, base | {element}, t - 1
                )
                if found is not None:
                    return found
            return None
    return base


def hitting_set_system(family):
    return ImplicitSetSystem(
        n=family.n,
        feasible=lambda a: all(s & a for s in family.sets),
        monotone_search=lambda a, t: hitting_set_monotone_search(family, a, t),
        hereditary=True,
        c=Fraction(max(family.d, 2)),
    )


def vertex_cover_system(graph):
    """Vertex cover as 2-hitting set over the edge family."""
    family = SetFamily.from_lists(graph.num_vertices, graph.edges)
    return hitting_set_system(family)


def plfs_from_monotone(system):
    """Local feasibility search for a hereditary system from its
    monotone extension search.

    For hereditary families, a feasible set within Hamming distance t of
    A exists iff one exists among supersets gaining at most t elements
    (take the union), so the cone search is complete for the ball.
    """
    if not system.hereditary:
        raise CapabilityError("PLFS bridge requires a hereditary system")
    if system.monotone_search is None:
        raise CapabilityError("system has no monotone extension search")

    def plfs(base, t):
        return system.monotone_search(frozenset(base), t)

    return plfs


def _set_to_assignment(n, subset):
    key = 0
    for e in subset:
        key |= 1 << (n - e)
    return Assignment(n, key)


def _key_to_set(n, key):
    members = []
    while key:
        low = key & -key
        members.append(n + 1 - low.bit_length())
        key ^= low
    return frozenset(members)


def _assignment_to_set(z):
    return _key_to_set(z.n, z.key)


def minimum_feasible_weight(system):
    """Smallest feasible-set size, by deepening the extension search."""
    plfs = plfs_from_monotone(system)
    for t in range(system.n + 1):
        found = plfs(frozenset(), t)
        if found is not None:
            return len(found), found
    raise UnsatError("the system has no feasible set")


def diverse_min(system, s, delta, cfg):
    """s dispersed feasible sets, each of size at most (1+delta) OPT.

    The CNF anchored machinery runs unchanged with the system's PLFS,
    one call per task, in place of the walks: anchors are the current
    sets plus the empty set, starts come from the anchored search's
    block sampler, and the exact-weight target is OPT, so
    qualifying outputs stay near-minimum while min-distance is pushed up.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    n = system.n
    plfs = plfs_from_monotone(system)
    opt, witness = minimum_feasible_weight(system)
    delta = Fraction(delta)
    plan = BudgetPlan(n, delta, 1, system.c)
    window = weight_window(delta, opt)

    def search(keys, t, gen):
        out = np.zeros(len(keys), dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        for i, (key, ti) in enumerate(zip(keys.tolist(), t.tolist())):
            found = plfs(_key_to_set(n, key), ti)
            if found is not None:
                out[i], hit[i] = _set_to_assignment(n, found).key, True
        return out, hit

    def fn(formula, anchors, salt):
        return anchored_farthest_min(
            n, anchors, plan, cfg.spawn(2, *salt), search, window
        )

    oracle = FarthestOracle("min", fn)
    seed = _set_to_assignment(n, witness)

    try:
        out = gonzalez_min(
            system,
            s,
            oracle,
            lambda _: seed,
            verify=lambda z: system.feasible(_assignment_to_set(z)),
        )
    except PartialSetError as err:
        raise InfeasibleError(
            f"fewer than {s} qualifying dispersed sets found at this budget"
        ) from err
    return out

