"""Subset-problem applications: isometric reductions to CNF, monotone
local search for hitting sets, the hereditary bridge to local
feasibility search, and diverse approximately-minimum solutions.

Subsets of the ground set [n] double as hypercube points, so the whole
dispersion machinery carries over once a parameterized feasibility
search replaces the CNF walk.
"""

from __future__ import annotations

import itertools
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
    check_key_width,
)
from .dispersion import FarthestOracle, gonzalez_min
from .measures import popcount
from .ppz import packed_engine
from .schoning import BudgetPlan, anchored_farthest_min, anchored_walks, weight_window

_NODE_CHUNK = 1 << 11  # nodes per set test; bounds memory, not the search


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
    extension search (A, t) -> feasible superset within t additions, its
    optional packed block search (see _extension_search), and a
    hereditary declaration (supersets of feasible sets are feasible)."""

    n: int
    feasible: object
    monotone_search: object = None
    packed_search: object = None
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


class _Extender:
    """Packed hitting_set_monotone_search over a block of starts, one
    int64 key per node of the branch trees.

    Row i < m of the tables is set i: `mask[i]` has its elements
    (element e is bit n - e, as in keys), `elems[i, j]` its j-th
    smallest one and `width[i]` its size.  Row m is an empty set that no
    key hits, so the first set a key misses is the argmax of
    `(key & mask) == 0`, and it is m exactly when the key hits them all.
    """

    def __init__(self, family):
        n = family.n
        bits = [[1 << (n - e) for e in sorted(s)] for s in family.sets] + [[]]
        self.mask = np.array([sum(row) for row in bits], dtype=np.int64)
        self.width = np.array([len(row) for row in bits], dtype=np.intp)
        self.elems = np.zeros((len(bits), max(family.d, 1)), dtype=np.int64)
        for i, row in enumerate(bits):
            self.elems[i, : len(row)] = row

    def first_missed(self, keys):
        """Index of the first set each key misses (m if none), computed
        _NODE_CHUNK keys at a time."""
        first = np.empty(len(keys), dtype=np.intp)
        for lo in range(0, len(keys), _NODE_CHUNK):
            miss = (keys[lo : lo + _NODE_CHUNK, None] & self.mask) == 0
            first[lo : lo + _NODE_CHUNK] = miss.argmax(axis=1)
        return first

    def run(self, keys, t):
        """Task i's extension of keys[i] within t[i] additions, as
        hitting_set_monotone_search finds it: (int64 keys, hit).

        The branch trees grow level by level, children in node order and
        then element order, so each level lists a task's nodes in
        depth-first preorder.  A task keeps only the nodes before its
        first feasible node of the level and records that node; every
        record therefore precedes the earlier ones in preorder, and the
        last one is the first feasible node of the depth-first search.
        """
        out = np.zeros(len(keys), dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        node, task = keys, np.arange(len(keys))
        for depth in itertools.count():
            first = self.first_missed(node)
            done = np.flatnonzero(first == len(self.mask) - 1)
            done = done[np.diff(task[done], prepend=-1) != 0]  # first per task
            out[task[done]], hit[task[done]] = node[done], True
            cut = np.full(len(keys), len(node))
            cut[task[done]] = done
            keep = (np.arange(len(node)) < cut[task]) & (depth < t[task])
            if not keep.any():
                return out, hit
            node, task, first = node[keep], task[keep], first[keep]
            width = self.width[first]
            real = np.arange(self.elems.shape[1]) < width[:, None]
            node = (node[:, None] | self.elems[first])[real]
            task = np.repeat(task, width)


def _extension_search(family):
    """The anchored search's block search for hitting sets of `family`:
    `search(keys, t, blocks)` -> (int64 keys, hit) extends every start
    keys[i] within t[i] additions, as hitting_set_monotone_search does,
    and draws from no generator of `blocks`.  A tree of depth t has at
    most d^t <= ceil(c^t) leaves, the count the anchored cap charges per
    task.  The tables are built on first use, once per family."""

    def search(keys, t, blocks):
        out, hit = packed_engine(family, _Extender).run(keys, t)
        if ((out & keys) != keys)[hit].any() or (popcount(out ^ keys) > t)[hit].any():
            raise AssertionError("extension left its cone")
        return out, hit

    return search


def hitting_set_system(family):
    return ImplicitSetSystem(
        n=family.n,
        feasible=lambda a: all(s & a for s in family.sets),
        monotone_search=lambda a, t: hitting_set_monotone_search(family, a, t),
        packed_search=_extension_search(family),
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


def _assignment_to_set(z):
    members = []
    key = z.key
    while key:
        low = key & -key
        members.append(z.n + 1 - low.bit_length())
        key ^= low
    return frozenset(members)


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

    The CNF anchored machinery runs unchanged with the system's packed
    extension search in place of the walks: anchors are the current
    sets plus the empty set, starts come from the anchored search's
    block sampler, and the exact-weight target is OPT, so
    qualifying outputs stay near-minimum while min-distance is pushed up.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if system.packed_search is None:
        raise CapabilityError("system has no packed extension search")
    n = system.n
    check_key_width(n)  # before the deepening, which grows as d^OPT
    delta = Fraction(delta)
    plan = BudgetPlan(n, delta, 1, system.c)
    if s > 1:
        anchored_walks(plan, cfg.effort, 2)  # the first oracle call's cap
    opt, witness = minimum_feasible_weight(system)
    window = weight_window(delta, opt)

    def fn(formula, anchors, salt):
        runs = [(cfg.spawn(2, *salt), window)]
        return anchored_farthest_min(n, anchors, plan, runs, system.packed_search)

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

