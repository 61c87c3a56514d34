"""Size limits: an instance past the 63-bit key width is refused with
CapabilityError by every public entry point, and no invariant of the
library is an `assert` statement that `python -O` would strip."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dispersat
from dispersat import schoning, subsets
from dispersat.brute import enumerate_solutions
from dispersat.cnf import Assignment, CapabilityError, CnfFormula
from dispersat.dispersion import gonzalez_min, ppz_oracle
from dispersat.fwht import exact_diameter, exact_dispersion
from dispersat.generators import planted_kcnf, random_kcnf
from dispersat.measures import DispersionObjective
from dispersat.ppz import (
    OracleConfig,
    ppz_farthest_min,
    ppz_farthest_sum,
    ppz_solve,
    tau_exact,
)
from dispersat.schoning import (
    BudgetPlan,
    sample_annulus,
    schoning_farthest_sum,
    schoning_farthest_weighted,
    schoning_solve_counted,
    schoning_walk,
)
from dispersat.subsets import (
    Graph,
    SetFamily,
    _extension_search,
    diverse_min,
    hitting_set_monotone_search,
    reduce_hitting_set,
)

F64 = CnfFormula(64, [(1, 2), (3, -4)])
CFG = OracleConfig(seed=1, repetitions=8)
TOP = Assignment(64, 2**63 + 5)  # a key that does not fit an int64
PLAN = BudgetPlan(64, Fraction(1, 2), 1, 2)


def edge_family(graph):
    """Vertex cover as hitting the edges."""
    return SetFamily.from_lists(graph.num_vertices, graph.edges)


def _rng():
    return np.random.default_rng(0)


ENTRY_POINTS = {
    "enumerate_solutions": lambda: enumerate_solutions(F64),
    "exact_diameter": lambda: exact_diameter(F64),
    "exact_dispersion": lambda: exact_dispersion(F64, 2, DispersionObjective.MIN_PD),
    "ppz_solve": lambda: ppz_solve(F64, CFG),
    "ppz_farthest_sum": lambda: ppz_farthest_sum(F64, [TOP], CFG),
    "ppz_farthest_sum_exclude": lambda: ppz_farthest_sum(F64, [TOP], CFG, exclude=True),
    "ppz_farthest_min": lambda: ppz_farthest_min(F64, [TOP], CFG),
    "tau_exact": lambda: tau_exact(F64, [TOP]),
    "schoning_solve_counted": lambda: schoning_solve_counted(F64, CFG),
    "schoning_farthest_sum": lambda: schoning_farthest_sum(F64, [TOP], PLAN, CFG),
    "schoning_farthest_weighted": lambda: schoning_farthest_weighted(
        F64, [TOP], 0, PLAN, CFG
    ),
    "sample_annulus": lambda: sample_annulus(TOP, 1, 2, _rng()),
    "schoning_walk": lambda: schoning_walk(F64, TOP, 5, _rng()),
    "gonzalez_min_ppz": lambda: gonzalez_min(
        F64, 2, ppz_oracle(CFG, DispersionObjective.MIN_PD)
    ),
    "diverse_min": lambda: diverse_min(
        SetFamily.from_lists(64, [(1, 2), (3, 64)]),
        2,
        Fraction(1, 2),
        CFG,
    ),
    "diverse_min_vertex_cover": lambda: diverse_min(
        edge_family(Graph.from_edges(64, [(1, 2), (2, 64), (63, 64)])),
        2,
        Fraction(1, 2),
        CFG,
    ),
    "hitting_set_monotone_search": lambda: hitting_set_monotone_search(
        SetFamily.from_lists(64, [(1, 64)]), {1}, 1
    ),
    "planted_kcnf": lambda: planted_kcnf(64, 3, 10, _rng()),
    "random_kcnf": lambda: random_kcnf(64, 3, 10, _rng()),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_n64_answers_or_refuses(name):
    """n = 64 gives an answer or CapabilityError, never a numpy or
    overflow error from a key that does not fit an int64."""
    try:
        ENTRY_POINTS[name]()
    except CapabilityError:
        pass


def test_ppz_farthest_min_refuses_a_64_bit_anchor():
    with pytest.raises(CapabilityError):
        ppz_farthest_min(F64, [TOP], CFG)


def test_schoning_solve_refuses_64_bits():
    with pytest.raises(CapabilityError):
        schoning_solve_counted(F64, CFG)


def test_packed_extension_search_refuses_64_bits():
    """The hitting-set tables refuse n = 64 before building an int64 mask."""
    family = edge_family(Graph.from_edges(64, [(1, 64)]))
    search = _extension_search(reduce_hitting_set(family))
    keys = np.zeros(1, dtype=np.int64)
    with pytest.raises(CapabilityError, match="n=64 exceeds the 63-bit key limit"):
        search(keys, np.ones(1, dtype=np.int64), None)


def test_diverse_min_refuses_64_bits_before_the_deepening(monkeypatch):
    """A 64-vertex path has OPT = 32; its keys do not fit an int64, so
    the OPT search must not start."""

    def deepen(family):
        raise AssertionError("the deepening ran before the key-width check")

    monkeypatch.setattr(subsets, "minimum_feasible_weight", deepen)
    path = Graph.from_edges(64, [(v, v + 1) for v in range(1, 64)])
    with pytest.raises(CapabilityError, match="n=64 exceeds the 63-bit key limit"):
        diverse_min(edge_family(path), 2, Fraction(1, 2), CFG)


def test_n63_still_runs():
    f = CnfFormula(63, [(1, 2), (3, -4)])
    top = Assignment(63, 2**63 - 1)
    assert ppz_farthest_sum(f, [top], CFG, exclude=True) is not None
    assert schoning_solve_counted(f, CFG)[0] is not None


def test_no_assert_statements():
    """Invariants raise explicitly, so they survive `python -O`."""
    found = []
    for path in sorted(Path(dispersat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_diverse_min_checks_the_anchored_cap_before_the_deepening(monkeypatch):
    """A 36-vertex path plans more anchored walks than the cap allows, so
    it is refused before its OPT search runs."""

    def deepen(family):
        raise AssertionError("the deepening ran before the anchored cap check")

    monkeypatch.setattr(subsets, "minimum_feasible_weight", deepen)
    path = Graph.from_edges(36, [(v, v + 1) for v in range(1, 36)])
    with pytest.raises(CapabilityError, match=r"1149656268 walks \(n=36\)"):
        diverse_min(edge_family(path), 2, Fraction(1, 2), CFG)


# A tree that branches three ways on {1, 2, 3}, then two ways on {4, 5}
# below each child: its levels 1 and 2 hold 3 and 6 nodes.
TWO_LEVELS = SetFamily.from_lists(5, [[1, 2, 3], [4, 5]])


@pytest.mark.parametrize(
    "cap, t, expected",
    [
        (6, 2, {1, 4}),
        (5, 2, "level 2 would hold 6 nodes, above the cap of 5"),
        (3, 1, None),
        (2, 1, "level 1 would hold 3 nodes, above the cap of 2"),
        (6, None, (2, {1, 4})),
        (5, None, "level 2 would hold 6 nodes, above the cap of 5"),
    ],
)
def test_extension_search_refuses_a_level_above_the_cap(monkeypatch, cap, t, expected):
    """A level of exactly schoning._LEVEL_NODES nodes is built; one node
    more is refused, by the one-task search and (t = None) by the OPT
    pass."""
    monkeypatch.setattr(schoning, "_LEVEL_NODES", cap)

    def search():
        if t is None:
            return subsets.minimum_feasible_weight(TWO_LEVELS)
        return hitting_set_monotone_search(TWO_LEVELS, frozenset(), t)

    if isinstance(expected, str):
        with pytest.raises(CapabilityError, match=expected):
            search()
    else:
        assert search() == expected


def test_extension_search_refuses_before_building_the_level(monkeypatch):
    """The level's nodes are counted from its parents' clause widths;
    np.nonzero over the parents' literal rows, which builds the level,
    never runs."""
    real = np.nonzero

    def nonzero(a):
        if np.ndim(a) > 1:
            raise AssertionError("a level was built")
        return real(a)

    monkeypatch.setattr(np, "nonzero", nonzero)
    monkeypatch.setattr(schoning, "_LEVEL_NODES", 3)
    with pytest.raises(AssertionError, match="a level was built"):
        hitting_set_monotone_search(TWO_LEVELS, frozenset(), 1)
    monkeypatch.setattr(schoning, "_LEVEL_NODES", 2)
    with pytest.raises(CapabilityError, match="level 1 would hold 3 nodes"):
        hitting_set_monotone_search(TWO_LEVELS, frozenset(), 1)
