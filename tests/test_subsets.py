import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from dispersat import schoning, subsets
from dispersat.brute import enumerate_solutions
from dispersat.cnf import ParseError, UnsatError
from dispersat.measures import min_pairwise_distance
from dispersat.ppz import OracleConfig
from dispersat.subsets import (
    Graph,
    SetFamily,
    diverse_min,
    hitting_set_monotone_search,
    minimum_feasible_weight,
    parse_graph,
    parse_set_family,
    reduce_hitting_set,
    reduce_independent_set,
    reduce_vertex_cover,
    _assignment_to_set,
    _set_to_assignment,
)

import reference_search

TRIANGLE = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(v for v in range(1, n + 1) if mask & (1 << (v - 1)))


def brute_covers(graph):
    return [
        a
        for a in all_subsets(graph.num_vertices)
        if all(u in a or v in a for u, v in graph.edges)
    ]


def brute_independent(graph):
    return [
        a
        for a in all_subsets(graph.num_vertices)
        if not any(u in a and v in a for u, v in graph.edges)
    ]


def brute_hitting(family):
    return [a for a in all_subsets(family.n) if all(s & a for s in family.sets)]


def random_graph(rng, n, p=0.4):
    edges = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_family(rng, n, count, d=3):
    sets = [
        rng.sample(range(1, n + 1), rng.randint(1, min(d, n)))
        for _ in range(count)
    ]
    return SetFamily.from_lists(n, sets)


class TestParsers:
    def test_graph(self):
        g = parse_graph("3 2\n1 2\n2 3\n")
        assert g.num_vertices == 3 and g.edges == ((1, 2), (2, 3))

    def test_graph_errors(self):
        with pytest.raises(ParseError):
            parse_graph("")
        with pytest.raises(ParseError):
            parse_graph("3 2\n1 2\n")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_graph, "# header next\n3 two\n1 2\n", "line 2: expected integers, got '3 two'"),
            (parse_graph, "3 2\n1 2\n\n1 two\n", "line 4: expected integers, got '1 two'"),
            (parse_set_family, "1 2\n# c\n3 4.5\n", "line 3: expected integers, got '3 4.5'"),
        ],
        ids=["graph-header", "graph-edge", "family"],
    )
    def test_non_integer_token_names_its_line(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_graph, "-2 0\n", "line 1: expected 'n m' header with n >= 0"),
            (parse_graph, "3 2\n1 2\n# c\n2 2\n", "line 4: self-loop at vertex 2"),
            (parse_graph, "4 2\n1 2\n1 5\n", "line 3: edge (1,5) out of range"),
            (parse_graph, "4 1\n0 2\n", "line 2: edge (0,2) out of range"),
            (parse_set_family, "1 2\n\n3 0 4\n", "line 3: set element 0 below 1"),
            (parse_set_family, "-1\n", "line 1: set element -1 below 1"),
        ],
        ids=["negative-n", "self-loop", "above-n", "zero-vertex", "zero-elem", "negative-elem"],
    )
    def test_range_errors_name_their_line(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_family(self):
        fam = parse_set_family("1 2 3\n3 4 5\n")
        assert fam.n == 5 and fam.d == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])


class TestReductions:
    def test_vertex_cover_triangle(self):
        f = reduce_vertex_cover(TRIANGLE)
        sols = enumerate_solutions(f)
        expected = sorted(brute_covers(TRIANGLE), key=sorted)
        got = sorted((_assignment_to_set(z) for z in sols), key=sorted)
        assert got == expected
        assert min(z.weight() for z in sols) == 2

    def test_independent_set_triangle(self):
        f = reduce_independent_set(TRIANGLE)
        sols = enumerate_solutions(f)
        assert sorted(z.to_string() for z in sols) == ["000", "001", "010", "100"]
        assert max(z.weight() for z in sols) == 1

    def test_hitting_set(self):
        fam = SetFamily.from_lists(5, [[1, 2, 3], [3, 4, 5]])
        f = reduce_hitting_set(fam)
        sols = enumerate_solutions(f)
        assert min(z.weight() for z in sols) == 1  # {3}
        assert f.k == 3

    def test_isometry_exhaustive(self):
        rng = random.Random(60)
        for _ in range(15):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            for reducer, brute in (
                (reduce_vertex_cover, brute_covers),
                (reduce_independent_set, brute_independent),
            ):
                f = reducer(g)
                sols = [_assignment_to_set(z) for z in enumerate_solutions(f)]
                assert sorted(sols, key=sorted) == sorted(brute(g), key=sorted)
            fam = random_family(rng, n, rng.randint(1, 2 * n))
            f = reduce_hitting_set(fam)
            sols = [_assignment_to_set(z) for z in enumerate_solutions(f)]
            assert sorted(sols, key=sorted) == sorted(
                brute_hitting(fam), key=sorted
            )


class TestMonotoneSearch:
    def test_single_element_hits_both(self):
        fam = SetFamily.from_lists(3, [[1, 2], [2, 3]])
        assert hitting_set_monotone_search(fam, frozenset(), 1) == {2}

    def test_no_budget(self):
        fam = SetFamily.from_lists(3, [[1, 2]])
        assert hitting_set_monotone_search(fam, frozenset(), 0) is None

    def test_already_hitting(self):
        fam = SetFamily.from_lists(3, [[1, 2]])
        assert hitting_set_monotone_search(fam, frozenset({1}), 0) == {1}

    def test_matches_exhaustive_cone_search(self):
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(3, 9)
            fam = random_family(rng, n, rng.randint(1, n))
            base = frozenset(rng.sample(range(1, n + 1), rng.randint(0, 2)))
            t = rng.randint(0, 4)
            found = hitting_set_monotone_search(fam, base, t)
            cone_has = any(
                all(s & (base | extra) for s in fam.sets)
                for size in range(t + 1)
                for extra in map(
                    frozenset, combinations(sorted(set(range(1, n + 1)) - base), size)
                )
            )
            assert (found is not None) == cone_has
            if found is not None:
                assert base <= found and len(found - base) <= t
                assert all(s & found for s in fam.sets)


def odd_family(rng, n):
    """A random family of up to 4-element sets, with its singleton sets
    and a duplicate set more likely than random_family makes them."""
    sets = [
        rng.sample(range(1, n + 1), min(rng.choice((1, 1, 2, 3, 4)), n))
        for _ in range(rng.randint(1, min(2 * n, 20)))
    ]
    sets.append(list(rng.choice(sets)))
    rng.shuffle(sets)
    return SetFamily.from_lists(n, sets)


class TestPackedExtensionSearch:
    """The packed block search finds what hitting_set_monotone_search
    finds, start by start, bit for bit."""

    def check_block(self, family, bases, ts):
        n = family.n
        keys = np.array([_set_to_assignment(n, b).key for b in bases], dtype=np.int64)
        search = subsets._extension_search(reduce_hitting_set(family))
        out, hit = search(keys, np.array(ts, dtype=np.int64), None)
        hits = 0
        for i, (base, t) in enumerate(zip(bases, ts)):
            want = reference_search.hitting_set_monotone_search(family, base, t)
            assert bool(hit[i]) == (want is not None)
            if want is not None:
                assert int(out[i]) == _set_to_assignment(n, want).key
                hits += 1
        return hits

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_matches_recursive_search(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(schoning, "_GROUP_WALKS", chunk)
        rng = random.Random(64)
        hits = starts = 0
        for n in [*range(1, 15)] * 12 + [62, 63] * 6:
            family = odd_family(rng, n)
            bases = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3))))
                for _ in range(rng.randint(1, 12))
            ]
            ts = [rng.randint(0, 4) for _ in bases]
            hits += self.check_block(family, bases, ts)
            starts += len(bases)
        assert 0.2 * starts < hits < 0.9 * starts  # feasible and infeasible starts

    @pytest.mark.parametrize("n", [1, 5, 63])
    def test_empty_family(self, n):
        family = SetFamily.from_lists(n, [])
        bases = [frozenset(), frozenset({1}), frozenset({n})]
        assert self.check_block(family, bases, [0, 2, 4]) == 3

    def test_singletons_and_duplicates(self):
        family = SetFamily.from_lists(6, [[2], [1, 3], [2], [1, 3], [4, 5, 6], [6]])
        bases = [frozenset(), frozenset({2}), frozenset({2, 6}), frozenset({1, 6})]
        for t in range(5):
            self.check_block(family, bases, [t] * len(bases))
        assert self.check_block(family, [frozenset()], [2]) == 0
        assert self.check_block(family, [frozenset()], [3]) == 1

    def test_cone_escape_raises_under_python_O(self):
        script = """
import numpy as np
from fractions import Fraction
from dispersat import schoning, subsets
from dispersat.ppz import OracleConfig

def outside(self, keys, t):
    return keys ^ 1, np.ones(len(keys), dtype=bool)

schoning._Walker.extend = outside
family = subsets.SetFamily.from_lists(4, [[1, 2], [3, 4]])
try:
    subsets.diverse_min(family, 2, Fraction(1, 2), OracleConfig(seed=3))
except AssertionError as err:
    print(err)
"""
        src = str(Path(subsets.__file__).resolve().parents[1])
        # the child gets no PYTHONDONTWRITEBYTECODE from env; -B keeps the choice
        bytecode = ["-B"] if sys.flags.dont_write_bytecode else []
        done = subprocess.run(
            [sys.executable, *bytecode, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert done.stdout.strip() == "extension left its cone", done.stderr

    @pytest.mark.parametrize(
        "escape",
        [lambda keys: keys & (keys - 1), lambda keys: keys | 0b1111],
        ids=["drops-a-start-element", "adds-more-than-t"],
    )
    def test_cone_escape_raises(self, monkeypatch, escape):
        def run(self, keys, t):
            return escape(keys), np.ones(len(keys), dtype=bool)

        monkeypatch.setattr(schoning._Walker, "extend", run)
        family = SetFamily.from_lists(6, [[1]])
        search = subsets._extension_search(reduce_hitting_set(family))
        with pytest.raises(AssertionError, match="extension left its cone"):
            search(np.array([0b110000]), np.array([3]), None)


class TestPlfs:
    """Hitting sets are hereditary (supersets of a hitting set hit too),
    so the cone search from a base is a complete local feasibility
    search for its Hamming ball."""

    def test_ball_completeness(self):
        rng = random.Random(62)
        for _ in range(20):
            n = rng.randint(3, 10)
            fam = random_family(rng, n, rng.randint(1, n))

            def feasible(a):
                return all(s & a for s in fam.sets)

            base = frozenset(rng.sample(range(1, n + 1), rng.randint(0, 3)))
            t = rng.randint(0, 4)
            found = hitting_set_monotone_search(fam, base, t)
            ball_has = any(
                feasible(a)
                for a in all_subsets(n)
                if len(a ^ base) <= t
            )
            assert (found is not None) == ball_has
            if found is not None:
                assert len(found ^ base) <= t
                assert feasible(found)

    def test_zero_radius_feasible_base(self):
        fam = SetFamily.from_lists(2, [[1]])
        assert hitting_set_monotone_search(fam, frozenset({1}), 0) == {1}

    def test_min_weight(self):
        fam = SetFamily.from_lists(5, [[1, 2, 3], [3, 4, 5]])
        opt, witness = minimum_feasible_weight(fam)
        assert opt == 1 and witness == {3}

    def test_min_weight_is_the_first_depth_with_a_hit(self):
        """OPT is the smallest t at which the recursive search from the
        empty set finds a hitting set, and the witness is what it finds."""
        rng = random.Random(65)
        families = [SetFamily.from_lists(0, [])]
        families += [odd_family(rng, rng.randint(1, 12)) for _ in range(80)]
        for family in families:
            for t in range(family.n + 1):
                want = reference_search.hitting_set_monotone_search(family, frozenset(), t)
                if want is not None:
                    break
            assert minimum_feasible_weight(family) == (t, want)

    def test_min_weight_of_a_family_with_an_empty_set(self):
        family = SetFamily(4, (frozenset({1, 2}), frozenset()))
        with pytest.raises(UnsatError, match="^the family has no hitting set$"):
            minimum_feasible_weight(family)

    def test_min_weight_builds_each_level_once(self, monkeypatch):
        """On a 20-vertex path (OPT = 10) the one pass tests levels 0..10
        once each: 11 calls, where deepening over t = 0..10 makes 66."""
        calls = []
        real = schoning._Walker.first_violated

        def counted(self, x):
            calls.append(len(x))
            return real(self, x)

        monkeypatch.setattr(schoning._Walker, "first_violated", counted)
        path = SetFamily.from_lists(20, [[v, v + 1] for v in range(1, 20)])
        opt, witness = minimum_feasible_weight(path)
        assert opt == 10 and all(s & witness for s in path.sets)
        assert len(calls) == 11


class TestDiverseMin:
    def test_triangle_cover_pair(self):
        edges = SetFamily.from_lists(3, TRIANGLE.edges)
        out = diverse_min(edges, 2, Fraction(1, 2), OracleConfig(seed=70, effort=2.0))
        covers = [_assignment_to_set(z) for z in out]
        assert len(covers) == 2
        assert all(len(c) <= 3 for c in covers)  # (1 + delta) * OPT = 3
        opt_pairs = [
            (a, b)
            for a, b in combinations([c for c in brute_covers(TRIANGLE) if len(c) == 2], 2)
        ]
        best = max(len(a ^ b) for a, b in opt_pairs)
        assert min_pairwise_distance(out) * 2 >= best * (1 - Fraction(1, 2))

    def test_disjoint_family(self):
        fam = SetFamily.from_lists(4, [[1, 2], [3, 4]])
        out = [
            _assignment_to_set(z)
            for z in diverse_min(fam, 2, Fraction(1, 2), OracleConfig(seed=71, effort=2.0))
        ]
        assert len(out) == 2
        assert all(len(c) <= 3 for c in out)
        assert len(out[0] ^ out[1]) >= 1

    def test_s_one_is_near_minimum(self):
        fam = SetFamily.from_lists(5, [[1, 2, 3], [3, 4, 5]])
        out = [
            _assignment_to_set(z)
            for z in diverse_min(fam, 1, Fraction(1, 2), OracleConfig(seed=72))
        ]
        assert len(out) == 1 and len(out[0]) == 1

    @pytest.mark.parametrize("s", [2, 3])
    def test_factor_against_brute(self, s):
        rng = random.Random(63 + s)
        done = 0
        while done < 6:
            n = rng.randint(3, 9)
            fam = random_family(rng, n, rng.randint(1, n))
            feas = brute_hitting(fam)
            if not feas:
                continue
            opt = min(len(a) for a in feas)
            minimum = [a for a in feas if len(a) == opt]
            if len(minimum) < s:
                continue
            best = max(
                min(len(a ^ b) for a, b in combinations(chosen, 2))
                for chosen in combinations(minimum, s)
            )
            delta = Fraction(1, 2)
            out = diverse_min(
                fam, s, delta, OracleConfig(seed=700 + 10 * s + done, effort=3.0)
            )
            assert all(z.weight() <= (1 + delta) * opt for z in out)
            assert min_pairwise_distance(out) >= Fraction(1, 2) * (1 - delta) * best
            done += 1
