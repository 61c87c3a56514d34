import random
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

import dispersat.brute as brute_module
from dispersat.brute import (
    _best_tuple,
    _solution_space,
    brute_opt,
    diameter_via_min_ones,
    distance_matrix,
    enumerate_solutions,
    farthest_min,
    farthest_sum,
    min_ones_brute,
    solution_keys,
)
from dispersat.cnf import (
    Assignment,
    CapabilityError,
    CnfFormula,
    InfeasibleError,
    UnsatError,
    evaluate_keys,
    solution_indicator,
)
from dispersat.generators import planted_kcnf
from dispersat.measures import (
    DispersionObjective,
    WeightConstraint,
    WeightKind,
    min_pairwise_distance,
    sum_pairwise_distance,
)


def A(s):
    return Assignment.from_string(s)


def random_formula(rng, n, k=3, m=None):
    m = m if m is not None else 2 * n
    clauses = [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, k))]
        for _ in range(m)
    ]
    return CnfFormula(n, clauses)


def naive_first(sols, s, objective):
    """(value, tuple) of the first maximiser over the s-subsets (s-multisets
    for SUM_PD) of the ascending `sols`, in itertools order."""
    gen = combinations if objective.distinct else combinations_with_replacement
    fold = min if objective is DispersionObjective.MIN_PD else sum
    best = (-1, None)
    for c in gen(sols, s):
        val = fold(a.distance(b) for a, b in combinations(c, 2))
        if val > best[0]:
            best = (val, c)
    return best


class TestEnumerate:
    def test_or_clause(self):
        sols = enumerate_solutions(CnfFormula(2, [(1, 2)]))
        assert [z.to_string() for z in sols] == ["01", "10", "11"]

    def test_unique_solution(self):
        sols = enumerate_solutions(CnfFormula(2, [(1,), (-2,)]))
        assert [z.to_string() for z in sols] == ["10"]

    def test_unsat(self):
        sols = enumerate_solutions(CnfFormula(1, [(1,), (-1,)]))
        assert len(sols) == 0

    def test_matches_chunked_key_scan(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(0, 10)
            f = random_formula(rng, n, k=rng.randint(1, 4), m=rng.randint(0, 2 * n))
            keys = np.arange(1 << n, dtype=np.int64)
            expected = keys[evaluate_keys(f, keys)].tolist()
            sols = enumerate_solutions(f)
            assert [z.key for z in sols] == expected
            assert all(z.n == n for z in sols)

    def test_limit_guard(self):
        with pytest.raises(CapabilityError):
            enumerate_solutions(CnfFormula(30, []), limit=24)

    def test_keys_cached_read_only_and_limit_checked_each_call(self):
        f = CnfFormula(5, [(1, 2), (-3, 4)])
        keys = solution_keys(f)
        assert solution_keys(f) is keys
        assert not keys.flags.writeable
        with pytest.raises(ValueError):
            keys[0] = 0
        assert [z.key for z in enumerate_solutions(f)] == keys.tolist()
        with pytest.raises(CapabilityError, match="n=5 exceeds enumeration limit 4"):
            solution_keys(f, limit=4)
        with pytest.raises(CapabilityError, match="n=5 exceeds enumeration limit 4"):
            enumerate_solutions(f, limit=4)


def _enumeration_cases():
    """Formulas for the prefix enumerator: n = 0, no clauses and an empty
    clause, unit-clause backbones, a dense space, and random and planted
    k-CNF up to n = 20."""
    rng = random.Random(41)
    nrng = np.random.default_rng(41)
    cases = [
        CnfFormula(0, []),
        CnfFormula(0, [()]),
        CnfFormula(3, [(1, 2), ()]),
        CnfFormula(9, []),
        CnfFormula(6, [(1, 2), (-3, 4)]),
        CnfFormula(8, [(1,), (-3,), (8,)]),
        CnfFormula(7, [(v if v % 2 else -v,) for v in range(1, 8)]),
    ]
    for n in (4, 8, 12, 16, 20):
        for k in (2, 3, 4):
            cases.append(random_formula(rng, n, k=k, m=rng.randint(n, 4 * n)))
            planted, (z,) = planted_kcnf(n, k, rng.randint(2 * n, 5 * n), nrng)
            units = [(v if z.bit(v) else -v,) for v in rng.sample(range(1, n + 1), n // 4)]
            cases += [planted, CnfFormula(n, list(planted.clauses) + units)]
    return cases


class TestPrefixEnumeration:
    """`solution_keys` grows prefixes while few live and builds the 2^n
    indicator past its frontier cap; both sides give the indicator's keys
    and the same projection."""

    @pytest.fixture
    def built(self, monkeypatch):
        """How many `solution_indicator` tables the enumerator built."""
        calls = []

        def spy(formula):
            calls.append(formula.n)
            return solution_indicator(formula)

        monkeypatch.setattr(brute_module, "solution_indicator", spy)
        return calls

    @pytest.mark.parametrize(
        "clause_shift, frontier_shift, side",
        [(0, 0, "grown"), (0, 99, "indicator"), (None, None, "default")],
    )
    def test_keys_match_the_indicator(self, monkeypatch, built, clause_shift, frontier_shift, side):
        if clause_shift is not None:
            monkeypatch.setattr(brute_module, "_CLAUSE_SHIFT", clause_shift)
            monkeypatch.setattr(brute_module, "_FRONTIER_SHIFT", frontier_shift)
        sides = set()
        for f in _enumeration_cases():
            before = len(built)
            keys, bits, base = _solution_space(f)
            took = len(built) > before
            sides.add(took)
            # an empty clause has no last variable, and at n = 0 there is
            # no level at which to pass the cap
            if side == "grown":
                assert took == (() in f.clauses or len(f.clauses) >= 1 << f.n)
            elif side == "indicator":
                assert took == (() in f.clauses or f.n > 0)
            expected = np.flatnonzero(solution_indicator(f))
            assert keys.dtype == np.int64
            assert keys.tolist() == expected.tolist()
            if expected.size:
                common = int(np.bitwise_and.reduce(expected))
                free = int(np.bitwise_or.reduce(expected)) ^ common
                assert (bits, base) == ([b for b in range(f.n) if free >> b & 1], common)
        assert sides == {False, True}

    def test_cached_read_only_and_limit_checked_each_call(self, built):
        f = CnfFormula(14, [(1, 2, 3), (-4, 5), (6,)])
        space = _solution_space(f)
        tables = len(built)
        assert _solution_space(f) is space
        assert solution_keys(f) is space[0]
        assert not space[0].flags.writeable
        with pytest.raises(ValueError):
            space[0][0] = 0
        for limit in (13, 0):
            with pytest.raises(CapabilityError, match=f"n=14 exceeds enumeration limit {limit}"):
                solution_keys(f, limit=limit)
            with pytest.raises(CapabilityError, match=f"n=14 exceeds enumeration limit {limit}"):
                _solution_space(f, limit)
        assert solution_keys(f, limit=14) is space[0]
        assert len(built) == tables <= 1


class TestBruteOpt:
    def test_min_pd_pair(self):
        val, wit = brute_opt(
            CnfFormula(2, [(1, 2)]), 2, DispersionObjective.MIN_PD
        )
        assert val == 2
        assert [z.to_string() for z in wit] == ["01", "10"]

    def test_sum_pd_multiset(self):
        val, _ = brute_opt(CnfFormula(2, [(1, 2)]), 3, DispersionObjective.SUM_PD)
        assert val == 4

    def test_weighted(self):
        val, wit = brute_opt(
            CnfFormula(3, [(1, 2, 3)]),
            2,
            DispersionObjective.MIN_PD,
            WeightConstraint(WeightKind.AT_LEAST, 2),
        )
        assert val == 2
        assert all(z.weight() >= 2 for z in wit)

    def test_unsat(self):
        with pytest.raises(UnsatError):
            brute_opt(CnfFormula(1, [(1,), (-1,)]), 2, DispersionObjective.MIN_PD)

    def test_infeasible_set(self):
        with pytest.raises(InfeasibleError):
            brute_opt(
                CnfFormula(2, [(1,), (-2,)]), 2, DispersionObjective.MIN_PD
            )

    def test_multiset_allowed_when_solutions_scarce(self):
        val, wit = brute_opt(
            CnfFormula(2, [(1,), (-2,)]), 3, DispersionObjective.SUM_PD
        )
        assert val == 0
        assert len(wit) == 3

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(2, 7)
            f = random_formula(rng, n)
            sols = enumerate_solutions(f).members
            if not sols:
                continue
            for s in (2, 3):
                # naive min over sets
                if len(sols) >= s:
                    naive, first = naive_first(sols, s, DispersionObjective.MIN_PD)
                    val, wit = brute_opt(f, s, DispersionObjective.MIN_PD)
                    assert val == naive
                    assert wit.members == first
                    assert min_pairwise_distance(wit) == val
                    naive_sum_ne, first_ne = naive_first(
                        sols, s, DispersionObjective.SUM_PD_DISTINCT
                    )
                    val_ne, wit_ne = brute_opt(
                        f, s, DispersionObjective.SUM_PD_DISTINCT
                    )
                    assert val_ne == naive_sum_ne
                    assert wit_ne.members == first_ne
                naive_sum, first_sum = naive_first(sols, s, DispersionObjective.SUM_PD)
                val_s, wit_s = brute_opt(f, s, DispersionObjective.SUM_PD)
                assert val_s == naive_sum
                assert wit_s.members == first_sum
                assert sum_pairwise_distance(wit_s) == val_s

    def test_min_pd_s4_matches_naive(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(3, 7)
            f = random_formula(rng, n, m=n)
            sols = enumerate_solutions(f).members
            if len(sols) < 4:
                continue
            naive, first = naive_first(sols, 4, DispersionObjective.MIN_PD)
            val, wit = brute_opt(f, 4, DispersionObjective.MIN_PD)
            assert val == naive
            assert wit.members == first
            assert min_pairwise_distance(wit) == val

    @pytest.mark.parametrize("objective", list(DispersionObjective))
    def test_first_naive_maximiser_under_ties(self, objective):
        """On n <= 4 many tuples tie; the witness is the first maximiser
        in itertools order for every s = 2..5 and weight bound."""
        rng = random.Random(41)
        weights = [
            WeightConstraint(),
            WeightConstraint(WeightKind.AT_LEAST, 2),
            WeightConstraint(WeightKind.AT_MOST, 2),
        ]
        checked = 0
        for _ in range(30):
            n = rng.randint(2, 4)
            f = random_formula(rng, n, k=rng.randint(1, 3), m=rng.randint(0, n))
            for weight in weights:
                pool = [z for z in enumerate_solutions(f) if weight.admits(z)]
                for s in range(2, 6):
                    if not pool or (objective.distinct and len(pool) < s):
                        continue
                    val, wit = brute_opt(f, s, objective, weight)
                    assert (val, wit.members) == naive_first(pool, s, objective)
                    checked += 1
        assert checked > 100


class TestSumBound:
    @pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "multiset"])
    def test_pruned_search_matches_the_unpruned_one(self, repeat):
        """The sum search skips prefixes by their bound and stops at the
        Hamming ceiling; (value, witness) stay those of the search that
        skips nothing: the first maximiser in itertools order."""
        rng = np.random.default_rng(23 + repeat)
        tuples = combinations_with_replacement if repeat else combinations
        at_ceiling = []
        for _ in range(60):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(1, min(1 << n, 12) + 1))
            keys = np.sort(rng.choice(1 << n, size=m, replace=False))
            dmat = distance_matrix(keys)
            width = int(np.bitwise_or.reduce(keys ^ keys[0])).bit_count()
            for s in range(2, 6):
                if m < s and not repeat:
                    continue
                unpruned = (-1, None)
                for idx in tuples(range(m), s):
                    value = sum(int(dmat[a, b]) for a, b in combinations(idx, 2))
                    if value > unpruned[0]:
                        unpruned = (value, idx)
                assert _best_tuple(dmat, s, np.add, repeat, width) == unpruned
                at_ceiling.append(unpruned[0] == width * (s * s // 4))
        assert 10 < sum(at_ceiling) < len(at_ceiling) - 10


class TestFarthest:
    def test_farthest_min(self):
        f = CnfFormula(2, [(1, 2)])
        z = farthest_min(f, [A("01")])
        assert z == A("10")

    def test_farthest_sum_exclude(self):
        f = CnfFormula(2, [(1, 2)])
        z = farthest_sum(f, [A("01"), A("10")], exclude=True)
        assert z == A("11")


class TestMinOnes:
    def test_lexicographic_tie(self):
        assert min_ones_brute(CnfFormula(2, [(1, 2)])) == A("01")

    def test_trivially_true(self):
        assert min_ones_brute(CnfFormula(3, [])) == A("000")

    def test_unsat(self):
        with pytest.raises(UnsatError):
            min_ones_brute(CnfFormula(1, [(1,), (-1,)]))

    def test_diameter_pair(self):
        z1, z2 = diameter_via_min_ones(CnfFormula(2, [(1, 2)]))
        assert z1.distance(z2) == 2

    def test_half_diameter_guarantee(self):
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 10)
            f = random_formula(rng, n)
            sols = enumerate_solutions(f).members
            if not sols:
                continue
            diam = max(
                a.distance(b) for a in sols for b in sols
            )
            z1, z2 = diameter_via_min_ones(f)
            assert 2 * z1.distance(z2) >= diam
            checked += 1
