import random
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from dispersat.brute import (
    brute_opt,
    diameter_via_min_ones,
    enumerate_solutions,
    farthest_min,
    farthest_sum,
    min_ones_brute,
)
from dispersat.cnf import (
    Assignment,
    CapabilityError,
    CnfFormula,
    InfeasibleError,
    UnsatError,
    evaluate_keys,
)
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
                    naive = max(
                        min(a.distance(b) for a, b in combinations(c, 2))
                        for c in combinations(sols, s)
                    )
                    val, wit = brute_opt(f, s, DispersionObjective.MIN_PD)
                    assert val == naive
                    assert min_pairwise_distance(wit) == val
                    naive_sum_ne = max(
                        sum(a.distance(b) for a, b in combinations(c, 2))
                        for c in combinations(sols, s)
                    )
                    val_ne, _ = brute_opt(
                        f, s, DispersionObjective.SUM_PD_DISTINCT
                    )
                    assert val_ne == naive_sum_ne
                naive_sum = max(
                    sum(a.distance(b) for a, b in combinations(c, 2))
                    for c in combinations_with_replacement(sols, s)
                )
                val_s, wit_s = brute_opt(f, s, DispersionObjective.SUM_PD)
                assert val_s == naive_sum
                assert sum_pairwise_distance(wit_s) == val_s

    def test_min_pd_s4_matches_naive(self):
        rng = random.Random(99)
        for _ in range(10):
            n = rng.randint(3, 7)
            f = random_formula(rng, n, m=n)
            sols = enumerate_solutions(f).members
            if len(sols) < 4:
                continue
            naive = max(
                min(a.distance(b) for a, b in combinations(c, 2))
                for c in combinations(sols, 4)
            )
            val, wit = brute_opt(f, 4, DispersionObjective.MIN_PD)
            assert val == naive
            assert min_pairwise_distance(wit) == val


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
