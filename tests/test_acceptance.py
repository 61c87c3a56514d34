"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `python -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines as they complete.
"""

import math
import random
import statistics
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dispersat.brute import brute_opt, enumerate_solutions
from dispersat.cli import probe_speedup
from dispersat.cnf import Assignment, UnsatError
from dispersat.cliques import opt_min_clique, opt_sum_clique
from dispersat.dispersion import (
    disperse_weighted_min,
    exact_oracle,
    gonzalez_min,
    ppz_oracle,
    sum_disperse,
)
from dispersat.fwht import exact_diameter, exact_dispersion
from dispersat.generators import planted_kcnf, random_kcnf
from dispersat.measures import (
    DispersionObjective,
    WeightKind,
    min_pairwise_distance,
    sum_pairwise_distance,
)
from dispersat.ppz import OracleConfig, tau_histogram
from dispersat.schoning import growth_base, inverse_entropy, make_plan
from dispersat.subsets import (
    SetFamily,
    _assignment_to_set,
    reduce_hitting_set,
    reduce_independent_set,
    reduce_vertex_cover,
    Graph,
)

from solution_graph import solution_adjacency


def report(number, message):
    print(f"\nACCEPTANCE {number:2d}: PASS - {message}")


def satisfiable_random(rng, n, k, m, min_solutions=1, max_solutions=None):
    """Random k-CNF with a solution-count window (for exact comparisons)."""
    while True:
        formula = random_kcnf(n, k, m, rng)
        count = len(enumerate_solutions(formula))
        if count < min_solutions:
            continue
        if max_solutions is not None and count > max_solutions:
            continue
        return formula


def ceil_frac(fraction):
    return -((-fraction.numerator) // fraction.denominator)


# -- 1 -----------------------------------------------------------------


def test_c01_exact_diameter_oracle_equivalence():
    rng = np.random.default_rng(101)
    pyrng = random.Random(101)
    for trial in range(200):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        density = 2 + 2 * pyrng.random()
        formula = random_kcnf(n, k, int(density * n), rng)
        solutions = enumerate_solutions(formula)
        if len(solutions) == 0:
            with pytest.raises(UnsatError):
                exact_diameter(formula)
            continue
        z1, z2 = exact_diameter(formula)
        if len(solutions) == 1:
            assert z1 == z2 == solutions.members[0]
            continue
        value, _ = brute_opt(formula, 2, DispersionObjective.MIN_PD)
        assert z1.distance(z2) == value
    report(1, "FWHT diameter equals brute optimum on 200 random k-CNF")


# -- 2 -----------------------------------------------------------------


def test_c02_exact_dispersion_oracle_equivalence():
    rng = np.random.default_rng(102)
    pyrng = random.Random(102)
    # FWHT path against brute force, every objective, s in {2, 3}
    for trial in range(8):
        n = pyrng.randint(3, 8)
        formula = satisfiable_random(
            rng, n, 3, 3 * n, min_solutions=3, max_solutions=40
        )
        for s in (2, 3):
            for objective in DispersionObjective:
                value, _ = brute_opt(formula, s, objective)
                witness = exact_dispersion(formula, s, objective)
                measure = (
                    min_pairwise_distance
                    if objective is DispersionObjective.MIN_PD
                    else sum_pairwise_distance
                )
                assert measure(witness) == value
    # clique path on explicit point sets, s in {3..6} (covers 3-grouping)
    for s in (3, 4, 5, 6):
        for trial in range(4):
            n = pyrng.randint(4, 7)
            count = pyrng.randint(max(s, 6), min(20, 1 << n))
            keys = pyrng.sample(range(1 << n), count)
            points = [Assignment(n, key) for key in keys]
            wit = opt_min_clique(points, s)
            naive_min = max(
                min(a.distance(b) for a, b in combinations(c, 2))
                for c in combinations(points, s)
            )
            assert min_pairwise_distance(wit) == naive_min
            wit_sum = opt_sum_clique(points, s, distinct=True)
            naive_sum = max(
                sum(a.distance(b) for a, b in combinations(c, 2))
                for c in combinations(points, s)
            )
            assert sum_pairwise_distance(wit_sum) == naive_sum
    # cross-oracle agreement on solution spaces
    for trial in range(4):
        formula = satisfiable_random(
            rng, 6, 3, 14, min_solutions=4, max_solutions=25
        )
        points = enumerate_solutions(formula).members
        value, _ = brute_opt(formula, 3, DispersionObjective.MIN_PD)
        assert min_pairwise_distance(opt_min_clique(points, 3)) == value
        assert (
            min_pairwise_distance(
                exact_dispersion(formula, 3, DispersionObjective.MIN_PD)
            )
            == value
        )
    report(2, "FWHT and clique dispersion match brute force (s=2..6)")


# -- 3 -----------------------------------------------------------------


def test_c03_satisfiability_coding_lemma_exact():
    rng = np.random.default_rng(103)
    k = 3
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 7))
        formula = random_kcnf(n, k, int(rng.integers(n, 3 * n)), rng)
        keys, adjacency = solution_adjacency(formula)
        if not keys:
            continue
        counts, denom = tau_histogram(formula)
        for key in keys:
            tau = Fraction(int(counts[key]), denom)
            j = n - len(adjacency[key])
            assert tau**k >= Fraction(2**j, 2 ** (n * k)), (
                f"coding lemma violated at n={n}, key={key}"
            )
        checked += 1
    report(3, "coding lemma holds exactly for every solution of 50 3-CNF")


# -- 4 -----------------------------------------------------------------


def test_c04_subset_probability_bound_exact():
    rng = np.random.default_rng(104)
    k = 3
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 7))
        formula = random_kcnf(n, k, int(rng.integers(n, 3 * n)), rng)
        keys, adjacency = solution_adjacency(formula)
        if not keys:
            continue
        counts, denom = tau_histogram(formula)
        for _ in range(20):
            size = int(rng.integers(1, len(keys) + 1))
            subset = sorted(
                int(keys[i]) for i in rng.choice(len(keys), size, replace=False)
            )
            in_set = set(subset)
            cut = sum(
                1
                for key in subset
                for nb in adjacency[key]
                if nb not in in_set
            )
            tau = Fraction(sum(int(counts[key]) for key in subset), denom)
            a = len(subset)
            lhs = tau ** (k * a)
            rhs = Fraction(a ** ((k - 1) * a), 2 ** (n * (k - 1) * a + cut))
            assert lhs >= rhs, f"subset mass bound violated at n={n}, |A|={a}"
        checked += 1
    report(4, "subset probability lower bound holds exactly on 20x20 subsets")


# -- 5 -----------------------------------------------------------------


def test_c05_geometric_sampling_far_sets():
    rng = np.random.default_rng(105)
    k = 3
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 7))
        formula = random_kcnf(n, k, int(rng.integers(n, 3 * n)), rng)
        solutions = enumerate_solutions(formula).members
        if not solutions:
            continue
        counts, denom = tau_histogram(formula)
        for _ in range(10):
            anchor = Assignment(n, int(rng.integers(1 << n)))
            r = max(anchor.distance(z) for z in solutions)
            threshold = ceil_frac(Fraction((k - 1) * r, k))
            far = [z for z in solutions if anchor.distance(z) >= threshold]
            tau = Fraction(sum(int(counts[z.key]) for z in far), denom)
            # tau >= (1/2n) 2^(-n + n/k), exactly via k-th powers
            assert (2 * n * tau) ** k >= Fraction(1, 2 ** (n * (k - 1)))
        checked += 1
    report(5, "PPZ far-set probability bound holds exactly (20 x 10 anchors)")


# -- 6 -----------------------------------------------------------------


def test_c06_geometric_sampling_sum_sets():
    rng = np.random.default_rng(106)
    k = 3
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 7))
        formula = random_kcnf(n, k, int(rng.integers(n, 3 * n)), rng)
        solutions = enumerate_solutions(formula).members
        if not solutions:
            continue
        counts, denom = tau_histogram(formula)
        for _ in range(10):
            t = int(rng.integers(1, 4))
            anchors = [
                Assignment(n, int(rng.integers(1 << n))) for _ in range(t)
            ]
            r_sum = max(
                sum(z.distance(a) for a in anchors) for z in solutions
            )
            threshold = ceil_frac(Fraction((k - 1) * r_sum, k + 1))
            far = [
                z
                for z in solutions
                if sum(z.distance(a) for a in anchors) >= threshold
            ]
            tau = Fraction(sum(int(counts[z.key]) for z in far), denom)
            assert (2 * n * tau) ** k >= Fraction(1, 2 ** (n * (k - 1)))
        checked += 1
    report(6, "PPZ sum-far-set probability bound holds exactly (|T| <= 3)")


# -- 7 -----------------------------------------------------------------


def test_c07_gonzalez_guarantee_with_exact_oracle():
    rng = np.random.default_rng(107)
    pyrng = random.Random(107)
    done = 0
    while done < 100:
        n = pyrng.randint(4, 10)
        s = pyrng.randint(2, 4)
        formula = satisfiable_random(
            rng, n, 3, 3 * n, min_solutions=s, max_solutions=60
        )
        out = gonzalez_min(formula, s, exact_oracle(DispersionObjective.MIN_PD))
        opt, _ = brute_opt(formula, s, DispersionObjective.MIN_PD)
        assert 2 * min_pairwise_distance(out) >= opt
        done += 1
    report(7, "Gonzalez with the exact oracle achieves half the optimum, 100/100")


# -- 8 -----------------------------------------------------------------


def test_c08_swap_guarantee_with_exact_oracle():
    rng = np.random.default_rng(108)
    pyrng = random.Random(108)
    s = 4
    done = 0
    while done < 15:
        n = pyrng.randint(4, 8)
        formula = satisfiable_random(
            rng, n, 3, 3 * n, min_solutions=1, max_solutions=30
        )
        oracle = exact_oracle(DispersionObjective.SUM_PD)
        out = sum_disperse(formula, s, oracle)
        opt, _ = brute_opt(formula, s, DispersionObjective.SUM_PD)
        assert (s + 1) * sum_pairwise_distance(out) >= (s - 1) * opt
        # oracle call count certifies round bound: insertion + sweeps
        assert oracle.calls <= (s - 1) + s * s * n * s
        done += 1
    report(8, "swap local search reaches (s-1)/(s+1) of Opt-sum in bounded rounds")


# -- 9 -----------------------------------------------------------------


def test_c09_end_to_end_randomized_drivers():
    rng = np.random.default_rng(109)
    n, k, s = 8, 7, 3
    trials = 100
    ppz_factor = 0.5 * (1 - 1 / (k * inverse_entropy(1 - 1 / k)))
    delta_v1 = Fraction(4, k - 1)
    delta_v2 = min(
        Fraction(1), Fraction(4, k - 1) * (1 + Fraction(1, k - 2)) ** 2
    )
    passes = {"ppz": 0, "sch_v1": 0, "sch_v2": 0}
    for trial in range(trials):
        while True:
            formula, _ = planted_kcnf(n, k, 60, rng)
            count = len(enumerate_solutions(formula))
            if 3 <= count <= 400:
                break
        opt, _ = brute_opt(formula, s, DispersionObjective.MIN_PD)
        cfg = OracleConfig(seed=4200 + trial)

        out = gonzalez_min(
            formula, s, ppz_oracle(cfg, DispersionObjective.MIN_PD)
        )
        if min_pairwise_distance(out) >= ppz_factor * opt:
            passes["ppz"] += 1

        plan1 = make_plan(n, k, delta_v1, "v1")
        out1 = disperse_weighted_min(
            formula, s, 0, WeightKind.NONE, plan1, cfg.spawn(91)
        )
        if min_pairwise_distance(out1) >= 0.5 * float(1 - delta_v1) * opt:
            passes["sch_v1"] += 1

        plan2 = make_plan(n, k, delta_v2, "v2")
        out2 = disperse_weighted_min(
            formula, s, 0, WeightKind.NONE, plan2, cfg.spawn(92)
        )
        if min_pairwise_distance(out2) >= 0.5 * float(1 - delta_v2) * opt:
            passes["sch_v2"] += 1
    for name, count in passes.items():
        assert count >= 95, f"{name} met its factor on only {count}/100 trials"
    report(
        9,
        f"randomized drivers met their factors on {passes} of 100 trials",
    )


# -- 10 ----------------------------------------------------------------


def test_c10_runtime_base_reproduction():
    assert round(growth_base(2, 1, 0.5), 4) == 1.5486  # vertex cover
    assert round(growth_base(3.592, 1, 0.5), 4) == 1.6420  # feedback vertex set
    assert round(growth_base(2.0755, 1, 0.5), 4) == 1.5544  # 3-hitting set
    assert abs(growth_base(1.5538, 1, 0.5) - 1.51) <= 0.005  # multicut on trees
    report(10, "runtime bases 1.5486 / 1.6420 / 1.5544 / 1.51 reproduced")


# -- 11 ----------------------------------------------------------------


def test_c11_budget_minimizer_location():
    n = 40
    for c in (2, 3, 7):
        values = [
            Fraction(2**n) * Fraction(c) ** t / math.comb(n, t)
            for t in range(n + 1)
        ]
        argmin = values.index(min(values))
        assert abs(argmin - n // (c + 1)) <= 1
    report(11, "walk-budget minimizer sits at floor(n/(c+1)) +- 1 for c=2,3,7")


# -- 12 ----------------------------------------------------------------


def _all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(v for v in range(1, n + 1) if mask & (1 << (v - 1)))


def test_c12_isometry_suite():
    rng = random.Random(112)
    for trial in range(12):
        n = rng.randint(2, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.45
        ]
        graph = Graph.from_edges(n, edges)
        covers = [
            a
            for a in _all_subsets(n)
            if all(u in a or v in a for u, v in graph.edges)
        ]
        independent = [
            a
            for a in _all_subsets(n)
            if not any(u in a and v in a for u, v in graph.edges)
        ]
        sets = [
            rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            for _ in range(rng.randint(1, 2 * n))
        ]
        family = SetFamily.from_lists(n, sets)
        hitting = [
            a for a in _all_subsets(n) if all(s & a for s in family.sets)
        ]
        for formula, expected in (
            (reduce_vertex_cover(graph), covers),
            (reduce_independent_set(graph), independent),
            (reduce_hitting_set(family), hitting),
        ):
            solutions = enumerate_solutions(formula).members
            mapped = [_assignment_to_set(z) for z in solutions]
            assert sorted(mapped, key=sorted) == sorted(expected, key=sorted)
            assert [len(m) for m in mapped] == [z.weight() for z in solutions]
            for i in range(len(solutions)):
                for j in range(i + 1, len(solutions)):
                    assert len(mapped[i] ^ mapped[j]) == solutions[i].distance(
                        solutions[j]
                    )
    report(12, "all three reductions are isometric on exhaustive instances")


# -- 13 ----------------------------------------------------------------


def test_c13_speedup_probe_trend():
    n, k, m, trials = 16, 3, 110, 100
    rows_single = probe_speedup(n, k, m, 1, trials, seed=1300)
    rows_many = probe_speedup(n, k, m, 8, trials, seed=1300)
    medians = {}
    for algo in ("ppz", "schoening"):
        medians[algo] = (
            statistics.median(
                r["iterations"] for r in rows_single if r["algo"] == algo
            ),
            statistics.median(
                r["iterations"] for r in rows_many if r["algo"] == algo
            ),
        )
        single, many = medians[algo]
        assert many < single, (
            f"{algo}: median with 8 planted ({many}) not below 1 planted ({single})"
        )
    report(
        13,
        "iterations-to-solution medians drop with 8 dispersed planted "
        f"solutions: {medians}",
    )
