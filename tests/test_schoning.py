import copy
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dispersat.brute import enumerate_solutions, farthest_min
from dispersat.cnf import Assignment, CapabilityError, CnfFormula, evaluate
from dispersat.dispersion import schoning_oracle
from dispersat.generators import planted_kcnf
from dispersat import ppz, schoning
from dispersat.measures import DispersionObjective, WeightConstraint, WeightKind
from dispersat.ppz import OracleConfig
from dispersat.schoning import (
    BudgetPlan,
    delta_max,
    entropy,
    growth_base,
    inverse_entropy,
    local_search,
    make_plan,
    sample_annulus,
    schoning_farthest_sum,
    schoning_farthest_weighted,
    schoning_solve_counted,
    schoning_walk,
    weight_window,
)
from dispersat.subsets import Graph, SetFamily, diverse_min


def A(s):
    return Assignment.from_string(s)


def rng_for(*salt):
    return np.random.default_rng(np.random.SeedSequence(list(salt)))


def random_formula(rng, n, k=3, m=None):
    m = m if m is not None else 2 * n
    clauses = [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, k))]
        for _ in range(m)
    ]
    return CnfFormula(n, clauses)


class TestEntropy:
    def test_endpoints(self):
        assert entropy(0) == 0.0
        assert entropy(0.5) == 1.0
        assert abs(inverse_entropy(1.0) - 0.5) < 1e-6
        assert inverse_entropy(0.0) < 1e-9

    def test_roundtrip(self):
        for y in (0.1, 0.35, 0.72, 0.95):
            assert abs(entropy(inverse_entropy(y)) - y) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy(1.2)
        with pytest.raises(ValueError):
            inverse_entropy(-0.1)


class TestVariants:
    def test_variant_one(self):
        p = make_plan(10, 3)
        assert (p.alpha, p.c) == (1, 3)
        assert p.walk_length(4) == 4
        assert p.walks(2) == 9

    def test_variant_two_k3_reproduces_3t(self):
        p = make_plan(10, 3, variant="v2")
        assert (p.alpha, p.c) == (3, 2)
        assert p.walk_length(2) == 6

    def test_variant_two_general(self):
        p = make_plan(10, 5, variant="v2")
        assert p.alpha == Fraction(5, 3)
        assert p.walk_length(3) == 5
        assert p.c == 4

    def test_delta_max(self):
        assert make_plan(10, 7).delta == delta_max(7, 1) == Fraction(2, 3)
        # matches (4/(k-1)) (1 + 1/(k-2))^2 for the second variant
        k = 7
        expected = Fraction(4, k - 1) * (1 + Fraction(1, k - 2)) ** 2
        assert make_plan(10, k, variant="v2").delta == min(Fraction(1), expected)

    def test_variant_requirements(self):
        with pytest.raises(ValueError, match="v2 needs k >= 3, got k=2"):
            make_plan(10, 2, variant="v2")
        with pytest.raises(ValueError, match="unknown variant"):
            make_plan(10, 3, variant="v9")


class TestBudgetMath:
    def test_table_bases(self):
        assert round(growth_base(2, 1, 0.5), 4) == 1.5486
        assert round(growth_base(3.592, 1, 0.5), 4) == 1.6420
        assert round(growth_base(2.0755, 1, 0.5), 4) == 1.5544
        assert abs(growth_base(1.5538, 1, 0.5) - 1.51) <= 0.005

    def test_radius_formula(self):
        plan = make_plan(16, 3, Fraction(1, 2), "v1")
        assert plan.R == int(Fraction(1, 2) * 16 / (2 * (2 + Fraction(1, 2))))
        assert plan.budget() == pytest.approx(
            2**16 * 3**plan.R / math.comb(16, plan.R)
        )

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            make_plan(10, 7, Fraction(3, 4), "v1")  # above 4/(k-1) = 2/3
        with pytest.raises(ValueError):
            growth_base(2, 1, 0)

    def test_binommax_argmin_near_n_over_c_plus_1(self):
        n = 40
        for c in (2, 3, 7):
            values = [
                Fraction(2**n) * Fraction(c) ** t / math.comb(n, t)
                for t in range(n + 1)
            ]
            argmin = values.index(min(values))
            assert abs(argmin - n // (c + 1)) <= 1


def _old_plan(n, alpha, c, delta):
    """The budget formulas of the separate variant, plan and summary
    objects that BudgetPlan replaced, kept as the reference."""
    alpha, c, delta = Fraction(alpha), Fraction(c), Fraction(delta)
    R = int(delta * n / (2 * (1 + alpha + delta)))

    def walk_radius(r):
        return min(int(delta * r / (1 + alpha)), R)

    def per_r_repetitions(r, effort):
        t = walk_radius(r)
        size = sum(
            math.comb(n, x) for x in range(max(r - t, 0), min(r + t, n) + 1)
        )
        return max(1, math.ceil(effort * Fraction(size, math.comb(n, t))))

    return {
        "R": R,
        "walk_radius": walk_radius,
        "per_r_repetitions": per_r_repetitions,
        "walk_length": lambda t: math.ceil(alpha * t),
        "walks": lambda t: int(c) ** t,
        "tau": (2**n) * float(Fraction(c) ** R) / math.comb(n, R),
    }


def _old_variant(k, name):
    """(alpha, c) of the two CNF variants, as the old variant objects held them."""
    return (Fraction(1), k) if name == "v1" else (1 + Fraction(2, k - 2), k - 1)


def _old_delta_max(alpha, c):
    return min(Fraction(1), Fraction(2) * (1 + alpha) / (c - 1))


class TestPlanIdentity:
    def _assert_same(self, plan, old):
        n = plan.n
        assert plan.R == old["R"]
        for r in range(n + 1):
            assert plan.walk_radius(r) == old["walk_radius"](r)
            for effort in (1.0, 0.3):
                assert plan.per_r_repetitions(r, effort) == old[
                    "per_r_repetitions"
                ](r, effort)
        for t in range(plan.R + 1):
            assert plan.walk_length(t) == old["walk_length"](t)
            assert plan.walks(t) == old["walks"](t)
        assert plan.budget() == old["tau"]

    def test_cnf_variants(self):
        for n in range(1, 41):
            for k in range(2, 9):
                for variant in ("v1", "v2") if k >= 3 else ("v1",):
                    alpha, c = _old_variant(k, variant)
                    dmax = _old_delta_max(alpha, c)
                    for delta in (None, Fraction(1, 2), Fraction(1, 3)):
                        if delta is not None and delta > dmax:
                            continue
                        plan = make_plan(n, k, delta, variant)
                        used = dmax if delta is None else delta
                        assert (plan.delta, plan.alpha, plan.c) == (used, alpha, c)
                        self._assert_same(plan, _old_plan(n, alpha, c, used))

    def test_generic_search(self):
        # the subset searches: alpha = 1, integer branching base c
        for n in range(1, 41):
            for c in (2, 3, 5):
                for delta in (Fraction(1, 2), Fraction(1, 5), Fraction(1)):
                    plan = BudgetPlan(n, delta, 1, c)
                    self._assert_same(plan, _old_plan(n, 1, c, delta))


    def test_walks_round_up_a_fractional_base(self):
        for c in (Fraction(7, 2), Fraction(5, 3), Fraction(3592, 1000)):
            plan = BudgetPlan(30, Fraction(1, 10), 1, c)
            assert [plan.walks(t) for t in range(30)] == [
                math.ceil(c**t) for t in range(30)
            ]


class TestDeltaRule:
    def test_one_bound_everywhere(self):
        for k in range(2, 9):
            for variant in ("v1", "v2") if k >= 3 else ("v1",):
                alpha, c = _old_variant(k, variant)
                dmax = delta_max(c, alpha)
                assert dmax == _old_delta_max(alpha, c)
                assert make_plan(12, k, None, variant).delta == dmax
                assert make_plan(12, k, dmax, variant).delta == dmax
                assert BudgetPlan(12, dmax, alpha, c).delta == dmax
                assert growth_base(c, alpha, dmax) > 1
                for bad in (Fraction(0), Fraction(-1, 2), dmax + Fraction(1, 1000)):
                    with pytest.raises(ValueError, match="must lie in"):
                        make_plan(12, k, bad, variant)
                    with pytest.raises(ValueError, match="must lie in"):
                        BudgetPlan(12, bad, alpha, c)
                    with pytest.raises(ValueError, match="must lie in"):
                        growth_base(c, alpha, bad)

    def test_c_at_most_one_rejected(self):
        for c in (1, Fraction(1, 2)):
            with pytest.raises(ValueError, match="c must exceed 1"):
                delta_max(c, 1)
            with pytest.raises(ValueError, match="c must exceed 1"):
                BudgetPlan(10, Fraction(1, 2), 1, c)
            with pytest.raises(ValueError, match="c must exceed 1"):
                growth_base(c, 1, 0.5)


class TestWalk:
    def test_zero_steps_on_satisfying(self):
        f = CnfFormula(3, [(1, 2, 3)])
        z = A("010")
        assert schoning_walk(f, z, 0, rng_for(1)) == z

    def test_all_flips_succeed_from_violation(self):
        f = CnfFormula(3, [(1, 2, 3)])
        out = schoning_walk(f, A("000"), 1, rng_for(2))
        assert out is not None and out.weight() == 1

    def test_walk_stays_within_budget(self):
        rng = random.Random(40)
        for _ in range(20):
            f = random_formula(rng, 6)
            z = Assignment(6, rng.randrange(64))
            steps = rng.randint(0, 5)
            out = schoning_walk(f, z, steps, rng_for(rng.randrange(2**32)))
            if out is not None:
                assert z.distance(out) <= steps
                assert evaluate(f, out)

    def test_success_rate_beats_k_to_minus_t(self):
        f = CnfFormula(3, [(1, 2, 3), (-1, 2, 3)])
        t = 2
        trials = 20000
        hits = 0
        for i in range(trials):
            if schoning_walk(f, A("000"), t, rng_for(7, i)) is not None:
                hits += 1
        p_hat = hits / trials
        sigma = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / trials)
        assert p_hat + 3 * sigma >= 3.0**-t


class TestLocalSearch:
    def test_t_zero_satisfying_start(self):
        f = CnfFormula(3, [(1, 2, 3)])
        y = A("100")
        assert local_search(f, y, 0, make_plan(3, 3), rng_for(3)) == y

    def test_radius_cap_always_respected(self):
        rng = random.Random(41)
        for _ in range(20):
            f = random_formula(rng, 7)
            y = Assignment(7, rng.randrange(128))
            t = rng.randint(0, 3)
            plan = make_plan(7, max(f.k, 2))
            out = local_search(f, y, t, plan, rng_for(rng.randrange(2**32)))
            if out is not None:
                assert y.distance(out) <= plan.walk_length(t)

    def test_finds_nearby_solution_with_good_probability(self):
        # one solution at distance 2 from y; 1 - 1/e bound, generous margin
        f = CnfFormula(4, [(1,), (2,), (3,), (4,)])
        y = A("0011")
        hits = sum(
            local_search(f, y, 2, make_plan(4, 4), rng_for(11, i)) is not None
            for i in range(300)
        )
        assert hits / 300 >= 1 - 1 / math.e - 0.15


class TestAnnulus:
    def test_exact_shell(self):
        counts = {}
        for i in range(3000):
            x = sample_annulus(A("000"), 2, 2, rng_for(5, i))
            counts[x.to_string()] = counts.get(x.to_string(), 0) + 1
        assert set(counts) == {"011", "101", "110"}
        assert all(abs(c - 1000) < 150 for c in counts.values())

    def test_full_cube(self):
        seen = set()
        for i in range(2000):
            x = sample_annulus(A("000"), 0, 3, rng_for(6, i))
            seen.add(x.key)
        assert seen == set(range(8))

    def test_membership_always_holds(self):
        rng = random.Random(42)
        for i in range(200):
            n = rng.randint(1, 9)
            z = Assignment(n, rng.randrange(1 << n))
            lo = rng.randint(0, n)
            hi = rng.randint(lo, n + 3)
            x = sample_annulus(z, lo, hi, rng_for(8, i))
            assert lo <= z.distance(x) <= min(hi, n)

    def test_usage_error(self):
        with pytest.raises(ValueError):
            sample_annulus(A("000"), 4, 5, rng_for(9))

    def test_goodness_of_fit_n10(self):
        # radius histogram vs the exact C(n, x) proportions, fixed threshold
        import math

        n, lo, hi, draws = 10, 2, 7, 30000
        z = Assignment(n, 0b1011001010)
        counts = {r: 0 for r in range(lo, hi + 1)}
        for i in range(draws):
            counts[z.distance(sample_annulus(z, lo, hi, rng_for(77, i)))] += 1
        total_weight = sum(math.comb(n, x) for x in range(lo, hi + 1))
        chi2 = 0.0
        for r in range(lo, hi + 1):
            expected = draws * math.comb(n, r) / total_weight
            chi2 += (counts[r] - expected) ** 2 / expected
        # 5 degrees of freedom; 20.5 is the 0.1% tail, a fixed seeded gate
        assert chi2 < 20.5


class TestFarthestWeighted:
    def test_weight_one_far_from_all_ones(self):
        f = CnfFormula(3, [(1, 2, 3)])
        plan = make_plan(3, 3, Fraction(1, 2), "v1")
        out = schoning_farthest_weighted(
            f, [A("111")], 1, plan, OracleConfig(seed=21)
        )
        assert out is not None
        assert out.weight() == 1
        assert out.distance(A("111")) == 2

    def test_unique_solution_zero_objective_accepted(self):
        f = CnfFormula(2, [(1,), (-2,)])
        plan = make_plan(2, 2, Fraction(1, 2), "v1")
        out = schoning_farthest_weighted(
            f, [A("10")], 1, plan, OracleConfig(seed=22, effort=8.0)
        )
        assert out == A("10")

    def test_w_zero_is_unweighted_farthest(self):
        rng = random.Random(43)
        for trial in range(5):
            f = random_formula(rng, 8, k=3, m=16)
            if len(enumerate_solutions(f)) == 0:
                continue
            plan = make_plan(8, max(f.k, 2), Fraction(1, 2), "v1")
            anchor = Assignment(8, rng.randrange(256))
            out = schoning_farthest_weighted(
                f, [anchor], 0, plan, OracleConfig(seed=trial)
            )
            assert out is not None and evaluate(f, out)

    def test_driver_guarantee_on_k7(self):
        rng = random.Random(44)
        done = 0
        while done < 5:
            f = random_formula(rng, 8, k=7, m=40)
            sols = enumerate_solutions(f)
            if len(sols) == 0:
                continue
            delta = Fraction(2, 3)  # 4/(k-1) for k=7
            plan = make_plan(8, 7, delta, "v1")
            anchor = Assignment(8, rng.randrange(256))
            out = schoning_farthest_weighted(
                f, [anchor], 0, plan, OracleConfig(seed=100 + done)
            )
            target = farthest_min(f, [anchor])
            assert out is not None
            assert out.distance(anchor) >= (1 - delta) * target.distance(anchor)
            done += 1


class TestFarthestSum:
    def test_example(self):
        f = CnfFormula(2, [(1, 2)])
        plan = make_plan(2, 2, Fraction(1, 2), "v1")
        out = schoning_farthest_sum(f, [A("11")], plan, OracleConfig(seed=23))
        assert out in (A("01"), A("10"))

    def test_multiset_scaling_keeps_argmax(self):
        f = CnfFormula(2, [(1, 2)])
        plan = make_plan(2, 2, Fraction(1, 2), "v1")
        cfg = OracleConfig(seed=24)
        single = schoning_farthest_sum(f, [A("11")], plan, cfg)
        double = schoning_farthest_sum(f, [A("11"), A("11")], plan, cfg)
        assert sum(single.distance(a) for a in [A("11")]) * 2 == sum(
            double.distance(a) for a in [A("11"), A("11")]
        )


class TestSolve:
    def test_finds_solutions_and_is_deterministic(self):
        rng = random.Random(45)
        for trial in range(5):
            f = random_formula(rng, 9)
            sols = enumerate_solutions(f)
            cfg = OracleConfig(seed=trial, effort=0.5)
            out1, _ = schoning_solve_counted(f, cfg)
            out2, _ = schoning_solve_counted(f, cfg)
            assert out1 == out2
            if len(sols) > 0:
                assert out1 is not None and evaluate(f, out1)
            else:
                assert out1 is None

    @staticmethod
    def _old_budget(n, k, cfg):
        """The restart count as schoning_solve_counted computed it inline."""
        k = max(k, 2)
        auto = math.ceil(cfg.effort * 4 * n * n * (2 * (1 - 1 / k)) ** n)
        total = cfg.repetitions if cfg.repetitions is not None else max(1, auto)
        return min(total, 1 << 26)

    def test_budget_matches_the_inline_formula(self, monkeypatch):
        # walks that never succeed make the call return (None, budget)
        monkeypatch.setattr(schoning, "schoning_walk", lambda *args: None)
        for n in range(1, 9):
            for k in range(1, 5):
                f = CnfFormula(n, [tuple(range(1, min(k, n) + 1))])
                for cfg in (
                    OracleConfig(seed=1, effort=0.01),
                    OracleConfig(seed=1, effort=0.15),
                    OracleConfig(seed=1, repetitions=7),
                ):
                    _, used = schoning_solve_counted(f, cfg)
                    assert used == self._old_budget(n, f.k, cfg)
        # a count the cap would cut is refused before any walk, not cut
        monkeypatch.setattr(ppz, "HARD_REPETITION_CAP", 30)
        f = CnfFormula(12, [(1, 2, 3)])
        for cfg, asked in (
            (OracleConfig(effort=1.0), 18184),
            (OracleConfig(repetitions=1000), 1000),
        ):
            message = rf"^Schoening budget of {asked} restarts \(n=12\) is above"
            with pytest.raises(CapabilityError, match=message + " the cap of 30$"):
                schoning_solve_counted(f, cfg)

    def test_budget_over_the_key_range(self):
        for n in range(1, 64):
            for k in range(1, 12):
                for effort in (1e-9, 1e-3, 0.1, 0.5, 1.0, 3.0):
                    cfg = OracleConfig(effort=effort)
                    growth = (2 * (1 - 1 / max(k, 2))) ** n
                    asked = max(1, math.ceil(effort * 4 * n * n * growth))
                    if asked > ppz.HARD_REPETITION_CAP:
                        with pytest.raises(CapabilityError, match=f"{asked} restarts"):
                            cfg.budget(n, growth)
                    else:
                        assert cfg.budget(n, growth) == self._old_budget(n, k, cfg)

    def test_zero_repetitions_rejected(self):
        f = CnfFormula(3, [(1, 2)])
        for reps in (0, -2):
            with pytest.raises(ValueError):
                schoning_solve_counted(f, OracleConfig(repetitions=reps))


def mixed_formula(rng, n, m, kmax):
    """Random clauses of width 0..kmax, so empty and unit clauses occur."""
    clauses = []
    for _ in range(m):
        width = rng.randint(0, min(n, kmax))
        clauses.append(
            [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), width)]
        )
    return CnfFormula(n, clauses)


class TestWalkEngine:
    WIDTHS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 62, 63)

    def _compare(self, f, rng, walks=60):
        n = f.n
        starts = [rng.randrange(1 << n) for _ in range(walks)]
        lengths = [rng.randint(0, 6) for _ in range(walks)]
        uniforms = np.random.default_rng(rng.randrange(2**32)).random((walks, 6))
        ends, ok = ppz.packed_engine(f, schoning._Walker).run(
            np.array(starts, dtype=np.int64), np.array(lengths), uniforms
        )
        hits = 0
        for i in range(walks):
            ref = schoning_walk(f, Assignment(n, starts[i]), lengths[i], uniforms[i])
            assert bool(ok[i]) == (ref is not None)
            if ref is not None:
                assert int(ends[i]) == ref.key
                hits += 1
        return hits

    def test_matches_scalar_walker(self):
        rng = random.Random(50)
        hits = 0
        for n in self.WIDTHS:
            for m in (0, 1, 3, n, 3 * n):
                for kmax in (1, 3, 5):
                    hits += self._compare(mixed_formula(rng, n, m, kmax), rng)
        assert hits > 1000  # the comparison covers successful walks too

    def test_empty_clause_and_empty_formula(self):
        rng = random.Random(51)
        for n in (1, 8, 63):
            assert self._compare(CnfFormula(n, []), rng) == 60
            assert self._compare(CnfFormula(n, [()]), rng) == 0
            assert self._compare(CnfFormula(n, [(1,), ()]), rng) == 0

    def test_packed_word_is_narrowest(self):
        for n, word in ((7, np.uint8), (8, np.uint8), (9, np.uint16), (33, np.uint64)):
            assert ppz.packed_engine(CnfFormula(n, [(1,)]), schoning._Walker).word is word

    @pytest.mark.parametrize("m", [255, 256, 300])
    def test_rank_rule_past_one_byte(self, m):
        """The first violated clause among m clauses, whose ranks 1..m
        need uint16 from m = 256 on.  Full-width clauses are each violated
        by one point, so first violated clauses spread over 0..m-1; in a
        random 3-CNF a point violates many clauses, early and late."""
        rng = random.Random(54 + m)
        for n in (8, 9):
            signs = [[rng.choice([-1, 1]) for _ in range(n)] for _ in range(m - 4)]
            full = [[s * v for s, v in zip(row, range(1, n + 1))] for row in signs]
            tail = [
                [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), 2)]
                for _ in range(4)
            ]
            f = CnfFormula(n, full + tail)
            assert f.num_clauses == m
            eng = ppz.packed_engine(f, schoning._Walker)
            assert eng.rank.dtype == (np.uint8 if m == 255 else np.uint16)
            first = [
                next(c for c, (v, g) in enumerate(eng.masks) if not (key ^ g) & v)
                for key in range(1 << n)
                if not evaluate(f, Assignment(n, key))
            ]
            assert max(first) >= m - 5  # past index 254 once m > 259
            self._compare(f, rng, walks=400)
            self._compare(random_formula(rng, n, k=3, m=m), rng, walks=400)

    @pytest.mark.parametrize("n", [1, 63])
    def test_rank_rule_with_empty_clauses_first_and_last(self, n):
        rng = random.Random(57 + n)
        body = list(mixed_formula(rng, n, 3 * n + 2, 3).clauses)
        body = [c for c in body if c]
        for clauses in ([], [()] + body, body + [()], body):
            self._compare(CnfFormula(n, clauses), rng)

    def test_block_search_matches_local_search_rule(self, monkeypatch):
        """Task by task, the packed pass finds what local_search finds from
        the same start with the same uniforms.  The reference draws each
        block from its own generator seeded by (seed, block): the starts
        first, then each task's walks in turn.  Two streams, each as one
        call, in groups of one block and in the default groups."""

        class Enough(Exception):
            pass

        def reference(f, plan, cfg, centers):
            n, size = f.n, schoning._TASK_BLOCK
            sched = schoning._schedule(plan, cfg.effort, 1)
            tasks = [(r, t, c) for r, t, reps in sched for c in centers for _ in range(reps)]
            for b in range(0, len(tasks), size):
                block = tasks[b : b + size]
                gen = np.random.default_rng(cfg.seed_sequence(b // size))
                r, t, c = (np.array(col) for col in zip(*block))
                lo, hi = np.maximum(r - t, 0), np.minimum(r + t, n)
                keys = schoning._annulus_keys([(gen, len(block))], n, c, lo, hi)
                for key, ti in zip(keys.tolist(), t.tolist()):
                    y = Assignment(n, key)
                    yield key, local_search(f, y, ti, plan, copy.deepcopy(gen))
                    gen.random(plan.walks(ti) * plan.walk_length(ti))  # next task

        rng = random.Random(52)
        hits = 0
        cases = ((6, 2, None), (10, 3, None), (17, 3, 2), (20, 4, 1))
        groups = (1, schoning._GROUP_WALKS)
        for (n, k, limit), group in itertools.product(cases, groups):
            monkeypatch.setattr(schoning, "_GROUP_WALKS", group)
            f = random_formula(rng, n, k=k, m=2 * n)
            plan = make_plan(n, k)
            search = schoning._walk_search(f, plan)
            cfgs = [OracleConfig(seed=rng.randrange(2**32)) for _ in range(2)]
            centers = [rng.randrange(1 << n) for _ in range(2)]
            for cfg in cfgs:
                want = reference(f, plan, cfg, centers)
                seen = []

                def spy(keys, t, blocks):
                    nonlocal hits
                    out, hit = search(keys, t, blocks)
                    refs = list(itertools.islice(want, len(keys)))
                    assert len(refs) == len(keys)
                    for i, (key, ref) in enumerate(refs):
                        assert int(keys[i]) == key
                        assert bool(hit[i]) == (ref is not None)
                        if ref is not None:
                            assert int(out[i]) == ref.key
                            hits += 1
                    seen.extend(blocks)
                    if limit is not None and len(seen) >= limit:
                        raise Enough
                    return out, hit

                try:
                    schoning._anchored_argmax(
                        n, plan, cfg, (0, n), centers, 1, spy, centers, np.min
                    )
                    assert next(want, None) is None  # every reference task was searched
                except Enough:
                    pass
                assert len(seen) >= (limit or 1)
        assert hits > 100

    @pytest.mark.parametrize("group", [1, 3, 3 * schoning._TASK_BLOCK, None])
    def test_outputs_ignore_the_evaluation_chunk(self, monkeypatch, group):
        """Groups of one block walked one or three walks per engine run,
        groups of up to about three blocks, and the default groups give
        the same outputs."""
        rng = random.Random(53)
        calls = []
        for _ in range(4):
            f = random_formula(rng, 9, k=3, m=20)
            plan = make_plan(9, 3)
            anchors = [Assignment(9, rng.randrange(512)) for _ in range(2)]
            calls.append((f, anchors, plan, OracleConfig(seed=rng.randrange(99))))
        graph = Graph.from_edges(
            10, [tuple(rng.sample(range(1, 11), 2)) for _ in range(14)]
        )

        def outputs(f, a, p, c):
            f = CnfFormula(f.n, f.clauses)  # no cached engine

            def weighted(kind, w):
                weight = WeightConstraint(kind, w)
                return schoning_oracle(p, c, DispersionObjective.MIN_PD, weight)(f, a)

            return (
                schoning_farthest_weighted(f, a, 4, p, c),
                schoning_farthest_sum(f, a, p, c),
                weighted(WeightKind.AT_LEAST, 4),
                weighted(WeightKind.AT_MOST, 5),
            )

        def covers(seed):
            # a new family each time, so no cached tables
            edges = SetFamily.from_lists(graph.num_vertices, graph.edges)
            return diverse_min(edges, 3, Fraction(1, 2), OracleConfig(seed=seed))

        expected = [outputs(*call) for call in calls], covers(5)
        if group is not None:
            monkeypatch.setattr(schoning, "_GROUP_WALKS", group)
        assert ([outputs(*call) for call in calls], covers(5)) == expected

    def test_escaped_walk_raises_under_python_O(self):
        script = """
import numpy as np
from dispersat import schoning
from dispersat.cnf import Assignment, CnfFormula
from dispersat.ppz import OracleConfig

def far(self, starts, lengths, uniforms):
    return ~starts & 0b1111, np.ones(len(starts), dtype=bool)

schoning._Walker.run = far
f = CnfFormula(4, [(1, 2)])
try:
    schoning.schoning_farthest_weighted(
        f, [Assignment(4, 0)], 0, schoning.make_plan(4, 2), OracleConfig(seed=3)
    )
except AssertionError as err:
    print(err)
"""
        src = str(Path(schoning.__file__).resolve().parents[1])
        # the child gets no PYTHONDONTWRITEBYTECODE from env; -B keeps the choice
        bytecode = ["-B"] if sys.flags.dont_write_bytecode else []
        done = subprocess.run(
            [sys.executable, *bytecode, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert done.stdout.strip() == "walk escaped its radius", done.stderr


class TestBlockSampler:
    def test_exact_proportions_with_mixed_rows(self):
        n, draws = 10, 40000
        shells = ((2, 7), (0, 4), (6, 10))  # (lo, hi), cycled row by row
        lo = np.array([shells[i % 3][0] for i in range(draws)])
        hi = np.array([shells[i % 3][1] for i in range(draws)])
        centers = np.random.default_rng(1).integers(0, 1 << n, draws)
        keys = schoning._annulus_keys([(rng_for(78), draws)], n, centers, lo, hi)
        radius = np.bitwise_count(keys ^ centers)
        assert ((lo <= radius) & (radius <= hi)).all()
        # 0.1% tails of chi-square with 5, 4 and 4 degrees of freedom
        for (a, b), limit in zip(shells, (20.52, 18.47, 18.47)):
            got = radius[(lo == a) & (hi == b)]
            weights = [math.comb(n, x) for x in range(a, b + 1)]
            chi2 = 0.0
            for x, w in zip(range(a, b + 1), weights):
                expected = len(got) * w / sum(weights)
                chi2 += ((got == x).sum() - expected) ** 2 / expected
            assert chi2 < limit

    def test_flipped_coordinates_are_uniform(self):
        n, draws = 8, 16000
        centers = np.zeros(draws, dtype=np.int64)
        keys = schoning._annulus_keys(
            [(rng_for(79), draws)], n, centers, np.full(draws, 3), np.full(draws, 3)
        )
        per_bit = [((keys >> b) & 1).sum() for b in range(n)]
        expected = draws * 3 / n
        assert all(abs(c - expected) < 5 * math.sqrt(expected) for c in per_bit)

    def test_no_overflow_at_n63(self):
        n, draws = 63, 4000
        gen = rng_for(80)
        centers = gen.integers(0, 1 << 62, draws) * 2 + 1
        for lo, hi in ((0, 63), (63, 63), (0, 0), (31, 40)):
            keys = schoning._annulus_keys(
                [(gen, draws)], n, centers, np.full(draws, lo), np.full(draws, hi)
            )
            assert keys.dtype == np.int64 and (keys >= 0).all()
            radius = np.bitwise_count(keys ^ centers)
            assert ((lo <= radius) & (radius <= hi)).all()
        keys = schoning._annulus_keys(
            [(gen, draws)], n, centers, np.zeros(draws, int), np.full(draws, 63)
        )
        # binomial(63, 1/2): mean 31.5, standard deviation 3.97
        assert abs(np.bitwise_count(keys ^ centers).mean() - 31.5) < 0.5

    def test_block_generators_draw_in_seed_format_4(self):
        """A block's generator draws one index per row, uniform over
        [P[lo], P[hi + 1]), whose mask flips the row's center, and nothing
        else, so the walks' uniforms follow the indices; and one draw of
        a block's uniforms is the stream of its per-walk draws."""
        for n, rows in ((1, 3), (10, 512), (17, 40), (63, 7)):
            lo = rng_for(84, n).integers(0, n + 1, rows)
            hi = np.minimum(lo + rng_for(85, n).integers(0, n + 1, rows), n)
            centers = rng_for(86, n).integers(0, 1 << n, rows)
            gen = rng_for(82, n)
            keys = schoning._annulus_keys([(gen, rows)], n, centers, lo, hi)
            ref = rng_for(82, n)
            prefix = schoning._binomials(n)[0]
            index = ref.integers(0, prefix[hi + 1] - prefix[lo], dtype=np.uint64)
            index += prefix[lo]
            assert (keys == centers ^ schoning._unrank(n, index)).all()
            assert (gen.random(5) == ref.random(5)).all()
        whole = rng_for(83).random(3 * 4 + 0 + 5)
        gen = rng_for(83)
        parts = [gen.random(k) for k in (4, 4, 4, 0, 5)]
        assert (np.concatenate(parts) == whole).all()

    def test_weight_order_is_the_unranking(self):
        """The cached order lists every n-bit mask once, by weight and
        then by value (colex), and agrees with _unrank at every index."""
        for n in range(11):
            order = schoning._weight_order(n)
            assert (np.sort(order) == np.arange(1 << n)).all()
            assert (np.diff(np.bitwise_count(order)) >= 0).all()
            weight = np.bitwise_count(np.arange(1 << n))
            assert (order == np.argsort(weight, kind="stable")).all()
            every = np.arange(1 << n, dtype=np.uint64)
            assert (order == schoning._unrank(n, every)).all()

    def test_unranking_gives_the_gathered_keys(self, monkeypatch):
        """With no cached order, _annulus_keys unranks each index and
        gives the same keys on the same generators."""
        draws = 3000
        for n in (10, 12, 16):
            lo = rng_for(87, n).integers(0, n + 1, draws)
            hi = np.minimum(lo + rng_for(88, n).integers(0, n + 1, draws), n)
            centers = rng_for(89, n).integers(0, 1 << n, draws)
            keys = []
            for bits in (schoning._ORDER_BITS, 0):
                monkeypatch.setattr(schoning, "_ORDER_BITS", bits)
                blocks = [(rng_for(90, n, b), draws // 3) for b in range(3)]
                keys.append(schoning._annulus_keys(blocks, n, centers, lo, hi))
            assert (keys[0] == keys[1]).all()

    def test_unrank_ends_of_each_weight_at_n63(self):
        """Index P[r] is the lowest r bits and P[r + 1] - 1 the highest r."""
        n = 63
        prefix = schoning._binomials(n)[0]
        first = schoning._unrank(n, prefix[:-1])
        last = schoning._unrank(n, prefix[1:] - np.uint64(1))
        for r in range(n + 1):
            assert int(first[r]) == (1 << r) - 1
            assert int(last[r]) == ((1 << r) - 1) << (n - r)

    def test_sample_annulus_is_one_row(self):
        z = A("1011001010")
        for lo, hi in ((0, 10), (2, 5), (10, 14)):
            one = sample_annulus(z, lo, hi, rng_for(81, lo))
            row = schoning._annulus_keys(
                [(rng_for(81, lo), 1)], 10, np.array([z.key]), np.array([lo]),
                np.array([min(hi, 10)]),
            )
            assert one.key == int(row[0])


class TestWeightWindow:
    def test_integer_bounds_match_fractions(self):
        for delta in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1),
                      Fraction(1, 7), Fraction(5, 6)):
            for w in range(0, 25):
                lo, hi = weight_window(delta, w)
                for x in range(0, 60):
                    assert (lo <= x <= hi) == ((1 - delta) * w <= x <= (1 + delta) * w)


class TestAnchoredCap:
    def test_refused_before_drawing(self, monkeypatch):
        f, _ = planted_kcnf(40, 3, 160, np.random.default_rng(0))
        plan = make_plan(40, 3)
        anchor = Assignment(40, 0)

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built before the cap check")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(CapabilityError, match=r"5455654316 walks \(n=40\)"):
            schoning_farthest_weighted(f, [anchor], 0, plan, OracleConfig(seed=1))
        with pytest.raises(CapabilityError, match=r"2727827159 walks"):
            schoning_farthest_sum(f, [anchor], plan, OracleConfig(seed=1))

    def test_cap_is_the_planned_walk_count(self, monkeypatch):
        f = CnfFormula(10, [(1, 2, 3)])
        plan = make_plan(10, 3)
        walks = schoning.anchored_walks(plan, 1.0, 2)
        per_start = sum(
            plan.per_r_repetitions(r) * plan.walks(plan.walk_radius(r))
            for r in range(1, 11)
        )
        assert walks == 2 * per_start == 2 * 928
        cfg = OracleConfig(seed=2)
        monkeypatch.setattr(ppz, "HARD_REPETITION_CAP", walks)
        assert schoning_farthest_weighted(f, [A("1111111111")], 0, plan, cfg)
        monkeypatch.setattr(ppz, "HARD_REPETITION_CAP", walks - 1)
        with pytest.raises(CapabilityError, match=f"{walks} walks"):
            schoning_farthest_weighted(f, [A("1111111111")], 0, plan, cfg)


class TestAnchorLength:
    def test_anchored_oracles_check_anchor_length(self):
        f = CnfFormula(3, [(1, 2)])
        plan = make_plan(3, 2)
        for anchors in ([Assignment(6, 63)], [A("101"), A("10")]):
            with pytest.raises(ValueError, match="length n=3"):
                schoning_farthest_weighted(f, anchors, 0, plan, OracleConfig(seed=1))
            with pytest.raises(ValueError, match="length n=3"):
                schoning_farthest_sum(f, anchors, plan, OracleConfig(seed=1))

    def test_plan_must_match_formula(self):
        f = CnfFormula(3, [(1, 2)])
        with pytest.raises(ValueError, match="plan is for n=5"):
            schoning_farthest_weighted(f, [A("101")], 0, make_plan(5, 2), OracleConfig())
