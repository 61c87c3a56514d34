import dataclasses
import functools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from dispersat import dispersion, schoning
from dispersat.brute import brute_opt, enumerate_solutions
from dispersat.cnf import Assignment, CnfFormula, PartialSetError, UnsatError, evaluate
from dispersat.dispersion import (
    FarthestOracle,
    _target_window,
    disperse_weighted_min,
    exact_oracle,
    gonzalez_min,
    ppz_oracle,
    schoning_oracle,
    sum_disperse,
)
from dispersat.measures import (
    DispersionObjective,
    SolutionCollection,
    WeightConstraint,
    WeightKind,
    farthest_index,
    min_pairwise_distance,
    sum_pairwise_distance,
)
from dispersat.generators import planted_kcnf
from dispersat.ppz import _BATCH, OracleConfig, ppz_solve_counted
from dispersat.schoning import (
    anchored_walks,
    make_plan,
    schoning_farthest_weighted,
    schoning_solve_counted,
    weight_window,
)


MIN, SUM = DispersionObjective.MIN_PD, DispersionObjective.SUM_PD


def A(s):
    return Assignment.from_string(s)


def weighted_oracle(plan, cfg, w, kind=WeightKind.AT_LEAST):
    return schoning_oracle(plan, cfg, MIN, WeightConstraint(kind, w))


def random_formula(rng, n, k=3, m=None):
    m = m if m is not None else 2 * n
    clauses = [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, k))]
        for _ in range(m)
    ]
    return CnfFormula(n, clauses)


class TestGonzalez:
    def test_pair_with_exact_oracle(self):
        f = CnfFormula(2, [(1, 2)])
        oracle = dataclasses.replace(exact_oracle(MIN), seed=lambda _: (A("11"), 0))
        out = gonzalez_min(f, 2, oracle)
        assert out.members[0] == A("11")
        assert min_pairwise_distance(out) == 1  # >= half of Opt-min = 2

    def test_s_one_is_just_seed(self):
        f = CnfFormula(2, [(1, 2)])
        out = gonzalez_min(f, 1, exact_oracle(MIN))
        assert out.members == (A("01"),)

    def test_unsat_seed(self):
        f = CnfFormula(1, [(1,), (-1,)])
        with pytest.raises(UnsatError):
            gonzalez_min(f, 2, exact_oracle(MIN))

    def test_exhausted_solutions_partial(self):
        f = CnfFormula(2, [(1,), (-2,)])  # unique solution
        with pytest.raises(PartialSetError) as err:
            gonzalez_min(f, 3, exact_oracle(MIN))
        assert len(err.value.partial) == 1

    def test_refuses_a_sum_oracle(self):
        f = CnfFormula(2, [(1, 2)])
        for objective in (SUM, DispersionObjective.SUM_PD_DISTINCT):
            with pytest.raises(ValueError, match="needs a MIN_PD oracle"):
                gonzalez_min(f, 2, exact_oracle(objective))

    def test_half_optimum_with_exact_oracle(self):
        rng = random.Random(51)
        done = 0
        while done < 30:
            n = rng.randint(3, 10)
            f = random_formula(rng, n)
            sols = enumerate_solutions(f)
            s = rng.randint(2, 4)
            if len(sols) < s:
                continue
            out = gonzalez_min(f, s, exact_oracle(MIN))
            opt, _ = brute_opt(f, s, DispersionObjective.MIN_PD)
            assert 2 * min_pairwise_distance(out) >= opt
            done += 1

    def test_ppz_oracle_end_to_end(self):
        rng = random.Random(52)
        f = random_formula(rng, 8)
        if len(enumerate_solutions(f)) >= 3:
            out = gonzalez_min(f, 3, ppz_oracle(OracleConfig(seed=1), MIN))
            assert len(out) == 3
            assert all(evaluate(f, z) for z in out)


class TestPpzPool:
    """The PPZ drivers draw one stream, cfg.spawn(1): the seed is its
    first hit and every attempt-0 oracle call scores its pool."""

    @pytest.mark.parametrize("driver", ["gonzalez_min", "sum_disperse"])
    def test_a_driver_draws_each_block_once(self, monkeypatch, driver):
        draws = []
        seed_sequence = OracleConfig.seed_sequence

        def counted(self, *salt):
            draws.append((self.seed, salt))
            return seed_sequence(self, *salt)

        f = planted_kcnf(8, 7, 60, np.random.default_rng(9))[0]
        cfg = OracleConfig(seed=9, effort=0.6)
        monkeypatch.setattr(OracleConfig, "seed_sequence", counted)
        if driver == "gonzalez_min":
            out = gonzalez_min(f, 3, ppz_oracle(cfg, MIN))
        else:
            out = sum_disperse(f, 3, ppz_oracle(cfg, SUM))
        monkeypatch.undo()
        assert len(out) == 3
        blocks = [draw for draw in draws if draw[0] != cfg.seed]  # not a spawn
        stream = cfg.spawn(1).seed
        total = -(-cfg.resolve(f.n, f.k) // _BATCH)
        assert total == 3
        assert blocks == [(stream, (b,)) for b in range(total)]

    def test_a_retry_draws_its_own_stream(self, monkeypatch):
        streams = []

        def farthest(formula, anchors, cfg):
            streams.append(cfg)

        monkeypatch.setattr(dispersion, "ppz_farthest_min", farthest)
        cfg = OracleConfig(seed=10)
        oracle = ppz_oracle(cfg, MIN)
        for salt in [(2, 0), (3, 0), (2, 1), (2, 2), (3, 1)]:
            oracle(CnfFormula(2, [(1, 2)]), [A("11")], salt=salt)
        assert streams[0] == streams[1] == cfg.spawn(1)
        assert len(set(streams)) == 4
        assert streams[2] == cfg.spawn(1, 2, 1)


class TestOracleSeeds:
    """Each constructor decides its streams: the seed and the calls of an
    oracle read what its algorithm's drivers read."""

    def test_ppz_seed_is_the_first_hit_of_the_pool(self):
        f = planted_kcnf(8, 3, 20, np.random.default_rng(3))[0]
        cfg = OracleConfig(seed=3)
        for objective in DispersionObjective:
            assert ppz_oracle(cfg, objective).seed(f) == ppz_solve_counted(f, cfg.spawn(1))

    def test_schoning_seed_is_the_solve_on_spawn_0(self):
        f = planted_kcnf(8, 3, 20, np.random.default_rng(4))[0]
        cfg, plan = OracleConfig(seed=4), make_plan(8, 3)
        want = schoning_solve_counted(f, cfg.spawn(0))
        assert want[0] is not None
        assert schoning_oracle(plan, cfg, MIN).seed(f) == want
        assert schoning_oracle(plan, cfg, SUM).seed(f) == want

    @pytest.mark.parametrize("kind", [WeightKind.AT_LEAST, WeightKind.AT_MOST])
    def test_weighted_seed_is_one_counted_call(self, kind):
        f = planted_kcnf(8, 3, 20, np.random.default_rng(5))[0]
        cfg, plan = OracleConfig(seed=5), make_plan(8, 3)
        oracle = weighted_oracle(plan, cfg, 4, kind)
        anchor = Assignment.zeros(8) if kind is WeightKind.AT_LEAST else Assignment.ones(8)
        want = weighted_oracle(plan, cfg, 4, kind)(f, [anchor], (0,))
        assert want is not None
        assert oracle.seed(f) == (want, 0)
        assert oracle.calls == 1

    def test_schoning_sums_take_no_weight_and_no_distinct_sets(self):
        plan, cfg = make_plan(8, 3), OracleConfig()
        with pytest.raises(ValueError, match="Schoening sum oracle"):
            schoning_oracle(plan, cfg, DispersionObjective.SUM_PD_DISTINCT)
        with pytest.raises(ValueError, match="Schoening sum oracle"):
            schoning_oracle(plan, cfg, SUM, WeightConstraint(WeightKind.AT_LEAST, 2))


class TestSumDisperse:
    def test_exact_reaches_optimum_on_example(self):
        f = CnfFormula(2, [(1, 2)])
        out = sum_disperse(f, 3, exact_oracle(SUM))
        assert sum_pairwise_distance(out) == 4

    def test_refuses_a_min_oracle(self):
        with pytest.raises(ValueError, match="needs a sum oracle"):
            sum_disperse(CnfFormula(2, [(1, 2)]), 2, exact_oracle(MIN))

    def test_a_distinct_oracle_answering_an_anchor_is_refused(self):
        """A sum-distinct result is checked to be a set, so an oracle that
        breaks its contract by answering an anchor makes the driver raise."""
        oracle = FarthestOracle(
            DispersionObjective.SUM_PD_DISTINCT,
            lambda f, anchors, salt: anchors[0],
            lambda f: (A("11"), 0),
        )
        with pytest.raises(ValueError, match="duplicate member"):
            sum_disperse(CnfFormula(2, [(1, 2)]), 2, oracle)
        oracle.objective = SUM  # a multiset may repeat its members
        assert sum_disperse(CnfFormula(2, [(1, 2)]), 2, oracle).members == (A("11"),) * 2

    def test_factor_bound_random(self):
        rng = random.Random(53)
        done = 0
        while done < 10:
            n = rng.randint(3, 8)
            f = random_formula(rng, n)
            if len(enumerate_solutions(f)) == 0:
                continue
            s = 4
            out = sum_disperse(f, s, exact_oracle(SUM))
            opt, _ = brute_opt(f, s, DispersionObjective.SUM_PD)
            assert (s + 1) * sum_pairwise_distance(out) >= (s - 1) * opt
            done += 1

    def test_local_optimum_property(self):
        rng = random.Random(54)
        f = random_formula(rng, 6)
        if len(enumerate_solutions(f)) == 0:
            return
        oracle = exact_oracle(SUM)
        out = list(sum_disperse(f, 3, oracle).members)
        for idx in range(len(out)):
            rest = out[:idx] + out[idx + 1 :]
            rest_coll = SolutionCollection(rest, distinct=False)
            best = oracle(f, rest, salt=())
            from dispersat.measures import sum_distance_to

            assert sum_distance_to(rest_coll, best) <= sum_distance_to(
                rest_coll, out[idx]
            )


class TestObservations:
    def test_farthest_first_observation(self):
        # some member of the bigger set is at least half its minPD away
        rng = random.Random(55)
        for _ in range(40):
            n = 8
            b_size = rng.randint(2, 6)
            b = rng.sample(range(1 << n), b_size)
            a_size = rng.randint(1, b_size - 1)
            a = rng.sample(range(1 << n), a_size)
            bs = [Assignment(n, key) for key in b]
            asg = [Assignment(n, key) for key in a]
            min_pd_b = min_pairwise_distance(SolutionCollection(bs))
            best = max(
                min(x.distance(y) for y in asg) for x in bs
            )
            assert 2 * best >= min_pd_b

    def test_multiset_triangle_observation(self):
        rng = random.Random(56)
        for _ in range(40):
            n = 7
            a = [Assignment(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 5))]
            b = [Assignment(n, rng.randrange(1 << n)) for _ in range(rng.randint(2, 5))]
            sum_pd_b = sum_pairwise_distance(SolutionCollection(b, distinct=False))
            best = max(sum(x.distance(y) for y in a) for x in b)
            assert best * len(b) * (len(b) - 1) >= len(a) * sum_pd_b


class TestWeighted:
    def test_at_least_example(self):
        f = CnfFormula(3, [(1, 2, 3)])
        plan = make_plan(3, 3, Fraction(1, 2), "v1")
        out = disperse_weighted_min(
            f, 2, 2, WeightKind.AT_LEAST, plan, OracleConfig(seed=3, effort=4.0)
        )
        assert len(out) == 2
        assert all(z.weight() >= 1 for z in out)  # (1 - delta) W = 1
        assert min_pairwise_distance(out) >= 1  # half of Opt-min(F,2,>=2) = 1

    def test_at_most_maps_back(self):
        f = CnfFormula(3, [(1, 2, 3)])
        plan = make_plan(3, 3, Fraction(1, 2), "v1")
        out = disperse_weighted_min(
            f, 2, 1, WeightKind.AT_MOST, plan, OracleConfig(seed=4, effort=4.0)
        )
        assert len(out) == 2
        assert all(evaluate(f, z) for z in out)
        assert all(z.weight() <= 1.5 for z in out)  # (1 + delta) W

    def test_vacuous_windows_match_unweighted(self):
        rng = random.Random(57)
        f = random_formula(rng, 6, m=10)
        if len(enumerate_solutions(f)) < 2:
            return
        plan = make_plan(6, max(f.k, 2), Fraction(1, 2), "v1")
        cfg = OracleConfig(seed=5, effort=2.0)
        base = disperse_weighted_min(f, 2, 0, WeightKind.AT_LEAST, plan, cfg)
        top = disperse_weighted_min(f, 2, 6, WeightKind.AT_MOST, plan, cfg)
        none = disperse_weighted_min(f, 2, 0, WeightKind.NONE, plan, cfg)
        assert base == none
        assert top == none

    def test_weighted_oracle_respects_window(self):
        f = CnfFormula(4, [(1, 2, 3, 4)])
        plan = make_plan(4, 4, Fraction(1, 2), "v1")
        oracle = weighted_oracle(plan, OracleConfig(seed=6, effort=4.0), 3)
        out = oracle(f, [A("1111")], salt=())
        assert out is not None
        assert out.weight() >= 1.5  # (1 - delta) * W for W' = 3


class TestFusedWeightSweep:
    """The weighted oracle's one anchored search returns what one
    schoning_farthest_weighted call per target on the same stream, kept
    as the reference here, returns: best by min-distance, ties to the
    smallest key."""

    @staticmethod
    def per_target_loop(plan, cfg, w, kind, formula, anchors, salt):
        """(answer, whether every target returned None)."""
        n = formula.n
        at_least = kind is WeightKind.AT_LEAST
        targets = range(max(w, 1), n + 1) if at_least else range(1, w + 1)
        found = [
            schoning_farthest_weighted(formula, anchors, wp, plan, cfg.spawn(1, *salt))
            for wp in targets
        ]
        candidates = [z for z in found if z is not None]
        none = not candidates
        if not at_least and evaluate(formula, Assignment.zeros(n)):
            candidates.append(Assignment.zeros(n))
        if not candidates:
            return None, none
        keys = [z.key for z in candidates]
        return candidates[farthest_index(keys, [a.key for a in anchors], np.min)], none

    def test_matches_the_per_target_loop(self):
        rng = random.Random(71)
        kinds = [WeightKind.AT_LEAST, WeightKind.AT_MOST]
        answers = all_none = 0
        for trial in range(32):
            n = rng.randint(6, 12)
            if trial % 8 == 7:
                f = CnfFormula(n, [(1, 2), (1, -2), (-1, 2), (-1, -2)])  # unsat
            else:
                f = random_formula(rng, n, m=rng.randint(n, 5 * n))
            plan = make_plan(n, 3)
            kind = kinds[trial % 2]
            w = rng.randint(0, n)
            keys = rng.sample(range(1 << n), rng.randint(1, 3))
            anchors = [Assignment(n, key) for key in keys]
            cfg = OracleConfig(seed=rng.randrange(2**32))
            salt = (rng.randint(2, 4), rng.randint(0, 5))
            want, none = self.per_target_loop(plan, cfg, w, kind, f, anchors, salt)
            got = weighted_oracle(plan, cfg, w, kind)(f, anchors, salt)
            assert got == want
            answers += want is not None
            all_none += none
        assert answers >= 12 and all_none >= 4

    def test_window_is_the_union_of_the_targets_windows(self):
        """Weights as bit masks: bit x of masks[W'] is set when weight x
        lies in weight_window(delta, W')."""
        for delta in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1),
                      Fraction(1, 7), Fraction(5, 6)):
            for n in range(1, 64):
                masks = [0] * (n + 1)
                for wp in range(1, n + 1):
                    lo, hi = weight_window(delta, wp)
                    masks[wp] = (1 << (hi + 1)) - (1 << lo)
                for w in range(n + 1):
                    for at_least in (True, False):
                        targets = range(max(w, 1), n + 1) if at_least else range(1, w + 1)
                        union = functools.reduce(operator.or_, (masks[t] for t in targets), 0)
                        window = _target_window(delta, n, w, at_least)
                        if window is None:
                            assert union == 0
                        else:
                            lo, hi = window
                            assert union == (1 << (hi + 1)) - (1 << lo)
                with pytest.raises(ValueError, match="W must lie in 0..n"):
                    _target_window(delta, n, n + 1, False)

    @pytest.mark.parametrize("kind", [WeightKind.AT_LEAST, WeightKind.AT_MOST])
    def test_one_call_plans_one_anchored_search(self, monkeypatch, kind):
        """On an unsatisfiable formula no task stops early, so the engine
        walks every planned walk: one call walks what one anchored search
        around the anchors and the all-zeros point plans, for 1..n
        targets."""
        n = 8
        f = CnfFormula(n, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
        plan = make_plan(n, 3)
        cfg = OracleConfig(seed=5)
        anchors = [A("10110010"), A("01100111")]
        walked = []
        run = schoning._Walker.run

        def counted(self, starts, lengths, uniforms):
            walked.append(len(starts))
            return run(self, starts, lengths, uniforms)

        monkeypatch.setattr(schoning._Walker, "run", counted)
        planned = anchored_walks(plan, cfg.effort, len(anchors) + 1)
        for w in range(1, n + 1):
            walked.clear()
            assert weighted_oracle(plan, cfg, w, kind)(f, anchors) is None
            assert sum(walked) == planned
