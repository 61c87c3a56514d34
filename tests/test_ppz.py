import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dispersat.brute import enumerate_solutions
from dispersat.cnf import Assignment, CapabilityError, CnfFormula, evaluate
from dispersat.generators import planted_kcnf
from dispersat.measures import best_index
from dispersat.ppz import (
    _SOLVE_CUTS,
    OracleConfig,
    PpzSample,
    _ball_masks,
    _Engine,
    _batches,
    ball_radius,
    packed_engine,
    ppz_farthest_min,
    ppz_farthest_sum,
    ppz_modify,
    ppz_solve,
    ppz_solve_counted,
    tau_exact,
    tau_histogram,
)

from solution_graph import solution_adjacency


def A(s):
    return Assignment.from_string(s)


def random_formula(rng, n, k=3, m=None):
    m = m if m is not None else 2 * n
    clauses = [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, k))]
        for _ in range(m)
    ]
    return CnfFormula(n, clauses)


class TestModify:
    def test_hand_trace(self):
        f = CnfFormula(2, [(1, 2)])
        out = ppz_modify(f, PpzSample(A("00"), (1, 2)))
        assert out == A("01")

    def test_unit_propagation_forces_both(self):
        f = CnfFormula(2, [(1,), (2,)])
        for y in ("00", "01", "10", "11"):
            for pi in ((1, 2), (2, 1)):
                assert ppz_modify(f, PpzSample(A(y), pi)) == A("11")

    def test_trivially_true_copies_y(self):
        f = CnfFormula(5, [])
        assert ppz_modify(f, PpzSample(A("10110"), (3, 1, 5, 2, 4))) == A("10110")

    def test_contradictory_units_first_clause_wins(self):
        f = CnfFormula(1, [(-1,), (1,)])
        assert ppz_modify(f, PpzSample(A("1"), (1,))) == A("0")
        g = CnfFormula(1, [(1,), (-1,)])
        assert ppz_modify(g, PpzSample(A("0"), (1,))) == A("1")

    def test_deterministic_resimulation(self):
        rng = random.Random(0)
        f = random_formula(rng, 6)
        sample = PpzSample(Assignment(6, 41), (3, 6, 1, 5, 2, 4))
        assert ppz_modify(f, sample) == ppz_modify(f, sample)

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            PpzSample(A("00"), (1, 1))


def engine_keys(f, samples):
    ys = np.array([s.y.bits for s in samples], dtype=np.uint8).reshape(len(samples), f.n)
    pis = np.array([s.pi for s in samples], dtype=np.int64).reshape(len(samples), f.n)
    return packed_engine(f, _Engine).run(ys, pis)


def random_samples(rng, n, count):
    samples = []
    for _ in range(count):
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        samples.append(PpzSample(Assignment(n, rng.randrange(1 << n)), tuple(pi)))
    return samples


def assert_engine_matches_modify(f, samples):
    keys, satisfied = engine_keys(f, samples)
    assert keys.dtype == np.int64
    for row, sample in enumerate(samples):
        expected = ppz_modify(f, sample)
        assert Assignment(f.n, int(keys[row])) == expected
        assert bool(satisfied[row]) == evaluate(f, expected)


class TestEngine:
    def test_matches_scalar_on_random_inputs(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 6)
            f = random_formula(rng, n, m=rng.randint(0, 3 * n))
            assert_engine_matches_modify(f, random_samples(rng, n, 8))

    @pytest.mark.parametrize(
        "n", [3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 31, 32, 33, 62, 63]
    )
    def test_bit_identical_across_word_boundaries(self, n):
        rng = random.Random(n)
        for trial in range(3):
            clauses = [
                [
                    rng.choice([-1, 1]) * v
                    for v in rng.sample(range(1, n + 1), min(w, n))
                ]
                for w in rng.choices([1, 2, 3, 4], k=rng.randint(n // 2, 2 * n))
            ]
            if trial == 1:
                v = rng.randint(1, n)
                clauses[:0] = [(-v,), (v,)]  # contradictory units
            if trial == 2:
                clauses.append(())
            f = CnfFormula(n, clauses)
            samples = random_samples(rng, n, 12)
            assert_engine_matches_modify(f, samples)

    @pytest.mark.parametrize("occurrences", [7, 8, 9, 17, 33, 64, 65, 130])
    def test_bit_identical_across_lane_boundaries(self, occurrences):
        # variable 1 sits in `occurrences` clauses, so its unit flags fill
        # one 8-, 16-, 32- or 64-bit lane, or several 64-bit lanes
        rng = random.Random(occurrences)
        n = 6
        clauses = []
        for _ in range(occurrences):
            others = rng.sample(range(2, n + 1), rng.randint(0, 2))
            clauses.append([rng.choice([-1, 1]) * v for v in [1] + others])
        f = CnfFormula(n, clauses)
        samples = random_samples(rng, n, 40)
        assert_engine_matches_modify(f, samples)

    @pytest.mark.parametrize("n", [2, 5, 9, 33])
    def test_variable_in_no_clause(self, n):
        """Variable u occurs in no clause: its table rows are all padding,
        so it is never unit and copies its bit of y."""
        rng = random.Random(100 + n)
        u = n // 2 + 1
        others = [v for v in range(1, n + 1) if v != u]
        clauses = [
            [rng.choice([-1, 1]) * v for v in rng.sample(others, min(n - 1, 3))]
            for _ in range(2 * n)
        ]
        f = CnfFormula(n, clauses)
        assert all(u not in map(abs, c) for c in f.clauses)
        assert_engine_matches_modify(f, random_samples(rng, n, 40))

    @pytest.mark.parametrize(
        "n, m", [(0, 0), (1, 1), (8, 60), (13, 40), (33, 90), (63, 300)]
    )
    def test_table_bytes(self, n, m):
        """The unit tables hold (n+1) ceil(n/4) 256 lanes lane words."""
        rng = random.Random(n)
        eng = _Engine(random_formula(rng, n, k=3, m=m))
        lanes = eng.sign.shape[1]
        assert eng.tables.dtype == eng.sign.dtype == eng.lane
        words = (n + 1) * -(-n // 4) * 256 * lanes
        assert eng.tables.nbytes <= words * eng.lane.itemsize

    def test_n64_refused(self):
        with pytest.raises(CapabilityError):
            packed_engine(CnfFormula(64, [(1, 64)]), _Engine)
        f63 = CnfFormula(63, [(1, -63)])
        assert ppz_solve(f63, OracleConfig(seed=1, repetitions=64)) is not None
        with pytest.raises(CapabilityError, match="above the cap"):
            ppz_solve(f63, OracleConfig(seed=1))  # the automatic budget


class TestEngineEdges:
    def test_empty_clause_formula(self):
        f = CnfFormula(2, [(), (1,)])
        sample = PpzSample(A("00"), (2, 1))
        out = ppz_modify(f, sample)
        assert out == A("10")  # unit still forces x1; empty clause just fails
        keys, satisfied = engine_keys(f, [sample])
        assert Assignment(2, int(keys[0])) == out
        assert not satisfied[0]

    def test_contradictory_units_first_clause_wins(self):
        for clauses, y, expected in (([(-1,), (1,)], "1", "0"), ([(1,), (-1,)], "0", "1")):
            f = CnfFormula(1, clauses)
            keys, satisfied = engine_keys(f, [PpzSample(A(y), (1,))])
            assert Assignment(1, int(keys[0])) == A(expected)
            assert not satisfied[0]

    def test_zero_variables(self):
        samples = [PpzSample(Assignment(0, 0), ())]
        keys, satisfied = engine_keys(CnfFormula(0, []), samples)
        assert keys.tolist() == [0] and satisfied.tolist() == [True]
        keys, satisfied = engine_keys(CnfFormula(0, [()]), samples)
        assert keys.tolist() == [0] and satisfied.tolist() == [False]

    def test_single_variable(self):
        f = CnfFormula(1, [(-1,)])
        assert ppz_modify(f, PpzSample(A("1"), (1,))) == A("0")


def c09_formula(seed):
    """An n = 8, k = 7 planted formula of the c09 family."""
    return planted_kcnf(8, 7, 60, np.random.default_rng(seed))[0]


# formula, and the steps before the first one any clause can force
FREE_STEPS = {
    "empty clause": (CnfFormula(6, [(1, -2, 3), (), (2, 4, -5), (-6, 1)]), 0),
    "width 1": (CnfFormula(6, [(1, -2, 3), (-4,), (2, 4, -5, 6), (4, 5)]), 0),
    "width 2": (CnfFormula(6, [(1, -2, 3), (-4, 6), (2, 4, -5, 6), (-1, -3, 5)]), 1),
    "width k": (c09_formula(3), 6),
    "no clauses": (CnfFormula(7, []), 7),
}


class TestFreeSteps:
    """The first min-width - 1 steps copy y without a table lookup."""

    @pytest.mark.parametrize("name", FREE_STEPS)
    def test_run_matches_modify_around_the_cuts(self, name):
        f, free = FREE_STEPS[name]
        eng = packed_engine(f, _Engine)
        assert eng.free_steps == free
        n = f.n
        rng = np.random.default_rng(len(name))
        rows = _SOLVE_CUTS[-1] + 1
        ys = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
        pis = rng.permuted(np.tile(np.arange(1, n + 1), (rows, 1)), axis=1)
        expected = [
            ppz_modify(f, PpzSample(Assignment.from_bits(y), tuple(pi)))
            for y, pi in zip(ys.tolist(), pis.tolist())
        ]
        expected_keys = np.array([z.key for z in expected], dtype=np.int64)
        expected_sat = np.array([evaluate(f, z) for z in expected])
        for cut in _SOLVE_CUTS:
            for b in (cut - 1, cut, cut + 1):
                keys, satisfied = eng.run(ys[:b], pis[:b])
                assert keys.dtype == np.int64
                assert (keys == expected_keys[:b]).all()
                assert (satisfied == expected_sat[:b]).all()

    @pytest.mark.parametrize("n, width", [(33, 3), (40, 12), (63, 5), (63, 16)])
    def test_free_steps_in_the_second_code_word(self, n, width):
        """Above n = 32 the code has two words; free variables of either
        are written by the bulk code build."""
        rng = random.Random(n * width)
        clauses = [
            [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), rng.randint(width, width + 4))]
            for _ in range(2 * n)
        ]
        f = CnfFormula(n, clauses)
        assert packed_engine(f, _Engine).free_steps == min(map(len, f.clauses)) - 1 >= width - 1
        assert_engine_matches_modify(f, random_samples(rng, n, 30))

    @pytest.mark.parametrize("n", [1, 4, 8, 31, 32, 33, 36, 63])
    def test_bulk_code_matches_setting_one_variable_at_a_time(self, n):
        rng = random.Random(n)
        eng = _Engine(random_formula(rng, n, k=3, m=n))
        rows = 50
        assigned = np.array([rng.getrandbits(n) for _ in range(rows)], dtype=np.uint64)
        true = assigned & np.array([rng.getrandbits(n) for _ in range(rows)], dtype=np.uint64)
        expected = np.zeros((rows, eng.code_bit.shape[1]), dtype="<u8")
        for v in range(1, n + 1):
            bit = np.uint64(1 << (n - v))
            shift = np.where(true & bit, 4, 0).astype(np.uint64)[:, None]
            expected |= np.where((assigned & bit)[:, None] != 0, eng.code_bit[v] << shift, 0)
        word = eng.word
        assert (eng._code(true.astype(word), (assigned ^ true).astype(word)) == expected).all()

    def test_tau_exact_unchanged(self):
        """tau_exact over the keys k with k mod 3 != 1, as recorded
        before the free steps were skipped."""
        recorded = {
            "empty clause": Fraction(7, 8),
            "width 1": Fraction(11, 16),
            "width 2": Fraction(2633, 3840),
            "width k": Fraction(2897, 4608),
            "no clauses": Fraction(11, 16),
        }
        formulas = {
            "empty clause": CnfFormula(4, [(1, -2), (), (3,)]),
            "width 1": CnfFormula(5, [(2,), (1, -3, 4), (-1, 5)]),
            "width 2": CnfFormula(5, [(1, -2), (2, 3, -4), (-1, 4, 5), (3, -5)]),
            "width k": CnfFormula(6, [(1, 2, -3), (-1, 4, 5), (2, -5, 6), (-2, -4, -6), (3, 4, -6)]),
            "no clauses": CnfFormula(4, []),
        }
        for name, f in formulas.items():
            targets = [Assignment(f.n, key) for key in range(1 << f.n) if key % 3 != 1]
            assert tau_exact(f, targets) == recorded[name], name


class TestTauExact:
    def test_unique_solution_probability_one(self):
        f = CnfFormula(2, [(1,), (-2,)])
        assert tau_exact(f, [A("10")]) == 1

    def test_histogram_sums_to_one(self):
        f = CnfFormula(3, [(1, 2, 3)])
        counts, denom = tau_histogram(f)
        assert counts.sum() == denom == math.factorial(3) * 8

    def test_histogram_matches_scalar_enumeration(self):
        rng = random.Random(41)
        for n in range(1, 5):
            for _ in range(3):
                f = random_formula(rng, n, k=2, m=rng.randint(0, 2 * n))
                expected = [0] * (1 << n)
                for key in range(1 << n):
                    for pi in itertools.permutations(range(1, n + 1)):
                        expected[ppz_modify(f, PpzSample(Assignment(n, key), pi)).key] += 1
                counts, denom = tau_histogram(f)
                assert counts.tolist() == expected
                assert denom == math.factorial(n) << n

    def test_limit(self):
        with pytest.raises(CapabilityError):
            tau_histogram(CnfFormula(8, []))

    def test_coding_lemma_small(self):
        rng = random.Random(29)
        checked = 0
        while checked < 10:
            n = rng.randint(2, 5)
            f = random_formula(rng, n, k=3)
            keys, adjacency = solution_adjacency(f)
            if not keys:
                continue
            counts, denom = tau_histogram(f)
            k = max(f.k, 1)
            for key in keys:
                tau = Fraction(int(counts[key]), denom)
                j = n - len(adjacency[key])
                # tau >= 2^(-n + j/k), compared exactly via k-th powers
                assert tau**k >= Fraction(2**j, 2 ** (n * k))
            checked += 1


class TestSolve:
    def test_finds_solution(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_formula(rng, rng.randint(2, 10))
            sols = enumerate_solutions(f)
            z = ppz_solve(f, OracleConfig(seed=1))
            if len(sols) == 0:
                assert z is None
            else:
                assert z is not None and evaluate(f, z)

    def test_unsat_returns_none(self):
        f = CnfFormula(1, [(1,), (-1,)])
        assert ppz_solve(f, OracleConfig(seed=3)) is None

    def test_seed_determinism(self):
        rng = random.Random(6)
        f = random_formula(rng, 8)
        cfg = OracleConfig(seed=99, effort=0.1)
        assert ppz_solve(f, cfg) == ppz_solve(f, cfg)
        z1, it1 = ppz_solve_counted(f, cfg)
        z2, it2 = ppz_solve_counted(f, cfg)
        assert (z1, it1) == (z2, it2)

    def test_early_exit_matches_full_blocks(self):
        # segments of 64, 256, ... rows must report the same first hit as
        # running each seeded block whole
        f, _ = planted_kcnf(14, 3, 60, np.random.default_rng(1))
        iterations = set()
        for seed in range(12):
            cfg = OracleConfig(seed=seed, effort=0.05)
            expected = (None, cfg.resolve(f.n, f.k))
            for keys, satisfied, start in _batches(f, cfg, expected[1]):
                if satisfied.any():
                    row = int(np.argmax(satisfied))
                    expected = (Assignment(f.n, int(keys[row])), start + row + 1)
                    break
            assert ppz_solve_counted(f, cfg) == expected
            iterations.add(expected[1])
        assert min(iterations) <= 64 < 256 < max(iterations)
        unsat = CnfFormula(1, [(1,), (-1,)])
        assert ppz_solve_counted(unsat, OracleConfig(repetitions=9000)) == (None, 9000)

    def test_budget_resolution(self):
        cfg = OracleConfig(seed=0, effort=1.0)
        assert cfg.resolve(6, 3) == math.ceil(4 * 36 * 2 ** (6 - 2))
        assert OracleConfig(seed=0, repetitions=7).resolve(20, 3) == 7
        with pytest.raises(ValueError):
            OracleConfig(seed=0, repetitions=0).resolve(5, 3)

    @pytest.mark.parametrize("effort", [math.inf, math.nan, 0, 0.0, -1])
    def test_effort_must_be_finite_and_positive(self, effort):
        """An infinite effort overflowed `math.ceil` in the budget, and a
        nonpositive one silently ran the one-repetition minimum."""
        with pytest.raises(ValueError, match="effort must be finite and > 0"):
            OracleConfig(seed=0, effort=effort)


def reference_farthest(f, anchors, cfg, reduce, exclude=False, ball=False):
    """The farthest oracles per sample: every satisfying output of a
    batch, repeats included, is scored, and `best_index` picks the batch
    winner; ball=True adds the satisfying keys of the phase-1 balls."""
    n = f.n
    anchor_keys = [a.key for a in anchors]

    def winner(keys):
        scores = [reduce([(key ^ a).bit_count() for a in anchor_keys]) for key in keys]
        return keys[best_index(scores, keys)]

    hits = []
    if ball:
        radius = ball_radius(n, f.k)
        hits = [
            key
            for a in anchor_keys
            for key in range(1 << n)
            if (key ^ a).bit_count() <= radius and evaluate(f, Assignment(n, key))
        ]
    for keys, satisfied, _ in _batches(f, cfg, cfg.resolve(n, f.k)):
        keys = [
            key
            for key, ok in zip(keys.tolist(), satisfied.tolist())
            if ok and not (exclude and key in anchor_keys)
        ]
        if keys:
            hits.append(winner(keys))
    return Assignment(n, winner(hits)) if hits else None


class TestFarthest:
    def test_farthest_from_all_ones(self):
        f = CnfFormula(3, [(1, 2, 3)])
        z = ppz_farthest_sum(f, [A("111")], OracleConfig(seed=2))
        assert z is not None and A("111").distance(z) == 2

    def test_unique_solution_returned_regardless_of_anchor(self):
        f = CnfFormula(2, [(1,), (-2,)])
        assert ppz_farthest_sum(f, [A("10")], OracleConfig(seed=4)) == A("10")

    def test_farthest_sum(self):
        f = CnfFormula(2, [(1, 2)])
        z = ppz_farthest_sum(f, [A("11")], OracleConfig(seed=5))
        assert z in (A("01"), A("10"))

    def test_farthest_sum_exclude(self):
        f = CnfFormula(2, [(1, 2)])
        z = ppz_farthest_sum(
            f, [A("01"), A("10")], OracleConfig(seed=6), exclude=True
        )
        assert z == A("11")

    def test_singleton_sum_matches_farthest_objective(self):
        rng = random.Random(30)
        f = random_formula(rng, 6)
        anchor = Assignment(6, 13)
        cfg = OracleConfig(seed=7)
        # doubling the anchor doubles every score, so the argmax stays
        z_far = ppz_farthest_sum(f, [anchor], cfg)
        z_sum = ppz_farthest_sum(f, [anchor, anchor], cfg)
        assert z_far == z_sum

    def test_farthest_min(self):
        f = CnfFormula(2, [(1, 2)])
        z = ppz_farthest_min(f, [A("01")], OracleConfig(seed=8))
        assert z == A("10")

    def test_ball_masks_enumerate_the_ball(self):
        for n, radius in ((1, 1), (5, 0), (6, 2), (9, 4)):
            expected = sorted(
                sum(1 << p for p in positions)
                for r in range(radius + 1)
                for positions in itertools.combinations(range(n), r)
            )
            assert sorted(_ball_masks(n, radius).tolist()) == expected

    def test_farthest_min_refuses_oversized_ball_at_once(self):
        rng = random.Random(40)
        f = random_formula(rng, 40, k=3, m=160)
        assert ball_radius(40, 3) == 8  # 1.0e8 keys per ball
        with pytest.raises(CapabilityError):
            ppz_farthest_min(f, [Assignment(40, 0)], OracleConfig(seed=1))

    def test_ball_radius_examples(self):
        assert ball_radius(6, 3) == 1
        assert ball_radius(8, 7) == 3

    def test_outputs_satisfy(self):
        rng = random.Random(31)
        for _ in range(5):
            f = random_formula(rng, 7)
            if len(enumerate_solutions(f)) == 0:
                continue
            cfg = OracleConfig(seed=rng.randrange(2**32), effort=0.2)
            anchors = [Assignment(7, rng.randrange(128)) for _ in range(2)]
            for z in (
                ppz_farthest_sum(f, anchors[:1], cfg),
                ppz_farthest_sum(f, anchors, cfg),
                ppz_farthest_min(f, anchors, cfg),
            ):
                if z is not None:
                    assert evaluate(f, z)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_oracles_match_a_per_sample_reference(self, seed):
        rng = random.Random(seed)
        cases = [
            (c09_formula(seed), OracleConfig(seed=seed, effort=0.6)),  # three batches
            (random_formula(rng, 7), OracleConfig(seed=seed, effort=0.6)),
            (FREE_STEPS["width 2"][0], OracleConfig(seed=seed, effort=0.6)),
            # most outputs occur once, so the winner can be a lone sample
            (random_formula(rng, 12, m=3), OracleConfig(seed=seed, repetitions=300)),
        ]
        for f, cfg in cases:
            anchors = [Assignment(f.n, rng.randrange(1 << f.n)) for _ in range(3)]
            anchors.append(anchors[0])  # a repeated anchor
            for count in (1, 2, 4):
                a = anchors[:count]
                assert ppz_farthest_sum(f, a, cfg) == reference_farthest(f, a, cfg, sum)
                assert ppz_farthest_sum(f, a, cfg, exclude=True) == reference_farthest(
                    f, a, cfg, sum, exclude=True
                )
                assert ppz_farthest_min(f, a, cfg) == reference_farthest(
                    f, a, cfg, min, ball=True
                )

    def test_anchor_length_must_match_formula(self):
        f = CnfFormula(3, [(1, 2)])
        for anchors in ([Assignment(6, 63)], [A("101"), A("10")]):
            with pytest.raises(ValueError, match="length n=3"):
                ppz_farthest_sum(f, anchors, OracleConfig(seed=1))
            with pytest.raises(ValueError, match="length n=3"):
                ppz_farthest_min(f, anchors, OracleConfig(seed=1))
