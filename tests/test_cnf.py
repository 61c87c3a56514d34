import numpy as np
import pytest

from dispersat import cnf
from dispersat.cnf import (
    Assignment,
    CapabilityError,
    CnfFormula,
    ParseError,
    clause_masks,
    condition,
    evaluate,
    evaluate_keys,
    parse_dimacs,
    rotate,
    solution_indicator,
)
from dispersat.brute import enumerate_solutions

import random


def A(s):
    return Assignment.from_string(s)


class TestAssignment:
    def test_string_roundtrip(self):
        z = A("01101")
        assert z.to_string() == "01101"
        assert z.bits == (0, 1, 1, 0, 1)
        assert z.weight() == 3

    def test_variable_one_is_leftmost(self):
        z = A("10")
        assert z.bit(1) == 1
        assert z.bit(2) == 0
        assert z.key == 2

    def test_xor_distance(self):
        assert (A("0110") ^ A("1100")) == A("1010")
        assert A("0110").distance(A("1100")) == 2

    def test_ordering_is_lexicographic(self):
        strings = ["000", "011", "101", "110", "001"]
        assert sorted(A(s) for s in strings) == [
            A(s) for s in sorted(strings)
        ]

    def test_flip_and_complement(self):
        assert A("000").flip(2) == A("010")
        assert A("0110").complement() == A("1001")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            A("01").distance(A("011"))


class TestParse:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        assert f.n == 2
        assert f.k == 2
        assert f.clauses == ((1, 2),)

    def test_tautology_dropped(self):
        f = parse_dimacs("p cnf 3 2\n1 -1 3 0\n2 0")
        assert f.n == 3
        assert f.clauses == ((2,),)
        assert f.k == 1

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\n3 0")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_dimacs("")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("p dnf 2 1\n1 0")

    def test_negative_clause_count(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 3 -5\n1 2 0\n")
        assert err.value.line == 1

    def test_clause_count_mismatch(self):
        for text in ("p cnf 3 5\n1 2 0\n", "p cnf 3 1\n1 0\n2 0\n", "p cnf 2 1\n"):
            with pytest.raises(ParseError):
                parse_dimacs(text)
        assert parse_dimacs("p cnf 2 2\n1 -1 0\n2").clauses == ((2,),)

    def test_comments_and_multiline_clause(self):
        f = parse_dimacs("c comment\np cnf 3 2\n1\n-2 0 3 0")
        assert f.clauses == ((1, -2), (3,))

    def test_unterminated_final_clause_closed_at_eof(self):
        f = parse_dimacs("p cnf 2 1\n1 2")
        assert f.clauses == ((1, 2),)

    def test_dimacs_roundtrip(self):
        f = parse_dimacs("p cnf 4 3\n1 -3 0\n2 4 0\n-1 0")
        assert parse_dimacs(f.to_dimacs()) == f


class TestSolutionIndicator:
    """The subcube-marked indicator against a per-key scan."""

    @staticmethod
    def scan(f):
        return evaluate_keys(f, np.arange(1 << f.n, dtype=np.int64))

    @pytest.mark.parametrize(
        "f",
        [
            CnfFormula(0, []),
            CnfFormula(0, [()]),
            CnfFormula(3, []),
            CnfFormula(3, [()]),
            CnfFormula(3, [(1, 2), ()]),
            CnfFormula(2, [(1,), (-2,)]),
            CnfFormula(1, [(1,), (-1,)]),
            CnfFormula(4, [(-1, 2, -3, 4)]),
        ],
        ids=repr,
    )
    def test_edge_cases(self, f):
        got = solution_indicator(f)
        assert got.dtype == bool and got.shape == (1 << f.n,)
        assert (got == self.scan(f)).all()

    def test_random_formulas(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 9)
            clauses = []
            for _ in range(rng.randint(0, 3 * n)):
                width = rng.randint(1, min(n, 4))
                clauses.append(
                    [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), width)]
                )
            f = CnfFormula(n, clauses)
            assert (solution_indicator(f) == self.scan(f)).all()


class TestEvaluate:
    def test_examples(self):
        f = CnfFormula(2, [(1, 2)])
        assert evaluate(f, A("01")) is True
        assert evaluate(f, A("00")) is False

    def test_empty_conjunction_true(self):
        f = CnfFormula(3, [])
        assert evaluate(f, A("101")) is True

    def test_empty_clause_false(self):
        f = CnfFormula(2, [()])
        assert f.clauses == ((),)
        assert evaluate(f, A("11")) is False

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(CnfFormula(2, [(1,)]), A("011"))

    def test_agrees_with_clause_semantics_random(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 10)
            clauses = [
                [
                    rng.choice([-1, 1]) * v
                    for v in rng.sample(range(1, n + 1), min(n, rng.randint(1, 3)))
                ]
                for _ in range(rng.randint(0, 3 * n))
            ]
            f = CnfFormula(n, clauses)
            for key in range(1 << n):
                z = Assignment(n, key)
                expected = all(
                    any(z.bit(abs(l)) != (l < 0) for l in c) for c in f.clauses
                )
                assert evaluate(f, z) == expected


def mixed_formula(rng, n, m):
    """m clauses over n variables, of widths 0 (empty) to min(n, 6)."""
    clauses = []
    for _ in range(m):
        width = rng.randint(0, min(n, 6)) if rng.random() < 0.1 else rng.randint(1, min(n, 6))
        clauses.append([rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), width)])
    return CnfFormula(n, clauses)


def scalar_evaluate(f, keys):
    keys = np.asarray(keys, dtype=np.int64)
    flat = [evaluate(f, Assignment(f.n, int(key))) for key in keys.reshape(-1)]
    return np.array(flat, dtype=bool).reshape(keys.shape)


class TestEvaluateKeys:
    """The clause-mask test against the scalar `evaluate`."""

    def test_matches_scalar_on_mixed_widths(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 14)
            f = mixed_formula(rng, n, rng.randint(0, 4 * n))
            keys = np.array([rng.randrange(1 << n) for _ in range(rng.randint(0, 60))], np.int64)
            got = evaluate_keys(f, keys)
            assert got.dtype == bool and got.shape == keys.shape
            assert (got == scalar_evaluate(f, keys)).all()

    def test_empty_clause_and_empty_formula(self):
        keys = np.arange(8, dtype=np.int64)
        assert not evaluate_keys(CnfFormula(3, [(1, 2), ()]), keys).any()
        assert evaluate_keys(CnfFormula(3, []), keys).all()
        assert evaluate_keys(CnfFormula(0, []), np.zeros(3, np.int64)).tolist() == [True] * 3
        assert evaluate_keys(CnfFormula(0, [()]), np.zeros(3, np.int64)).tolist() == [False] * 3
        assert evaluate_keys(CnfFormula(3, [(1,)]), np.zeros(0, np.int64)).shape == (0,)

    def test_top_bit_at_n63(self):
        rng = random.Random(63)
        planted = Assignment(63, (1 << 62) | rng.getrandbits(62))
        f = mixed_formula(rng, 63, 80)
        f = CnfFormula(63, [c for c in f.clauses if c and evaluate(CnfFormula(63, [c]), planted)])
        keys = [planted.key ^ (1 << rng.randrange(63)) for _ in range(50)]
        keys = np.array(keys + [planted.key, (1 << 63) - 1, 1 << 62], dtype=np.int64)
        expected = scalar_evaluate(f, keys)
        assert expected.any() and not expected.all()
        assert (evaluate_keys(f, keys) == expected).all()

    def test_keeps_the_key_shape(self):
        rng = random.Random(5)
        f = mixed_formula(rng, 9, 20)
        keys = np.array([rng.randrange(1 << 9) for _ in range(60)], np.int64)
        for shape in ((60,), (6, 10), (3, 4, 5), (60, 1)):
            got = evaluate_keys(f, keys.reshape(shape))
            assert got.shape == shape
            assert (got.reshape(-1) == evaluate_keys(f, keys)).all()
        assert evaluate_keys(f, np.int64(keys[0])).shape == ()
        assert bool(evaluate_keys(f, np.int64(keys[0]))) == evaluate(f, Assignment(9, int(keys[0])))

    @pytest.mark.parametrize("m", [1, 7, 1 << 10])
    def test_keys_around_a_chunk_boundary(self, m):
        rng = random.Random(m)
        f = CnfFormula(12, [c for c in mixed_formula(rng, 12, m).clauses if c] or [(1,)])
        step = max(1, cnf._EVAL_CHUNK // len(f.clauses))
        for count in (step - 1, step, step + 1, 2 * step + 1):
            keys = np.array([rng.randrange(1 << 12) for _ in range(count)], np.int64)
            assert (evaluate_keys(f, keys) == scalar_evaluate(f, keys)).all()

    def test_masks_are_built_once(self):
        f = CnfFormula(4, [(1, -2), (-3,), (2, 3, 4)])
        pos, neg = clause_masks(f)
        assert clause_masks(f)[0] is pos
        assert pos.tolist() == [0b1000, 0, 0b0111] and neg.tolist() == [0b0100, 0b0010, 0]
        with pytest.raises(ValueError):
            pos[0] = 1
        with pytest.raises(CapabilityError):
            evaluate_keys(CnfFormula(64, [(1, 64)]), [0])


class TestCondition:
    def test_literal_elimination(self):
        f = CnfFormula(2, [(1, 2)])
        assert condition(f, 1, False).clauses == ((2,),)

    def test_clause_satisfied(self):
        f = CnfFormula(2, [(1, 2)])
        assert condition(f, 1, True).clauses == ()

    def test_contradiction(self):
        f = CnfFormula(1, [(1,), (-1,)])
        assert () in condition(f, 1, True).clauses


class TestRotate:
    def test_all_ones_is_identity(self):
        f = CnfFormula(2, [(1, 2)])
        assert rotate(f, A("11")) == f

    def test_all_zeros_flips_polarity(self):
        f = CnfFormula(2, [(1, 2)])
        assert rotate(f, A("00")) == CnfFormula(2, [(-1, -2)])

    def test_solution_space_shift(self):
        f = CnfFormula(2, [(1, 2)])
        z = A("10")
        rotated = rotate(f, z)
        lhs = {u.key for u in enumerate_solutions(rotated)}
        rhs = {(u ^ z.complement()).key for u in enumerate_solutions(f)}
        assert lhs == rhs

    def test_involution_random(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 8)
            clauses = [
                [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, 3))]
                for _ in range(2 * n)
            ]
            f = CnfFormula(n, clauses)
            z = Assignment(n, rng.randrange(1 << n))
            assert rotate(rotate(f, z), z) == f

    def test_isometry_random(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 8)
            clauses = [
                [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, 3))]
                for _ in range(2 * n)
            ]
            f = CnfFormula(n, clauses)
            z = Assignment(n, rng.randrange(1 << n))
            rotated = rotate(f, z)
            src = enumerate_solutions(f).members
            dst = enumerate_solutions(rotated).members
            mapped = sorted(u ^ z.complement() for u in src)
            assert mapped == list(dst)
            # pairwise distances preserved under the bijection
            for i in range(len(src)):
                for j in range(len(src)):
                    assert src[i].distance(src[j]) == (
                        src[i] ^ z.complement()
                    ).distance(src[j] ^ z.complement())
