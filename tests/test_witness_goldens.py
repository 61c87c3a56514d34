"""Golden witnesses of the exact dispersion solvers.

The other tests compare optimal values only; these pin the members each
solver returns, so that a changed tie-break shows up.  The clique and
dispersion goldens were captured from the solvers as they stood before
the clique solvers shared one tuple-graph builder; the diameter goldens
from `exact_diameter` as it stood before it chose its word by the
solution count, when every transform ran in int64; the backbone goldens
from the `diameter` and `disperse --algo fwht` commands as they stood
before the exact layer projected its table onto the coordinates the
solutions disagree on, when every transform ran over all 2^n entries.
"""

import json
import random

import numpy as np
import pytest

from dispersat.cli import run
from dispersat.cliques import opt_min_clique, opt_sum_clique
from dispersat.cnf import Assignment, CnfFormula, solution_indicator
from dispersat.fwht import exact_diameter, exact_dispersion
from dispersat.generators import planted_kcnf
from dispersat.measures import DispersionObjective

# seed -> members of opt_min_clique, opt_sum_clique(distinct=True) and
# opt_sum_clique(distinct=False) on the seeded point set with s = 3 + seed % 4
CLIQUE = {
    0: ('00001 01010 10110', '00110 01010 10101', '00110 01010 10101'),
    1: ('0011101 0100111 1010010 1101000', '0011101 0100111 1010010 1101000', '0011101 0011101 1100010 1100010'),
    2: ('000100 001001 100101 111011 111101', '000100 001001 100010 111011 111101', '000100 000100 111011 111011 111101'),
    3: ('0010 0100 0111 1000 1011 1110', '0000 0100 0111 1000 1011 1111', '0100 0100 0100 1011 1011 1011'),
    4: ('011111 101100 110010', '000011 101100 110010', '000011 101100 110010'),
    5: ('000001 011000 100111 111101', '000010 011000 100111 111101', '000010 000010 111101 111101'),
    6: ('0001 0100 0111 1011 1101', '0001 0100 1011 1100 1111', '0100 0100 1011 1011 1011'),
    7: ('0100111 0101001 0101011 1001000 1001010 1111000', '0100111 0101001 0101011 1001000 1001010 1111000', '0100111 0100111 0100111 1001000 1001000 1111000'),
    8: ('0000 0101 1100', '0101 1010 1100', '0101 0101 1010'),
    9: ('00000 00111 01101 11000', '00000 00111 11000 11111', '00111 00111 11000 11000'),
    10: ('0011111 0100001 1000101 1001111 1110000', '0011111 0100001 1000101 1001111 1110000', '0011111 0101111 1000101 1110000 1110000'),
    11: ('0010000 0100010 0101100 0111011 1100101 1111110', '0010000 0100001 0101100 0111011 1100101 1111110', '0010000 0010000 0111011 1100101 1100101 1111110'),
    12: ('000001 101000 110100', '000001 001010 110100', '000001 001010 110100'),
    13: ('1001 1011 1101 1111', '1001 1011 1101 1111', '1001 1001 1111 1111'),
    14: ('0001 0010 0111 1011 1101', '0010 0111 1001 1100 1101', '0010 0010 0010 1101 1101'),
    15: ('00001 01000 01111 10100 11010 11101', '00001 01000 01111 10100 11010 11101', '00001 01111 01111 10100 10100 11010'),
    16: ('00110 10001 11010', '00110 10001 11011', '00110 10001 11011'),
    17: ('0010 0110 1001 1010', '0010 0110 1001 1010', '0110 0110 1001 1001'),
    18: ('0000011 0001011 0100101 1011110 1101010', '0000011 0001011 0100101 1011110 1101010', '0000011 0100101 0100101 1011110 1011110'),
    19: ('001001 001011 001111 011111 100011 110100', '001001 011111 100010 100011 110100 111100', '001001 001011 011111 100010 110100 110100'),
}

# (seed, s) -> members of exact_dispersion for MIN_PD, SUM_PD and
# SUM_PD_DISTINCT on the seeded planted formula
EXACT = {
    (0, 2): ('01110 10011', '01110 10011', '01110 10011'),
    (0, 3): ('00010 00111 01110', '01110 10011 10011', '01110 10010 10011'),
    (1, 2): ('001101 100010', '001101 100010', '001101 100010'),
    (1, 3): ('010100 100010 101101', '010100 100011 101111', '010100 100011 101111'),
    (2, 2): ('0110100 1001011', '0110100 1001011', '0110100 1001011'),
    (2, 3): ('0000001 0001110 0110100', '0110100 1001011 1001011', '0110100 1001010 1001011'),
    (3, 2): ('10000011 11111100', '10000011 11111100', '10000011 11111100'),
    (3, 3): ('01011000 10000011 11110101', '01011000 10000011 11110111', '01011000 10000011 11110111'),
    (4, 2): ('10010 10101', '10010 10101', '10010 10101'),
    (4, 3): ('00001 10000 10101', '00001 10010 10101', '00001 10010 10101'),
    (5, 2): ('001110 110001', '001110 110001', '001110 110001'),
    (5, 3): ('001110 100101 110010', '001110 110001 110001', '001110 001111 110001'),
}

# seed -> the pair exact_diameter returns on diameter_formula(seed):
# planted 3-CNFs with n = 4..18 below 2^31 / 2^n solutions (seeds 0-14),
# then formulas with 2^n |S| >= 2^31 at n = 16..20 (seeds 15-19)
DIAMETER = {
    0: ('0001', '1100'),
    1: ('00000', '01111'),
    2: ('011000', '011000'),
    3: ('0100110', '1101001'),
    4: ('011001001', '100110011'),
    5: ('0100011011', '0100110100'),
    6: ('00111110110', '01010101000'),
    7: ('001110100110', '010001111001'),
    8: ('00011000101001', '11011011010110'),
    9: ('010110110110000', '111110101011111'),
    10: ('0001111111101000', '0101100010010010'),
    11: ('000101111101110011', '001110010110101000'),
    12: ('000000001100010101', '110111110011101010'),
    13: ('01001000001101111', '10110111110010000'),
    14: ('0101111110100101', '1000000001011010'),
    15: ('0000000100000000', '1111111011111111'),
    16: ('00000010000000000', '01111111111111111'),
    17: ('000000000100010001', '111111101001001010'),
    18: ('1100000000010100000', '1101111111111110111'),
    19: ('00000101100110001001', '10011011011111111101'),
}


def diameter_formula(seed):
    rng = np.random.default_rng(800 + seed)
    if seed < 12:
        n = 4 + seed * 14 // 11
        return planted_kcnf(n, 3, 4 * n, rng)[0]
    if seed < 15:
        n = 30 - seed
        return planted_kcnf(n, 3, 2 * n, rng)[0]
    # 2n - 32 unit clauses and four 3-clauses over the free variables
    # leave at least 2^(32 - n) / 2 solutions
    n = 1 + seed
    units = 2 * n - 32
    variables = [int(v) + 1 for v in rng.permutation(n)]
    fixed, free = variables[:units], variables[units:]
    clauses = [(v if rng.integers(2) else -v,) for v in fixed]
    for _ in range(4):
        picked = rng.choice(free, size=3, replace=False)
        clauses.append(tuple(int(v) if rng.integers(2) else -int(v) for v in picked))
    return CnfFormula(n, clauses)


def strings(witness):
    return " ".join(z.to_string() for z in witness)


@pytest.mark.parametrize("seed", sorted(CLIQUE))
def test_clique_witnesses(seed):
    s = 3 + seed % 4
    rng = random.Random(900 + seed)
    n = rng.randint(4, 7)
    m = rng.randint(s, min(12, 1 << n))
    points = [Assignment(n, key) for key in rng.sample(range(1 << n), m)]
    got = (
        strings(opt_min_clique(points, s)),
        strings(opt_sum_clique(points, s, distinct=True)),
        strings(opt_sum_clique(points, s, distinct=False)),
    )
    assert got == CLIQUE[seed]


@pytest.mark.parametrize("seed, s", sorted(EXACT))
def test_exact_dispersion_witnesses(seed, s):
    n = 5 + seed % 4
    formula, _ = planted_kcnf(n, 3, 2 * n, np.random.default_rng(700 + seed))
    got = tuple(
        strings(exact_dispersion(formula, s, objective))
        for objective in DispersionObjective
    )
    assert got == EXACT[(seed, s)]


@pytest.mark.parametrize("seed", sorted(DIAMETER))
def test_exact_diameter_witnesses(seed):
    formula = diameter_formula(seed)
    count = int(solution_indicator(formula).sum())
    assert (count << formula.n >= 2**31) == (seed >= 15)
    z1, z2 = exact_diameter(formula)
    assert (z1.to_string(), z2.to_string()) == DIAMETER[seed]


# seed -> the `diameter --algo fwht` pair, then the `disperse --algo fwht`
# members (or the status) for --objective min, sum and sum-distinct, with
# --s 3 up to n = 12 and --s 2 above, on backbone_formula(seed)
BACKBONE = {
    0: ('110001 110011', 'INFEASIBLE', '110001 110011 110011', 'INFEASIBLE'),
    1: ('000110 000111', 'INFEASIBLE', '000110 000111 000111', 'INFEASIBLE'),
    2: ('1100000 1101101', '1100000 1101001 1101100', '1100000 1101101 1101101', '1100000 1101100 1101101'),
    3: ('00011101 11100110', '00100101 01000110 01011101', '00011101 11100110 11100110', '00011101 11100110 11100111'),
    4: ('000010001 101010111', '000010001 001010011 001010101', '000010001 101010111 101010111', '000010001 101010101 101010111'),
    5: ('0101000000 1101000000', 'INFEASIBLE', '0101000000 1101000000 1101000000', 'INFEASIBLE'),
    6: ('00001001000 01111101111', '00001001000 00111001011 00111101100', '00001001000 01111101111 01111101111', '00001001000 01111101110 01111101111'),
    7: ('101001110110 101101110111', '101001110110 101101110110 101101110111', '101001110110 101101110111 101101110111', '101001110110 101101110110 101101110111'),
    8: ('0000101000011 1011111010000', '0000101000011 1011111010000', '0000101000011 1011111010000', '0000101000011 1011111010000'),
    9: ('00100010111000 01100010111000', '00100010111000 01100010111000', '00100010111000 01100010111000', '00100010111000 01100010111000'),
    10: ('000010010101000 111101101010101', '000010010101000 111101101010101', '000010010101000 111101101010101', '000010010101000 111101101010101'),
    11: ('0001100110101110 0011110110100111', '0001100110101110 0011110110100111', '0001100110101110 0011110110100111', '0001100110101110 0011110110100111'),
}


def backbone_formula(seed):
    """Planted 3-CNFs at n = 6..16 whose unit clauses, set as in the
    planted solution, fix 1 to n - 1 coordinates; with the implied ones,
    n' runs from 1 to n - 1 across the seeds."""
    rng = np.random.default_rng(1900 + seed)
    n = 6 + seed * 10 // 11
    formula, (planted,) = planted_kcnf(n, 3, n + 2 * (seed % 3), rng)
    fixed = rng.choice(n, size=int(rng.integers(1, n)), replace=False) + 1
    units = [(int(v) if planted.bit(int(v)) else -int(v),) for v in fixed]
    return CnfFormula(n, list(formula.clauses) + units)


def report(argv, capsys):
    run(argv)
    data = json.loads(capsys.readouterr().out)
    return " ".join(data["assignments"]) if data["status"] == "OK" else data["status"]


@pytest.mark.parametrize("seed", sorted(BACKBONE))
def test_backbone_reports(seed, tmp_path, capsys):
    formula = backbone_formula(seed)
    keys = np.flatnonzero(solution_indicator(formula))
    free = int(np.bitwise_or.reduce(keys)) ^ int(np.bitwise_and.reduce(keys))
    assert free.bit_count() < formula.n
    path = tmp_path / "backbone.cnf"
    path.write_text(formula.to_dimacs())
    s = "3" if formula.n <= 12 else "2"
    got = (report(["diameter", "--algo", "fwht", str(path)], capsys),) + tuple(
        report(["disperse", "--s", s, "--objective", objective, "--algo", "fwht", str(path)], capsys)
        for objective in ("min", "sum", "sum-distinct")
    )
    assert got == BACKBONE[seed]
