"""Golden witnesses of the exact dispersion solvers.

The other tests compare optimal values only; these pin the members each
solver returns, so that a changed tie-break shows up.  The goldens were
captured from the solvers as they stood before the clique solvers shared
one tuple-graph builder.
"""

import random

import numpy as np
import pytest

from dispersat.cliques import opt_min_clique, opt_sum_clique
from dispersat.cnf import Assignment
from dispersat.fwht import exact_dispersion
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
