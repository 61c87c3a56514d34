"""Random and planted k-CNF instance generators for experiments and tests."""

from __future__ import annotations

import numpy as np

from .cnf import Assignment, CnfFormula, check_key_width


def random_kcnf(n, k, m, rng):
    """m uniform width-k clauses: distinct variables, independent signs."""
    width = min(k, n)
    clauses = []
    for _ in range(m):
        variables = rng.choice(n, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width)
        clauses.append(
            [int(v) if s else -int(v) for v, s in zip(variables, signs)]
        )
    return CnfFormula(n, clauses)


def _random_key(n, rng):
    check_key_width(n)
    return int(rng.integers(1 << n))


def planted_kcnf(n, k, m, rng, planted=None):
    """m random width-k clauses, each satisfied by every planted assignment.

    Defaults to one uniform planted solution; returns (formula, planted).
    """
    if planted is None:
        planted = [Assignment(n, _random_key(n, rng))]
    width = min(k, n)
    clauses = []
    while len(clauses) < m:
        variables = rng.choice(n, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width)
        clause = [int(v) if s else -int(v) for v, s in zip(variables, signs)]
        if all(
            any(z.bit(abs(l)) != (l < 0) for l in clause) for z in planted
        ):
            clauses.append(clause)
    return CnfFormula(n, clauses), planted


def hadamard_codewords(n):
    """The n rows of the Sylvester-Hadamard matrix as assignments:
    pairwise Hamming distance exactly n/2.  Requires n a power of two."""
    if n & (n - 1):
        raise ValueError("Hadamard codewords need n to be a power of two")
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    bits = (h < 0).astype(np.uint8)
    return [Assignment.from_bits(row.astype(bool)) for row in bits]


def separated_planted_instance(n, k, m, count, rng):
    """A planted-satisfiable formula whose solution space contains
    `count` mutually distant planted solutions.

    For count > 1 the planted set embeds Hadamard codewords on the
    largest power-of-two prefix p <= n (identical padding elsewhere, so
    pairwise distances stay exactly p/2), then applies a random offset
    and coordinate permutation.  Returns (formula, planted, separation).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        formula, planted = planted_kcnf(n, k, m, rng)
        return formula, planted, 0
    p = 1 << (n.bit_length() - 1)
    words = hadamard_codewords(p)
    if count > len(words):
        raise ValueError(f"at most {len(words)} separated solutions at n={n}")
    chosen = [words[int(i)] for i in rng.choice(len(words), count, replace=False)]
    offset = Assignment(n, _random_key(n, rng))
    perm = rng.permutation(n)
    planted = []
    for word in chosen:
        padded = np.zeros(n, dtype=bool)
        padded[:p] = word.to_array()
        shifted = Assignment.from_bits(padded) ^ offset
        planted.append(Assignment.from_bits(shifted.to_array()[perm]))
    formula, _ = planted_kcnf(n, k, m, rng, planted)
    return formula, planted, p // 2
