"""Exact diameter and exact s-dispersion through Walsh-Hadamard
XOR convolution.

The indicator vector of the solution space is convolved with itself
(or with shifted products of itself); a positive entry at difference
vector y certifies a solution pair (tuple) realizing y.  All arithmetic
is exact int64: convolution entries are counts and the positivity test
must not be subject to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cnf import (
    Assignment,
    CapabilityError,
    InfeasibleError,
    UnsatError,
    evaluate_keys,
)
from .measures import DispersionObjective, SolutionCollection, popcount

FWHT_LIMIT = 26
DISPERSION_WORK_LIMIT = 24  # cap on (s-1)*n


def indicator_table(formula, limit=FWHT_LIMIT):
    """DenseTable of the 0/1 solution indicator of `formula`."""
    n = formula.n
    if n > limit:
        raise CapabilityError(f"n={n} exceeds FWHT limit {limit}")
    keys = np.arange(1 << n, dtype=np.int64)
    return DenseTable(n, evaluate_keys(formula, keys).astype(np.int64))


@dataclass
class DenseTable:
    """A length-2^n integer vector indexed by assignments (variable 1 is
    the most significant index bit)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.shape != (1 << self.n,):
            raise ValueError("values must have length 2^n")

    def copy(self):
        return DenseTable(self.n, self.values.copy())


def _fwht_inplace(v):
    h = 1
    size = v.shape[0]
    while h < size:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        v[:, 0, :] = a + v[:, 1, :]
        v[:, 1, :] = a - v[:, 1, :]
        v = v.reshape(size)
        h *= 2
    return v


def fwht(table, limit=FWHT_LIMIT):
    """Walsh-Hadamard transform by the O(n 2^n) butterfly, exact int64."""
    if table.n > limit:
        raise CapabilityError(f"n={table.n} exceeds FWHT limit {limit}")
    return DenseTable(table.n, _fwht_inplace(table.values.copy()))


def _convolve_against_hat(n, fhat, g_values):
    """Convolution given one pre-transformed side; two live tables."""
    gh = _fwht_inplace(g_values.copy())
    gh *= fhat
    back = _fwht_inplace(gh)
    if (back & ((1 << n) - 1)).any():
        raise AssertionError(
            "convolution not divisible by 2^n: integer arithmetic bug"
        )
    return back >> n


def convolve(f, g, limit=FWHT_LIMIT):
    """XOR convolution (f*g)(y) = sum_x f(x) g(x xor y), exact."""
    if f.n != g.n:
        raise ValueError("tables have different dimensions")
    fhat = fwht(f, limit).values
    if g is f:
        g_values = f.values
    else:
        g_values = g.values
        if g.n > limit:
            raise CapabilityError(f"n={g.n} exceeds FWHT limit {limit}")
    return DenseTable(f.n, _convolve_against_hat(f.n, fhat, g_values))


def exact_diameter(formula, limit=FWHT_LIMIT):
    """A solution pair at exactly the diameter of the solution space.

    Among positive entries of the self-convolution, the maximum-weight
    difference vector wins, ties going to the lexicographically
    smallest; the witness is the first x with f(x) = f(x xor y) = 1.
    """
    f = indicator_table(formula, limit)
    if not f.values.any():
        raise UnsatError("formula has no satisfying assignment")
    conv = convolve(f, f, limit)
    if (conv.values < 0).any():
        raise AssertionError("pair counts must be nonnegative")
    positive = np.flatnonzero(conv.values > 0)
    y = int(positive[np.argmax(popcount(positive))])
    fb = f.values.astype(bool)
    x = int(np.argmax(fb & fb[np.arange(1 << formula.n) ^ y]))
    return Assignment(formula.n, x), Assignment(formula.n, x ^ y)


def _pair_stats(diffs, pc):
    """(constant min, constant sum) over pairs of nonzero-index diffs."""
    cmin = None
    csum = 0
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            d = int(pc[diffs[i] ^ diffs[j]])
            csum += d
            cmin = d if cmin is None else min(cmin, d)
    return cmin, csum


def exact_dispersion(formula, s, objective, limit=FWHT_LIMIT):
    """Exact optimum s-dispersion by iterating difference-vector cosets.

    For every offset tuple (w_1..w_{s-2}) the product table
    g(x) = f(x) f(x^w_1) ... is convolved with f; a positive entry at y
    certifies solutions with differences (y, y^w_1, ..., y^w_{s-2}).
    The best objective value over all certified tuples is exact.
    Space stays at O(2^n): one convolution lives at a time.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    n = formula.n
    if (s - 1) * n > DISPERSION_WORK_LIMIT:
        raise CapabilityError(
            f"(s-1)*n = {(s - 1) * n} exceeds work limit {DISPERSION_WORK_LIMIT}"
        )
    f = indicator_table(formula, limit)
    fb = f.values.astype(bool)
    num_solutions = int(f.values.sum())
    if num_solutions == 0:
        raise UnsatError("formula has no satisfying assignment")
    needs_distinct = objective in (
        DispersionObjective.MIN_PD,
        DispersionObjective.SUM_PD_DISTINCT,
    )
    if needs_distinct and num_solutions < s:
        raise InfeasibleError(
            f"only {num_solutions} solutions, need a set of {s}"
        )
    idx = np.arange(1 << n)
    pc = popcount(idx)
    size = 1 << n
    fhat = fwht(f, limit).values
    best_value = -1
    best_diffs = None
    for w_tuple in product(range(size), repeat=s - 2):
        if objective is DispersionObjective.SUM_PD_DISTINCT:
            # offsets must be distinct and nonzero for an all-distinct tuple
            if 0 in w_tuple or len(set(w_tuple)) != len(w_tuple):
                continue
        g = f.values.copy()
        for w in w_tuple:
            g = g * f.values[idx ^ w]
        conv_values = _convolve_against_hat(n, fhat, g)
        if (conv_values < 0).any():
            raise AssertionError("tuple counts must be nonnegative")
        mask = conv_values > 0
        if objective is DispersionObjective.SUM_PD_DISTINCT:
            mask = mask.copy()
            mask[0] = False
            for w in w_tuple:
                mask[w] = False
        if not mask.any():
            continue
        cmin, csum = _pair_stats((0,) + w_tuple, pc)
        per_y = pc[idx].copy()
        for w in w_tuple:
            per_y = per_y + pc[idx ^ w]
        if objective is DispersionObjective.MIN_PD:
            vals = pc[idx].copy()
            for w in w_tuple:
                np.minimum(vals, pc[idx ^ w], out=vals)
            if cmin is not None:
                np.minimum(vals, cmin, out=vals)
        else:
            vals = per_y + csum
        vals = np.where(mask, vals, -1)
        y = int(np.argmax(vals))
        if vals[y] > best_value:
            best_value = int(vals[y])
            best_diffs = [0, y] + [y ^ w for w in w_tuple]
    if best_diffs is None:
        raise InfeasibleError("no qualifying tuple of solutions exists")
    ok = fb.copy()
    for d in best_diffs[1:]:
        ok = ok & fb[idx ^ d]
    x = int(np.argmax(ok))
    members = sorted(Assignment(n, x ^ d) for d in best_diffs)
    return SolutionCollection(members, distinct=needs_distinct)
