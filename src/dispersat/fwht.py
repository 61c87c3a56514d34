"""Exact diameter and exact s-dispersion through Walsh-Hadamard
XOR convolution.

The indicator vector of the solution space (`cnf.solution_indicator`,
built by clearing the subcube each clause falsifies) is convolved with
itself, or with products of shifted copies of itself; a positive entry
at difference vector y certifies a solution pair (tuple) realizing y.
All arithmetic is exact int64: convolution entries are counts and the
positivity test must not be subject to rounding.  The butterfly runs in
place on one table or on a stack of tables at once.  It is a ring map
mod 2^64 whose final entries are at most 2^(2n), so wraparound of
intermediate values cannot change a result.

Memory is a few int64 tables of 2^n entries (8 * 2^n bytes each) plus,
in `exact_dispersion`, one chunk of stacked tables; every entry point
refuses an n above its limit with CapabilityError before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

from .cnf import (
    Assignment,
    CapabilityError,
    InfeasibleError,
    UnsatError,
    evaluate_keys,  # unused here; the benchmark tracer rebinds fwht.evaluate_keys
    solution_indicator,
)
from .measures import DispersionObjective, SolutionCollection, popcount

FWHT_LIMIT = 26
DISPERSION_WORK_LIMIT = 24  # cap on (s-1)*n
_CHUNK_ENTRIES = 1 << 17  # int64 entries per live table of an offset chunk


def _check_size(n, tables):
    """Refuse n above FWHT_LIMIT before anything is allocated; the message
    gives the bytes `tables` live int64 tables of 2^n entries would take."""
    if n > FWHT_LIMIT:
        raise CapabilityError(
            f"n={n} exceeds FWHT limit {FWHT_LIMIT}: {tables} live int64 "
            f"table(s) of 2^{n} entries would take {tables * 8 << n} bytes"
        )


def indicator_table(formula):
    """DenseTable of the 0/1 solution indicator of `formula`."""
    _check_size(formula.n, 1)
    return DenseTable(formula.n, solution_indicator(formula).astype(np.int64))


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


def _fwht_inplace(v):
    """Unnormalized transform along the first axis of a C-contiguous
    int64 array, in place: one table, or tables stacked as columns, so
    that every level updates contiguous runs of h * columns entries.
    Each level maps (a, b) to (a + b, a - b)."""
    size = len(v)
    columns = v.size // size
    if columns == 1 and size > 2:
        # one table, seen as a matrix: transform down its columns (the
        # high index bits), then down the columns of a transposed copy
        # (the low bits), so that no level works on short runs
        matrix = _fwht_inplace(v.reshape(-1, 1 << (size.bit_length() // 2)))
        matrix[...] = _fwht_inplace(np.ascontiguousarray(matrix.T)).T
        return v
    h = 1
    while h < size:
        pairs = v.reshape(-1, 2, h * columns)
        a, b = pairs[:, 0], pairs[:, 1]
        a += b
        b *= -2
        b += a
        h *= 2
    return v


def fwht(table):
    """Walsh-Hadamard transform by the O(n 2^n) butterfly, exact int64."""
    _check_size(table.n, 1)
    return DenseTable(table.n, _fwht_inplace(table.values.copy()))


def _inverse_counts(n, hat):
    """Convolution counts from the product of two transforms, in place."""
    back = _fwht_inplace(hat)
    if (back & ((1 << n) - 1)).any():
        raise AssertionError(
            "convolution not divisible by 2^n: integer arithmetic bug"
        )
    back >>= n
    return back


def convolve(f, g):
    """XOR convolution (f*g)(y) = sum_x f(x) g(x xor y), exact.

    With g the same table as f, f is transformed once and squared.
    """
    if f.n != g.n:
        raise ValueError("tables have different dimensions")
    hat = fwht(f).values
    hat *= hat if g is f else fwht(g).values
    return DenseTable(f.n, _inverse_counts(f.n, hat))


def exact_diameter(formula):
    """A solution pair at exactly the diameter of the solution space.

    Among positive entries of the self-convolution, the maximum-weight
    difference vector wins, ties going to the lexicographically
    smallest; the witness is the first x with f(x) = f(x xor y) = 1.
    """
    _check_size(formula.n, 4)
    f = indicator_table(formula)
    if not f.values.any():
        raise UnsatError("formula has no satisfying assignment")
    conv = convolve(f, f)
    if (conv.values < 0).any():
        raise AssertionError("pair counts must be nonnegative")
    positive = np.flatnonzero(conv.values > 0)
    y = int(positive[np.argmax(popcount(positive))])
    fb = f.values.astype(bool)
    x = int(np.argmax(fb & fb[np.arange(1 << formula.n) ^ y]))
    return Assignment(formula.n, x), Assignment(formula.n, x ^ y)


def _pair_distances(offsets, pc):
    """(pairs, rows) array: per row of `offsets`, the distances between
    the points (0, w_1, ..., w_{s-2}); no pairs when s = 2."""
    points = [np.zeros(len(offsets), dtype=np.int64), *offsets.T]
    dists = [pc[a ^ b] for a, b in combinations(points, 2)]
    return np.array(dists, dtype=np.int64).reshape(-1, len(offsets))


def _chunk_values(n, fb, fhat, offsets, objective, idx, pc):
    """Objective value of the points (0, y, y^w_1, ..., y^w_{s-2}) at
    [y, t] for every y and every offset tuple t (row t of `offsets`), -1
    where no solution tuple has those differences."""
    count = len(offsets)
    g = np.repeat(fb[:, None], count, axis=1)
    vals = np.repeat(pc[:, None], count, axis=1)
    for col in offsets.T:
        shifted = idx[:, None] ^ col
        g &= fb[shifted]
        if objective is DispersionObjective.MIN_PD:
            np.minimum(vals, pc[shifted], out=vals)
        else:
            vals += pc[shifted]
    hat = _fwht_inplace(g.astype(np.int64))
    hat *= fhat[:, None]
    counts = _inverse_counts(n, hat)
    if (counts < 0).any():
        raise AssertionError("tuple counts must be nonnegative")
    certified = counts > 0
    if objective is DispersionObjective.SUM_PD_DISTINCT:
        certified[0] = False
        certified[offsets, np.arange(count)[:, None]] = False
    pairs = _pair_distances(offsets, pc)
    if objective is not DispersionObjective.MIN_PD:
        vals += pairs.sum(axis=0)
    elif len(pairs):
        np.minimum(vals, pairs.min(axis=0), out=vals)
    vals[~certified] = -1
    return vals


def exact_dispersion(formula, s, objective):
    """Exact optimum s-dispersion by iterating difference-vector cosets.

    For every offset tuple (w_1..w_{s-2}) the product table
    g(x) = f(x) f(x^w_1) ... is convolved with f; a positive entry at y
    certifies solutions with differences (y, y^w_1, ..., y^w_{s-2}).
    The best objective value over all certified tuples is exact; the
    first tuple in lexicographic order, then the first y, wins ties.
    An offset outside the difference set D = {w : (f*f)(w) > 0} makes
    g all zero, so only tuples over D are visited.  Their product tables
    are stacked as the columns of chunks of about _CHUNK_ENTRIES int64
    entries per live table (one tuple per chunk once 2^n is larger), and
    each chunk takes one batched forward and inverse transform; space
    stays at O(2^n + _CHUNK_ENTRIES).
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    n = formula.n
    if (s - 1) * n > DISPERSION_WORK_LIMIT:
        raise CapabilityError(
            f"(s-1)*n = {(s - 1) * n} exceeds work limit {DISPERSION_WORK_LIMIT}"
        )
    _check_size(n, 8)
    f = indicator_table(formula)
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
    fhat = fwht(f).values
    # s = 2 has the one empty tuple and needs no difference set
    diffs = np.flatnonzero(_inverse_counts(n, fhat * fhat)).tolist() if s > 2 else []
    tuples = product(diffs, repeat=s - 2)
    if objective is DispersionObjective.SUM_PD_DISTINCT:
        # offsets must be distinct and nonzero for an all-distinct tuple
        tuples = (w for w in tuples if 0 not in w and len(set(w)) == s - 2)
    per_chunk = max(1, _CHUNK_ENTRIES >> n)
    best_value = -1
    best_diffs = None
    while chunk := list(islice(tuples, per_chunk)):
        offsets = np.array(chunk, dtype=np.int64)
        vals = _chunk_values(n, fb, fhat, offsets, objective, idx, pc)
        tops = vals.max(axis=0)
        t = int(np.argmax(tops))
        if tops[t] > best_value:
            best_value = int(tops[t])
            y = int(np.argmax(vals[:, t]))
            best_diffs = [0, y] + [y ^ int(w) for w in offsets[t]]
    if best_diffs is None:
        raise InfeasibleError("no qualifying tuple of solutions exists")
    ok = fb.copy()
    for d in best_diffs[1:]:
        ok = ok & fb[idx ^ d]
    x = int(np.argmax(ok))
    members = sorted(Assignment(n, x ^ d) for d in best_diffs)
    return SolutionCollection(members, distinct=needs_distinct)
