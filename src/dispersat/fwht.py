"""Exact diameter and exact s-dispersion through Walsh-Hadamard
XOR convolution.

The indicator vector of the solution space (`indicator_table`, built by
clearing the subcube each clause falsifies) is convolved with itself, or
with products of shifted copies of itself; a positive entry at
difference vector y certifies a solution pair (tuple) realizing y.
A coordinate on which every solution agrees adds 0 to every distance,
so both exact entry points first project the 2^n indicator onto the n'
coordinates the solutions disagree on (`_project`), run every transform
on that table of 2^n' entries, and put the constant bits back into the
witness (`_expand`).  The projection keeps key order, on solutions and
on differences, so every tie rule picks the witness it would pick over
all 2^n entries.
Arithmetic is exact integer arithmetic, since the positivity test must
not round.  `fwht` and `convolve` work in the word their caller passes;
the one word rule, `_word`, picks int32 when 2^n times the largest count
(2^n' |S| for solution counts on the projected table) is below 2^31,
else int64.  The butterfly runs in place on one table or on a stack of
tables; it is a ring map mod 2^32 or 2^64, so wraparound of
intermediate values cannot change a final entry that fits the word.  A
0/1 table's transform, at most 2^26 in size, is always taken in int32
and widened after.

Memory is the bool indicator of 2^n entries plus a few tables of 2^n'
entries (at most 8 * 2^n' bytes each) and, in `exact_dispersion`, one
chunk of stacked tables; `indicator_table`, which both exact entry
points build first, refuses an n above its limit with CapabilityError
before allocating.
"""

from __future__ import annotations

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
_CHUNK_ENTRIES = 1 << 17  # entries per live table of an offset chunk


def indicator_table(formula, tables=1):
    """The bool solution indicator of `formula`.  An n above FWHT_LIMIT is
    refused first, before anything is allocated; the message gives the
    bytes `tables` live tables of 2^n entries would take in int64."""
    n = formula.n
    if n > FWHT_LIMIT:
        raise CapabilityError(
            f"n={n} exceeds FWHT limit {FWHT_LIMIT}: {tables} live int64 "
            f"table(s) of 2^{n} entries would take {tables * 8 << n} bytes"
        )
    return solution_indicator(formula)


def _word(n, largest):
    """int32 when the largest final entry, 2^n * `largest`, fits it."""
    return np.int32 if largest * (1 << n) < 2**31 else np.int64


def _project(fb):
    """The solution indicator `fb` of 2^n entries restricted to the n'
    coordinates on which the solutions disagree, as (table, bits, base):
    the table of 2^n' entries, the coordinates it keeps in increasing
    order, and the key of the constant bits.  The table is the slice of
    `fb` that fixes every constant coordinate to its bit in `base`, so
    it keeps key order, and with no constant coordinate it is `fb`."""
    n = len(fb).bit_length() - 1
    # fold the table in half on each coordinate, the top one first: a
    # solution in the low (high) half has that bit 0 (1)
    zeros = ones = 0
    seen = fb
    for bit in range(n - 1, -1, -1):
        low, high = seen.reshape(2, -1)
        zeros |= int(low.any()) << bit
        ones |= int(high.any()) << bit
        seen = low | high
    free = zeros & ones
    base = ones ^ free
    # axis a of the (2,)*n view is coordinate n-1-a; the trailing
    # Ellipsis keeps a 0-d view, not a scalar, when every axis is fixed
    axes = tuple(
        slice(None) if free >> bit & 1 else base >> bit & 1
        for bit in range(n - 1, -1, -1)
    )
    bits = [bit for bit in range(n) if free >> bit & 1]
    return fb.reshape((2,) * n)[(*axes, ...)].reshape(-1), bits, base


def _expand(key, bits, base):
    """The n-bit key with bit i of the projected `key` at coordinate
    bits[i] and every other coordinate as in `base`."""
    for i, bit in enumerate(bits):
        base |= (key >> i & 1) << bit
    return base


def _fwht_inplace(v):
    """Unnormalized transform along the first axis of a C-contiguous
    integer array, in place: one table, or tables stacked as columns, so
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


def fwht(values, word):
    """Walsh-Hadamard transform of `values` (one table of 2^n entries, or
    tables stacked as columns) in `word`, by the O(n 2^n) butterfly on a
    copy; a bool table is transformed in int32 and widened after."""
    narrow = np.int32 if values.dtype == bool else word
    return _fwht_inplace(values.astype(narrow)).astype(word, copy=False)


def convolve(f, word, ghat=None):
    """XOR convolution (f*g)(y) = sum_x f(x) g(x xor y) for every y, in
    `word`: f transformed, multiplied by `ghat`, the transform of g (by
    its own transform when None, giving f*f), and transformed back."""
    n = len(f).bit_length() - 1
    back = fwht(f, word)
    back *= back if ghat is None else ghat
    if (_fwht_inplace(back) & ((1 << n) - 1)).any():
        raise AssertionError("convolution not divisible by 2^n: integer arithmetic bug")
    back >>= n
    return back


def exact_diameter(formula):
    """A solution pair at exactly the diameter of the solution space.

    Among positive entries of the self-convolution, the maximum-weight
    difference vector wins, ties going to the lexicographically
    smallest; the witness is the first x with f(x) = f(x xor y) = 1.
    """
    fb = indicator_table(formula, 4)
    num_solutions = int(np.count_nonzero(fb))
    if num_solutions == 0:
        raise UnsatError("formula has no satisfying assignment")
    fb, bits, base = _project(fb)
    conv = convolve(fb, _word(len(bits), num_solutions))
    if (conv < 0).any():
        raise AssertionError("pair counts must be nonnegative")
    positive = np.flatnonzero(conv)
    y = int(positive[np.argmax(popcount(positive))])
    x = int(np.argmax(fb & fb[np.arange(len(fb)) ^ y]))
    return tuple(Assignment(formula.n, _expand(key, bits, base)) for key in (x, x ^ y))


def _pair_distances(offsets, pc):
    """(pairs, rows) array: per row of `offsets`, the distances between
    the points (0, w_1, ..., w_{s-2}); no pairs when s = 2."""
    points = [np.zeros(len(offsets), dtype=np.int64), *offsets.T]
    dists = [pc[a ^ b] for a, b in combinations(points, 2)]
    return np.array(dists, dtype=np.int64).reshape(-1, len(offsets))


def _chunk_values(fb, fhat, offsets, fold, distinct, idx, pc):
    """Objective value, the pairwise distances folded by `fold`
    (np.minimum or np.add), of the points (0, y, y^w_1, ..., y^w_{s-2})
    at [y, t] for every y and every offset tuple t (row t of `offsets`);
    -1 where no solution tuple has those differences, or where two of
    the points coincide and `distinct` holds."""
    count = len(offsets)
    g = np.repeat(fb[:, None], count, axis=1)
    vals = np.repeat(pc[:, None], count, axis=1)
    for col in offsets.T:
        shifted = idx[:, None] ^ col
        g &= fb[shifted]
        fold(vals, pc[shifted], out=vals)
    counts = convolve(g, fhat.dtype, fhat[:, None])
    if (counts < 0).any():
        raise AssertionError("tuple counts must be nonnegative")
    certified = counts > 0
    if distinct:
        certified[0] = False
        certified[offsets, np.arange(count)[:, None]] = False
    pairs = _pair_distances(offsets, pc)
    if len(pairs):
        fold(vals, fold.reduce(pairs, axis=0), out=vals)
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
    g all zero, so only tuples over D are visited.  All of this runs on
    the projected table of 2^n' entries.  Its product tables are stacked
    as the columns of chunks of about _CHUNK_ENTRIES entries per live
    table (one tuple per chunk once 2^n' is larger), and each chunk
    takes one batched forward and inverse transform; space stays at
    O(2^n + _CHUNK_ENTRIES), the 2^n being the bool indicator.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    n = formula.n
    if (s - 1) * n > DISPERSION_WORK_LIMIT:
        raise CapabilityError(
            f"(s-1)*n = {(s - 1) * n} exceeds work limit {DISPERSION_WORK_LIMIT}"
        )
    fb = indicator_table(formula, 8)
    num_solutions = int(np.count_nonzero(fb))
    if num_solutions == 0:
        raise UnsatError("formula has no satisfying assignment")
    distinct = objective.distinct
    if distinct and num_solutions < s:
        raise InfeasibleError(
            f"only {num_solutions} solutions, need a set of {s}"
        )
    fb, bits, base = _project(fb)
    idx = np.arange(len(fb))
    pc = popcount(idx)
    fhat = fwht(fb, _word(len(bits), num_solutions))
    # s = 2 has the one empty tuple and needs no difference set
    diffs = np.flatnonzero(convolve(fb, fhat.dtype)).tolist() if s > 2 else []
    tuples = product(diffs, repeat=s - 2)
    if distinct:
        # offsets must be distinct and nonzero for an all-distinct tuple
        tuples = (w for w in tuples if 0 not in w and len(set(w)) == s - 2)
    fold = np.minimum if objective is DispersionObjective.MIN_PD else np.add
    per_chunk = max(1, _CHUNK_ENTRIES >> len(bits))
    best_value = -1
    best_diffs = None
    while chunk := list(islice(tuples, per_chunk)):
        offsets = np.array(chunk, dtype=np.int64)
        vals = _chunk_values(fb, fhat, offsets, fold, distinct, idx, pc)
        tops = vals.max(axis=0)
        t = int(np.argmax(tops))
        if tops[t] > best_value:
            best_value = int(tops[t])
            y = int(np.argmax(vals[:, t]))
            best_diffs = [0, y] + [y ^ int(w) for w in offsets[t]]
    if best_diffs is None:
        raise InfeasibleError("no qualifying tuple of solutions exists")
    x = int(np.argmax(np.logical_and.reduce([fb[idx ^ d] for d in best_diffs])))
    members = sorted(Assignment(n, _expand(x ^ d, bits, base)) for d in best_diffs)
    return SolutionCollection(members, distinct=distinct)
