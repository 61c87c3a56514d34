"""Exact diameter and exact s-dispersion through Walsh-Hadamard
XOR convolution, and the diameter of a sparse space from its keys.

Both exact entry points read the ascending solution keys that `brute`
caches with their projection: the n' coordinates the solutions disagree
on, and the bits they share.  A sparse space takes its diameter from the
key pairs (`_list_diameter`).  Otherwise the indicator vector of the
solution space (`indicator_table`) is convolved with itself, or with
products of shifted copies of itself; a positive entry at difference
vector y certifies a solution pair (tuple) realizing y.  A coordinate on
which every solution agrees adds 0 to every distance, so every transform
runs on the indicator's slice of 2^n' entries (`_project`), and the
constant bits go back into the witness (`_expand`).  The projection
keeps key order, on solutions and on differences, so every tie rule
picks the witness it would pick over all 2^n entries.
Arithmetic is exact integer arithmetic, since the positivity test must
not round.  `fwht` and `convolve` work in the word their caller passes;
the one word rule, `_word`, picks int32 when 2^n times the largest count
(2^n' |S| for solution counts on the projected table) is below 2^31,
else int64.  The butterfly runs in place on one table or on a stack of
tables; it is a ring map mod 2^32 or 2^64, so wraparound of
intermediate values cannot change a final entry that fits the word.  A
0/1 table's transform, at most 2^26 in size, is always taken in int32
and widened after.

Memory is the keys, the bool indicator of 2^n entries where a route
builds it, and a few tables of 2^n' entries (at most 8 * 2^n' bytes
each) or, in `exact_dispersion`, one chunk of stacked tables.  An n
above FWHT_LIMIT is refused with CapabilityError before any of it.
"""

from __future__ import annotations

from itertools import combinations, islice, product

import numpy as np

from .brute import _solution_space
from .cnf import (
    Assignment,
    CapabilityError,
    InfeasibleError,
    UnsatError,
    evaluate_keys,  # unused here; the benchmark tracer rebinds fwht.evaluate_keys
)
from .measures import DispersionObjective, SolutionCollection, popcount

FWHT_LIMIT = 26
DISPERSION_WORK_LIMIT = 24  # cap on (s-1)*n
_CHUNK_ENTRIES = 1 << 17  # entries per live table of an offset chunk
_ROW_ENTRIES = 1 << 15  # int64 entries (256 KB) per temporary of the list diameter


def _space(formula, tables):
    """`_solution_space`, after refusing an n above FWHT_LIMIT; the message
    gives the bytes `tables` int64 tables of 2^n entries would take."""
    if (n := formula.n) > FWHT_LIMIT:
        raise CapabilityError(
            f"n={n} exceeds FWHT limit {FWHT_LIMIT}: {tables} live int64 "
            f"table(s) of 2^{n} entries would take {tables * 8 << n} bytes"
        )
    return _solution_space(formula, FWHT_LIMIT)


def indicator_table(formula, tables=1):
    """The bool solution indicator of `formula`, set at its solution keys."""
    keys = _space(formula, tables)[0]
    fb = np.zeros(1 << formula.n, dtype=bool)
    fb[keys] = True
    return fb


def _word(n, largest):
    """int32 when the largest final entry, 2^n * `largest`, fits it."""
    return np.int32 if largest * (1 << n) < 2**31 else np.int64


def _project(fb, bits, base):
    """The slice of the 2^n table `fb` that fixes each coordinate outside
    `bits` to its bit in `base`, in key order; `fb` itself if none is."""
    n = len(fb).bit_length() - 1
    # axis a of the (2,)*n view is coordinate n-1-a; the trailing
    # Ellipsis keeps a 0-d view, not a scalar, when every axis is fixed
    axes = tuple(
        slice(None) if bit in bits else base >> bit & 1 for bit in range(n - 1, -1, -1)
    )
    return fb.reshape((2,) * n)[(*axes, ...)].reshape(-1)


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


def _pair(keys, y):
    """The first x of the ascending `keys` with x ^ y among them, and x ^ y."""
    x = int(keys[np.argmax(np.isin(keys ^ y, keys))])
    return x, x ^ y


def _fwht_diameter(formula, keys, bits, base):
    """The diameter pair at the heaviest difference with a positive entry
    in the projected self-convolution, ties going to the smallest."""
    fb = _project(indicator_table(formula, 4), bits, base)
    conv = convolve(fb, _word(len(bits), len(keys)))
    if (conv < 0).any():
        raise AssertionError("pair counts must be nonnegative")
    positive = np.flatnonzero(conv)
    return _pair(keys, _expand(int(positive[np.argmax(popcount(positive))]), bits, 0))


def _list_diameter(formula, keys, bits, base):
    """`_fwht_diameter`'s pair from key pairs in blocks of _ROW_ENTRIES: y
    of weight w scores w 2^n - y, so the heaviest y wins, then the smallest."""
    n, best = formula.n, -1
    rows = max(1, _ROW_ENTRIES // len(keys))
    for lo in range(0, len(keys), rows):
        diffs = keys[lo : lo + rows, None] ^ keys[lo:]
        best = max(best, int(((popcount(diffs) << n) - diffs).max()))
    return _pair(keys, -best & ((1 << n) - 1))


def exact_diameter(formula):
    """A solution pair at exactly the diameter of the solution space: the
    heaviest difference y, then the smallest, and the first solution x with
    x xor y one; by cost, from |Omega|^2 key pairs (`_list_diameter`) or
    n' 2^n' transform entries (`_fwht_diameter`)."""
    keys, bits, base = _space(formula, 4)
    if not keys.size:
        raise UnsatError("formula has no satisfying assignment")
    route = _fwht_diameter if len(keys) ** 2 > len(bits) << len(bits) else _list_diameter
    return tuple(Assignment(formula.n, key) for key in route(formula, keys, bits, base))


def _pair_distances(offsets, pc):
    """(pairs, rows) array: per row of `offsets`, the distances between
    the points (0, w_1, ..., w_{s-2}); no pairs when s = 2."""
    points = [np.zeros(len(offsets), dtype=np.int64), *offsets.T]
    dists = [pc[a ^ b] for a, b in combinations(points, 2)]
    return np.array(dists, dtype=pc.dtype).reshape(-1, len(offsets))


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
    keys, bits, base = _space(formula, 8)
    if not keys.size:
        raise UnsatError("formula has no satisfying assignment")
    distinct = objective.distinct
    if distinct and keys.size < s:
        raise InfeasibleError(f"only {keys.size} solutions, need a set of {s}")
    fb = _project(indicator_table(formula, 8), bits, base)
    idx = np.arange(len(fb))
    # every folded value is at most n' floor(s^2/4) <= 156 under the work limit
    pc = np.bitwise_count(idx).astype(np.int16)
    fhat = fwht(fb, _word(len(bits), keys.size))
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
