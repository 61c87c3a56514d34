"""The PPZ iteration and the PPZ-based farthest-point oracles.

One iteration (`ppz_modify`) assigns variables in a random order,
copying random bits except where a unit clause forces the value.  The
solver and oracles repeat it under a seeded budget; `tau_exact`
enumerates every (y, pi) pair outright so the sampling bounds can be
checked as exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .cnf import Assignment, CapabilityError, condition, evaluate_keys
from .measures import farthest_index

_MASK64 = (1 << 64) - 1
_BATCH = 1 << 13  # fixed logical batch so results never depend on scheduling
HARD_REPETITION_CAP = 1 << 26
TAU_LIMIT = 7


@dataclass(frozen=True)
class OracleConfig:
    """Randomness and budget knobs for the randomized oracles.

    repetitions=None resolves to ceil(effort * 4 n^2 * growth), capped by
    HARD_REPETITION_CAP; growth is 2^(n - n/k) for PPZ.
    """

    seed: int = 0
    repetitions: int | None = None
    effort: float = 1.0

    def resolve(self, n, k):
        return self.budget(n, 2 ** (n - n / max(k, 1)))

    def budget(self, n, growth):
        """Repetitions of a search expected to need about 4 n^2 growth
        tries: `repetitions` if set, else that count scaled by `effort`."""
        if self.repetitions is not None:
            if self.repetitions < 1:
                raise ValueError("repetitions must be >= 1")
            return min(self.repetitions, HARD_REPETITION_CAP)
        auto = math.ceil(self.effort * 4 * n * n * growth)
        return max(1, min(auto, HARD_REPETITION_CAP))

    def spawn(self, *salt):
        """Derived config with an independent seed; used for retries and
        per-step oracle calls so reruns never replay the same stream."""
        seq = np.random.SeedSequence([self.seed & _MASK64, *salt])
        return replace(self, seed=int(seq.generate_state(1, np.uint64)[0]))


@dataclass(frozen=True)
class PpzSample:
    y: Assignment
    pi: tuple

    def __post_init__(self):
        if sorted(self.pi) != list(range(1, self.y.n + 1)):
            raise ValueError("pi must be a permutation of 1..n")


def ppz_modify(formula, sample):
    """One deterministic PPZ pass; the output need not satisfy the formula.

    If both (x) and (!x) are unit on the current variable, the first
    unit clause in clause order wins; an empty clause produced along the
    way does not stop the pass.
    """
    if sample.y.n != formula.n:
        raise ValueError("sample dimension does not match formula")
    current = formula
    bits = [0] * formula.n
    for v in sample.pi:
        value = None
        for clause in current.clauses:
            if len(clause) == 1 and abs(clause[0]) == v:
                value = clause[0] > 0
                break
        if value is None:
            value = bool(sample.y.bit(v))
        bits[v - 1] = 1 if value else 0
        current = condition(current, v, value)
    return Assignment.from_bits(bits)


class _Engine:
    """Vectorized PPZ-Modify over batches of (y, pi) samples.

    Per clause and sample it tracks satisfaction, the number of
    unassigned literals, and their signed sum (which IS the remaining
    literal when the count is one).  Clause index m is a dummy used to
    pad the per-variable incidence lists.
    """

    def __init__(self, formula):
        self.n = formula.n
        clauses = formula.clauses
        self.m = len(clauses)
        m = self.m
        self.len0 = np.zeros(m + 1, dtype=np.int16)
        self.lsum0 = np.zeros(m + 1, dtype=np.int32)
        self.len0[m] = 30000
        pos = [[] for _ in range(self.n + 1)]
        neg = [[] for _ in range(self.n + 1)]
        for ci, clause in enumerate(clauses):
            self.len0[ci] = len(clause)
            self.lsum0[ci] = sum(clause)
            for lit in clause:
                (pos if lit > 0 else neg)[abs(lit)].append(ci)

        def pad(lists):
            width = max((len(l) for l in lists), default=0)
            width = max(width, 1)
            arr = np.full((self.n + 1, width), m, dtype=np.int64)
            for v, l in enumerate(lists):
                arr[v, : len(l)] = l
            return arr

        self.pos = pad(pos)
        self.neg = pad(neg)
        self.inc = pad(
            [sorted(pos[v] + neg[v]) for v in range(self.n + 1)]
        )

    def run(self, ys, pis):
        """ys: (B, n) 0/1 bits, variable 1 in column 0; pis: (B, n)
        1-based processing orders.  Returns (out_bits, satisfied)."""
        b = ys.shape[0]
        n = self.n
        rows = np.arange(b)[:, None]
        ar = np.arange(b)
        cnt = np.tile(self.len0, (b, 1))
        lsum = np.tile(self.lsum0, (b, 1))
        sat = np.zeros((b, self.m + 1), dtype=bool)
        out = np.zeros((b, n), dtype=np.uint8)
        for step in range(n):
            v = pis[:, step]
            inc = self.inc[v]
            c_sat = sat[rows, inc]
            c_cnt = cnt[rows, inc]
            c_lsum = lsum[rows, inc]
            unit = (~c_sat) & (c_cnt == 1) & (np.abs(c_lsum) == v[:, None])
            has = unit.any(axis=1)
            first = np.argmax(unit, axis=1)
            forced = c_lsum[ar, first] > 0
            val = np.where(has, forced, ys[ar, v - 1].astype(bool))
            out[ar, v - 1] = val
            pos = self.pos[v]
            neg = self.neg[v]
            col = val[:, None]
            sat[rows, pos] |= col
            sat[rows, neg] |= ~col
            cnt[rows, pos] -= ~col
            cnt[rows, neg] -= col
            lsum[rows, pos] -= np.where(col, 0, v[:, None]).astype(np.int32)
            lsum[rows, neg] += np.where(col, v[:, None], 0).astype(np.int32)
        satisfied = sat[:, : self.m].all(axis=1)
        return out, satisfied


def _engine(formula):
    eng = getattr(formula, "_ppz_engine", None)
    if eng is None:
        eng = _Engine(formula)
        formula._ppz_engine = eng
    return eng


def _keys_from_bits(bits):
    n = bits.shape[1]
    powers = (1 << np.arange(n - 1, -1, -1)).astype(np.int64)
    return bits.astype(np.int64) @ powers


def _batches(formula, cfg, total):
    """Yield (out_bits, satisfied, start_index) for `total` seeded samples."""
    eng = _engine(formula)
    n = formula.n
    base = np.tile(np.arange(1, n + 1, dtype=np.int64), (_BATCH, 1))
    done = 0
    batch_index = 0
    while done < total:
        take = min(_BATCH, total - done)
        gen = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & _MASK64, batch_index])
        )
        ys = gen.integers(0, 2, size=(_BATCH, n), dtype=np.uint8)
        pis = gen.permuted(base, axis=1)
        out, satisfied = eng.run(ys[:take], pis[:take])
        yield out, satisfied, done
        done += take
        batch_index += 1


def tau_histogram(formula):
    """Exact output counts of PPZ-Modify over all 2^n * n! samples."""
    n = formula.n
    if n > TAU_LIMIT:
        raise CapabilityError(f"tau_exact enumerates 2^n * n!; n={n} > {TAU_LIMIT}")
    eng = _engine(formula)
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    ys_all = np.zeros((1 << n, n), dtype=np.uint8)
    for v in range(n):
        ys_all[:, v] = (np.arange(1 << n) >> (n - 1 - v)) & 1
    counts = np.zeros(1 << n, dtype=np.int64)
    chunk = max(1, _BATCH // (1 << n))
    for start in range(0, len(perms), chunk):
        block = perms[start : start + chunk]
        reps = block.shape[0]
        ys = np.tile(ys_all, (reps, 1))
        pis = np.repeat(block, 1 << n, axis=0)
        out, _ = eng.run(ys, pis)
        counts += np.bincount(_keys_from_bits(out), minlength=1 << n)
    denominator = math.factorial(n) << n
    assert counts.sum() == denominator
    return counts, denominator


def tau_exact(formula, targets):
    """Exact probability that one PPZ iteration outputs a member of
    `targets`, as a Fraction over uniform (y, pi)."""
    counts, denominator = tau_histogram(formula)
    keys = {z.key for z in targets}
    hit = sum(int(counts[key]) for key in keys)
    return Fraction(hit, denominator)


def ppz_solve(formula, cfg=OracleConfig()):
    """First satisfying PPZ output under the budget, else None."""
    z, _ = ppz_solve_counted(formula, cfg)
    return z


def ppz_solve_counted(formula, cfg=OracleConfig()):
    """(solution or None, number of iterations consumed)."""
    total = cfg.resolve(formula.n, formula.k)
    for out, satisfied, start in _batches(formula, cfg, total):
        if satisfied.any():
            row = int(np.argmax(satisfied))
            return (
                Assignment.from_array(out[row].astype(bool)),
                start + row + 1,
            )
    return None, total


def _batch_winners(formula, cfg, anchor_keys, reduce, reject_keys=None):
    """Keys of each batch's farthest satisfying output (see
    `farthest_index`), skipping outputs whose key is in reject_keys."""
    total = cfg.resolve(formula.n, formula.k)
    winners = []
    for out, satisfied, _ in _batches(formula, cfg, total):
        keys = _keys_from_bits(out[satisfied])
        if reject_keys is not None:
            keys = keys[~np.isin(keys, reject_keys)]
        if keys.size:
            winners.append(keys[farthest_index(keys, anchor_keys, reduce)])
    return np.array(winners, dtype=np.int64)


def _farthest(n, keys, anchor_keys, reduce):
    if not keys.size:
        return None
    return Assignment(n, int(keys[farthest_index(keys, anchor_keys, reduce)]))


def ppz_farthest(formula, z, cfg=OracleConfig()):
    """Satisfying output (approximately) farthest from `z`."""
    if z.n != formula.n:
        raise ValueError("anchor length mismatch")
    return ppz_farthest_sum(formula, [z], cfg)


def ppz_farthest_sum(formula, anchors, cfg=OracleConfig(), exclude=False):
    """Satisfying output maximizing the distance sum to `anchors`;
    exclude=True discards outputs equal to an anchor (distinct variant)."""
    anchor_keys = [a.key for a in anchors]
    if not anchor_keys:
        raise ValueError("anchor set must be non-empty")
    reject = np.array(anchor_keys, dtype=np.int64) if exclude else None
    winners = _batch_winners(formula, cfg, anchor_keys, np.sum, reject)
    return _farthest(formula.n, winners, anchor_keys, np.sum)


def ball_radius(n, k):
    """Largest r with sum_{i<=r} C(n,i) <= 2^(n - n/k), exactly."""
    keff = max(k, 1)
    acc = 0
    radius = 0
    for r in range(n + 1):
        acc += math.comb(n, r)
        if acc**keff <= 1 << (n * keff - n):
            radius = r
        else:
            break
    return radius


def ppz_farthest_min(formula, anchors, cfg=OracleConfig()):
    """Satisfying output maximizing the minimum distance to `anchors`.

    Phase 1 searches the Hamming balls of the budget-neutral radius
    around every anchor exhaustively; phase 2 runs PPZ repetitions.
    """
    anchor_keys = [z.key for z in anchors]
    if not anchor_keys:
        raise ValueError("anchor set must be non-empty")
    n = formula.n
    radius = ball_radius(n, formula.k)
    ball_keys = set()
    for key in anchor_keys:
        ball_keys.add(key)
        for r in range(1, radius + 1):
            for positions in combinations(range(n), r):
                flip = 0
                for p in positions:
                    flip |= 1 << (n - 1 - p)
                ball_keys.add(key ^ flip)
    keys = np.fromiter(ball_keys, dtype=np.int64, count=len(ball_keys))
    ball_hits = keys[evaluate_keys(formula, keys)]
    winners = _batch_winners(formula, cfg, anchor_keys, np.min)
    return _farthest(n, np.concatenate([ball_hits, winners]), anchor_keys, np.min)
