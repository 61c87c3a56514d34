"""The PPZ iteration and the PPZ-based farthest-point oracles.

One iteration (`ppz_modify`) assigns variables in a random order,
copying random bits except where a unit clause forces the value.  The
solver and oracles repeat it under a seeded budget; `tau_exact`
enumerates every (y, pi) pair outright so the sampling bounds can be
checked as exact rationals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, permutations

import numpy as np

from .cnf import (
    Assignment,
    CapabilityError,
    check_key_width,
    clause_masks,
    condition,
    evaluate_keys,
)
from .measures import anchor_keys_of, farthest, farthest_index

_MASK64 = (1 << 64) - 1
_BATCH = 1 << 13  # fixed logical batch so results never depend on scheduling
_SOLVE_CUTS = (1 << 6, 1 << 8, 1 << 10, 1 << 12, _BATCH)  # early-exit segments
_BALL_CHUNK = 1 << 16  # keys per evaluate_keys call in phase 1
_POOL_KEYS = 1 << 20  # distinct keys a pool keeps (8 MB); above, each call replays
_POOLS = 2  # pools kept per formula, the most recently used
_WORDS = (np.uint8, np.uint16, np.uint32, np.uint64)
HARD_REPETITION_CAP = 1 << 26
TAU_LIMIT = 7


@dataclass(frozen=True)
class OracleConfig:
    """Randomness and budget knobs for the randomized oracles.

    repetitions=None resolves to ceil(effort * 4 n^2 * growth), where
    growth is 2^(n - n/k) for PPZ; a count above HARD_REPETITION_CAP is
    refused, not cut.
    """

    seed: int = 0
    repetitions: int | None = None
    effort: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.effort) and self.effort > 0):
            raise ValueError(f"effort must be finite and > 0, got {self.effort}")

    def resolve(self, n, k):
        """The PPZ sample budget, refused above HARD_REPETITION_CAP."""
        return self.budget(n, 2 ** (n - n / max(k, 1)), "PPZ budget of {} samples")

    def budget(self, n, growth, label="Schoening budget of {} restarts"):
        """Repetitions of a search expected to need about 4 n^2 growth
        tries: `repetitions` if set, else that count scaled by `effort`;
        CapabilityError, naming the count by `label`, when
        HARD_REPETITION_CAP would cut it."""
        if self.repetitions is not None and self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        asked = self.repetitions or max(1, math.ceil(self.effort * 4 * n * n * growth))
        if asked > HARD_REPETITION_CAP:
            raise CapabilityError(
                f"{label.format(asked)} (n={n}) is above the cap of "
                f"{HARD_REPETITION_CAP}"
            )
        return asked

    def seed_sequence(self, *salt):
        """The seeded stream named by `salt`: the one way every seeded
        block, restart and derived config is drawn from the seed."""
        return np.random.SeedSequence([self.seed & _MASK64, *salt])

    def spawn(self, *salt):
        """Derived config with an independent seed; used for retries and
        per-step oracle calls so reruns never replay the same stream."""
        seq = self.seed_sequence(*salt)
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


def word_for(n):
    """The narrowest unsigned numpy type that holds n bits."""
    return next(w for w in _WORDS if np.iinfo(w).bits >= n)


@functools.cache
def _open_bits():
    """(8, 256, 256) uint8: entry [i, p << 4 | q, t << 4 | f] is 1 << i
    when a clause whose positive/negative literals in one 4-bit group are
    p/q still has a literal there that is not false, with the group's
    variables set true/false being t/f; else 0."""
    pq = np.arange(256)[:, None]
    tf = np.arange(256)
    is_open = (((pq >> 4) & ~tf) | (pq & 15 & ~(tf >> 4)) != 0).astype(np.uint8)
    bits = is_open << np.arange(8, dtype=np.uint8)[:, None, None]
    bits.flags.writeable = False  # shared by every engine
    return bits


def _nibble_bytes(x):
    """uint64 words whose byte g is nibble g of the low 32 bits of x."""
    x = x & 0xFFFFFFFF
    x = (x | x << 16) & 0x0000FFFF0000FFFF
    x = (x | x << 8) & 0x00FF00FF00FF00FF
    return (x | x << 4) & 0x0F0F0F0F0F0F0F0F


class _Engine:
    """Vectorized PPZ-Modify over batches of (y, pi) samples.

    A sample's partial assignment is `true`, the variables set true, in
    a word of the narrowest unsigned type holding n bits (variable v is
    bit n - v, as in keys), beside a code of one uint64 word for n <= 32
    and two for n <= 63: byte g of the code is (true nibble g) << 4 |
    (false nibble g) of key bits 4g .. 4g + 3.  Setting v ORs its
    `code_bit` into the code, shifted up 4 when v is set true.

    The clauses containing v, in clause order, are v's lane bits (bit j
    = j-th clause of v, in words of dtype `lane`); such a clause forces
    v once all its other literals are false.  Group g's table, the rows
    of `tables` from `offset[g]`, holds at row v << 8 | (byte g of the
    code) the lanes of v's clauses that still have a literal in group g
    that is not false.  Padding bits are always set, so they are never
    unit.  A step ORs v's rows over the groups and inverts them into
    unit lanes, then takes the lowest set bit, whose bit in the lane of
    `sign` says whether v is positive there: the first unit clause wins.

    A clause forces only once its other literals are all set, so with w
    the narrowest clause width no step before step w - 1 can force.
    `run` sets those first `free_steps` = w - 1 variables (0 with an
    empty or a unit clause, n with no clauses) to their bits of y at
    once, and builds their code bytes from the true and false words.
    The outputs are then tested on the formula's `clause_masks`, as
    `evaluate_keys` tests keys.
    """

    def __init__(self, formula):
        n = self.n = formula.n
        word = self.word = word_for(n)
        at = n - np.arange(n + 1)  # key bit of variable v at index v
        self.bit = np.zeros(n + 1, dtype=word)
        self.bit[1:] = np.int64(1) << at[1:]
        sizes = np.fromiter(map(len, formula.clauses), np.intp, len(formula.clauses))
        self.free_steps = max(0, int(sizes.min(initial=n + 1)) - 1)
        lits = np.fromiter(chain.from_iterable(formula.clauses), np.int64, sizes.sum())
        clause = np.repeat(np.arange(sizes.size), sizes)
        var = np.abs(lits)
        bit = np.int64(1) << at[var]
        pos, neg = clause_masks(formula)
        self.clause_vars = (pos | neg).astype(word)[:, None]
        self.clause_negs = neg.astype(word)[:, None]
        # literal i is column col[i] of row var[i]: v's clauses in clause order
        count = np.bincount(var, minlength=n + 1)
        order = np.argsort(var, kind="stable")
        col = np.empty_like(order)
        col[order] = np.arange(order.size) - np.repeat(np.cumsum(count) - count, count)
        width = max(8, int(count.max()))
        bits = min(64, 1 << (width - 1).bit_length())  # lane width
        self.lane = np.dtype(f"<u{bits // 8}")
        width = -(-width // bits) * bits
        sign = np.zeros((n + 1, width), dtype=bool)
        sign[var, col] = lits > 0
        self.sign = np.packbits(sign, axis=1, bitorder="little").view(self.lane)
        # pq[g, v, j]: the other literals of v's clause j in group g, as
        # (positive nibble) << 4 | (negative nibble)
        groups = -(-n // 4)
        shifts = np.arange(0, 4 * groups, 4)[:, None]
        pq = np.full((groups, n + 1, width), 255, dtype=np.uint8)  # padding: open
        pq[:, var, col] = ((pos[clause] & ~bit) >> shifts & 15) << 4 | (
            (neg[clause] & ~bit) >> shifts & 15
        )
        open_bits = _open_bits()
        # packed[g, v, c, s]: byte c of v's lanes in group g at state byte s
        packed = open_bits[0].take(pq[..., 0::8], axis=0)
        for i in range(1, 8):
            packed |= open_bits[i].take(pq[..., i::8], axis=0)
        tables = np.ascontiguousarray(packed.transpose(0, 1, 3, 2)).view(self.lane)
        self.tables = tables.reshape(groups * (n + 1) << 8, width // bits)
        self.offset = np.arange(groups)[:, None] * ((n + 1) << 8)
        self.code_bit = np.zeros((n + 1, max(1, -(-groups // 8))), dtype="<u8")
        g = at[1:] >> 2  # group of variable v
        self.code_bit[1:][np.arange(n), g >> 3] = np.uint64(1) << (
            (g & 7) * 8 + (at[1:] & 3)
        ).astype(np.uint64)

    def _code(self, true, false):
        """The codes of partial assignments whose true and false
        variables are the words `true` and `false`."""
        code = np.empty((len(true), self.code_bit.shape[1]), dtype="<u8")
        true, false = true.astype(np.uint64), false.astype(np.uint64)
        for w in range(code.shape[1]):  # 8 groups, 32 key bits, per word
            high, low = _nibble_bytes(true >> 32 * w), _nibble_bytes(false >> 32 * w)
            code[:, w] = high << 4 | low
        return code

    def run(self, ys, pis):
        """ys: (B, n) 0/1 bits, variable 1 in column 0; pis: (B, n) int64
        1-based processing orders.  Returns (int64 keys, satisfied)."""
        y = ys.astype(self.word) @ self.bit[1:]
        free = self.free_steps
        assigned = np.bitwise_or.reduce(self.bit.take(pis[:, :free]), axis=1)
        true = y & assigned
        code = self._code(true, assigned ^ true)
        nibbles = code.view(np.uint8)[:, : len(self.offset)].T  # row g: byte g
        for v in pis[:, free:].T:
            rows = self.tables.take(nibbles + (self.offset + (v << 8)), axis=0)
            units = ~np.bitwise_or.reduce(rows, axis=0)
            signs = self.sign.take(v, axis=0)
            bit = self.bit[v]
            value = y & bit
            for lane in reversed(range(units.shape[1])):  # lowest lane wins
                unit = units[:, lane]
                forced = (signs[:, lane] & unit & -unit) != 0
                value = np.where(unit != 0, bit * forced, value)
            true |= value
            set_true = (value != 0).astype(np.uint8) << np.uint8(2)
            code |= self.code_bit.take(v, axis=0) << set_true[:, None]
        held = true ^ self.clause_negs  # clause c holds where row c is not 0
        held &= self.clause_vars
        top = np.iinfo(self.word).max  # no clauses: every sample satisfies
        return true.astype(np.int64), held.min(axis=0, initial=top) != 0


def packed_engine(formula, cls):
    """`cls(formula)`, built once per formula: the PPZ `_Engine` or the
    Schoening `_Walker`, which both hold a key in one int64."""
    check_key_width(formula.n)
    engines = vars(formula).setdefault("_engines", {})
    if cls not in engines:
        engines[cls] = cls(formula)
    return engines[cls]


def _batches(formula, cfg, total, cuts=(_BATCH,), start=0):
    """Yield (keys, satisfied, start_index) for `total` seeded samples
    from the block at `start` on; each seeded block of _BATCH samples is
    run in segments ending at `cuts`, so a caller can stop early without
    changing the stream."""
    eng = packed_engine(formula, _Engine)
    n = formula.n
    # `permuted` copies this view into a fresh column-major block, so
    # no (B, n) block is tiled and each step's variables are contiguous
    base = np.broadcast_to(np.arange(1, n + 1, dtype=np.int64), (_BATCH, n))
    for done in range(start, total, _BATCH):
        take = min(_BATCH, total - done)
        gen = np.random.default_rng(cfg.seed_sequence(done // _BATCH))
        ys = gen.integers(0, 2, size=(_BATCH, n), dtype=np.uint8)
        pis = gen.permuted(base, axis=1)
        lo = 0
        for cut in cuts:
            hi = min(cut, take)
            if lo < hi:
                yield (*eng.run(ys[lo:hi], pis[lo:hi]), done + lo)
            lo = hi


def tau_histogram(formula):
    """Exact output counts of PPZ-Modify over all 2^n * n! samples."""
    n = formula.n
    if n > TAU_LIMIT:
        raise CapabilityError(f"tau_exact enumerates 2^n * n!; n={n} > {TAU_LIMIT}")
    eng = packed_engine(formula, _Engine)
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    ys_all = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    counts = np.zeros(1 << n, dtype=np.int64)
    chunk = max(1, _BATCH // (1 << n))
    for start in range(0, len(perms), chunk):
        block = perms[start : start + chunk]
        reps = block.shape[0]
        ys = np.tile(ys_all, (reps, 1))
        pis = np.repeat(block, 1 << n, axis=0)
        keys, _ = eng.run(ys, pis)
        counts += np.bincount(keys, minlength=1 << n)
    denominator = math.factorial(n) << n
    if counts.sum() != denominator:
        raise AssertionError("tau histogram lost samples")
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
    for keys, satisfied, start in _batches(formula, cfg, total, _SOLVE_CUTS):
        if satisfied.any():
            row = int(np.argmax(satisfied))
            return Assignment(formula.n, int(keys[row])), start + row + 1
    return None, total


def _distinct(keys):
    """Sorted distinct keys; np.unique's hash path in numpy 2.4 raises a
    run's peak RSS by about 1.5 MB on first use."""
    keys = np.sort(keys)
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]


class _Pool:
    """The satisfying outputs of stream `cfg`'s PPZ budget, each block
    drawn once: `first` is the (key, draw index) of the first satisfying
    sample or None, and `parts` the keys drawn, merged into one sorted
    distinct array at the end and past 2 _POOL_KEYS keys; None once a
    merge holds more, and then every scoring replays the stream."""

    def __init__(self, cfg, total):
        self.cfg, self.total, self.drawn, self.held, self.first = cfg, total, 0, 0, None
        self.parts = []

    def draw(self, formula, until_first=False):
        """Draw the blocks not drawn yet: up to the first hit with
        until_first, else to the end of the budget."""
        blocks = _batches(formula, self.cfg, self.total, start=self.drawn)
        for keys, satisfied, start in blocks:
            self.drawn, hits = start + _BATCH, keys[satisfied]
            if self.first is None and hits.size:
                self.first = int(hits[0]), start + int(np.argmax(satisfied)) + 1
            self.parts.append(hits)
            self.held += hits.size
            if self.held > 2 * _POOL_KEYS or self.drawn >= self.total:
                self.parts = [_distinct(np.concatenate(self.parts))]
                self.held = self.parts[0].size
                if self.held > _POOL_KEYS:
                    self.parts, self.drawn = None, self.total
            if self.parts is None or until_first and self.first is not None:
                return

    def solve(self, formula):
        """ppz_solve_counted's answer on the pool's stream."""
        if self.first is None:
            self.draw(formula, until_first=True)
        key, index = self.first or (None, self.total)
        return key if key is None else Assignment(formula.n, key), index

    def winners(self, formula, anchor_keys, reduce, reject_keys=None):
        """Keys of the farthest satisfying output (see `farthest_index`)
        of the pool or of each replayed block, skipping keys in the
        distinct reject_keys: the farthest of them is the budget's."""
        self.draw(formula)
        replay = _batches(formula, self.cfg, self.total)  # runs if not kept
        winners = []
        for keys in self.parts or (_distinct(k[sat]) for k, sat, _ in replay):
            if reject_keys is not None:
                keys = keys[~np.isin(keys, reject_keys, assume_unique=True)]
            if keys.size:
                winners.append(keys[farthest_index(keys, anchor_keys, reduce)])
        return np.array(winners, dtype=np.int64)


def _pool(formula, cfg):
    """Stream `cfg`'s `_Pool`, kept on the formula with the _POOLS - 1
    used last; its budget is resolved, or refused, before any draw."""
    pools = vars(formula).setdefault("_pools", {})
    pool = pools.pop(cfg, None) or _Pool(cfg, cfg.resolve(formula.n, formula.k))
    pools[cfg] = pool
    if len(pools) > _POOLS:
        del pools[next(iter(pools))]
    return pool


def ppz_farthest_sum(formula, anchors, cfg=OracleConfig(), exclude=False):
    """Satisfying output maximizing the distance sum to `anchors`;
    exclude=True discards outputs equal to an anchor (distinct variant)."""
    anchor_keys = anchor_keys_of(formula.n, anchors)
    reject = np.array(sorted(set(anchor_keys)), dtype=np.int64) if exclude else None
    winners = _pool(formula, cfg).winners(formula, anchor_keys, np.sum, reject)
    return farthest(formula.n, winners, anchor_keys, np.sum)


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


def _ball_masks(n, radius):
    """XOR masks of weight <= radius over n bits, weight by weight, each
    weight sorted: a weight-r mask is a weight-(r-1) one plus a bit above
    its top bit.  Written in place, so the ball is held once."""
    masks = np.zeros(sum(math.comb(n, r) for r in range(radius + 1)), np.int64)
    prev, at = masks[:1], 1
    for _ in range(radius):
        start = at
        for p in range(n):
            low = prev[: np.searchsorted(prev, 1 << p)]
            np.bitwise_or(low, 1 << p, out=masks[at : at + low.size])
            at += low.size
        prev = masks[start:at]
    return masks


def ppz_farthest_min(formula, anchors, cfg=OracleConfig()):
    """Satisfying output maximizing the minimum distance to `anchors`.

    Phase 1 searches the Hamming balls of the budget-neutral radius
    around every anchor exhaustively, in chunks of _BALL_CHUNK keys;
    phase 2 runs PPZ repetitions.
    """
    anchor_keys = np.array(anchor_keys_of(formula.n, anchors), dtype=np.int64)
    n = formula.n
    radius = ball_radius(n, formula.k)
    ball = sum(math.comb(n, r) for r in range(radius + 1))
    if anchor_keys.size * ball > HARD_REPETITION_CAP:
        raise CapabilityError(
            f"phase 1 would evaluate {anchor_keys.size * ball} keys (radius "
            f"{radius}, n={n}), above the cap of {HARD_REPETITION_CAP}"
        )
    pool = _pool(formula, cfg)
    masks = _ball_masks(n, radius)
    step = max(1, _BALL_CHUNK // anchor_keys.size)
    hits = []
    for lo in range(0, masks.size, step):
        keys = (anchor_keys[:, None] ^ masks[lo : lo + step]).ravel()
        hits.append(keys[evaluate_keys(formula, keys)])
    hits.append(pool.winners(formula, anchor_keys, np.min))
    return farthest(n, np.concatenate(hits), anchor_keys, np.min)
