"""Schoening walks, anchored local search, and the budget mathematics.

A walk flips a random literal of the first violated clause.  Local
search repeats bounded walks from a fixed start; the anchored variant
draws the start from a Hamming annulus around an anchor and caps the
walk radius, so anything it finds is guaranteed to stay far from the
anchor.  Radii, repetition counts, and admissible delta ranges are kept
as exact fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ppz
from .cnf import Assignment, CapabilityError, check_key_width
from .measures import anchor_keys_of, farthest_index, popcount
from .ppz import packed_engine, word_for

_TASK_BLOCK = 1 << 9  # anchored tasks per seeded block (seed format 2)
_WALK_CHUNK = 1 << 11  # walks per engine run; bounds memory, not the stream


def entropy(x):
    """Binary entropy in bits; H(0) = H(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x in (0, 1):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def inverse_entropy(y):
    """The unique x in [0, 1/2] with H(x) = y, by bisection."""
    if not 0 <= y <= 1:
        raise ValueError("inverse entropy argument must lie in [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def delta_max(c, alpha):
    """Largest admissible delta of a search whose walks of ceil(alpha t)
    flips are repeated ceil(c^t) times."""
    c, alpha = Fraction(c), Fraction(alpha)
    if c <= 1:
        raise ValueError("c must exceed 1")
    return min(Fraction(1), 2 * (1 + alpha) / (c - 1))


def _check_delta(delta, c, alpha):
    bound = delta_max(c, alpha)
    if not 0 < delta <= bound:
        raise ValueError(
            f"delta {delta} must lie in (0, {bound}] for alpha={alpha}, c={c}"
        )


@dataclass(frozen=True)
class BudgetPlan:
    """An anchored search over n variables with distance loss delta, whose
    walks of ceil(alpha t) flips are repeated ceil(c^t) times: the capped
    annulus radius R, the per-radius repetition rule and the total budget.
    delta, alpha and c are kept as exact fractions."""

    n: int
    delta: Fraction
    alpha: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("delta", "alpha", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        _check_delta(self.delta, self.c, self.alpha)

    @property
    def R(self):
        return int(self.delta * self.n / (2 * (1 + self.alpha + self.delta)))

    def walk_length(self, t):
        return math.ceil(self.alpha * t)

    def walks(self, t):
        """ceil(c^t), computed in integers because local_search asks for
        it on every anchored task."""
        return -(-self.c.numerator**t // self.c.denominator**t)

    def budget(self):
        """tau = 2^n c^R / C(n, R)."""
        R = self.R
        return (2**self.n) * float(self.c**R) / math.comb(self.n, R)

    def walk_radius(self, r):
        return min(int(self.delta * r / (1 + self.alpha)), self.R)

    def annulus_size(self, r):
        t = self.walk_radius(r)
        lo = max(r - t, 0)
        hi = min(r + t, self.n)
        return sum(math.comb(self.n, x) for x in range(lo, hi + 1))

    def per_r_repetitions(self, r, effort=1.0):
        t = self.walk_radius(r)
        need = Fraction(self.annulus_size(r), math.comb(self.n, t))
        return max(1, math.ceil(effort * need))


_VARIANT_MIN_K = {"v1": 2, "v2": 3}


def make_plan(n, k, delta=None, variant="v1"):
    """Plan of the CNF local search `variant` at clause width k: v1 walks
    t flips k^t times, v2 walks ceil((1 + 2/(k-2)) t) flips (k-1)^t
    times.  delta defaults to the largest admissible value."""
    if variant not in _VARIANT_MIN_K:
        raise ValueError(f"unknown variant {variant!r}")
    if k < _VARIANT_MIN_K[variant]:
        raise ValueError(
            f"variant {variant} needs k >= {_VARIANT_MIN_K[variant]}, got k={k}"
        )
    if variant == "v1":
        alpha, c = Fraction(1), k
    else:
        alpha, c = 1 + Fraction(2, k - 2), k - 1
    return BudgetPlan(n, delta_max(c, alpha) if delta is None else delta, alpha, c)


def growth_base(c, alpha, delta):
    """Per-variable growth base 2 c^rho / 2^H(rho) of the anchored search."""
    _check_delta(delta, c, alpha)
    c, alpha, delta = float(c), float(alpha), float(delta)
    rho = delta / (2 * (1 + alpha + delta))
    return 2 * c**rho / 2 ** entropy(rho)


class _Walker:
    """Packed Schoening walks, one word per walk.

    A walk's state is one word of the narrowest unsigned type holding n
    bits (variable v is bit n - v, as in keys).  Clause c is violated
    when `(x ^ neg[c]) & var[c]` is zero: `var` masks its variables,
    `neg` those it negates.  `lits[c, j]` is the bit of its j-th
    literal.  `masks` holds the same (var, neg) pairs as Python ints,
    for the scalar walker.
    """

    def __init__(self, formula):
        n = formula.n
        self.word = word = word_for(n)
        bits = [[1 << (n - abs(l)) for l in c] for c in formula.clauses]
        self.masks = [
            (sum(row), sum(b for b, l in zip(row, c) if l < 0))
            for row, c in zip(bits, formula.clauses)
        ]
        self.var = np.array([v for v, _ in self.masks], dtype=word)
        self.neg = np.array([g for _, g in self.masks], dtype=word)
        self.width = np.array([len(row) for row in bits], dtype=np.float64)
        self.lits = np.zeros((len(bits), max(formula.k, 1)), dtype=word)
        for ci, row in enumerate(bits):
            self.lits[ci, : len(row)] = row

    def run(self, starts, lengths, uniforms):
        """Walk i starts at starts[i] and makes at most lengths[i] flips;
        flip s takes literal floor(uniforms[i, s] * width) of the first
        violated clause, and an empty one ends the walk.  Returns (int64
        end keys, satisfied), exactly as schoning_walk walks each."""
        x = starts.astype(self.word)
        ok = np.zeros(len(x), dtype=bool)
        if not len(self.var):
            return x.astype(np.int64), ~ok
        live = np.arange(len(x))
        for step in range(uniforms.shape[1] + 1):
            viol = x[live] ^ self.neg[:, None]
            viol &= self.var[:, None]
            viol = viol == 0
            bad = viol.any(axis=0)
            ok[live[~bad]] = True
            clause = viol.argmax(axis=0)
            go = bad & (step < lengths[live]) & (self.width[clause] > 0)
            live, clause = live[go], clause[go]
            if not live.size:
                break
            pick = (uniforms[live, step] * self.width[clause]).astype(np.intp)
            x[live] ^= self.lits[clause, pick]
        return x.astype(np.int64), ok


def schoning_walk(formula, z, steps, rng):
    """Random walk: up to `steps` flips of a literal of the first violated
    clause; returns the first satisfying assignment reached.

    Flip s takes literal floor(u_s * width) of that clause.  `rng` is
    either the uniforms u_0, u_1, ... already drawn, or a Generator the
    `steps` of them are drawn from, all before the first flip.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    u = rng.random(steps) if isinstance(rng, np.random.Generator) else rng
    n, key = formula.n, z.key
    masks = packed_engine(formula, _Walker).masks
    for flips_done in range(steps + 1):
        for ci, (var, neg) in enumerate(masks):
            if not (key ^ neg) & var:
                break
        else:
            return Assignment(n, key)
        clause = formula.clauses[ci]
        if flips_done == steps or not clause:
            return None  # out of flips, or an empty clause it cannot repair
        key ^= 1 << (n - abs(clause[int(u[flips_done] * len(clause))]))
    return None


def local_search(formula, y, t, plan, rng):
    """plan.walks(t) walks of plan.walk_length(t) flips from y, each
    drawing its uniforms from rng in turn; the first satisfying walk
    wins, and lies within ceil(alpha t) flips of y."""
    if t > formula.n:
        raise ValueError("t must not exceed n")
    length = plan.walk_length(t)
    for _ in range(plan.walks(t)):
        out = schoning_walk(formula, y, length, rng)
        if out is not None:
            if y.distance(out) > length:
                raise AssertionError("walk escaped its radius")
            return out
    return None


@functools.cache
def _binomial_prefix(n):
    """P[x] = sum of C(n, j) for j < x, x = 0..n+1, as uint64."""
    check_key_width(n)
    prefix = np.array(
        [0] + list(itertools.accumulate(math.comb(n, x) for x in range(n + 1))),
        dtype=np.uint64,
    )
    prefix.setflags(write=False)
    return prefix


def _annulus_keys(gen, n, centers, lo, hi):
    """One uniform point per row of {x : lo <= d_H(x, center) <= hi},
    as int64 keys; lo <= hi <= n per row.  The radius is drawn with the
    exact integer weights C(n, radius); the coordinates that come first
    in a uniform permutation of the n are then flipped."""
    prefix = _binomial_prefix(n)
    base = prefix[lo]
    draw = gen.integers(0, prefix[hi + 1] - base, dtype=np.uint64)
    radius = np.searchsorted(prefix, base + draw, side="right") - 1
    order = gen.permuted(np.broadcast_to(np.arange(n), (len(centers), n)), axis=1)
    bits = np.int64(1) << (n - 1 - order)
    flips = np.where(np.arange(n) < radius[:, None], bits, 0)
    return centers ^ np.bitwise_or.reduce(flips, axis=1)


def sample_annulus(z, lo, hi, rng):
    """Uniform point of {x : lo <= d_H(x, z) <= min(hi, n)}: one row of
    the anchored search's block sampler."""
    n = z.n
    if lo > n:
        raise ValueError("lo exceeds n")
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    rows = (np.array([v]) for v in (z.key, lo, min(hi, n)))
    return Assignment(n, int(_annulus_keys(rng, n, *rows)[0]))


@functools.cache
def _schedule(plan, effort, r_first):
    """(r, t, repetitions) for r = r_first..n, in Python integers."""
    return tuple(
        (r, plan.walk_radius(r), plan.per_r_repetitions(r, effort))
        for r in range(r_first, plan.n + 1)
    )


def anchored_walks(plan, effort, starts, r_first=1):
    """Walks an anchored search plans around `starts` centers, starts x
    sum over r of repetitions(r) ceil(c^t); CapabilityError above
    ppz.HARD_REPETITION_CAP, read at call time."""
    sched = _schedule(plan, effort, r_first)
    walks = starts * sum(reps * plan.walks(t) for _, t, reps in sched)
    if walks > ppz.HARD_REPETITION_CAP:
        raise CapabilityError(
            f"the anchored search would run {walks} walks (n={plan.n}), "
            f"above the cap of {ppz.HARD_REPETITION_CAP}"
        )
    return walks


def _task_blocks(n, plan, cfg, centers, r_first):
    """Seed format 2 of the anchored search.  The (r, center, repetition)
    tasks, in that order, are cut into blocks of _TASK_BLOCK; block b
    draws everything it uses from one generator seeded by (seed, b):
    first each task's start in the annulus [r - t, r + t] around its
    center, then whatever the search draws.  Yields (start keys, t,
    generator) per block, once the whole plan has passed the cap."""
    if plan.n != n:
        raise ValueError(f"the plan is for n={plan.n}, the search for n={n}")
    anchored_walks(plan, cfg.effort, len(centers), r_first)
    sched = _schedule(plan, cfg.effort, r_first)
    if not sched:
        return
    r, t, reps = (np.array(col, dtype=np.int64) for col in zip(*sched))
    centers = np.array(centers, dtype=np.int64)
    counts = reps * len(centers)
    ends = np.cumsum(counts)
    for block, first in enumerate(range(0, int(ends[-1]), _TASK_BLOCK)):
        task = np.arange(first, min(first + _TASK_BLOCK, int(ends[-1])))
        row = np.searchsorted(ends, task, side="right")
        center = (task - ends[row] + counts[row]) // reps[row]
        lo = np.maximum(r[row] - t[row], 0)
        hi = np.minimum(r[row] + t[row], n)
        gen = np.random.default_rng(cfg.seed_sequence(block))
        yield _annulus_keys(gen, n, centers[center], lo, hi), t[row], gen


def _walk_search(formula, plan):
    """The anchored search's block search by packed walks: task i runs
    plan.walks(t_i) walks of plan.walk_length(t_i) flips from keys[i],
    with one uniform per (walk, step) drawn in (task, walk, step) order,
    and returns its first satisfying walk, as local_search does.  Walks
    go to the engine _WALK_CHUNK at a time; a task that has succeeded
    skips its later walks, whose uniforms are still drawn."""
    eng = packed_engine(formula, _Walker)
    walks_of = np.array([plan.walks(t) for t in range(plan.R + 1)])
    length_of = np.array([plan.walk_length(t) for t in range(plan.R + 1)])

    def search(keys, t, gen):
        task = np.repeat(np.arange(len(keys)), walks_of[t])
        lengths = length_of[t][task]
        out = np.zeros(len(keys), dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        for lo in range(0, len(task), _WALK_CHUNK):
            tk, ln = task[lo : lo + _WALK_CHUNK], lengths[lo : lo + _WALK_CHUNK]
            u = gen.random(int(ln.sum()))
            at = np.cumsum(ln) - ln  # where each walk's uniforms start in u
            live = ~hit[tk]
            tk, ln, at = tk[live], ln[live], at[live]
            steps = at[:, None] + np.arange(ln.max(initial=0))
            ends, ok = eng.run(keys[tk], ln, u[np.minimum(steps, max(u.size - 1, 0))])
            tk, ends = tk[ok], ends[ok]
            first = np.diff(tk, prepend=-1) != 0  # walks run in task order
            out[tk[first]], hit[tk[first]] = ends[first], True
        if (popcount(out ^ keys)[hit] > length_of[t][hit]).any():
            raise AssertionError("walk escaped its radius")
        return out, hit

    return search


def _anchored_argmax(n, plan, cfg, centers, r_first, search, anchor_keys, reduce, window):
    """Runs `search(keys, t, gen)` -> (out keys, hit) over the anchored
    tasks (see _task_blocks).  Of the hits whose weight lies in the
    integer `window`, returns the farthest from `anchor_keys` by `reduce`
    (see `farthest_index`), even at distance 0."""
    lo_w, hi_w = window
    winners = []
    for keys, t, gen in _task_blocks(n, plan, cfg, centers, r_first):
        out, hit = search(keys, t, gen)
        weight = popcount(out)
        out = out[hit & (lo_w <= weight) & (weight <= hi_w)]
        if out.size:
            winners.append(out[farthest_index(out, anchor_keys, reduce)])
    if not winners:
        return None
    return Assignment(n, int(winners[farthest_index(winners, anchor_keys, reduce)]))


def weight_window(delta, w):
    """The integer weights in [(1 - delta) w, (1 + delta) w]."""
    return math.ceil((1 - delta) * w), math.floor((1 + delta) * w)


def anchored_farthest_min(n, anchors, plan, cfg, search, window):
    """Best output of the block search `search` (see _anchored_argmax) by
    min-distance to `anchors` whose weight lies in the integer window.

    Starts are drawn around every anchor and around the all-zeros point;
    the latter is what ties output weight to the window.
    """
    keys = anchor_keys_of(n, anchors)
    return _anchored_argmax(n, plan, cfg, keys + [0], 1, search, keys, np.min, window)


def schoning_farthest_weighted(formula, anchors, w, plan, cfg):
    """Best satisfying output by min-distance to `anchors` whose weight
    lies in [(1-delta) W, (1+delta) W]; W=0 means no weight window."""
    n = formula.n
    if not 0 <= w <= n:
        raise ValueError("W must lie in 0..n")
    window = (0, n) if w == 0 else weight_window(plan.delta, w)
    return anchored_farthest_min(
        n, anchors, plan, cfg, _walk_search(formula, plan), window
    )


def schoning_farthest_sum(formula, anchors, plan, cfg):
    """Best satisfying output by sum of distances to the multiset `anchors`."""
    n = formula.n
    keys = anchor_keys_of(n, anchors)
    search = _walk_search(formula, plan)
    return _anchored_argmax(n, plan, cfg, keys, 0, search, keys, np.sum, (0, n))


def schoning_solve_counted(formula, cfg):
    """(solution or None, restarts consumed)."""
    n = formula.n
    check_key_width(n)
    total = cfg.budget(n, (2 * (1 - 1 / max(formula.k, 2))) ** n)
    for i in range(total):
        rng = np.random.default_rng(cfg.seed_sequence(i))
        start = Assignment(n, int(rng.integers(1 << n)))
        out = schoning_walk(formula, start, 3 * n, rng)
        if out is not None:
            return out, i + 1
    return None, total
