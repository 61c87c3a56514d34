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
from .cnf import Assignment, CapabilityError, check_key_width, clause_masks
from .measures import anchor_keys_of, farthest, farthest_index, popcount
from .ppz import packed_engine, word_for

_TASK_BLOCK = 1 << 9  # anchored tasks per seeded block (seed format 4)
_GROUP_WALKS = 3 << 10  # planned walks per packed group; bounds memory, not the stream
_LEVEL_NODES = 1 << 20  # nodes of one extension-search level, which is held whole
_ORDER_BITS = 16  # widest n whose annulus unranking is one gather (2^16 int64 entries)


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
    literal and `width[c]` its length (row m: 0).  With `rank[c] = m - c`
    in the narrowest type that holds m, the first violated clause is m
    less the largest violated rank, m if none.  `var` and `neg` come
    from `clause_masks`; `masks` holds them as Python int pairs, for the
    scalar walker.
    """

    def __init__(self, formula):
        n = formula.n
        self.word = word = word_for(n)
        bits = [[1 << (n - abs(l)) for l in c] for c in formula.clauses]
        pos, neg = clause_masks(formula)
        var = pos | neg
        self.masks = list(zip(var.tolist(), neg.tolist()))
        m = len(bits)
        self.var = var.astype(word)[:, None]
        self.neg = neg.astype(word)[:, None]
        self.rank = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None]
        self.width = np.array([len(row) for row in bits] + [0], dtype=np.float64)
        self.lits = np.zeros((m, max(formula.k, 1)), dtype=word)
        for ci, row in enumerate(bits):
            self.lits[ci, : len(row)] = row

    def first_violated(self, x):
        """Index of the first clause each word of x violates, m if none,
        tested _GROUP_WALKS words at a time."""
        first = np.full(len(x), len(self.var), dtype=np.intp)
        for lo in range(0, len(x), _GROUP_WALKS):
            viol = x[lo : lo + _GROUP_WALKS] ^ self.neg
            viol &= self.var
            viol = viol == 0
            first[lo : lo + _GROUP_WALKS] -= (viol * self.rank).max(0, initial=0)
        return first

    def run(self, starts, lengths, uniforms):
        """Walk i starts at starts[i] and makes at most lengths[i] flips;
        flip s takes literal floor(uniforms[i, s] * width) of the first
        violated clause, and an empty one ends the walk.  Returns (int64
        end keys, satisfied), exactly as schoning_walk walks each."""
        x = starts.astype(self.word)
        ok = np.zeros(len(x), dtype=bool)
        live = np.arange(len(x))
        for step in range(uniforms.shape[1] + 1):
            clause = self.first_violated(x[live])
            ok[live[clause == len(self.var)]] = True
            width = self.width[clause]
            go = (width > 0) & (step < lengths[live])
            live, clause, width = live[go], clause[go], width[go]
            if not live.size:
                break
            pick = (uniforms[live, step] * width).astype(np.intp)
            x[live] ^= self.lits[clause, pick]
        return x.astype(np.int64), ok

    def extend(self, keys, t):
        """Task i's first extension of keys[i] within t[i] additions by
        depth-first branching on the first violated clause's literals, on
        a formula of positive clauses, where a flip only adds: (int64
        keys, hit).

        The branch trees grow level by level, children in node order and
        then literal order, so each level lists a task's nodes in
        depth-first preorder.  A task keeps only the nodes before its
        first feasible node of the level and records that node; every
        record therefore precedes the earlier ones in preorder, and the
        last one is the first feasible node of the depth-first search.
        A level above _LEVEL_NODES nodes is refused before it is built.
        """
        out = np.zeros(len(keys), dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        node, task = keys.astype(self.word), np.arange(len(keys))
        for depth in itertools.count():
            first = self.first_violated(node)
            done = np.flatnonzero(first == len(self.var))
            done = done[np.diff(task[done], prepend=-1) != 0]  # first per task
            out[task[done]], hit[task[done]] = node[done], True
            cut = np.full(len(keys), len(node))
            cut[task[done]] = done
            keep = (np.arange(len(node)) < cut[task]) & (depth < t[task])
            if not keep.any():
                return out, hit
            node, row = self._children(node[keep], first[keep], depth + 1)
            task = task[keep][row]

    def _children(self, node, first, depth):
        """(children, parent index) of `node`, whose first violated clauses
        are `first`: level `depth`, refused above _LEVEL_NODES nodes."""
        if (count := int(self.width[first].sum())) > _LEVEL_NODES:
            raise CapabilityError(
                f"the extension search's level {depth} would hold "
                f"{count} nodes, above the cap of {_LEVEL_NODES}"
            )
        row, pick = np.nonzero(self.lits[first])  # rows are 0-padded
        return node[row] | self.lits[first[row], pick], row


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
def _binomials(n):
    """(P, C), read-only uint64: P[x] = sum of C(n, j) for j < x, x =
    0..n+1, and C[j, x] = C(j, x) for j, x = 0..n."""
    check_key_width(n)
    rows = range(n + 1)
    table = np.array([[math.comb(j, x) for x in rows] for j in rows], dtype=np.uint64)
    prefix = np.zeros(n + 2, dtype=np.uint64)
    np.cumsum(table[n], out=prefix[1:])
    table.setflags(write=False)
    prefix.setflags(write=False)
    return prefix, table


def _unrank(n, index):
    """The int64 n-bit masks at the uint64 indices of the order by weight,
    then colex: index P[r] + i is the i-th r-bit mask in colex order (see
    _binomials), by the combinatorial number system, top bit first."""
    prefix, table = _binomials(n)
    left = np.searchsorted(prefix, index, side="right") - 1  # bits still to set
    rest = index - prefix[left]
    mask = np.zeros(len(index), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        low = table[j, left]  # ways to set the remaining bits below bit j
        take = rest >= low
        rest -= low * take
        left -= take
        mask |= take.astype(np.int64) << j
    return mask


@functools.cache
def _weight_order(n):
    """_unrank(n, i) for every i < 2^n, read-only (n <= _ORDER_BITS)."""
    order = _unrank(n, np.arange(1 << n, dtype=np.uint64))
    order.setflags(write=False)
    return order


def _annulus_keys(blocks, n, centers, lo, hi):
    """One uniform point per row of {x : lo <= d_H(x, center) <= hi},
    as int64 keys; lo <= hi <= n per row.  `blocks` lists (generator,
    rows) pairs that cover the rows in order.  Each generator draws one
    index per row, uniform over [P[lo], P[hi + 1]) (see _binomials),
    and nothing else; its mask in the order by weight, then colex, is
    the row's flips, so the radius has the exact weights C(n, radius)."""
    prefix = _binomials(n)[0]
    base = prefix[lo]
    span = prefix[hi + 1] - base
    index = np.empty(len(centers), dtype=np.uint64)
    at = 0
    for gen, rows in blocks:
        index[at : at + rows] = gen.integers(0, span[at : at + rows], dtype=np.uint64)
        at += rows
    index += base
    flips = _weight_order(n)[index] if n <= _ORDER_BITS else _unrank(n, index)
    return centers ^ flips


def sample_annulus(z, lo, hi, rng):
    """Uniform point of {x : lo <= d_H(x, z) <= min(hi, n)}: one row of
    the anchored search's block sampler, which draws one index from rng."""
    n = z.n
    if lo > n:
        raise ValueError("lo exceeds n")
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    rows = (np.array([v]) for v in (z.key, lo, min(hi, n)))
    return Assignment(n, int(_annulus_keys([(rng, 1)], n, *rows)[0]))


@functools.cache
def _schedule(plan, effort, r_first):
    """(r, t, repetitions) for r = r_first..n, in Python integers."""
    return tuple(
        (r, plan.walk_radius(r), plan.per_r_repetitions(r, effort))
        for r in range(r_first, plan.n + 1)
    )


@functools.cache
def _walk_tables(plan):
    """Rows ceil(c^t) walks and ceil(alpha t) flips, t = 0..R, as int64."""
    ts = range(plan.R + 1)
    tables = np.array([[plan.walks(t) for t in ts], [plan.walk_length(t) for t in ts]])
    tables.setflags(write=False)
    return tables


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


def _walk_search(formula, plan):
    """The anchored search's block search by packed walks: task i runs
    plan.walks(t_i) walks of plan.walk_length(t_i) flips from keys[i]
    and returns its first satisfying walk, as local_search does.  Each
    (generator, rows) block draws the uniforms of its rows in one call,
    one per (walk, step) in (task, walk, step) order.  Walks go to the
    engine _GROUP_WALKS at a time; a task that has succeeded skips its
    later walks."""
    eng = packed_engine(formula, _Walker)
    walks_of, length_of = _walk_tables(plan)

    def search(keys, t, blocks):
        first_rows = np.cumsum([0] + [rows for _, rows in blocks[:-1]])
        draws = np.add.reduceat(walks_of[t] * length_of[t], first_rows).tolist()
        u = np.concatenate([gen.random(k) for (gen, _), k in zip(blocks, draws)])
        task = np.repeat(np.arange(len(keys)), walks_of[t])
        lengths = length_of[t][task]
        at = np.cumsum(lengths) - lengths  # where each walk's uniforms start in u
        out = np.zeros(len(keys), dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        for lo in range(0, len(task), _GROUP_WALKS):
            tk, ln, a = (v[lo : lo + _GROUP_WALKS] for v in (task, lengths, at))
            if lo:
                live = ~hit[tk]
                tk, ln, a = tk[live], ln[live], a[live]
            steps = a[:, None] + np.arange(ln.max(initial=0))
            np.minimum(steps, max(u.size - 1, 0), out=steps)
            ends, ok = eng.run(keys[tk], ln, u[steps])
            tk, ends = tk[ok], ends[ok]
            first = np.diff(tk, prepend=-1) != 0  # walks run in task order
            out[tk[first]], hit[tk[first]] = ends[first], True
        if (popcount(out ^ keys)[hit] > length_of[t][hit]).any():
            raise AssertionError("walk escaped its radius")
        return out, hit

    return search


def _anchored_argmax(n, plan, cfg, window, centers, r_first, search, anchors, reduce):
    """The anchored search: of the hits of `search(keys, t, blocks)` ->
    (out keys, hit) whose weight lies in `window`, the farthest from the
    keys `anchors` by `reduce` (see farthest_index), even at 0.

    Seed format 4: the (r, center, repetition) tasks, in that order, are
    cut into blocks of _TASK_BLOCK.  Block b draws from one generator
    seeded by cfg.seed_sequence(b): one annulus index per task (see
    _annulus_keys), then what the search draws from its (generator,
    rows) pair.  Whole blocks are grouped up to _GROUP_WALKS planned
    walks, and a group is sampled, searched, filtered and reduced at
    once."""
    if plan.n != n:
        raise ValueError(f"the plan is for n={plan.n}, the search for n={n}")
    anchored_walks(plan, cfg.effort, len(centers), r_first)
    sched = _schedule(plan, cfg.effort, r_first)
    if not sched:
        return None
    r, t, reps = (np.array(col, dtype=np.int64) for col in zip(*sched))
    lo, hi = np.maximum(r - t, 0), np.minimum(r + t, n)
    counts = reps * len(centers)  # tasks per row of the schedule
    ends = np.cumsum(counts)
    per_task = _walk_tables(plan)[0][t]
    walk_ends = np.cumsum(counts * per_task)
    centers = np.array(centers, dtype=np.int64)

    def walks_to(i):  # planned walks of tasks 0..i-1
        row = int(np.searchsorted(ends, i))
        return int(walk_ends[row] - (ends[row] - i) * per_task[row])

    def groups():  # task ranges of whole blocks
        first, tasks = 0, int(ends[-1])
        for a in range(_TASK_BLOCK, tasks, _TASK_BLOCK):
            if walks_to(min(a + _TASK_BLOCK, tasks)) - walks_to(first) > _GROUP_WALKS:
                yield first, a
                first = a
        yield first, tasks

    winners = []
    for first, last in groups():
        task = np.arange(first, last)
        row = np.searchsorted(ends, task, side="right")
        center = (task - ends[row] + counts[row]) // reps[row]
        cuts = [*range(first, last, _TASK_BLOCK), last]
        blocks = [
            (np.random.default_rng(cfg.seed_sequence(a // _TASK_BLOCK)), b - a)
            for a, b in zip(cuts, cuts[1:])
        ]
        keys = _annulus_keys(blocks, n, centers[center], lo[row], hi[row])
        out, hit = search(keys, t[row], blocks)
        weight = popcount(out)
        out = out[hit & (window[0] <= weight) & (weight <= window[1])]
        if out.size:
            winners.append(out[farthest_index(out, anchors, reduce)])
    return farthest(n, winners, anchors, reduce)


def weight_window(delta, w):
    """The integer weights in [(1 - delta) w, (1 + delta) w]."""
    return math.ceil((1 - delta) * w), math.floor((1 + delta) * w)


def anchored_farthest_min(n, anchors, plan, cfg, window, search):
    """Best output of the block search `search` by min-distance to
    `anchors` among the hits whose weight lies in `window`, on the
    stream of `cfg` (see _anchored_argmax).

    Starts are drawn around every anchor and around the all-zeros point;
    the latter is what ties output weight to the window.
    """
    keys = anchor_keys_of(n, anchors)
    return _anchored_argmax(n, plan, cfg, window, keys + [0], 1, search, keys, np.min)


def schoning_farthest_weighted(formula, anchors, w, plan, cfg):
    """Best satisfying output by min-distance to `anchors` whose weight
    lies in [(1-delta) W, (1+delta) W]; W=0 means no weight window."""
    n = formula.n
    if not 0 <= w <= n:
        raise ValueError("W must lie in 0..n")
    window = (0, n) if w == 0 else weight_window(plan.delta, w)
    search = _walk_search(formula, plan)
    return anchored_farthest_min(n, anchors, plan, cfg, window, search)


def schoning_farthest_sum(formula, anchors, plan, cfg):
    """Best satisfying output by sum of distances to the multiset `anchors`."""
    n = formula.n
    keys = anchor_keys_of(n, anchors)
    search = _walk_search(formula, plan)
    return _anchored_argmax(n, plan, cfg, (0, n), keys, 0, search, keys, np.sum)


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
