"""Schoening walks, anchored local search, and the budget mathematics.

A walk flips a random literal of the first violated clause.  Local
search repeats bounded walks from a fixed start; the anchored variant
draws the start from a Hamming annulus around an anchor and caps the
walk radius, so anything it finds is guaranteed to stay far from the
anchor.  Radii, repetition counts, and admissible delta ranges are kept
as exact fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cnf import Assignment
from .measures import farthest_index

_MASK64 = (1 << 64) - 1


def entropy(x):
    """Binary entropy in bits; H(0) = H(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x in (0, 1):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def inverse_entropy(y, tol=1e-12):
    """The unique x in [0, 1/2] with H(x) = y, by bisection."""
    if not 0 <= y <= 1:
        raise ValueError("inverse entropy argument must lie in [0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
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


def schoning_walk(formula, z, steps, rng):
    """Random walk: up to `steps` flips of a uniform literal of the first
    violated clause; returns the first satisfying assignment reached."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    bits = z.to_array()
    if formula.num_clauses == 0:
        return Assignment.from_bits(bits)
    cvars, cneg, valid = formula.clause_arrays()
    for flips_done in range(steps + 1):
        sat = ((bits[cvars] ^ cneg) & valid).any(axis=1)
        if sat.all():
            return Assignment.from_bits(bits)
        if flips_done == steps:
            return None
        clause = formula.clauses[int(np.argmax(~sat))]
        if not clause:
            return None  # empty clause: the walk cannot repair it
        lit = clause[int(rng.integers(len(clause)))]
        bits[abs(lit) - 1] = not bits[abs(lit) - 1]
    return None


def local_search(formula, y, t, plan, rng):
    """plan.walks(t) walks of plan.walk_length(t) flips from y; any
    returned assignment lies within ceil(alpha t) flips of y."""
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


def sample_annulus(z, lo, hi, rng):
    """Uniform point of {x : lo <= d_H(x, z) <= min(hi, n)}: draw the
    radius proportionally to C(n, radius), then flip that many
    uniformly random coordinates of z."""
    n = z.n
    if lo > n:
        raise ValueError("lo exceeds n")
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    hi = min(hi, n)
    weights = [math.comb(n, x) for x in range(lo, hi + 1)]
    total = sum(weights)
    draw = int(rng.integers(total))
    radius = lo
    for w in weights:
        if draw < w:
            break
        draw -= w
        radius += 1
    out = z
    for position in rng.permutation(n)[:radius]:
        out = out.flip(int(position) + 1)
    return out


def _anchored_argmax(plan, cfg, starts, r_values, search, anchor_keys, reduce, accepts):
    """Shared (r, start anchor, repetition) loop; every repetition is its
    own seeded task so the result is independent of evaluation order.
    Of the outputs that `accepts` admits, returns the farthest from
    `anchor_keys` by `reduce` (see `farthest_index`), even at distance 0."""
    found = []
    for r in r_values:
        t = plan.walk_radius(r)
        reps = plan.per_r_repetitions(r, cfg.effort)
        lo, hi = max(r - t, 0), r + t
        for ai, anchor in enumerate(starts):
            for rep in range(reps):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed & _MASK64, r, ai, rep])
                )
                y = sample_annulus(anchor, lo, hi, rng)
                out = search(y, t, rng)
                if out is not None and accepts(out):
                    found.append(out)
    if not found:
        return None
    return found[farthest_index([z.key for z in found], anchor_keys, reduce)]


def anchored_farthest_min(anchors, plan, cfg, search, lo_w, hi_w):
    """Best output of `search(y, t, rng)` by min-distance to `anchors`
    whose weight lies in [lo_w, hi_w].

    Starts are drawn around every anchor and around the all-zeros point;
    the latter is what ties output weight to the window.
    """
    anchors = list(anchors)
    if not anchors:
        raise ValueError("anchor set must be non-empty")
    n = anchors[0].n
    return _anchored_argmax(
        plan,
        cfg,
        anchors + [Assignment.zeros(n)],
        range(1, n + 1),
        search,
        [a.key for a in anchors],
        np.min,
        lambda z: lo_w <= z.weight() <= hi_w,
    )


def schoning_farthest_weighted(formula, anchors, w, plan, cfg):
    """Best satisfying output by min-distance to `anchors` whose weight
    lies in [(1-delta) W, (1+delta) W]; W=0 means no weight window."""
    n = formula.n
    if not 0 <= w <= n:
        raise ValueError("W must lie in 0..n")
    if w == 0:
        lo_w, hi_w = 0, n
    else:
        lo_w, hi_w = (1 - plan.delta) * w, (1 + plan.delta) * w
    return anchored_farthest_min(
        anchors,
        plan,
        cfg,
        lambda y, t, rng: local_search(formula, y, t, plan, rng),
        lo_w,
        hi_w,
    )


def schoning_farthest_sum(formula, anchors, plan, cfg):
    """Best satisfying output by sum of distances to the multiset `anchors`."""
    anchors = list(anchors)
    if not anchors:
        raise ValueError("anchor set must be non-empty")
    return _anchored_argmax(
        plan,
        cfg,
        anchors,
        range(0, formula.n + 1),
        lambda y, t, rng: local_search(formula, y, t, plan, rng),
        [a.key for a in anchors],
        np.sum,
        lambda z: True,
    )


def schoning_solve_counted(formula, cfg):
    """(solution or None, restarts consumed)."""
    n = formula.n
    total = cfg.budget(n, (2 * (1 - 1 / max(formula.k, 2))) ** n)
    for i in range(total):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed & _MASK64, i])
        )
        start = Assignment(n, int(rng.integers(1 << n)))
        out = schoning_walk(formula, start, 3 * n, rng)
        if out is not None:
            return out, i + 1
    return None, total
