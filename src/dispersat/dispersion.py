"""Objective-level drivers: farthest-point insertion for min-dispersion,
insertion plus swap local search for sum-dispersion, and the weighted
wrappers.  Any farthest-point oracle plugs in; the seeded randomized
oracles get a fresh derived stream per call so retries never replay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brute import enumerate_solutions, farthest_min, farthest_sum
from .cnf import (
    Assignment,
    InfeasibleError,
    PartialSetError,
    UnsatError,
    evaluate,
)
from .measures import (
    SolutionCollection,
    WeightKind,
    farthest_index,
    sum_distance_to,
    sum_pairwise_distance,
)
from .ppz import ppz_farthest_min, ppz_farthest_sum, ppz_solve
from .schoning import (
    schoning_farthest_sum,
    schoning_farthest_weighted,
    schoning_solve_counted,
    schoning_weight_sweep,
)

MAX_RETRY_FACTOR = 3  # duplicate-rejection retries per insertion: 3 * s


@dataclass
class FarthestOracle:
    """A farthest-point oracle: flavor 'min' expects a distinct anchor
    set, flavor 'sum' accepts a multiset.  Instances count their calls."""

    flavor: str
    fn: object
    calls: int = field(default=0)

    def __call__(self, formula, anchors, salt=()):
        self.calls += 1
        return self.fn(formula, anchors, salt)


def exact_min_oracle():
    return FarthestOracle("min", lambda f, s, salt: farthest_min(f, s))


def exact_sum_oracle(exclude=False):
    return FarthestOracle(
        "sum", lambda f, s, salt: farthest_sum(f, s, exclude=exclude)
    )


def ppz_min_oracle(cfg):
    return FarthestOracle(
        "min", lambda f, s, salt: ppz_farthest_min(f, s, cfg.spawn(1, *salt))
    )


def ppz_sum_oracle(cfg, exclude=False):
    return FarthestOracle(
        "sum",
        lambda f, s, salt: ppz_farthest_sum(
            f, s, cfg.spawn(1, *salt), exclude=exclude
        ),
    )


def schoning_min_oracle(plan, cfg):
    return FarthestOracle(
        "min",
        lambda f, s, salt: schoning_farthest_weighted(
            f, s, 0, plan, cfg.spawn(1, *salt)
        ),
    )


def schoning_sum_oracle(plan, cfg):
    return FarthestOracle(
        "sum",
        lambda f, s, salt: schoning_farthest_sum(f, s, plan, cfg.spawn(1, *salt)),
    )


def schoning_weighted_min_oracle(plan, cfg, w, kind=WeightKind.AT_LEAST):
    """Min-flavored oracle over weight-constrained solutions.

    Sweeps the exact-weight target W' over W..n (at-least) or 1..W
    (at-most) in one pass and keeps the best answer, so every output
    weight stays within the (1 -+ delta) window of the bound.
    The all-zeros assignment, whose exact-weight window degenerates, is
    tried directly in the at-most sweep.
    """
    at_least = kind is WeightKind.AT_LEAST

    def fn(formula, anchors, salt):
        n = formula.n
        targets = range(max(w, 1), n + 1) if at_least else range(1, w + 1)
        cfgs = {wp: cfg.spawn(1, wp, *salt) for wp in targets}
        out = schoning_weight_sweep(formula, anchors, plan, cfgs) if cfgs else None
        candidates = [] if out is None else [out]
        if not at_least:
            zero = Assignment.zeros(n)
            if evaluate(formula, zero):
                candidates.append(zero)
        if not candidates:
            return None
        keys = [z.key for z in candidates]
        return candidates[farthest_index(keys, [a.key for a in anchors], np.min)]

    return FarthestOracle("min", fn)


def exact_seeder():
    return lambda formula: next(iter(enumerate_solutions(formula)), None)


def ppz_seeder(cfg):
    return lambda formula: ppz_solve(formula, cfg.spawn(0))


def schoning_seeder(cfg):
    return lambda formula: schoning_solve_counted(formula, cfg.spawn(0))[0]


def _checked(formula, members, distinct):
    for z in members:
        if not evaluate(formula, z):
            raise AssertionError("driver produced an infeasible member")
    return SolutionCollection(members, distinct=distinct)


def gonzalez_min(formula, s, oracle, seeder):
    """Farthest-point insertion: a seed solution plus s-1 oracle calls.

    With a (1-delta)-approximate oracle the result has
    minPD >= (1-delta)/2 * Opt-min(F, s).  Oracle outputs already in the
    set are rejected and retried a bounded number of times.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if oracle.flavor != "min":
        raise ValueError("gonzalez_min needs a min-flavored oracle")
    seed = seeder(formula)
    if seed is None:
        raise UnsatError("no satisfying assignment found for the seed")
    members = [seed]
    for step in range(2, s + 1):
        found = None
        for attempt in range(MAX_RETRY_FACTOR * s):
            cand = oracle(formula, list(members), salt=(step, attempt))
            if cand is not None and cand not in members:
                found = cand
                break
        if found is None:
            raise PartialSetError(
                f"oracle failed to extend the set past {len(members)} members",
                _checked(formula, members, distinct=True),
            )
        members.append(found)
    return _checked(formula, members, distinct=True)


def sum_disperse(formula, s, oracle, seeder):
    """Farthest insertion then swap local search for sum-dispersion.

    Runs at most s^2 n sweeps; a sweep replaces z by the oracle's answer
    on S minus z whenever that strictly improves the distance sum, so
    sumPD never decreases and a no-swap sweep ends the search.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if oracle.flavor != "sum":
        raise ValueError("sum_disperse needs a sum-flavored oracle")
    seed = seeder(formula)
    if seed is None:
        raise UnsatError("no satisfying assignment found for the seed")
    members = [seed]
    for step in range(2, s + 1):
        cand = oracle(formula, list(members), salt=(0, step))
        if cand is None:
            raise PartialSetError(
                f"oracle failed at insertion step {step}",
                _checked(formula, members, distinct=False),
            )
        members.append(cand)
    current = sum_pairwise_distance(SolutionCollection(members, distinct=False))
    for sweep in range(s * s * formula.n):
        changed = False
        for idx in range(len(members)):
            rest = members[:idx] + members[idx + 1 :]
            if not rest:
                continue
            cand = oracle(formula, rest, salt=(1, sweep, idx))
            if cand is None:
                continue
            rest_coll = SolutionCollection(rest, distinct=False)
            if sum_distance_to(rest_coll, cand) > sum_distance_to(
                rest_coll, members[idx]
            ):
                members[idx] = cand
                changed = True
        after = sum_pairwise_distance(
            SolutionCollection(members, distinct=False)
        )
        if after < current:
            raise AssertionError("swap phase decreased sumPD")
        current = after
        if not changed:
            break
    return _checked(formula, members, distinct=False)


def disperse_weighted_min(formula, s, w, kind, plan, cfg):
    """Weight-constrained min-dispersion via the weighted anchored oracle.

    Both directions sweep the exact-weight target toward the bound, so
    member weights respect the (1 -+ delta) window of W; vacuous windows
    (W=0 at-least, W=n at-most) fall back to the unweighted driver.
    The seed maximizes (at-least) or minimizes (at-most) weight by
    anchoring the first oracle call at the all-zeros or all-ones point.
    """
    n = formula.n
    if not 0 <= w <= n:
        raise ValueError("W must lie in 0..n")
    vacuous = (
        kind is WeightKind.NONE
        or (kind is WeightKind.AT_LEAST and w == 0)
        or (kind is WeightKind.AT_MOST and w == n)
    )
    if vacuous:
        oracle = schoning_min_oracle(plan, cfg)
        seeder = schoning_seeder(cfg)
    else:
        oracle = schoning_weighted_min_oracle(plan, cfg, w, kind)
        seed_anchor = (
            Assignment.zeros(n)
            if kind is WeightKind.AT_LEAST
            else Assignment.ones(n)
        )

        def seeder(f):
            return oracle(f, [seed_anchor], salt=(0,))

    try:
        return gonzalez_min(formula, s, oracle, seeder)
    except (UnsatError, PartialSetError) as err:
        if vacuous:
            raise
        raise InfeasibleError(
            f"could not assemble {s} weight-qualifying dispersed solutions"
        ) from err
