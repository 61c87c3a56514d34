"""Objective-level drivers: farthest-point insertion for min-dispersion,
insertion plus swap local search for sum-dispersion, and the weighted
wrapper.  Any farthest-point oracle plugs in: one `FarthestOracle` per
algorithm carries its objective, its seed and its streams, which are
derived per attempt, not per call, so a retry never replays; a PPZ
oracle's seed and attempt-0 calls share one stream."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brute import farthest_min, farthest_sum, solution_keys
from .cnf import (
    Assignment,
    InfeasibleError,
    PartialSetError,
    UnsatError,
    evaluate,
)
from .measures import (
    NO_WEIGHT,
    DispersionObjective,
    SolutionCollection,
    WeightConstraint,
    WeightKind,
    farthest,
    sum_distance_to,
    sum_pairwise_distance,
)
from .ppz import _pool, ppz_farthest_min, ppz_farthest_sum
from .schoning import (
    _walk_search,
    anchored_farthest_min,
    schoning_farthest_sum,
    schoning_farthest_weighted,
    schoning_solve_counted,
    weight_window,
)

MAX_RETRY_FACTOR = 3  # duplicate-rejection retries per insertion: 3 * s
MIN_PD = DispersionObjective.MIN_PD


@dataclass
class FarthestOracle:
    """A farthest-point oracle for `objective`: MIN_PD expects a distinct
    anchor set, the sum objectives accept a multiset, and a
    SUM_PD_DISTINCT oracle never answers an anchor.
    `farthest(formula, anchors, salt)` derives its stream from `salt`,
    which names the attempt, not the call.  `seed(formula)` is (a first
    member or None, the samples or restarts a solve drew for it; 0 when
    the seed is not a solve).  Instances count their calls."""

    objective: DispersionObjective
    farthest: object
    seed: object
    calls: int = field(default=0)

    def __call__(self, formula, anchors, salt=()):
        self.calls += 1
        return self.farthest(formula, anchors, salt)


def exact_oracle(objective):
    """Exact farthest points; the seed is the smallest solution."""

    def fn(f, s, salt):
        if objective is MIN_PD:
            return farthest_min(f, s)
        return farthest_sum(f, s, exclude=objective.distinct)

    def seed(formula):
        keys = solution_keys(formula)[:1].tolist()
        return (Assignment(formula.n, keys[0]) if keys else None), 0

    return FarthestOracle(objective, fn, seed)


def ppz_oracle(cfg, objective):
    """The seed and every call score the PPZ pool of stream cfg.spawn(1),
    whose first hit is the seed; a min retry (salt (step, attempt >= 1)),
    whose pooled answer would repeat, draws cfg.spawn(1, step, attempt)."""
    stream = cfg.spawn(1)

    def fn(f, s, salt):
        if objective is not MIN_PD:
            return ppz_farthest_sum(f, s, stream, exclude=objective.distinct)
        return ppz_farthest_min(f, s, cfg.spawn(1, *salt) if salt and salt[-1] else stream)

    return FarthestOracle(objective, fn, lambda f: _pool(f, stream).solve(f))


def _target_window(delta, n, w, at_least):
    """The union of weight_window(delta, W') over the targets W' =
    max(W, 1)..n (at-least) or 1..W (at-most), None without targets.
    Both ends of a window rise with W' and each window holds W', so the
    union runs from the first target's low end to the last's high end."""
    first, last = (max(w, 1), n) if at_least else (1, w)
    if last > n:
        raise ValueError("W must lie in 0..n")
    if first > last:
        return None
    return weight_window(delta, first)[0], weight_window(delta, last)[1]


def schoning_oracle(plan, cfg, objective, weight=NO_WEIGHT):
    """Anchored Schoening oracles; each call reads cfg.spawn(1, *salt).
    Without a weight the seed is the Schoening solve on cfg.spawn(0).

    With a weight (MIN_PD only) the exact-weight targets W' are W..n
    (at-least) or 1..W (at-most).  Every target's anchored search has the
    same centers, schedule and plan, so one search per call keeps the
    farthest hit in the union of the targets' (1 -+ delta) windows; the
    all-zeros assignment, whose exact-weight window degenerates, is tried
    directly in the at-most sweep.  The seed is a call with salt (0,)
    anchored at all-zeros (at-least) or all-ones (at-most), which pushes
    its weight toward the bound.
    """
    unweighted = weight.kind is WeightKind.NONE
    if objective is not MIN_PD and (objective.distinct or not unweighted):
        raise ValueError("the Schoening sum oracle takes no weight and no distinct sets")
    if unweighted:

        def fn(f, s, salt):
            if objective is MIN_PD:
                return schoning_farthest_weighted(f, s, 0, plan, cfg.spawn(1, *salt))
            return schoning_farthest_sum(f, s, plan, cfg.spawn(1, *salt))

        return FarthestOracle(
            objective, fn, lambda f: schoning_solve_counted(f, cfg.spawn(0))
        )
    at_least = weight.kind is WeightKind.AT_LEAST

    def weighted(formula, anchors, salt):
        n = formula.n
        window = _target_window(plan.delta, n, weight.w, at_least)
        keys = []
        if window is not None:
            search, stream = _walk_search(formula, plan), cfg.spawn(1, *salt)
            out = anchored_farthest_min(n, anchors, plan, stream, window, search)
            keys = [] if out is None else [out.key]
        if not at_least and evaluate(formula, Assignment.zeros(n)):
            keys.append(0)
        return farthest(n, keys, [a.key for a in anchors], np.min)

    def seed(formula):
        n = formula.n
        anchor = Assignment.zeros(n) if at_least else Assignment.ones(n)
        return oracle(formula, [anchor], (0,)), 0

    oracle = FarthestOracle(objective, weighted, seed)
    return oracle


def _checked(formula, members, distinct):
    for z in members:
        if not evaluate(formula, z):
            raise AssertionError("driver produced an infeasible member")
    return SolutionCollection(members, distinct=distinct)


def gonzalez_min(formula, s, oracle):
    """Farthest-point insertion: the oracle's seed plus s-1 oracle calls.

    With a (1-delta)-approximate oracle the result has
    minPD >= (1-delta)/2 * Opt-min(F, s).  Oracle outputs already in the
    set are rejected and retried a bounded number of times.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if oracle.objective is not MIN_PD:
        raise ValueError("gonzalez_min needs a MIN_PD oracle")
    seed, _ = oracle.seed(formula)
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


def sum_disperse(formula, s, oracle):
    """Farthest insertion then swap local search for sum-dispersion.

    Runs at most s^2 n sweeps; a sweep replaces z by the oracle's answer
    on S minus z whenever that strictly improves the distance sum, so
    sumPD never decreases and a no-swap sweep ends the search.  The
    result is a set exactly when the oracle's objective is distinct.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if oracle.objective is MIN_PD:
        raise ValueError("sum_disperse needs a sum oracle")
    distinct = oracle.objective.distinct
    seed, _ = oracle.seed(formula)
    if seed is None:
        raise UnsatError("no satisfying assignment found for the seed")
    members = [seed]
    for step in range(2, s + 1):
        cand = oracle(formula, list(members), salt=(0, step))
        if cand is None:
            raise PartialSetError(
                f"oracle failed at insertion step {step}",
                _checked(formula, members, distinct),
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
    return _checked(formula, members, distinct)


def disperse_weighted_min(formula, s, w, kind, plan, cfg):
    """Weight-constrained min-dispersion via the weighted anchored oracle.

    Both directions sweep the exact-weight target toward the bound, so
    member weights respect the (1 -+ delta) window of W; vacuous windows
    (W=0 at-least, W=n at-most) fall back to the unweighted oracle.
    """
    n = formula.n
    if not 0 <= w <= n:
        raise ValueError("W must lie in 0..n")
    vacuous = (
        kind is WeightKind.NONE
        or (kind is WeightKind.AT_LEAST and w == 0)
        or (kind is WeightKind.AT_MOST and w == n)
    )
    weight = NO_WEIGHT if vacuous else WeightConstraint(kind, w)
    try:
        return gonzalez_min(formula, s, schoning_oracle(plan, cfg, MIN_PD, weight))
    except (UnsatError, PartialSetError) as err:
        if vacuous:
            raise
        raise InfeasibleError(
            f"could not assemble {s} weight-qualifying dispersed solutions"
        ) from err
