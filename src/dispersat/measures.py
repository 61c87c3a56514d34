"""Solution collections and their dispersion measures."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cnf import check_key_width


class DispersionObjective(Enum):
    MIN_PD = "min"
    SUM_PD = "sum"
    SUM_PD_DISTINCT = "sum-distinct"

    @property
    def distinct(self):
        """Whether the s solutions form a set rather than a multiset."""
        return self is not DispersionObjective.SUM_PD


class WeightKind(Enum):
    NONE = "none"
    AT_LEAST = "at-least"
    AT_MOST = "at-most"


@dataclass(frozen=True)
class WeightConstraint:
    kind: WeightKind = WeightKind.NONE
    w: int | None = None

    def __post_init__(self):
        if (self.kind is WeightKind.NONE) != (self.w is None):
            raise ValueError("W must be given exactly when kind != NONE")

    def admits(self, assignment):
        if self.kind is WeightKind.NONE:
            return True
        if self.kind is WeightKind.AT_LEAST:
            return assignment.weight() >= self.w
        return assignment.weight() <= self.w


NO_WEIGHT = WeightConstraint()


class SolutionCollection:
    """An ordered set or multiset of assignments of common length.

    With distinct=True no two members may be equal; order is insertion
    order either way.
    """

    def __init__(self, members, distinct=True):
        self.members = tuple(members)
        self.distinct = bool(distinct)
        if self.members:
            n = self.members[0].n
            if any(z.n != n for z in self.members):
                raise ValueError("members have differing lengths")
        if self.distinct and len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member in a distinct collection")

    @property
    def n(self):
        if not self.members:
            raise ValueError("empty collection has no dimension")
        return self.members[0].n

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, z):
        return z in self.members

    def __eq__(self, other):
        return (
            isinstance(other, SolutionCollection)
            and self.members == other.members
            and self.distinct == other.distinct
        )

    def __repr__(self):
        inner = ",".join(z.to_string() for z in self.members)
        kind = "set" if self.distinct else "multiset"
        return f"SolutionCollection({kind}:[{inner}])"


def popcount(keys):
    """Set bits of each nonnegative integer key, as int64."""
    return np.bitwise_count(np.asarray(keys)).astype(np.int64)


def best_index(scores, keys):
    """Index of the highest score, ties going to the smallest key."""
    return int(np.lexsort((keys, -np.asarray(scores)))[0])


def anchor_keys_of(n, anchors):
    """Keys of a non-empty anchor list whose members all have length n,
    refused above the int64 key width."""
    check_key_width(n)
    anchors = list(anchors)
    if not anchors:
        raise ValueError("anchor set must be non-empty")
    if any(a.n != n for a in anchors):
        raise ValueError(f"anchors must have the formula's length n={n}")
    return [a.key for a in anchors]


def farthest_index(keys, anchor_keys, reduce):
    """Index of the farthest point oracle's answer among `keys`: the key
    whose Hamming distances to `anchor_keys`, combined by `reduce`
    (np.min or np.sum), are largest, ties going to the smallest key."""
    keys = np.asarray(keys, dtype=np.int64)
    dist = popcount(keys[:, None] ^ np.asarray(anchor_keys, dtype=np.int64))
    return best_index(reduce(dist, axis=1), keys)


def min_pairwise_distance(collection):
    """minPD; a singleton gets the sentinel n+1 (acts as +infinity)."""
    members = collection.members
    if not members:
        raise ValueError("minPD of an empty collection")
    if len(members) == 1:
        return members[0].n + 1
    return min(
        members[i].distance(members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def sum_pairwise_distance(collection):
    """sumPD: half the sum of distances over ordered pairs."""
    members = collection.members
    if not members:
        raise ValueError("sumPD of an empty collection")
    return sum(
        members[i].distance(members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def sum_distance_to(collection, x):
    return sum(z.distance(x) for z in collection.members)

