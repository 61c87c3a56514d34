import random

import numpy as np
import pytest

from dispersat.cnf import Assignment
from dispersat.measures import (
    DispersionObjective,
    SolutionCollection,
    WeightConstraint,
    WeightKind,
    best_index,
    farthest_index,
    min_pairwise_distance,
    popcount,
    sum_distance_to,
    sum_pairwise_distance,
)


def A(s):
    return Assignment.from_string(s)


def coll(*strings, distinct=True):
    return SolutionCollection([A(s) for s in strings], distinct=distinct)


def test_min_and_sum_pd():
    c = coll("01", "10", "11")
    assert min_pairwise_distance(c) == 1
    assert sum_pairwise_distance(c) == 4


def test_distances_to_point():
    assert sum_distance_to(coll("01", "10"), A("11")) == 2


def test_multiset_duplicate_gives_zero():
    assert min_pairwise_distance(coll("01", "01", distinct=False)) == 0


def test_singleton_sentinel():
    assert min_pairwise_distance(coll("0110")) == 5


def test_empty_rejected():
    empty = SolutionCollection([], distinct=True)
    with pytest.raises(ValueError):
        min_pairwise_distance(empty)
    with pytest.raises(ValueError):
        sum_pairwise_distance(empty)


def test_distinct_flag_enforced():
    with pytest.raises(ValueError):
        coll("01", "01")


def test_sum_pd_is_half_ordered_double_loop():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 9)
        members = [
            Assignment(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 6))
        ]
        s = SolutionCollection(members, distinct=False)
        double = sum(a.distance(b) for a in members for b in members)
        assert 2 * sum_pairwise_distance(s) == double


def test_weight_constraint():
    atleast = WeightConstraint(WeightKind.AT_LEAST, 2)
    atmost = WeightConstraint(WeightKind.AT_MOST, 1)
    assert atleast.admits(A("011"))
    assert not atleast.admits(A("001"))
    assert atmost.admits(A("001"))
    assert not atmost.admits(A("011"))
    with pytest.raises(ValueError):
        WeightConstraint(WeightKind.AT_LEAST, None)
    with pytest.raises(ValueError):
        WeightConstraint(WeightKind.NONE, 3)


def test_objective_values():
    assert DispersionObjective("min") is DispersionObjective.MIN_PD
    assert DispersionObjective("sum-distinct") is DispersionObjective.SUM_PD_DISTINCT


# The farthest-point core against the loop and tensor code it replaced.


def _popcount_loop(arr):
    arr = np.asarray(arr).astype(np.uint64)
    out = np.zeros(arr.shape, dtype=np.int64)
    while arr.any():
        out += (arr & 1).astype(np.int64)
        arr >>= np.uint64(1)
    return out


def _tuple_merge(scores, keys):
    """Key of the best (score, -key) pair, merged one candidate at a time."""
    best = None
    for score, key in zip(scores, keys):
        cand = (int(score), -int(key))
        if best is None or cand > best:
            best = cand
    return -best[1]


def _bool_tensor_scores(n, keys, anchor_keys, reduce):
    shifts = np.arange(n - 1, -1, -1)
    bits = ((np.asarray(keys)[:, None] >> shifts) & 1).astype(bool)
    mat = ((np.asarray(anchor_keys)[:, None] >> shifts) & 1).astype(bool)
    return reduce((bits[:, None, :] != mat[None, :, :]).sum(axis=2), axis=1)


def test_popcount_is_int64_and_matches_bit_loop():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 63, size=500, dtype=np.int64)
    keys[:3] = [0, 1, (1 << 63) - 1]
    counts = popcount(keys)
    assert counts.dtype == np.int64
    assert (counts == _popcount_loop(keys)).all()
    assert counts[2] == 63
    table = popcount(np.arange(1 << 10))
    assert table.dtype == np.int64
    assert (table == [bin(i).count("1") for i in range(1 << 10)]).all()
    # a signed result: the exact layer writes -1 into popcount tables
    assert np.where(table > 0, table, -1).min() == -1


def test_best_index_matches_tuple_merge_with_ties_and_duplicates():
    rng = np.random.default_rng(1)
    for _ in range(300):
        size = int(rng.integers(1, 40))
        keys = rng.integers(0, 16, size=size, dtype=np.int64)
        scores = rng.integers(0, 4, size=size, dtype=np.int64)
        assert keys[best_index(scores, keys)] == _tuple_merge(scores, keys)


@pytest.mark.parametrize("reduce", [np.min, np.sum])
def test_farthest_index_matches_bool_tensor_scorer(reduce):
    rng = np.random.default_rng(2 if reduce is np.min else 3)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        keys = rng.integers(0, 1 << n, size=int(rng.integers(1, 30)), dtype=np.int64)
        anchors = rng.integers(0, 1 << n, size=int(rng.integers(1, 5)), dtype=np.int64)
        scores = _bool_tensor_scores(n, keys, anchors, reduce)
        got = keys[farthest_index(keys, anchors, reduce)]
        assert got == _tuple_merge(scores, keys)
        assert got == keys[farthest_index(list(keys), list(anchors), reduce)]
