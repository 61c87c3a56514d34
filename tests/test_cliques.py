import random
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from dispersat import cliques
from dispersat.cliques import (
    TupleGraph,
    opt_min_clique,
    opt_sum_clique,
    triangle_detect,
)
from dispersat.cnf import Assignment, CapabilityError, InfeasibleError
from dispersat.measures import (
    min_pairwise_distance,
    sum_pairwise_distance,
)


def A(s):
    return Assignment.from_string(s)


def random_points(rng, n, count):
    keys = rng.sample(range(1 << n), count)
    return [Assignment(n, key) for key in keys]


class TestTriangleDetect:
    def test_complete_1_1_1(self):
        one = np.ones((1, 1), dtype=bool)
        g = TupleGraph(
            (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))), one, one, one
        )
        assert triangle_detect(g) == (0, 0, 0)

    def test_empty(self):
        zero = np.zeros((2, 2), dtype=bool)
        g = TupleGraph(
            (np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))),
            zero,
            zero,
            zero,
        )
        assert triangle_detect(g) is None

    def test_agrees_with_cubic_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            v1, v2, v3 = rng.integers(1, 11, size=3)
            a12 = rng.random((v1, v2)) < 0.4
            a13 = rng.random((v1, v3)) < 0.4
            a23 = rng.random((v2, v3)) < 0.4
            g = TupleGraph((None, None, None), a12, a13, a23)
            brute = None
            for i in range(v1):
                for j in range(v2):
                    for k in range(v3):
                        if a12[i, j] and a13[i, k] and a23[j, k]:
                            brute = (i, j, k)
                            break
                    if brute:
                        break
                if brute:
                    break
            found = triangle_detect(g)
            assert (found is None) == (brute is None)
            if found is not None:
                i, j, k = found
                assert a12[i, j] and a13[i, k] and a23[j, k]


    def test_float32_hits_match_the_int64_product(self):
        """The float32 path product finds exactly the (i, k) the int64 one
        does: every hit is reported once the hits before it are masked."""
        rng = np.random.default_rng(9)
        for v1, v2, v3, density in (
            (40, 300, 30, 0.9), (60, 50, 70, 0.02), (25, 25, 25, 0.2), (1, 500, 1, 0.5)
        ):
            a12 = rng.random((v1, v2)) < density
            a23 = rng.random((v2, v3)) < density
            paths = a12.astype(np.int64) @ a23.astype(np.int64)
            a13 = rng.random((v1, v3)) < 0.5
            want = np.argwhere((paths > 0) & a13)
            a13 = a13.copy()
            for i, k in want:
                found = triangle_detect(TupleGraph((None,) * 3, a12, a13, a23))
                assert found[0::2] == (i, k)
                assert found[1] == int(np.argmax(a12[i] & a23[:, k]))
                a13[i, k] = False
            assert triangle_detect(TupleGraph((None,) * 3, a12, a13, a23)) is None


class TestOptMin:
    def test_example(self):
        x = [A("000"), A("011"), A("101"), A("110")]
        wit = opt_min_clique(x, 3)
        assert min_pairwise_distance(wit) == 2

    def test_too_few_points(self):
        with pytest.raises(InfeasibleError):
            opt_min_clique([A("0000"), A("1111")], 3)

    def test_any_distinct_points_feasible(self):
        rng = random.Random(1)
        pts = random_points(rng, 6, 5)
        wit = opt_min_clique(pts, 5)
        assert min_pairwise_distance(wit) >= 1

    @pytest.mark.parametrize("s", [3, 4, 5, 6])
    def test_agrees_with_brute(self, s):
        rng = random.Random(100 + s)
        for _ in range(6):
            n = rng.randint(4, 7)
            m = rng.randint(s, min(12, 1 << n))
            pts = random_points(rng, n, m)
            wit = opt_min_clique(pts, s)
            naive = max(
                min(a.distance(b) for a, b in combinations(c, 2))
                for c in combinations(pts, s)
            )
            assert min_pairwise_distance(wit) == naive


class TestOptSum:
    def test_distinct_example(self):
        x = [A("000"), A("011"), A("101"), A("110")]
        wit = opt_sum_clique(x, 3, distinct=True)
        assert sum_pairwise_distance(wit) == 6

    def test_multiset_example(self):
        wit = opt_sum_clique([A("00"), A("11")], 3, distinct=False)
        assert sum_pairwise_distance(wit) == 4

    @pytest.mark.parametrize("s", [3, 4, 5, 6])
    def test_agrees_with_brute(self, s):
        rng = random.Random(200 + s)
        for _ in range(4):
            n = rng.randint(4, 6)
            m = rng.randint(max(3, s), min(9, 1 << n))
            pts = random_points(rng, n, m)
            if m >= s:
                wit = opt_sum_clique(pts, s, distinct=True)
                naive = max(
                    sum(a.distance(b) for a, b in combinations(c, 2))
                    for c in combinations(pts, s)
                )
                assert sum_pairwise_distance(wit) == naive
            wit_m = opt_sum_clique(pts, s, distinct=False)
            naive_m = max(
                sum(a.distance(b) for a, b in combinations(c, 2))
                for c in combinations_with_replacement(pts, s)
            )
            assert sum_pairwise_distance(wit_m) == naive_m


class TestBlockLimit:
    """The largest part-pair block is counted before any tuple is built:
    C(m, g) tuples of size g, C(m + g - 1, g) for multisets."""

    def test_refused_above_the_limit(self, monkeypatch):
        # s=4 splits as (2, 1, 1); 6 points give a 15 x 6 block
        pts = random_points(random.Random(3), 5, 6)
        monkeypatch.setattr(cliques, "CLIQUE_BLOCK_LIMIT", 89)
        for call in (
            lambda: opt_min_clique(pts, 4),
            lambda: opt_sum_clique(pts, 4, distinct=True),
        ):
            with pytest.raises(CapabilityError, match="block of 90 int64 entries"):
                call()
        # 21 multisets of size 2 over 6 points
        with pytest.raises(CapabilityError, match="block of 126 int64 entries"):
            opt_sum_clique(pts, 4, distinct=False)
        monkeypatch.setattr(cliques, "CLIQUE_BLOCK_LIMIT", 90)
        assert min_pairwise_distance(opt_min_clique(pts, 4)) >= 1

    def test_counted_without_points(self):
        """The check needs only the point count, so a caller can refuse
        2^20 points before it builds them."""
        assert cliques.check_clique_size(6, 4, True, False) == (2, 1, 1)
        with pytest.raises(CapabilityError, match="block of 1099511627776 int64"):
            cliques.check_clique_size(1 << 20, 3, False, True)
        with pytest.raises(InfeasibleError, match="need 40 distinct points, have 39"):
            cliques.check_clique_size(39, 40, True, False)

    def test_earlier_errors_come_first(self, monkeypatch):
        monkeypatch.setattr(cliques, "CLIQUE_BLOCK_LIMIT", 0)
        pts = random_points(random.Random(4), 5, 4)
        with pytest.raises(ValueError, match="distinct"):
            opt_min_clique(pts + pts[:1], 3)
        with pytest.raises(ValueError, match="s must be >= 3"):
            opt_sum_clique(pts, 2)
        with pytest.raises(InfeasibleError):
            opt_min_clique(pts, 5)
