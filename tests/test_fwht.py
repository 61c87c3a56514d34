import importlib
import random
from itertools import combinations, product

import numpy as np
import pytest

import dispersat
import dispersat.fwht as fwht_module
from dispersat.brute import _solution_space, brute_opt, enumerate_solutions, solution_keys
from dispersat.cnf import (
    Assignment,
    CapabilityError,
    CnfFormula,
    InfeasibleError,
    UnsatError,
    evaluate_keys,
)
from dispersat.fwht import (
    _fwht_inplace,
    _word,
    convolve,
    exact_diameter,
    exact_dispersion,
    fwht,
    indicator_table,
)
from dispersat.generators import planted_kcnf
from dispersat.measures import (
    DispersionObjective,
    min_pairwise_distance,
    popcount,
    sum_pairwise_distance,
)


def A(s):
    return Assignment.from_string(s)


def random_formula(rng, n, k=3, m=None):
    m = m if m is not None else 2 * n
    clauses = [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), min(n, k))]
        for _ in range(m)
    ]
    return CnfFormula(n, clauses)


@pytest.fixture
def words(monkeypatch):
    """The word of every `convolve` call, as a dtype, in call order."""
    seen = []

    def spy(f, word, ghat=None):
        seen.append(np.dtype(word))
        return convolve(f, word, ghat)

    monkeypatch.setattr(fwht_module, "convolve", spy)
    return seen


@pytest.fixture
def convolutions(monkeypatch):
    """The table length and the word, as a dtype, of every `convolve`
    call, in call order."""
    seen = []

    def spy(f, word, ghat=None):
        seen.append((len(f), np.dtype(word)))
        return convolve(f, word, ghat)

    monkeypatch.setattr(fwht_module, "convolve", spy)
    return seen


def test_submodule_is_not_shadowed():
    assert importlib.import_module("dispersat.fwht") is dispersat.fwht
    assert fwht_module.__name__ == "dispersat.fwht"


def _direct(a, b):
    """(a*b)(y) for every y, by the double sum."""
    return [sum(int(a[x]) * int(b[x ^ y]) for x in range(len(a))) for y in range(len(a))]


class TestTransform:
    def test_or_indicator(self):
        for dtype in (np.int64, bool):  # a bool table is widened after
            out = fwht(np.array([0, 1, 1, 1], dtype=dtype), np.int64)
            assert out.dtype == np.int64
            assert out.tolist() == [3, -1, -1, -1]

    def test_delta_to_constant(self):
        assert fwht(np.array([1] + [0] * 7), np.int64).tolist() == [1] * 8

    def test_involution_identity(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-5, 6, size=64)
        assert (fwht(fwht(v, np.int64), np.int64) == 64 * v).all()

    def test_limit(self, monkeypatch):
        monkeypatch.setattr(fwht_module, "FWHT_LIMIT", 2)
        with pytest.raises(CapabilityError):
            indicator_table(CnfFormula(3, []))


class TestConvolve:
    def test_self_convolution_counts(self):
        f = np.array([0, 1, 1, 1])
        assert convolve(f, np.int64).tolist() == [3, 2, 2, 2]

    def test_delta_shift(self):
        a, b = 3, 5
        f = np.eye(8, dtype=np.int64)[a]
        g = np.eye(8, dtype=np.int64)[b]
        conv = convolve(f, np.int64, fwht(g, np.int64))
        expected = np.zeros(8, dtype=np.int64)
        expected[a ^ b] = 1
        assert (conv == expected).all()

    def test_fubini(self):
        rng = np.random.default_rng(1)
        f = rng.integers(0, 2, size=256)
        g = rng.integers(0, 2, size=256)
        conv = convolve(f, np.int64, fwht(g, np.int64))
        assert conv.sum() == f.sum() * g.sum()

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(2)
        f = rng.integers(0, 2, size=16)
        g = rng.integers(0, 2, size=16)
        conv = convolve(f, np.int64, fwht(g, np.int64))
        assert conv.tolist() == _direct(f, g)

    @pytest.mark.parametrize(
        "top, word", [(40, np.int32), (2**23 - 1, np.int32), (2**23, np.int64), (2**28, np.int64)]
    )
    def test_signed_values_in_either_word(self, words, top, word):
        """f = 1 everywhere and max |g| = top: 2^4 ||f||_1 ||g||_inf bounds
        2^4 |f*g| and is below 2^31 exactly when top < 2^23, so f*g fits
        `word`; int64 fits every top.  Each word its bound admits matches
        the direct double sum, for f*g and for g*g."""
        rng = np.random.default_rng(top)
        f = np.ones(16, dtype=np.int64)
        g = rng.integers(-top, top + 1, size=16)
        g[5] = -top
        for a, b in ((f, g), (g, g)):
            bound = 16 * int(np.abs(a).sum()) * int(np.abs(b).max())
            for w in (np.int32, np.int64) if bound < 2**31 else (np.int64,):
                ghat = None if a is b else fwht(b, w)
                assert fwht_module.convolve(a, w, ghat).tolist() == _direct(a, b)
        assert words[0] == np.dtype(word)

    def test_zero_count_is_solution_count(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 8)
            f = random_formula(rng, n)
            table = indicator_table(f)
            conv = convolve(table, _word(n, int(table.sum())))
            assert conv[0] == len(enumerate_solutions(f))
            assert conv.min() >= 0
            assert conv.max() <= 1 << n


class TestExactDiameter:
    def test_or_clause(self):
        z1, z2 = exact_diameter(CnfFormula(2, [(1, 2)]))
        assert z1.distance(z2) == 2
        assert {z1, z2} == {A("01"), A("10")}

    def test_unique_solution(self):
        z1, z2 = exact_diameter(CnfFormula(2, [(1,), (-2,)]))
        assert z1 == z2 == A("10")

    def test_trivially_true(self):
        z1, z2 = exact_diameter(CnfFormula(5, []))
        assert z1.distance(z2) == 5

    def test_unsat(self):
        with pytest.raises(UnsatError):
            exact_diameter(CnfFormula(1, [(1,), (-1,)]))

    def test_agreement_with_brute(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 9)
            f = random_formula(rng, n, k=rng.choice([2, 3]))
            sols = enumerate_solutions(f).members
            if not sols:
                with pytest.raises(UnsatError):
                    exact_diameter(f)
                continue
            diam = max(a.distance(b) for a in sols for b in sols)
            z1, z2 = exact_diameter(f)
            assert z1.distance(z2) == diam


def _brute_diameter_pair(formula):
    """The pair the tie rule picks, from every pairwise difference: the
    heaviest realized y, then the smallest, then the first x."""
    n = formula.n
    keys = np.flatnonzero(evaluate_keys(formula, np.arange(1 << n)))
    realized = np.zeros(1 << n, dtype=bool)
    for start in range(0, len(keys), 512):
        realized[(keys[start:start + 512, None] ^ keys[None, :]).ravel()] = True
    diffs = np.flatnonzero(realized)
    weights = [bin(int(d)).count("1") for d in diffs]
    y = int(diffs[weights.index(max(weights))])
    solutions = set(keys.tolist())
    x = next(k for k in keys.tolist() if k ^ y in solutions)
    return x, x ^ y


class TestDiameterRoutes:
    def _cases(self):
        """Random, planted and backboned formulas at n = 1..16, sparse to
        dense."""
        rng = random.Random(23)
        nrng = np.random.default_rng(23)
        cases = []
        for n in range(1, 17):
            cases.append(random_formula(rng, n, k=rng.choice([2, 3]), m=rng.randint(0, 3 * n)))
            planted, (z,) = planted_kcnf(n, 3, rng.randint(n, 5 * n), nrng)
            units = [(v if z.bit(v) else -v,) for v in rng.sample(range(1, n + 1), rng.randint(0, n // 2))]
            cases += [planted, CnfFormula(n, list(planted.clauses) + units)]
        return [f for f in cases if solution_keys(f).size]

    def test_routes_agree(self, monkeypatch):
        """The list route gives the FWHT route's pair, also when its row
        blocks hold one row or a few entries."""
        cases = self._cases()
        routes = set()
        for f in cases:
            keys, bits, base = space = _solution_space(f)
            pair = fwht_module._fwht_diameter(f, *space)
            assert fwht_module._list_diameter(f, *space) == pair
            z1, z2 = exact_diameter(f)
            assert (z1.key, z2.key) == pair
            routes.add(len(keys) ** 2 > len(bits) << len(bits))
        assert routes == {False, True}
        for entries in (1, 7):
            monkeypatch.setattr(fwht_module, "_ROW_ENTRIES", entries)
            for f in cases[::3]:
                space = _solution_space(f)
                assert fwht_module._list_diameter(f, *space) == fwht_module._fwht_diameter(f, *space)

    def test_route_follows_the_cost(self, convolutions):
        """|Omega|^2 key pairs against n' 2^n' transform entries: a sparse
        n = 18 planted space convolves nothing, a dense one convolves once."""
        sparse, _ = planted_kcnf(18, 3, 72, np.random.default_rng(101))
        keys, bits, _ = _solution_space(sparse)
        assert len(keys) ** 2 < len(bits) << len(bits)
        z1, z2 = exact_diameter(sparse)
        assert convolutions == []
        assert (z1.key, z2.key) == _brute_diameter_pair(sparse)
        dense = CnfFormula(18, [(1, 2), (-3, 4)])
        exact_diameter(dense)
        assert [size for size, _ in convolutions] == [1 << 18]


class TestWord:
    def test_boundary(self):
        # 2^18 * 8191 = 2^31 - 2^18 fits int32; 2^18 * 8192 = 2^31 does not
        assert _word(18, 8191) is np.int32
        assert _word(18, 8192) is np.int64
        assert _word(0, 2**31 - 1) is np.int32
        assert _word(26, 1 << 26) is np.int64

    @pytest.mark.parametrize("count, word", [(8192, np.int64), (8191, np.int32)])
    def test_diameter_at_the_boundary(self, words, count, word):
        """Five disjoint equivalences x_a = x_(a+1) leave 2^13 = 8192
        solutions with all 18 coordinates free, so the table keeps 2^18
        entries; an 18-literal clause against the first of them, all
        zeros, leaves 8191, and moves x."""
        pairs = [c for a in (1, 4, 7, 11, 15) for c in ((a, -(a + 1)), (-a, a + 1))]
        f = CnfFormula(18, pairs + ([] if count == 8192 else [tuple(range(1, 19))]))
        z1, z2 = exact_diameter(f)
        assert words == [np.dtype(word)]
        assert int(evaluate_keys(f, np.arange(1 << 18)).sum()) == count
        assert (z1.key, z2.key) == _brute_diameter_pair(f)

    def test_backbone_narrows_the_word(self, convolutions):
        """Five unit clauses also leave 8192 solutions, but fix five
        coordinates: the table has 2^13 entries, and 2^13 * 8192 = 2^26
        fits int32."""
        f = CnfFormula(18, [(1,), (-4,), (7,), (-11,), (15,)])
        z1, z2 = exact_diameter(f)
        assert convolutions == [(1 << 13, np.dtype(np.int32))]
        assert (z1.key, z2.key) == _brute_diameter_pair(f)


class TestExactDispersion:
    def test_sum_example(self):
        wit = exact_dispersion(CnfFormula(2, [(1, 2)]), 3, DispersionObjective.SUM_PD)
        assert sum_pairwise_distance(wit) == 4

    def test_min_example(self):
        wit = exact_dispersion(CnfFormula(2, [(1, 2)]), 3, DispersionObjective.MIN_PD)
        assert min_pairwise_distance(wit) == 1
        assert sorted(z.to_string() for z in wit) == ["01", "10", "11"]

    def test_distinct_matches_brute(self):
        f = CnfFormula(3, [(1, 2, 3)])
        wit = exact_dispersion(f, 3, DispersionObjective.SUM_PD_DISTINCT)
        val, _ = brute_opt(f, 3, DispersionObjective.SUM_PD_DISTINCT)
        assert sum_pairwise_distance(wit) == val
        assert len(set(wit.members)) == 3

    def test_infeasible_distinct(self):
        with pytest.raises(InfeasibleError):
            exact_dispersion(
                CnfFormula(2, [(1,), (-2,)]), 2, DispersionObjective.MIN_PD
            )

    def test_unsat(self):
        with pytest.raises(UnsatError):
            exact_dispersion(
                CnfFormula(1, [(1,), (-1,)]), 2, DispersionObjective.SUM_PD
            )

    def test_work_limit(self):
        with pytest.raises(CapabilityError):
            exact_dispersion(CnfFormula(20, []), 4, DispersionObjective.SUM_PD)

    @pytest.mark.parametrize("s, n", [(3, 12), (4, 8)])
    def test_int16_values_at_the_work_limit(self, monkeypatch, s, n):
        """Under DISPERSION_WORK_LIMIT no folded value exceeds
        n floor(s^2/4) (a coordinate on which c of the s points are 1 adds
        c (s - c)), at most 156 over every allowed (s, n), so the value
        tables are int16.  At (s-1) n = 24 the all-true formula reaches
        the bound, and the tables hold it."""
        limit = fwht_module.DISPERSION_WORK_LIMIT
        largest = max(limit // (t - 1) * (t * t // 4) for t in range(2, limit + 2))
        assert largest == 156 < np.iinfo(np.int16).max
        assert (s - 1) * n == limit
        seen = []
        chunk_values = fwht_module._chunk_values

        def spy(*args):
            vals = chunk_values(*args)
            seen.append((vals.dtype, int(vals.max())))
            return vals

        monkeypatch.setattr(fwht_module, "_chunk_values", spy)
        wit = exact_dispersion(CnfFormula(n, []), s, DispersionObjective.SUM_PD)
        assert sum_pairwise_distance(wit) == n * (s * s // 4)
        assert {dtype for dtype, _ in seen} == {np.dtype(np.int16)}
        assert max(top for _, top in seen) == n * (s * s // 4)

    @pytest.mark.parametrize("objective", list(DispersionObjective))
    @pytest.mark.parametrize("s", [2, 3])
    def test_agreement_with_brute(self, objective, s):
        rng = random.Random(10 + s)
        done = 0
        while done < 12:
            n = rng.randint(2, 6)
            f = random_formula(rng, n)
            sols = enumerate_solutions(f).members
            if not sols:
                continue
            needs_set = objective is not DispersionObjective.SUM_PD
            if needs_set and len(sols) < s:
                continue
            val, _ = brute_opt(f, s, objective)
            wit = exact_dispersion(f, s, objective)
            measure = (
                min_pairwise_distance
                if objective is DispersionObjective.MIN_PD
                else sum_pairwise_distance
            )
            assert measure(wit) == val
            done += 1


def _ordered_tuple_witness(formula, s, objective):
    """The sorted keys of the ordered solution tuple (p_0, ..., p_{s-1})
    that wins by the rule the FWHT search follows: the best value, then
    the smallest (w_1, ..., w_{s-2}) with w_i = p_1 ^ p_{i+1}, then the
    smallest y = p_0 ^ p_1, then the smallest x = p_0; the points all
    differ when the objective is distinct.  None when no tuple qualifies."""
    keys = solution_keys(formula)
    points = [grid.ravel() for grid in np.meshgrid(*[keys] * s, indexing="ij")]
    pairs = [popcount(points[a] ^ points[b]) for a, b in combinations(range(s), 2)]
    fold = np.minimum if objective is DispersionObjective.MIN_PD else np.add
    value = fold.reduce(pairs)
    if objective.distinct:
        value[np.logical_or.reduce([p == 0 for p in pairs])] = -1
    offsets = [points[1] ^ p for p in points[2:]]
    order = np.lexsort((points[0], points[0] ^ points[1], *offsets[::-1], -value))
    if value[order[0]] < 0:
        return None
    return sorted(int(p[order[0]]) for p in points)


class TestTupleTieRule:
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_witness_is_the_first_ordered_tuple(self, s):
        """exact_dispersion's witness against the ordered-tuple rule, on
        random and planted formulas with n <= 7 and few enough solutions
        that every ordered tuple can be listed."""
        rng = random.Random(60 + s)
        nrng = np.random.default_rng(60 + s)
        cases = 0
        while cases < 50:
            n = rng.randint(1, 7)
            if rng.random() < 0.5:
                f = _random_formula_any_width(rng, n)
            else:
                f, _ = planted_kcnf(n, rng.randint(1, 3), rng.randint(1, 4 * n), nrng)
            if not 0 < len(solution_keys(f)) <= (64, 24, 12)[s - 2]:
                continue
            for objective in DispersionObjective:
                expected = _ordered_tuple_witness(f, s, objective)
                if expected is None:
                    with pytest.raises(InfeasibleError):
                        exact_dispersion(f, s, objective)
                else:
                    assert [z.key for z in exact_dispersion(f, s, objective)] == expected
            cases += 1


def _copying_fwht(v):
    """The per-level copying butterfly the in-place one replaced."""
    h = 1
    size = v.shape[0]
    while h < size:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        v[:, 0, :] = a + v[:, 1, :]
        v[:, 1, :] = a - v[:, 1, :]
        v = v.reshape(size)
        h *= 2
    return v


def _pair_stats_loop(diffs, pc):
    cmin = None
    csum = 0
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            d = int(pc[diffs[i] ^ diffs[j]])
            csum += d
            cmin = d if cmin is None else min(cmin, d)
    return cmin, csum


def _per_offset_dispersion(formula, s, objective):
    """One FWHT round trip per offset tuple over all 2^n offsets: the
    loop the batched, difference-set-restricted search replaced."""
    n = formula.n
    size = 1 << n
    idx = np.arange(size)
    f = evaluate_keys(formula, idx).astype(np.int64)
    fb = f.astype(bool)
    num_solutions = int(f.sum())
    if num_solutions == 0:
        raise UnsatError("no solutions")
    needs_distinct = objective is not DispersionObjective.SUM_PD
    if needs_distinct and num_solutions < s:
        raise InfeasibleError("too few solutions")
    pc = np.array([bin(i).count("1") for i in range(size)], dtype=np.int64)
    fhat = _copying_fwht(f.copy())
    best_value = -1
    best_diffs = None
    for w_tuple in product(range(size), repeat=s - 2):
        if objective is DispersionObjective.SUM_PD_DISTINCT:
            if 0 in w_tuple or len(set(w_tuple)) != len(w_tuple):
                continue
        g = f.copy()
        for w in w_tuple:
            g = g * f[idx ^ w]
        back = _copying_fwht(_copying_fwht(g.copy()) * fhat)
        assert not (back & (size - 1)).any()
        mask = (back >> n) > 0
        if objective is DispersionObjective.SUM_PD_DISTINCT:
            mask[0] = False
            for w in w_tuple:
                mask[w] = False
        if not mask.any():
            continue
        cmin, csum = _pair_stats_loop((0,) + w_tuple, pc)
        per_y = pc[idx].copy()
        for w in w_tuple:
            per_y = per_y + pc[idx ^ w]
        if objective is DispersionObjective.MIN_PD:
            vals = pc[idx].copy()
            for w in w_tuple:
                np.minimum(vals, pc[idx ^ w], out=vals)
            if cmin is not None:
                np.minimum(vals, cmin, out=vals)
        else:
            vals = per_y + csum
        vals = np.where(mask, vals, -1)
        y = int(np.argmax(vals))
        if vals[y] > best_value:
            best_value = int(vals[y])
            best_diffs = [0, y] + [y ^ w for w in w_tuple]
    if best_diffs is None:
        raise InfeasibleError("no qualifying tuple")
    ok = fb.copy()
    for d in best_diffs[1:]:
        ok = ok & fb[idx ^ d]
    x = int(np.argmax(ok))
    return sorted((x ^ d) for d in best_diffs)


class TestInPlaceButterfly:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_columns_match_copying_butterfly(self, n):
        rng = np.random.default_rng(n)
        tables = rng.integers(-50, 51, size=(1 << n, 4), dtype=np.int64)
        batched = _fwht_inplace(tables.copy())
        for column, out in zip(tables.T, batched.T):
            assert (_fwht_inplace(column.copy()) == out).all()
            assert (_copying_fwht(column.copy()) == out).all()

    def test_wrapping_intermediates_match(self):
        rng = np.random.default_rng(7)
        info = np.iinfo(np.int64)
        tables = rng.integers(info.min, info.max, size=(64, 3), dtype=np.int64)
        tables[:, 0] = info.max
        tables[:, 1] = info.min
        batched = _fwht_inplace(tables.copy())
        for column, out in zip(tables.T, batched.T):
            assert (_copying_fwht(column.copy()) == out).all()
            assert (_fwht_inplace(column.copy()) == out).all()

    def test_wrapping_intermediates_match_int32(self):
        rng = np.random.default_rng(8)
        info = np.iinfo(np.int32)
        tables = rng.integers(info.min, info.max, size=(64, 3), dtype=np.int32)
        tables[:, 0] = info.max
        tables[:, 1] = info.min
        batched = _fwht_inplace(tables.copy())
        for column, out in zip(tables.T, batched.T):
            assert (_copying_fwht(column.copy()) == out).all()
            assert (_fwht_inplace(column.copy()) == out).all()
        # the int32 results are the int64 results mod 2^32
        wide = _fwht_inplace(tables.astype(np.int64))
        assert (wide.astype(np.int32) == batched).all()

    def test_works_in_place(self):
        v = np.array([0, 1, 1, 1], dtype=np.int64)
        assert _fwht_inplace(v) is v
        assert v.tolist() == [3, -1, -1, -1]


def _random_formula_any_width(rng, n):
    clauses = []
    for _ in range(rng.randint(0, n + 2)):
        width = rng.randint(1, min(n, 3)) if n else 0
        clauses.append(
            [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), width)]
        )
    return CnfFormula(n, clauses)


class TestBatchedDispersion:
    @pytest.mark.parametrize("objective", list(DispersionObjective))
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matches_per_offset_loop(self, monkeypatch, objective, s):
        rng = random.Random(100 * s + len(objective.value))
        default = fwht_module._CHUNK_ENTRIES
        for trial in range(10):
            n = rng.randint(1, 6 if s == 4 else 7)
            f = _random_formula_any_width(rng, n)
            try:
                expected = _per_offset_dispersion(f, s, objective)
            except (UnsatError, InfeasibleError) as err:
                with pytest.raises(type(err)):
                    exact_dispersion(f, s, objective)
                continue
            # one tuple per chunk, three per chunk, and the default chunk
            for entries in (1 << n, 3 << n, default):
                monkeypatch.setattr(fwht_module, "_CHUNK_ENTRIES", entries)
                got = exact_dispersion(f, s, objective)
                assert [z.key for z in got] == expected

    @pytest.mark.parametrize("objective", list(DispersionObjective))
    def test_int64_word_gives_the_same_keys(self, monkeypatch, objective):
        """Few solutions put every table in int32; forcing int64 must not
        move a key."""
        rng = random.Random(31 + len(objective.value))
        cases = []
        for _ in range(12):
            n = rng.randint(1, 7)
            f = _random_formula_any_width(rng, n)
            for s in (2, 3, 4) if n <= 6 else (2, 3):
                try:
                    cases.append((f, s, [z.key for z in exact_dispersion(f, s, objective)]))
                except (UnsatError, InfeasibleError):
                    pass
        assert cases
        monkeypatch.setattr(fwht_module, "_word", lambda n, largest: np.int64)
        for f, s, keys in cases:
            assert [z.key for z in exact_dispersion(f, s, objective)] == keys


def _free_coordinates(formula):
    """n', the number of coordinates on which the solutions of
    `formula` disagree, from its brute-force solution keys."""
    keys = np.flatnonzero(evaluate_keys(formula, np.arange(1 << formula.n)))
    return bin(int(np.bitwise_or.reduce(keys)) ^ int(np.bitwise_and.reduce(keys))).count("1")


def _backbone_formulas():
    """Satisfiable formulas at n = 0..7 with forced backbones: random
    clauses plus unit clauses on 0..n distinct variables, so that n'
    ranges from 0 (one solution) to n (no backbone)."""
    rng = random.Random(19)
    formulas = [CnfFormula(0, []), CnfFormula(1, []), CnfFormula(1, [(-1,)]), CnfFormula(5, [])]
    while len(formulas) < 40:
        n = rng.randint(1, 7)
        units = [(rng.choice([-1, 1]) * v,) for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
        f = CnfFormula(n, list(_random_formula_any_width(rng, n).clauses) + units)
        if evaluate_keys(f, np.arange(1 << n)).any():
            formulas.append(f)
    return formulas


class TestProjection:
    def test_cases_cover_every_width(self):
        widths = [(f.n, _free_coordinates(f)) for f in _backbone_formulas()]
        assert {n for n, _ in widths} >= {0, 1, 7}
        assert any(free == 0 < n for n, free in widths)
        assert any(0 < free < n for n, free in widths)
        assert any(free == n > 1 for n, free in widths)

    def test_table_is_the_slice_at_the_base(self):
        """Random solution sets that agree on the coordinates of a random
        mask, projected on the coordinates they disagree on: the table holds fb
        at the expanded keys, in key order, and is a view of fb when no
        coordinate is constant."""
        rng = np.random.default_rng(5)
        for n in range(8):
            for _ in range(8):
                keys = rng.integers(0, 1 << n, size=rng.integers(1, 6))
                mask = int(rng.integers(0, 1 << n))
                fb = np.zeros(1 << n, dtype=bool)
                fb[(keys & ~mask) | (int(keys[0]) & mask)] = True
                solutions = np.flatnonzero(fb)
                base = int(np.bitwise_and.reduce(solutions))
                free = int(np.bitwise_or.reduce(solutions)) ^ base
                bits = [bit for bit in range(n) if free >> bit & 1]
                table = fwht_module._project(fb, bits, base)
                assert len(table) == 1 << len(bits)
                full = [fwht_module._expand(k, bits, base) for k in range(len(table))]
                assert full == sorted(full)
                assert table.tolist() == fb[full].tolist()
                assert set(solutions.tolist()) <= set(full)
                if len(bits) == n:
                    assert np.shares_memory(table, fb)

    def test_diameter_matches_brute_pair(self, convolutions):
        """Both diameter routes, called directly, give the brute pair; the
        FWHT route convolves once, at 2^n'."""
        for f in _backbone_formulas():
            space = _solution_space(f)
            expected = _brute_diameter_pair(f)
            assert fwht_module._list_diameter(f, *space) == expected
            del convolutions[:]
            assert fwht_module._fwht_diameter(f, *space) == expected
            assert [size for size, _ in convolutions] == [1 << _free_coordinates(f)]
            z1, z2 = exact_diameter(f)
            assert (z1.key, z2.key) == expected

    @pytest.mark.parametrize("objective", list(DispersionObjective))
    @pytest.mark.parametrize("s", [2, 3])
    def test_dispersion_matches_brute(self, convolutions, objective, s):
        for f in _backbone_formulas():
            del convolutions[:]
            try:
                expected = _per_offset_dispersion(f, s, objective)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    exact_dispersion(f, s, objective)
                continue
            got = exact_dispersion(f, s, objective)
            assert [z.key for z in got] == expected
            value, _ = brute_opt(f, s, objective)
            measure = (
                min_pairwise_distance
                if objective is DispersionObjective.MIN_PD
                else sum_pairwise_distance
            )
            assert measure(got) == value
            assert convolutions and {size for size, _ in convolutions} == {1 << _free_coordinates(f)}


class TestFailFast:
    @pytest.fixture
    def no_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was allocated before the size check")

        for name in ("ones", "zeros", "empty", "arange"):
            monkeypatch.setattr(np, name, refuse)

    def test_refused_without_allocating(self, no_tables, monkeypatch):
        big = CnfFormula(27, [(1, 2)])
        with pytest.raises(CapabilityError):
            indicator_table(big)
        with pytest.raises(CapabilityError):
            exact_diameter(big)
        with pytest.raises(CapabilityError):
            exact_dispersion(CnfFormula(25, []), 2, DispersionObjective.MIN_PD)
        monkeypatch.setattr(fwht_module, "FWHT_LIMIT", 11)
        with pytest.raises(CapabilityError):
            exact_dispersion(CnfFormula(12, []), 2, DispersionObjective.SUM_PD)
        with pytest.raises(CapabilityError):
            exact_dispersion(CnfFormula(9, []), 4, DispersionObjective.SUM_PD)

    def test_message_gives_bytes(self):
        with pytest.raises(CapabilityError, match=r"2\^27 entries would take \d+ bytes"):
            indicator_table(CnfFormula(27, []))
