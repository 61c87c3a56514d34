"""Reference answers and output checks, written apart from `dispersat`.

Nothing here imports `dispersat`: the inputs are read back from the
DIMACS and graph files the benchmark wrote, solution sets are
enumerated by a plain clause evaluator, and every optimum is found by
exhaustive search over the solution set.  An optimum exists only when
the instance has an answer (at least one point for a diameter, three
for an s=3 dispersion); otherwise its function raises, so a reference
that was computed proves the instance has an answer.  Assignments are
0/1 strings with variable 1 leftmost; as integers, variable 1 is the
most significant bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


# -- inputs ------------------------------------------------------------


def read_dimacs(text):
    """(n, clauses) from DIMACS text; clauses are lists of signed ints."""
    n = None
    clauses = []
    current = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] in "c%":
            continue
        if line.startswith("p"):
            n = int(line.split()[2])
            continue
        for token in line.split():
            literal = int(token)
            if literal == 0:
                clauses.append(current)
                current = []
            else:
                current.append(literal)
    if n is None:
        raise ValueError("no 'p cnf' header")
    if current:
        clauses.append(current)
    return n, clauses


def read_graph(text):
    """(vertex count, [(u, v), ...]) from an 'n m' edge-list file."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    vertices = int(rows[0][0])
    return vertices, [(int(u), int(v)) for u, v in rows[1:]]


# -- evaluation --------------------------------------------------------


def satisfies(clauses, assignment):
    """True iff the 0/1 string `assignment` satisfies every clause."""
    for clause in clauses:
        if not any(
            assignment[abs(lit) - 1] == ("1" if lit > 0 else "0") for lit in clause
        ):
            return False
    return True


def is_cover(edges, assignment):
    """True iff the vertices marked 1 in `assignment` touch every edge."""
    return all(assignment[u - 1] == "1" or assignment[v - 1] == "1" for u, v in edges)


def _columns(n):
    """Row i holds the value of variable i+1 in every point of {0,1}^n."""
    points = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((points[None, :] >> shifts[:, None]) & 1).astype(bool)


def solution_keys(n, clauses):
    """Sorted integer keys of every satisfying point, by full enumeration."""
    columns = _columns(n)
    ok = np.ones(1 << n, dtype=bool)
    for clause in clauses:
        hit = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            column = columns[abs(lit) - 1]
            hit |= column if lit > 0 else ~column
        ok &= hit
    return np.flatnonzero(ok).astype(np.int64)


def cover_keys(vertices, edges):
    """Sorted keys of every vertex cover (vertex 1 is the top bit)."""
    columns = _columns(vertices)
    ok = np.ones(1 << vertices, dtype=bool)
    for u, v in edges:
        ok &= columns[u - 1] | columns[v - 1]
    return np.flatnonzero(ok).astype(np.int64)


def weights(keys):
    return np.bitwise_count(np.asarray(keys, dtype=np.int64).view(np.uint64))


def _distances(keys):
    keys = np.asarray(keys, dtype=np.int64).view(np.uint64)
    return np.bitwise_count(keys[:, None] ^ keys[None, :]).astype(np.int16)


def distance(a, b):
    return sum(x != y for x, y in zip(a, b))


def min_pairwise(assignments):
    return min(
        distance(a, b)
        for i, a in enumerate(assignments)
        for b in assignments[i + 1 :]
    )


# -- optima ------------------------------------------------------------


def diameter(keys):
    """Largest Hamming distance between two points of `keys`."""
    if len(keys) == 0:
        raise ValueError("no points")
    keys = np.asarray(keys, dtype=np.int64).view(np.uint64)
    best = 0
    for start in range(0, len(keys), 512):
        block = keys[start : start + 512]
        best = max(best, int(np.bitwise_count(block[:, None] ^ keys[None, :]).max()))
    return best


def opt_min3(keys):
    """Largest minimum pairwise distance over all 3-sets of distinct points.

    For each first point i, the best pair (j, k) after it is the maximum
    of min(d(i,j), d(i,k), d(j,k)); the diagonal j = k scores 0, so it
    never wins once any 3-set exists.
    """
    count = len(keys)
    if count < 3:
        raise ValueError(f"{count} points, need at least 3")
    dist = _distances(keys)
    best = 0
    for i in range(count - 2):
        row = dist[i, i + 1 :]
        if row.max() <= best:
            continue
        inner = np.minimum(np.minimum(row[:, None], row[None, :]), dist[i + 1 :, i + 1 :])
        best = max(best, int(inner.max()))
    return best


# -- checks ------------------------------------------------------------


def check_members(members, s, valid):
    """Problems with an emitted set: size, distinctness, validity."""
    problems = []
    if len(members) != s:
        problems.append(f"{len(members)} members, expected {s}")
    if len(set(members)) != len(members):
        problems.append("duplicate member")
    for z in members:
        if not valid(z):
            problems.append(f"invalid member {z}")
    return problems


def check_min_report(report, s, valid, bound, exact):
    """Check a min-dispersion report against the optimum `bound`.

    Returns (problems, minPD / bound).  `exact` asks for equality with
    the optimum; otherwise the reported value may not exceed it.
    """
    members = report.get("assignments", [])
    problems = check_members(members, s, valid)
    if problems:
        return problems, 0.0
    value = min_pairwise(members)
    if report.get("values", {}).get("minPD") != value:
        problems.append(f"reported minPD {report['values'].get('minPD')} != {value}")
    if exact and value != bound:
        problems.append(f"minPD {value} != optimum {bound}")
    if value > bound:
        problems.append(f"minPD {value} exceeds optimum {bound}")
    return problems, value / bound


def size_window(opt, delta):
    """Inclusive integer range of sizes in [(1-delta) opt, (1+delta) opt]."""
    delta = Fraction(delta)
    low = (1 - delta) * opt
    high = (1 + delta) * opt
    return int(-(-low // 1)), int(high // 1)
