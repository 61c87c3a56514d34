"""Self-test of the output checker: correct reports pass, corrupted ones
are rejected.

    python3 bench/selftest.py

Builds small instances with its own generator (no `dispersat` import),
writes a correct report for every workload from the reference optimum,
then corrupts it: a flipped bit, a duplicated member, a diameter off by
one, a vertex dropped from a cover, an UNSAT or INFEASIBLE status on an
instance that has an answer.  A raised exception and a partial set
must count as failed without being called wrong.  Exits 1 if any
corrupted report is accepted or any correct one rejected.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference
import workloads

OUT = Path(__file__).resolve().parent / "out" / "selftest"


def planted(n, m, rng):
    """Random 3-clauses that all keep one hidden point satisfied."""
    hidden = rng.integers(0, 2, size=n)
    clauses = []
    while len(clauses) < m:
        variables = rng.choice(n, size=3, replace=False)
        signs = rng.integers(0, 2, size=3)
        if any(hidden[v] == s for v, s in zip(variables, signs)):
            clauses.append([int(v) + 1 if s else -(int(v) + 1) for v, s in zip(variables, signs)])
    return clauses


def bits(key, n):
    return format(int(key), f"0{n}b")


def _triples(keys, n):
    strings = [bits(k, n) for k in keys]
    for i, a in enumerate(strings):
        for j in range(i + 1, len(strings)):
            for k in range(j + 1, len(strings)):
                yield [a, strings[j], strings[k]]


def best_triple(keys, n):
    """A 3-set reaching reference.opt_min3, by direct search."""
    target = reference.opt_min3(keys)
    return next(t for t in _triples(keys, n) if reference.min_pairwise(t) == target)


def cli_output(assignments, **values):
    report = {"status": "OK", "assignments": assignments, "values": values}
    return (0, json.dumps(report))


def flip_to_invalid(members, valid):
    """Copy of `members` with one bit flipped so that a member is invalid."""
    for i, z in enumerate(members):
        for p in range(len(z)):
            flipped = z[:p] + ("1" if z[p] == "0" else "0") + z[p + 1 :]
            if not valid(flipped):
                return members[:i] + [flipped] + members[i + 1 :]
    raise AssertionError("every single flip stays valid")


def disperse_output(members):
    return cli_output(members, minPD=reference.min_pairwise(members))


def cases():
    rng = np.random.default_rng(20240806)
    OUT.mkdir(parents=True, exist_ok=True)

    # exact: diameter pair plus an optimal triple
    n_big, n_small = 9, 7
    big, small = planted(n_big, 30, rng), planted(n_small, 12, rng)
    inst = {
        "big": workloads.write_file(OUT / "big.cnf", workloads.dimacs(n_big, big)),
        "small": workloads.write_file(OUT / "small.cnf", workloads.dimacs(n_small, small)),
    }
    exact = workloads.WORKLOADS["exact"]
    ref = exact.reference(inst)
    keys = reference.solution_keys(n_big, big)
    dist = np.bitwise_count(keys.view(np.uint64)[:, None] ^ keys.view(np.uint64)[None, :])
    i, j = np.unravel_index(int(np.argmax(dist)), dist.shape)
    pair = [bits(keys[i], n_big), bits(keys[j], n_big)]
    triple = best_triple(reference.solution_keys(n_small, small), n_small)
    good = [cli_output(pair, distance=ref["diameter"]), disperse_output(triple)]
    yield "exact: correct report", exact, inst, ref, good, "accepted"
    off = [cli_output(pair, distance=ref["diameter"] - 1), good[1]]
    yield "exact: diameter off by one", exact, inst, ref, off, "rejected"
    i, j = np.argwhere(dist == ref["diameter"] - 1)[0]
    shorter = [bits(keys[i], n_big), bits(keys[j], n_big)]
    short = [cli_output(shorter, distance=ref["diameter"] - 1), good[1]]
    yield "exact: consistent pair one short of the diameter", exact, inst, ref, short, "rejected"
    worse = next(
        t
        for t in _triples(reference.solution_keys(n_small, small), n_small)
        if reference.min_pairwise(t) < ref["opt_min"]
    )
    yield "exact: triple below the optimum", exact, inst, ref, [good[0], disperse_output(worse)], "rejected"
    closer = [pair[0], pair[0]]
    yield "exact: duplicated diameter member", exact, inst, ref, [cli_output(closer, distance=0), good[1]], "rejected"
    flipped = flip_to_invalid(triple, lambda z: reference.satisfies(small, z))
    yield "exact: flipped bit", exact, inst, ref, [good[0], cli_output(flipped, minPD=ref["opt_min"])], "rejected"
    dup = [triple[0], triple[0], triple[1]]
    yield "exact: duplicated member", exact, inst, ref, [good[0], disperse_output(dup)], "rejected"
    unsat = (1, json.dumps({"status": "UNSAT", "assignments": [], "values": {}}))
    yield "exact: UNSAT on a satisfiable input", exact, inst, ref, [unsat, good[1]], "rejected"
    yield "exact: program raised", exact, inst, ref, None, "failed"

    # one solution: the diameter pair repeats it at distance 0
    lone = "101"
    unique = [
        [v if bit == "0" else -v for v, bit in zip((1, 2, 3), format(p, "03b"))]
        for p in range(8)
        if format(p, "03b") != lone
    ]
    inst = dict(inst, big=workloads.write_file(OUT / "lone.cnf", workloads.dimacs(3, unique)))
    ref = exact.reference(inst)
    lone_pair = [cli_output([lone, lone], distance=0), good[1]]
    yield "exact: one-solution diameter pair", exact, inst, ref, lone_pair, "accepted"

    # ppz-disperse: an optimal triple passes; corruptions do not
    clauses = planted(8, 20, rng)
    inst = {"file": workloads.write_file(OUT / "ppz.cnf", workloads.dimacs(8, clauses)), "seed": "0"}
    ppz = workloads.WORKLOADS["ppz-disperse"]
    ref = ppz.reference(inst)
    triple = best_triple(reference.solution_keys(8, clauses), 8)
    yield "ppz-disperse: correct report", ppz, inst, ref, [disperse_output(triple)], "accepted"
    flipped = flip_to_invalid(triple, lambda z: reference.satisfies(clauses, z))
    yield "ppz-disperse: flipped bit", ppz, inst, ref, [disperse_output(flipped)], "rejected"
    dup = [triple[0], triple[1], triple[1]]
    yield "ppz-disperse: duplicated member", ppz, inst, ref, [disperse_output(dup)], "rejected"
    wrong = [cli_output(triple, minPD=reference.min_pairwise(triple) + 1)]
    yield "ppz-disperse: misreported minPD", ppz, inst, ref, wrong, "rejected"
    partial = (1, json.dumps({"status": "NOT_FOUND", "assignments": triple[:2], "values": {}}))
    yield "ppz-disperse: fewer members found", ppz, inst, ref, [partial], "failed"

    # anchored-search: weighted triple plus near-minimum covers
    anchored = workloads.WORKLOADS["anchored-search"]
    clauses = planted(10, 25, rng)
    inst = {
        "cnf": workloads.write_file(OUT / "anchored.cnf", workloads.dimacs(10, clauses)),
        "graph": workloads.write_file(OUT / "anchored.graph", workloads.random_graph(12, 18, rng)),
    }
    ref = anchored.reference(inst)
    solutions = reference.solution_keys(10, clauses)
    weighted = best_triple(solutions[reference.weights(solutions) >= ref["weight_floor"]], 10)
    covers = reference.cover_keys(*reference.read_graph(Path(inst["graph"]).read_text()))
    low, high = ref["size_window"]
    sizes = reference.weights(covers)
    cover_triple = best_triple(covers[(sizes >= low) & (sizes <= high)], 12)
    good = [disperse_output(weighted), disperse_output(cover_triple)]
    yield "anchored-search: correct report", anchored, inst, ref, good, "accepted"
    flipped = flip_to_invalid(weighted, lambda z: reference.satisfies(clauses, z))
    yield "anchored-search: flipped bit", anchored, inst, ref, [disperse_output(flipped), good[1]], "rejected"
    uncovered = flip_to_invalid(cover_triple, lambda z: reference.is_cover(ref["edges"], z))
    yield "anchored-search: vertex dropped", anchored, inst, ref, [good[0], disperse_output(uncovered)], "rejected"
    dup = [cover_triple[0], cover_triple[0], cover_triple[1]]
    yield "anchored-search: duplicated cover", anchored, inst, ref, [good[0], disperse_output(dup)], "rejected"
    everything = ["1" * 12, "1" * 11 + "0", "0" + "1" * 11]
    yield "anchored-search: covers too large", anchored, inst, ref, [good[0], disperse_output(everything)], "rejected"
    infeasible = (1, json.dumps({"status": "INFEASIBLE", "assignments": [], "values": {}}))
    yield "anchored-search: INFEASIBLE with covers", anchored, inst, ref, [good[0], infeasible], "rejected"


def main():
    failures = 0
    try:
        for name, workload, inst, ref, outputs, expected in cases():
            problems, failed, _ = workload.judge(inst, outputs, ref)
            outcome = "rejected" if problems else "failed" if failed else "accepted"
            verdict = "ok" if outcome == expected else "WRONG"
            failures += outcome != expected
            detail = ": " + "; ".join(problems) if problems else ""
            print(f"{verdict:5} {name}: {outcome}{detail}")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{failures} checker failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
