"""The three workloads: how each makes its seeded instances, runs one
instance through `dispersat`'s public entry points, and checks the
outputs against `reference`.

An instance is one round of the workload's fixed operations (one or two
CLI commands) on one generated input.  `ds` is the namespace of
imported `dispersat` modules; every call goes through a module
attribute, so a traced run sees the wrappers that `spans` installs.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference


def _rng(seed, tag, index):
    return np.random.default_rng(np.random.SeedSequence([seed, tag, index]))


def write_file(path, text):
    Path(path).write_text(text, encoding="utf-8")
    return str(path)


def dimacs(n, clauses):
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def _count(ds, formula):
    """Solution count by `dispersat`'s own evaluator (set-up only)."""
    keys = np.arange(1 << formula.n, dtype=np.int64)
    return int(ds.cnf.evaluate_keys(formula, keys).sum())


def _planted(ds, n, k, m, rng, low=3, high=None):
    """A planted k-CNF with between `low` and `high` solutions."""
    while True:
        formula, _ = ds.generators.planted_kcnf(n, k, m, rng)
        count = _count(ds, formula)
        if count >= low and (high is None or count <= high):
            return formula


def random_graph(vertices, edges, rng):
    pairs = [(u, v) for u in range(1, vertices + 1) for v in range(u + 1, vertices + 1)]
    chosen = sorted(rng.choice(len(pairs), size=edges, replace=False))
    lines = [f"{vertices} {edges}"] + [f"{pairs[i][0]} {pairs[i][1]}" for i in chosen]
    return "\n".join(lines) + "\n"


def call_cli(ds, argv):
    """dispersat.cli.run in-process; (exit code, captured stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ds.cli.run(argv)
    return code, buffer.getvalue()


def _report(output):
    """The JSON report of a CLI call, or None when the call failed."""
    code, text = output
    if code != 0:
        return None
    report = json.loads(text)
    return report if report.get("status") == "OK" else None


class Workload:
    name = ""
    pool = 0  # instances generated in set-up; each pass runs them all, in order

    def generate(self, ds, seed, directory):
        return [self.instance(ds, seed, i, directory) for i in range(self.pool)]

    def judge(self, inst, outputs, ref):
        """(problems, failed, quality ratio) of one instance's outputs.

        Outputs of None mean the program raised: the instance failed, but
        no output is wrong.  A reference exists only for an instance that
        has an answer (see `reference`), so an UNSAT or INFEASIBLE status
        is a wrong output.  Any other non-OK status is a failure.
        """
        if outputs is None:
            return [], True, 0.0
        statuses = [json.loads(text).get("status") if text.strip() else None for _, text in outputs]
        refused = [s for s in statuses if s in ("UNSAT", "INFEASIBLE")]
        if refused:
            return [f"status {s}, but the reference has an answer" for s in refused], True, 0.0
        if any(_report(o) is None for o in outputs):
            return [], True, 0.0
        problems, ratio = self.check(inst, outputs, ref)
        return problems, bool(problems), ratio

    def canonical(self, outputs):
        """CLI outputs without the run-dependent wall time, so that two
        runs of one instance can be compared."""
        if outputs is None:
            return None
        out = []
        for code, text in outputs:
            report = json.loads(text) if text.strip() else {}
            report.pop("wall_time_ms", None)
            out.append((code, report))
        return out


class Exact(Workload):
    """diameter --algo fwht at n=18 plus s=3 dispersion --algo fwht at n=10."""

    name = "exact"
    pool = 36

    def instance(self, ds, seed, index, directory):
        rng = _rng(seed, 1, index)
        big, _ = ds.generators.planted_kcnf(18, 3, 72, rng)
        small = _planted(ds, 10, 3, 30, rng)
        return {
            "big": write_file(directory / f"exact-{index}-n18.cnf", dimacs(18, big.clauses)),
            "small": write_file(directory / f"exact-{index}-n10.cnf", dimacs(10, small.clauses)),
        }

    def run(self, ds, inst):
        return [
            call_cli(ds, ["diameter", "--algo", "fwht", inst["big"]]),
            call_cli(ds, ["disperse", "--s", "3", "--objective", "min", "--algo", "fwht", inst["small"]]),
        ]

    def reference(self, inst):
        n, big = reference.read_dimacs(Path(inst["big"]).read_text())
        m, small = reference.read_dimacs(Path(inst["small"]).read_text())
        return {
            "big": big,
            "small": small,
            "diameter": reference.diameter(reference.solution_keys(n, big)),
            "opt_min": reference.opt_min3(reference.solution_keys(m, small)),
        }

    def check(self, inst, outputs, ref):
        diameter, dispersion = (_report(o) for o in outputs)
        pair = diameter["assignments"]
        # a one-solution formula has diameter 0: the pair may repeat a point
        problems = [f"invalid member {z}" for z in pair if not reference.satisfies(ref["big"], z)]
        if len(pair) != 2:
            problems.append(f"{len(pair)} members, expected 2")
        if not problems:
            distance = reference.distance(*pair)
            if diameter["values"].get("distance") != distance:
                problems.append(f"reported distance {diameter['values'].get('distance')} != {distance}")
            if distance != ref["diameter"]:
                problems.append(f"diameter {distance} != reference {ref['diameter']}")
        more, ratio = reference.check_min_report(
            dispersion, 3, lambda z: reference.satisfies(ref["small"], z), ref["opt_min"], exact=True
        )
        return problems + more, ratio


class PpzDisperse(Workload):
    """The c09 family: disperse --s 3 --objective min --algo ppz."""

    name = "ppz-disperse"
    pool = 6

    def instance(self, ds, seed, index, directory):
        formula = _planted(ds, 8, 7, 60, _rng(seed, 2, index), low=3, high=400)
        return {
            "file": write_file(directory / f"ppz-{index}.cnf", dimacs(8, formula.clauses)),
            "seed": str(seed * 1000 + index),
        }

    def run(self, ds, inst):
        argv = ["disperse", "--s", "3", "--objective", "min", "--algo", "ppz"]
        return [call_cli(ds, argv + ["--seed", inst["seed"], inst["file"]])]

    def reference(self, inst):
        n, clauses = reference.read_dimacs(Path(inst["file"]).read_text())
        return {"clauses": clauses, "opt_min": reference.opt_min3(reference.solution_keys(n, clauses))}

    def check(self, inst, outputs, ref):
        return reference.check_min_report(
            _report(outputs[0]), 3, lambda z: reference.satisfies(ref["clauses"], z), ref["opt_min"], exact=False
        )


class AnchoredSearch(Workload):
    """Weighted Schoening dispersion at n=10 plus diverse vertex covers
    of a 12-vertex graph: both run the shared anchored loop."""

    name = "anchored-search"
    pool = 9
    weight = 5
    weight_delta = "1"  # the CLI's default delta for v1 at k=3, made explicit
    cover_delta = "1/2"

    def instance(self, ds, seed, index, directory):
        rng = _rng(seed, 4, index)
        formula = _planted(ds, 10, 3, 30, rng)
        return {
            "cnf": write_file(directory / f"anchored-{index}.cnf", dimacs(10, formula.clauses)),
            "graph": write_file(directory / f"anchored-{index}.graph", random_graph(12, 18, rng)),
            "seed": str(seed * 1000 + index),
        }

    def run(self, ds, inst):
        seed = ["--seed", inst["seed"]]
        weighted = ["disperse", "--s", "3", "--objective", "min", "--algo", "schoening"]
        weighted += ["--weight-min", str(self.weight), "--delta", self.weight_delta]
        covers = ["diverse-min", "--problem", "vc", "--s", "3", "--delta", self.cover_delta]
        return [
            call_cli(ds, weighted + seed + [inst["cnf"]]),
            call_cli(ds, covers + seed + [inst["graph"]]),
        ]

    def reference(self, inst):
        n, clauses = reference.read_dimacs(Path(inst["cnf"]).read_text())
        solutions = reference.solution_keys(n, clauses)
        floor = (1 - Fraction(self.weight_delta)) * self.weight
        in_window = solutions[reference.weights(solutions) >= floor]
        vertices, edges = reference.read_graph(Path(inst["graph"]).read_text())
        covers = reference.cover_keys(vertices, edges)
        sizes = reference.weights(covers)
        low, high = reference.size_window(int(sizes.min()), self.cover_delta)
        return {
            "clauses": clauses,
            "weight_floor": floor,
            "weighted_opt": reference.opt_min3(in_window),
            "edges": edges,
            "size_window": (low, high),
            "cover_opt": reference.opt_min3(covers[(sizes >= low) & (sizes <= high)]),
        }

    def check(self, inst, outputs, ref):
        weighted, covers = (_report(o) for o in outputs)
        floor = ref["weight_floor"]

        def qualifies(z):
            return reference.satisfies(ref["clauses"], z) and z.count("1") >= floor

        problems, first = reference.check_min_report(weighted, 3, qualifies, ref["weighted_opt"], exact=False)
        low, high = ref["size_window"]

        def near_minimum_cover(z):
            return reference.is_cover(ref["edges"], z) and low <= z.count("1") <= high

        more, second = reference.check_min_report(covers, 3, near_minimum_cover, ref["cover_opt"], exact=False)
        return problems + more, (first + second) / 2


WORKLOADS = {w.name: w for w in (Exact(), PpzDisperse(), AnchoredSearch())}
