"""Command-line front end: diameter, dispersion, diverse subset
minimization, reductions, runtime estimation, and the speedup probe.

Every emitted assignment is re-verified against the input before it is
printed.  Exit codes: 0 on success, 1 when the instance is UNSAT /
INFEASIBLE / nothing was found under the budget / too large for the
chosen algorithm (TOO_LARGE), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .brute import brute_opt, diameter_via_min_ones, enumerate_solutions, solution_keys
from .cnf import (
    Assignment,
    CapabilityError,
    InfeasibleError,
    ParseError,
    PartialSetError,
    UnsatError,
    evaluate,
    parse_dimacs,
)
from .cliques import check_clique_size, opt_min_clique, opt_sum_clique
from .dispersion import (
    disperse_weighted_min,
    gonzalez_min,
    ppz_min_oracle,
    ppz_seeder,
    ppz_sum_oracle,
    schoning_seeder,
    schoning_sum_oracle,
    sum_disperse,
)
from .fwht import exact_diameter, exact_dispersion
from .generators import separated_planted_instance
from .measures import (
    NO_WEIGHT,
    DispersionObjective,
    WeightConstraint,
    WeightKind,
    min_pairwise_distance,
    sum_pairwise_distance,
)
from .ppz import OracleConfig, _pool, ppz_farthest_sum, ppz_solve_counted
from .schoning import (
    BudgetPlan,
    anchored_walks,
    growth_base,
    make_plan,
    schoning_farthest_weighted,
    schoning_solve_counted,
)
from .subsets import (
    SetFamily,
    diverse_min,
    parse_graph,
    parse_set_family,
    reduce_hitting_set,
    reduce_independent_set,
    reduce_vertex_cover,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


@dataclass
class RunReport:
    command: str
    status: str = "OK"
    assignments: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    seed: int | None = None
    message: str | None = None
    wall_time_ms: float = 0.0
    quiet: bool = False  # raw-output commands (reduce, probe) skip the report

    def to_dict(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "status": self.status,
            "assignments": self.assignments,
            "values": self.values,
            "counters": self.counters,
            "seed": self.seed,
            "wall_time_ms": self.wall_time_ms,
        }
        if self.message is not None:
            out["message"] = self.message
        return out


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
        return
    print(f"status: {report.status}")
    for key, value in sorted(report.values.items()):
        print(f"{key}: {value}")
    for z in report.assignments:
        print(z)
    if report.message:
        print(report.message)


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _verified_strings(formula, members):
    for z in members:
        if not evaluate(formula, z):
            raise AssertionError("refusing to emit a non-satisfying assignment")
    return [z.to_string() for z in members]


def _config(args):
    return OracleConfig(
        seed=args.seed, repetitions=args.repetitions, effort=args.effort
    )


def _plan(formula, args, distance_sum=False):
    """The Schoening plan, refused before any solve when the first oracle
    call would exceed the walk cap: around the seed and the all-zeros
    point for min-distance, around the seed alone from r = 0 for sums."""
    plan = make_plan(formula.n, max(formula.k, 2), args.delta, args.variant)
    anchored_walks(plan, args.effort, *((1, 0) if distance_sum else (2,)))
    return plan


def _cmd_enumerate(args, report):
    formula = parse_dimacs(_read_input(args.file))
    solutions = enumerate_solutions(formula, args.limit)
    if len(solutions) == 0:
        report.status = "UNSAT"
        return
    report.assignments = _verified_strings(formula, solutions.members)
    report.values["count"] = len(solutions)


def _cmd_diameter(args, report):
    formula = parse_dimacs(_read_input(args.file))
    cfg = _config(args)
    if args.algo == "fwht":
        pair = exact_diameter(formula)
    elif args.algo == "minones":
        pair = diameter_via_min_ones(formula)
    elif args.algo == "ppz":
        stream = cfg.spawn(1)  # one pool: z1 is its first hit
        z1, iterations = _pool(formula, stream).solve(formula)
        report.counters["iterations"] = iterations
        if z1 is None:
            report.status = "NOT_FOUND"
            return
        z2 = ppz_farthest_sum(formula, [z1], stream)
        pair = (z1, z2)
    else:  # schoening
        plan = _plan(formula, args)
        z1, _ = schoning_solve_counted(formula, cfg.spawn(0))
        if z1 is None:
            report.status = "NOT_FOUND"
            return
        z2 = schoning_farthest_weighted(formula, [z1], 0, plan, cfg.spawn(1))
        pair = (z1, z2 if z2 is not None else z1)
    report.assignments = _verified_strings(formula, pair)
    report.values["distance"] = pair[0].distance(pair[1])


def _weight_args(args):
    if args.weight_min is not None and args.weight_max is not None:
        raise UsageError("--weight-min and --weight-max are exclusive")
    if args.weight_min is not None:
        return WeightKind.AT_LEAST, args.weight_min
    if args.weight_max is not None:
        return WeightKind.AT_MOST, args.weight_max
    return WeightKind.NONE, None


def _cmd_disperse(args, report):
    formula = parse_dimacs(_read_input(args.file))
    objective = DispersionObjective(args.objective)
    cfg = _config(args)
    kind, w = _weight_args(args)
    weighted = args.algo == "exact" or (
        args.algo == "schoening" and objective is DispersionObjective.MIN_PD
    )
    if kind is not WeightKind.NONE and not weighted:
        raise UsageError(
            "weight constraints need --algo exact, "
            "or --algo schoening with --objective min"
        )
    if args.algo == "exact":
        constraint = NO_WEIGHT if kind is WeightKind.NONE else WeightConstraint(kind, w)
        value, witness = brute_opt(formula, args.s, objective, constraint)
    elif args.algo == "fwht":
        witness = exact_dispersion(formula, args.s, objective)
    elif args.algo == "clique":
        keys = solution_keys(formula)
        if not len(keys):
            raise UnsatError("formula has no satisfying assignment")
        minimum = objective is DispersionObjective.MIN_PD
        # refused from the count, before one Assignment per solution exists
        check_clique_size(len(keys), args.s, minimum, not objective.distinct)
        points = [Assignment(formula.n, key) for key in keys.tolist()]
        if minimum:
            witness = opt_min_clique(points, args.s)
        else:
            witness = opt_sum_clique(points, args.s, objective.distinct)
    elif args.algo == "ppz":
        if objective is DispersionObjective.MIN_PD:
            oracle = ppz_min_oracle(cfg)
            witness = gonzalez_min(formula, args.s, oracle, ppz_seeder(cfg))
        else:
            oracle = ppz_sum_oracle(cfg, exclude=objective.distinct)
            witness = sum_disperse(formula, args.s, oracle, ppz_seeder(cfg))
        report.counters["oracle_calls"] = oracle.calls
    elif objective is DispersionObjective.SUM_PD_DISTINCT:  # schoening
        raise UsageError(
            "sum-distinct dispersion is available with --algo ppz, exact, fwht, or clique"
        )
    else:  # schoening
        plan = _plan(formula, args, objective is not DispersionObjective.MIN_PD)
        if objective is DispersionObjective.MIN_PD:
            witness = disperse_weighted_min(
                formula, args.s, w if w is not None else 0, kind, plan, cfg
            )
        else:
            oracle = schoning_sum_oracle(plan, cfg)
            witness = sum_disperse(formula, args.s, oracle, schoning_seeder(cfg))
            report.counters["oracle_calls"] = oracle.calls
    report.assignments = _verified_strings(formula, witness.members)
    report.values["minPD"] = min_pairwise_distance(witness)
    report.values["sumPD"] = sum_pairwise_distance(witness)


def _cmd_reduce(args, report):
    text = _read_input(args.file)
    if args.problem == "vc":
        formula = reduce_vertex_cover(parse_graph(text))
    elif args.problem == "is":
        formula = reduce_independent_set(parse_graph(text))
    else:
        formula = reduce_hitting_set(parse_set_family(text))
    sys.stdout.write(formula.to_dimacs())
    report.values["n"] = formula.n
    report.values["clauses"] = formula.num_clauses
    report.quiet = True


def _cmd_diverse_min(args, report):
    text = _read_input(args.file)
    if args.problem == "hs":
        family = parse_set_family(text)
    else:
        graph = parse_graph(text)
        family = SetFamily.from_lists(graph.num_vertices, graph.edges)
    cfg = _config(args)
    delta = Fraction(args.delta if args.delta is not None else "1/2")
    out = diverse_min(family, args.s, delta, cfg)
    report.assignments = _verified_strings(reduce_hitting_set(family), out.members)
    report.values["minPD"] = min_pairwise_distance(out)
    report.values["sizes"] = [z.weight() for z in out.members]


def _cmd_estimate_runtime(args, report):
    delta = Fraction(args.delta)
    if args.c is not None:
        plan = BudgetPlan(
            args.n, delta, Fraction(str(args.alpha)), Fraction(str(args.c))
        )
    elif args.k is not None:
        plan = make_plan(args.n, args.k, delta, args.variant)
    else:
        raise UsageError("estimate-runtime needs --c or --k")
    report.values["R"] = plan.R
    report.values["tau"] = plan.budget()
    report.values["base"] = round(growth_base(plan.c, plan.alpha, plan.delta), 6)


def probe_speedup(n, k, m, planted_count, trials, seed, effort=1.0):
    """Iterations-to-first-solution rows for PPZ and Schoening solving on
    planted instances; pure measurement, no pass/fail."""
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, planted_count, trial])
        )
        formula, _, separation = separated_planted_instance(
            n, k, m, planted_count, rng
        )
        cfg = OracleConfig(seed=seed + 7919 * trial, effort=effort)
        _, ppz_iters = ppz_solve_counted(formula, cfg)
        _, sch_iters = schoning_solve_counted(formula, cfg)
        for algo, iters in (("ppz", ppz_iters), ("schoening", sch_iters)):
            rows.append(
                {
                    "trial": trial,
                    "algo": algo,
                    "iterations": iters,
                    "planted_count": planted_count,
                    "min_separation": separation,
                }
            )
    return rows


def _cmd_probe_speedup(args, report):
    rows = probe_speedup(
        args.n,
        args.k,
        args.clauses,
        args.planted,
        args.trials,
        args.seed,
        args.effort,
    )
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=["trial", "algo", "iterations", "planted_count", "min_separation"],
    )
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())
    if rows:
        for algo in ("ppz", "schoening"):
            iters = [r["iterations"] for r in rows if r["algo"] == algo]
            report.values[f"median_{algo}"] = statistics.median(iters)
    report.quiet = True


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "diameter": _cmd_diameter,
    "disperse": _cmd_disperse,
    "reduce": _cmd_reduce,
    "diverse-min": _cmd_diverse_min,
    "estimate-runtime": _cmd_estimate_runtime,
    "probe-speedup": _cmd_probe_speedup,
}


@functools.cache
def _parser():
    """The argument parser, built once per process; parsing never
    modifies it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--effort", type=float, default=1.0)
    common.add_argument("--repetitions", type=int, default=None)
    parser = argparse.ArgumentParser(
        prog="dispersat",
        description="dispersed satisfying assignments of k-CNF formulas",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", parents=[common])
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("diameter", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--algo", choices=["fwht", "minones", "ppz", "schoening"], default="fwht"
    )
    p.add_argument("--delta", type=str, default=None)
    p.add_argument("--variant", choices=["v1", "v2"], default="v1")

    p = sub.add_parser("disperse", parents=[common])
    p.add_argument("file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument(
        "--objective", choices=["min", "sum", "sum-distinct"], default="min"
    )
    p.add_argument(
        "--algo",
        choices=["exact", "fwht", "clique", "ppz", "schoening"],
        default="ppz",
    )
    p.add_argument("--delta", type=str, default=None)
    p.add_argument("--variant", choices=["v1", "v2"], default="v1")
    p.add_argument("--weight-min", type=int, default=None)
    p.add_argument("--weight-max", type=int, default=None)

    p = sub.add_parser("reduce", parents=[common])
    p.add_argument("file")
    p.add_argument("--problem", choices=["vc", "is", "hs"], required=True)

    p = sub.add_parser("diverse-min", parents=[common])
    p.add_argument("file")
    p.add_argument("--problem", choices=["hs", "vc"], default="hs")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--delta", type=str, default=None)

    p = sub.add_parser("estimate-runtime", parents=[common])
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variant", choices=["v1", "v2"], default="v1")
    p.add_argument("--delta", type=str, required=True)
    p.add_argument("--n", type=int, default=64)

    p = sub.add_parser("probe-speedup", parents=[common])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--clauses", type=int, default=100)
    p.add_argument("--planted", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)

    return parser


def run(argv):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    report = RunReport(command=" ".join(argv), seed=args.seed)
    started = time.perf_counter()
    try:
        _COMMANDS[args.cmd](args, report)
    except UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnsatError as err:
        report.status = "UNSAT"
        report.message = str(err)
    except InfeasibleError as err:
        report.status = "INFEASIBLE"
        report.message = str(err)
    except CapabilityError as err:
        report.status = "TOO_LARGE"
        report.message = str(err)
    except PartialSetError as err:
        report.status = "NOT_FOUND"
        report.message = str(err)
        report.assignments = [z.to_string() for z in err.partial.members]
    report.wall_time_ms = round((time.perf_counter() - started) * 1000, 3)
    if not report.quiet:
        _emit(report, args.format)
    return 0 if report.status == "OK" else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
