"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --runs 10 --sets 2

Runs `bench/run.py` for `run_seconds` on every workload listed in
BENCHMARK.json, `--runs` times per set, one seed per run, alternating
the order of the workloads from one round to the next, and prints for each metric its median, quartiles and spread (the
distance between the quartiles as a share of the median).  With two or
more sets it also prints how far each set's median moved from the
first set's.  The bounds in BENCHMARK.json are set from this output:
each spread should stay below a third of its bound.  Every run's result
is kept in bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT = 300


def load_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    config = load_config()
    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    results = {}  # (set, workload) -> [result, ...]
    for set_index in range(args.sets):
        for run in range(args.runs):
            seed = args.first_seed + 1000 * set_index + run
            order = names if run % 2 == 0 else names[::-1]
            for workload in order:
                started = time.perf_counter()
                result = run_once(workload, seed, seconds)
                results.setdefault((set_index, workload), []).append(result)
                print(
                    f"set {set_index} run {run} {workload} seed {seed}: "
                    f"{time.perf_counter() - started:.1f} s, attempted {result['attempted']}, "
                    f"failed {result['failed']}, correct {result['correct']}",
                    file=sys.stderr,
                )

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({f"{s}/{w}": r for (s, w), r in results.items()}, indent=1))

    header = f"{'workload':16} {'metric':20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'drift':>7}"
    print(header)
    for workload in names:
        first_medians = {}
        for set_index in range(args.sets):
            runs = results[(set_index, workload)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                first_medians.setdefault(name, median)
                drift = median / first_medians[name] - 1 if first_medians[name] else 0.0
                bound = bounds.get(name)
                print(
                    f"{workload:16} {name:20} {set_index:>3} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                    f"{share:7.3f} {bound if bound is not None else '-':>6} {drift:+7.3f}"
                )
            print(f"{workload:16} {'failed share':20} {set_index:>3} {sorted(shares)}")
    print(f"results: {path}")


if __name__ == "__main__":
    main()
