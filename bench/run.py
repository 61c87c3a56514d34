"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: `dispersat` is imported from
`src/` next to this directory, never from an installed copy.  The run is
a closed loop on one thread: set-up (import, seeded instances written to
files, one warm-up instance; three times, median reported), then whole
passes over the pool, one instance after another, until `--seconds`
have passed, then every output is checked against `reference`.  With
`--trace 1` the run times each instance untraced and then again with
spans installed, and prints the per-layer metrics and the tracing
overhead instead.
"""

import os

# one thread for BLAS and OpenMP, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # instances beyond the reported tail percentile
MODULES = ("cli", "cnf", "fwht", "ppz", "schoning", "subsets", "dispersion", "generators", "brute")


def load_dispersat():
    """Import `dispersat` from this checkout's src/; (modules, seconds)."""
    if not (SRC / "dispersat" / "__init__.py").is_file():
        raise SystemExit(f"error: no dispersat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    modules = {name: importlib.import_module(f"dispersat.{name}") for name in MODULES}
    seconds = time.perf_counter() - started
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: dispersat was imported from {modules['cli'].__file__}")
    return types.SimpleNamespace(**modules), seconds


def set_up(ds, workload, seed, directory):
    """Generate and write the pool, then run one warm-up instance; the
    whole set-up is repeated and the median time returned."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        directory.mkdir(parents=True, exist_ok=True)
        pool = workload.generate(ds, seed, directory)
        workload.run(ds, pool[0])
        times.append(time.perf_counter() - started)
    return statistics.median(times), pool


def run_one(ds, workload, pool, index):
    """Time one instance; (pool index, seconds, outputs).  An exception
    from the program is reported and leaves the outputs None, so the
    instance counts as failed and the run goes on."""
    begin = time.perf_counter()
    try:
        outputs = workload.run(ds, pool[index])
    except Exception as err:
        print(f"{workload.name}[{index}]: raised {type(err).__name__}: {err}", file=sys.stderr)
        outputs = None
    return index, time.perf_counter() - begin, outputs


def passes(seconds, one_pass):
    """Call `one_pass` until `seconds` have passed, stopping only at the
    end of a pass, so every run times each pool instance equally often
    whatever the program's speed; (results of every pass, wall)."""
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results += one_pass()
    return results, time.perf_counter() - started


def check(workload, pool, records):
    """(correct, failed, quality): every output against the reference.

    Each record is judged by `Workload.judge`; a wrong output, or a
    repeated instance whose outputs differ from its first run, makes the
    run incorrect.  Quality is the mean over the pool of each instance's
    first ratio; a failed instance scores 0.
    """
    correct = True
    failed = 0
    quality = {}
    first = {}
    refs = {}
    for index, _, outputs in records:
        canon = workload.canonical(outputs)
        if first.setdefault(index, canon) != canon:
            print(f"{workload.name}[{index}]: outputs changed between runs", file=sys.stderr)
            correct = False
        if index not in refs:
            refs[index] = workload.reference(pool[index])
        problems, fail, ratio = workload.judge(pool[index], outputs, refs[index])
        quality.setdefault(index, ratio)
        failed += fail
        if problems:
            print(f"{workload.name}[{index}]: {'; '.join(problems)}", file=sys.stderr)
            correct = False
    return correct, failed, statistics.fmean(quality.values())


def tail(times):
    """The highest percentile with TAIL_BEYOND instances beyond it.  A run
    of fewer than 4 * TAIL_BEYOND instances has no such tail; it reports
    the upper quartile, since its slowest instance swings with the
    machine's load from run to run."""
    ordered = sorted(times)
    if len(ordered) >= 4 * TAIL_BEYOND:
        return ordered[-TAIL_BEYOND - 1]
    return statistics.quantiles(ordered, n=4)[2]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(ds, workload, pool, seconds, setup_s):
    records, wall = passes(seconds, lambda: [run_one(ds, workload, pool, i) for i in range(len(pool))])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t for _, t, _ in records]
    correct, failed, quality = check(workload, pool, records)
    print(f"{workload.name}: {len(records)} instances in {wall:.2f} s", file=sys.stderr)
    return correct, len(records), failed, {
        "setup_s": metric(setup_s, "s"),
        "instances_per_s": metric(len(records) / wall, "1/s"),
        "instance_ms.p50": metric(statistics.median(times) * 1e3, "ms"),
        "instance_ms.tail": metric(tail(times) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "quality.ratio_mean": metric(quality, "ratio"),
    }


def traced(ds, workload, pool, seconds, trace_path):
    """Each instance runs untraced, then again with spans installed, so
    both sides of the overhead see the same inputs and the same machine
    state; whole passes of pairs continue until `seconds` have passed."""
    tracer = spans.Tracer(ds)
    ids = itertools.count()

    def pair(index):
        plain = run_one(ds, workload, pool, index)
        tracer.instance = next(ids)
        tracer.install()
        try:
            return plain, run_one(ds, workload, pool, index)
        finally:
            tracer.uninstall()

    pairs, _ = passes(seconds, lambda: [pair(i) for i in range(len(pool))])
    plain = [p for p, _ in pairs]
    with_spans = [t for _, t in pairs]
    tracer.write(trace_path)
    correct, failed, _ = check(workload, pool, plain + with_spans)
    metrics = spans.layer_metrics(tracer, {i: t for i, (_, t, _) in enumerate(with_spans)})
    p50_plain = statistics.median(t for _, t, _ in plain)
    p50_traced = statistics.median(t for _, t, _ in with_spans)
    metrics["trace.overhead"] = metric(p50_traced / p50_plain - 1, "ratio")
    print(
        f"{workload.name}: {len(plain)} instance pairs, p50 {p50_plain * 1e3:.1f} ms untraced, "
        f"{p50_traced * 1e3:.1f} ms traced; spans in {trace_path}",
        file=sys.stderr,
    )
    return correct, len(plain) + len(with_spans), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    ds, import_s = load_dispersat()
    OUT.mkdir(exist_ok=True)
    directory = OUT / f"instances-{workload.name}-{os.getpid()}"
    try:
        setup_s, pool = set_up(ds, workload, args.seed, directory)
        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
            result = traced(ds, workload, pool, args.seconds, trace_path)
        else:
            result = untraced(ds, workload, pool, args.seconds, import_s + setup_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
