"""Spans around `dispersat`'s public functions, and the per-layer
metrics computed from them.

`Tracer.install` rebinds each module attribute that a caller looks up
(for example `dispersat.fwht.indicator_table`, or `evaluate_keys` in
every module that imported it) to a wrapper that records a span: name,
start, end, parent span and instance id.  Spans stay in memory until
`write` puts them in a JSONL file.  Private helpers are not wrapped, so
their time is the self time of their public caller.

A function called tens of thousands of times per instance is counted
instead of timed (`COUNTED`): a span there would cost more than a tenth
of the instance.  Its time per call is then read from the span of its
only caller.
"""

from __future__ import annotations

import json
import math
import statistics
import itertools
import time
from collections import defaultdict

# span name -> the "module.attribute" bindings callers look it up through
TIMED = {
    "cli.run": ["cli.run"],
    "cnf.parse_dimacs": ["cli.parse_dimacs"],
    "cnf.evaluate_keys": [
        "cnf.evaluate_keys",
        "fwht.evaluate_keys",
        "ppz.evaluate_keys",
        "brute.evaluate_keys",
    ],
    "fwht.indicator_table": ["fwht.indicator_table"],
    "fwht.convolve": ["fwht.convolve"],
    "fwht.fwht": ["fwht.fwht"],
    "fwht.exact_diameter": ["cli.exact_diameter"],
    "fwht.exact_dispersion": ["cli.exact_dispersion"],
    "ppz.solve": ["ppz.ppz_solve_counted", "cli.ppz_solve_counted"],
    "ppz.farthest_min": ["dispersion.ppz_farthest_min"],
    "schoning.local_search": ["schoning.local_search"],
    "schoning.sample_annulus": ["schoning.sample_annulus"],
    "schoning.farthest_weighted": [
        "dispersion.schoning_farthest_weighted",
        "cli.schoning_farthest_weighted",
    ],
    "subsets.parse_graph": ["cli.parse_graph"],
    "subsets.diverse_min": ["cli.diverse_min"],
    "subsets.minimum_feasible_weight": ["subsets.minimum_feasible_weight"],
    "dispersion.gonzalez_min": [
        "cli.gonzalez_min",
        "dispersion.gonzalez_min",
        "subsets.gonzalez_min",
    ],
    "dispersion.disperse_weighted_min": ["cli.disperse_weighted_min"],
}

# counted, not timed: name -> (bindings, whether the outermost call of a
# recursion still gets a span)
COUNTED = {
    "schoning.schoning_walk": (["schoning.schoning_walk"], False),
    "subsets.monotone_search": (["subsets.hitting_set_monotone_search"], True),
}

LAYERS = ("cli", "cnf", "fwht", "ppz", "schoning", "subsets", "dispersion")


def _oracle_calls_before(args, kwargs):
    return (args[2] if len(args) > 2 else kwargs["oracle"]).calls


def _oracle_calls_after(before, args, kwargs, result):
    return (args[2] if len(args) > 2 else kwargs["oracle"]).calls - before


def _farthest_work(ds):
    """(PPZ samples, Hamming-ball keys enumerated) of one ppz_farthest_min."""

    def after(_, args, kwargs, result):
        formula, anchors = args[0], args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg", ds.ppz.OracleConfig())
        radius = ds.ppz.ball_radius(formula.n, formula.k)
        ball = sum(math.comb(formula.n, r) for r in range(radius + 1))
        return cfg.resolve(formula.n, formula.k), len(anchors) * ball

    return after


def _hooks(ds):
    """Span name -> (before, after): `before(args, kwargs)` runs ahead of
    the call, `after(state, args, kwargs, result)` gives the span's work
    count.  They run outside the span's own interval."""
    return {
        "cnf.evaluate_keys": (None, lambda s, a, k, r: len(a[1])),
        "ppz.solve": (None, lambda s, a, k, r: r[1]),
        "schoning.local_search": (None, lambda s, a, k, r: int(r is not None)),
        "ppz.farthest_min": (None, _farthest_work(ds)),
        "dispersion.gonzalez_min": (_oracle_calls_before, _oracle_calls_after),
    }


class Tracer:
    """Spans are tuples (name, start, end, id, parent id, instance, info),
    appended as they end; tuples of plain values drop out of the cyclic
    garbage collector, so a long trace does not slow collections down."""

    def __init__(self, ds):
        self.ds = ds
        self.spans = []
        self.counts = defaultdict(int)  # (instance, name) -> calls
        self.instance = None
        self._stack = []
        self._saved = []
        self._ids = itertools.count()
        self._origin = time.perf_counter()

    def _timed(self, name, fn, hooks=(None, None)):
        stack, clock, next_id = self._stack, time.perf_counter, self._ids.__next__
        add, push, pop = self.spans.append, stack.append, stack.pop
        before, after = hooks

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            ident = next_id()
            parent = stack[-1] if stack else None
            push(ident)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                add((name, start, clock(), ident, parent, self.instance, None))
                pop()
                raise
            end = clock()
            pop()
            info = after(state, args, kwargs, result) if after is not None else None
            add((name, start, end, ident, parent, self.instance, info))
            return result

        return wrapper

    def _counted(self, name, fn, outer_span):
        counts = self.counts
        timed = self._timed(name, fn) if outer_span else fn
        depth = [0]

        def wrapper(*args, **kwargs):
            counts[self.instance, name] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return timed(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def install(self):
        hooks = _hooks(self.ds)
        wrappers = [
            (b, lambda f, n=name: self._timed(n, f, hooks.get(n, (None, None)))) for name, b in TIMED.items()
        ]
        wrappers += [
            (b, lambda f, n=name, o=outer: self._counted(n, f, o)) for name, (b, outer) in COUNTED.items()
        ]
        for bindings, wrap in wrappers:
            for binding in bindings:
                module_name, attr = binding.split(".")
                module = getattr(self.ds, module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, ident, parent, instance, info in self.spans:
                row = {
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "id": ident,
                    "parent": parent,
                    "instance": instance,
                }
                if info is not None:
                    row["info"] = info
                handle.write(json.dumps(row) + "\n")
            for (instance, name), calls in sorted(self.counts.items(), key=str):
                handle.write(json.dumps({"count": name, "instance": instance, "calls": calls}) + "\n")

    # -- per-layer metrics ---------------------------------------------

    def per_instance(self):
        """instance -> {"incl", "self", "calls", "info"} aggregates by name."""
        child_time = defaultdict(float)
        for _, start, end, _, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(
            lambda: {
                "incl": defaultdict(float),
                "self": defaultdict(float),
                "calls": defaultdict(int),
                "info": defaultdict(list),
            }
        )
        for name, start, end, ident, _, instance, info in self.spans:
            agg = out[instance]
            agg["incl"][name] += end - start
            agg["self"][name] += end - start - child_time[ident]
            agg["calls"][name] += 1
            if info is not None:
                agg["info"][name].append(info)
        for (instance, name), calls in self.counts.items():
            out[instance]["calls"][name] = calls
        return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def _layer_values(agg):
    """One instance's per-layer values; None where the layer did not run."""
    incl, self_, calls, info = agg["incl"], agg["self"], agg["calls"], agg["info"]
    farthest = info["ppz.farthest_min"]
    samples = sum(s for s, _ in farthest)
    return {
        "cnf.evaluate_keys.ns_per_key": _ratio(incl["cnf.evaluate_keys"] * 1e9, sum(info["cnf.evaluate_keys"])),
        "cnf.parse_dimacs.ms": incl["cnf.parse_dimacs"] * 1e3 if calls["cnf.parse_dimacs"] else None,
        "fwht.indicator_table.ms": incl["fwht.indicator_table"] * 1e3 if calls["fwht.indicator_table"] else None,
        "fwht.convolve.ms": incl["fwht.convolve"] * 1e3 if calls["fwht.convolve"] else None,
        "fwht.exact_diameter.self_ms": self_["fwht.exact_diameter"] * 1e3 if calls["fwht.exact_diameter"] else None,
        "fwht.exact_dispersion.self_ms": (
            self_["fwht.exact_dispersion"] * 1e3 if calls["fwht.exact_dispersion"] else None
        ),
        "ppz.solve.us_per_iteration": _ratio(incl["ppz.solve"] * 1e6, sum(info["ppz.solve"])),
        "ppz.solve.iterations": sum(info["ppz.solve"]) if calls["ppz.solve"] else None,
        "ppz.farthest_min.ms": incl["ppz.farthest_min"] * 1e3 if farthest else None,
        "ppz.farthest.us_per_sample": _ratio(self_["ppz.farthest_min"] * 1e6, samples),
        "ppz.farthest_min.ball_keys": sum(b for _, b in farthest) if farthest else None,
        "schoning.schoning_walk.calls": calls["schoning.schoning_walk"] or None,
        # walks are counted, not timed: local_search is their only caller
        "schoning.schoning_walk.us_per_call": _ratio(
            incl["schoning.local_search"] * 1e6, calls["schoning.schoning_walk"]
        ),
        "schoning.sample_annulus.us_per_call": _ratio(
            incl["schoning.sample_annulus"] * 1e6, calls["schoning.sample_annulus"]
        ),
        "schoning.local_search.hit_ratio": _ratio(
            sum(info["schoning.local_search"]), calls["schoning.local_search"]
        ),
        "schoning.farthest_weighted.calls": calls["schoning.farthest_weighted"] or None,
        "schoning.farthest_weighted.self_ms": (
            self_["schoning.farthest_weighted"] * 1e3 if calls["schoning.farthest_weighted"] else None
        ),
        "subsets.monotone_search.nodes": calls["subsets.monotone_search"] or None,
        "subsets.monotone_search.us_per_node": _ratio(
            incl["subsets.monotone_search"] * 1e6, calls["subsets.monotone_search"]
        ),
        "subsets.minimum_feasible_weight.ms": (
            incl["subsets.minimum_feasible_weight"] * 1e3 if calls["subsets.minimum_feasible_weight"] else None
        ),
        "dispersion.oracle_calls": (
            sum(info["dispersion.gonzalez_min"]) if calls["dispersion.gonzalez_min"] else None
        ),
        "dispersion.gonzalez_min.self_ms": (
            self_["dispersion.gonzalez_min"] * 1e3 if calls["dispersion.gonzalez_min"] else None
        ),
        "cli.self_ms": self_["cli.run"] * 1e3 if calls["cli.run"] else None,
    }


LAYER_UNITS = {
    "cnf.evaluate_keys.ns_per_key": "ns",
    "cnf.parse_dimacs.ms": "ms",
    "fwht.indicator_table.ms": "ms",
    "fwht.convolve.ms": "ms",
    "fwht.exact_diameter.self_ms": "ms",
    "fwht.exact_dispersion.self_ms": "ms",
    "ppz.solve.us_per_iteration": "us",
    "ppz.solve.iterations": "count",
    "ppz.farthest_min.ms": "ms",
    "ppz.farthest.us_per_sample": "us",
    "ppz.farthest_min.ball_keys": "count",
    "schoning.schoning_walk.calls": "count",
    "schoning.schoning_walk.us_per_call": "us",
    "schoning.sample_annulus.us_per_call": "us",
    "schoning.local_search.hit_ratio": "ratio",
    "schoning.farthest_weighted.calls": "count",
    "schoning.farthest_weighted.self_ms": "ms",
    "subsets.monotone_search.nodes": "count",
    "subsets.monotone_search.us_per_node": "us",
    "subsets.minimum_feasible_weight.ms": "ms",
    "dispersion.oracle_calls": "count",
    "dispersion.gonzalez_min.self_ms": "ms",
    "cli.self_ms": "ms",
}


def layer_metrics(tracer, instance_seconds):
    """Per-instance medians of every per-layer metric.

    `instance_seconds` maps each traced instance id to its wall time.  A
    layer that does not run on the workload reads 0.  `share.<layer>` is
    the part of an instance spent in that layer's own code: the self
    time of its spans over the instance's wall time.
    """
    aggregates = tracer.per_instance()
    rows = []
    for instance, seconds in instance_seconds.items():
        agg = aggregates[instance]
        row = _layer_values(agg)
        for layer in LAYERS:
            own = sum(t for name, t in agg["self"].items() if name.startswith(layer + "."))
            row[f"share.{layer}"] = own / seconds
        rows.append(row)
    units = dict(LAYER_UNITS, **{f"share.{layer}": "ratio" for layer in LAYERS})
    metrics = {}
    for name, unit in units.items():
        values = [row[name] for row in rows if row[name] is not None]
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
    return metrics
