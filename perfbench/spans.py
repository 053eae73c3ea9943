"""In-memory spans around the library's public functions.

The benchmark times each layer from outside the package: `install`
replaces module attributes such as `fourier.fourier_queries` with
wrappers that record a span per call and restores the originals on
exit.  The package's modules call each other through module
attributes (`fourier.fourier_queries(...)`, `budget.tau_marginal(...)`),
so the wrappers see every call made inside a release as well as the
calls the benchmark makes itself.

A span is `[layer, start_ns, end_ns, parent, op, counts]`.  `parent`
indexes the enclosing span, `op` identifies the benchmark operation
that caused it, and `counts` holds the exact counts read off the call's
arguments or result.  A span's self time is its duration minus the
durations of its direct children.  Every per-layer `.s` metric is self
time, except `mechanism.release.s`, which is the whole release span:
`mechanism.release.s - mechanism.release.self_s` is the time spent in
fourier and budget calls made by releases.
"""

import collections
import contextlib
import json
import os
import statistics
from time import perf_counter_ns


def _first(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _cli_output_bytes(args, kwargs, result):
    argv = list(_first(args, kwargs, 0, "argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"output_bytes": os.path.getsize(path)}
    return {}


def _document_cells(args, kwargs, doc):
    return {"cells": sum(len(entry["table"]) for entry in doc["sets"])}


def _factorization_bytes(args, kwargs, fact):
    # L and R as built; W is built inside norm_report from the same
    # rows and universe, as float64
    w_bytes = len(fact.rows) * fact.workload.universe.size * 8
    return {"dense_bytes": fact.L.nbytes + fact.R.nbytes + w_bytes}


def _svd_bytes(args, kwargs, result):
    workload = _first(args, kwargs, 0, "workload")
    universe = workload.universe
    rows = sum(universe.subuniverse_size(s) for s in workload.sets)
    return {"dense_bytes": rows * universe.size * 8}


def _sampler_counter(args, kwargs):
    sampler = _first(args, kwargs, 1, "sampler")
    return sampler.counter


# (module, attribute, layer, counts(args, kwargs, result) or None,
#  before(args, kwargs) or None)
TARGETS = (
    ("core", "read_dataset_csv", "core.read_dataset_csv",
     lambda a, k, r: {"rows": int(r[0].n)}, None),
    ("core", "read_workload_json", "core.read_workload_json", None, None),
    ("fourier", "fourier_queries", "fourier.fourier_queries",
     lambda a, k, r: {"freqs": len(r)}, None),
    ("fourier", "inverse_table", "fourier.inverse_table",
     lambda a, k, r: {"cells": int(r.size)}, None),
    ("budget", "tau_marginal", "budget.tau",
     lambda a, k, r: {"freqs": len(r)}, None),
    ("budget", "tau_product", "budget.tau",
     lambda a, k, r: {"freqs": len(r)}, None),
    ("budget", "plan_from_tau", "budget.plan_from_tau", None, None),
    ("budget", "sample_complex_gaussian", "budget.noise",
     lambda a, k, r, before: {"draws": _first(a, k, 1, "sampler").counter
                              - before}, _sampler_counter),
    ("mechanism", "release_marginals", "mechanism.release",
     lambda a, k, r: {"planned": int(k.get("plan") is not None)}, None),
    ("mechanism", "release_product", "mechanism.release",
     lambda a, k, r: {"planned": int(k.get("plan") is not None)}, None),
    ("mechanism", "release_extended", "mechanism.release",
     lambda a, k, r: {"planned": 0}, None),
    ("mechanism", "predicted_error", "mechanism.predicted_error", None, None),
    ("mechanism", "release_document", "mechanism.release_document",
     _document_cells, None),
    ("optimizer", "optimize_pstar", "optimizer.optimize_pstar",
     lambda a, k, r: {"iterations": int(r.iterations),
                      "objective_evals": len(r.objective_trace)}, None),
    ("factorization", "build_factorization",
     "factorization.build_factorization", _factorization_bytes, None),
    ("factorization", "norm_report", "factorization.norm_report", None, None),
    ("factorization", "tightness_certificate",
     "factorization.tightness_certificate", None, None),
    ("factorization", "svd_lower_bound", "factorization.svd_lower_bound",
     _svd_bytes, None),
    ("cli", "main", "cli", _cli_output_bytes, None),
)

# name -> (unit, key into the per-operation tally); "|self" and "|total"
# are nanoseconds, "*|" sums a count over every layer
PER_LAYER = {
    "core.read_dataset_csv.s": ("s", "core.read_dataset_csv|self"),
    "core.read_dataset_csv.rows": ("count", "core.read_dataset_csv|rows"),
    "core.read_workload_json.s": ("s", "core.read_workload_json|self"),
    "fourier.fourier_queries.s": ("s", "fourier.fourier_queries|self"),
    "fourier.fourier_queries.freqs": ("count",
                                      "fourier.fourier_queries|freqs"),
    "fourier.inverse_table.s": ("s", "fourier.inverse_table|self"),
    "fourier.inverse_table.calls": ("count", "fourier.inverse_table|calls"),
    "fourier.inverse_table.cells": ("count", "fourier.inverse_table|cells"),
    "budget.tau.s": ("s", "budget.tau|self"),
    "budget.tau.calls": ("count", "budget.tau|calls"),
    "budget.tau.freqs": ("count", "budget.tau|freqs"),
    "budget.tau.useful_frac": ("frac", None),
    "budget.plan_from_tau.s": ("s", "budget.plan_from_tau|self"),
    "budget.noise.s": ("s", "budget.noise|self"),
    "budget.noise.draws": ("count", "budget.noise|draws"),
    "mechanism.release.s": ("s", "mechanism.release|total"),
    "mechanism.release.self_s": ("s", "mechanism.release|self"),
    "mechanism.predicted_error.s": ("s", "mechanism.predicted_error|self"),
    "mechanism.predicted_error.calls": ("count",
                                        "mechanism.predicted_error|calls"),
    "mechanism.release_document.s": ("s", "mechanism.release_document|self"),
    "mechanism.release_document.cells": ("count",
                                         "mechanism.release_document|cells"),
    "optimizer.optimize_pstar.s": ("s", "optimizer.optimize_pstar|self"),
    "optimizer.optimize_pstar.iterations": (
        "count", "optimizer.optimize_pstar|iterations"),
    "optimizer.optimize_pstar.objective_evals": (
        "count", "optimizer.optimize_pstar|objective_evals"),
    "factorization.build_factorization.s": (
        "s", "factorization.build_factorization|self"),
    "factorization.norm_report.s": ("s", "factorization.norm_report|self"),
    "factorization.tightness_certificate.s": (
        "s", "factorization.tightness_certificate|self"),
    "factorization.svd_lower_bound.s": (
        "s", "factorization.svd_lower_bound|self"),
    "factorization.dense_bytes": ("B", "*|dense_bytes"),
    "cli.self_s": ("s", "cli|self"),
    "cli.output_bytes": ("B", "cli|output_bytes"),
    "trace.spans": ("count", "*|spans"),
}

# metrics whose per-operation value must repeat exactly between
# operations on the same input and between runs
EXACT_COUNTS = ("fourier.fourier_queries.freqs", "budget.noise.draws",
                "fourier.inverse_table.calls",
                "optimizer.optimize_pstar.iterations")


class Tracer:
    """Span recorder; `op` is set by the caller before each operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, layer, fn, counts, before):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            record = [layer, 0, 0, stack[-1] if stack else None, self.op,
                      None]
            stack.append(len(spans))
            spans.append(record)
            mark = before(args, kwargs) if before else None
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if counts is not None:
                record[5] = (counts(args, kwargs, result, mark) if before
                             else counts(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self, package):
        """Wrap every target attribute of `package`'s modules."""
        saved = []
        try:
            for module_name, attr, layer, counts, before in TARGETS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr,
                        self.wrap(layer, original, counts, before))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for layer, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"layer": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "counts": counts}) + "\n")

    def per_op(self):
        """{op: {metric: value}} for every operation that has spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        planned = [False] * len(spans)
        for i, (layer, start, end, parent, _, counts) in enumerate(spans):
            if parent is not None:
                child_ns[parent] += end - start
                planned[i] = planned[parent]
            # a tau call is wasted when a release handed a plan makes it
            if layer == "mechanism.release" and (counts or {}).get("planned"):
                planned[i] = True
        tallies = {}
        for i, (layer, start, end, parent, op, counts) in enumerate(spans):
            tally = tallies.setdefault(op, collections.Counter())
            tally[layer + "|total"] += end - start
            tally[layer + "|self"] += end - start - child_ns[i]
            tally[layer + "|calls"] += 1
            tally["*|spans"] += 1
            tally[layer + "|wasted"] += planned[i]
            for key, value in (counts or {}).items():
                tally[layer + "|" + key] += value
                tally["*|" + key] += value
        return {op: _metrics(tally) for op, tally in tallies.items()}


def _metrics(tally):
    out = {}
    for name, (unit, key) in PER_LAYER.items():
        if key is None:
            calls = tally["budget.tau|calls"]
            out[name] = 1.0 - tally["budget.tau|wasted"] / calls if calls \
                else 1.0
        elif key.endswith(("|self", "|total")):
            out[name] = tally[key] / 1e9
        else:
            out[name] = tally[key]
    return out


def summarize(per_op):
    """Median of each metric over the traced operations."""
    values = list(per_op.values())
    return {name: statistics.median(v[name] for v in values)
            for name in PER_LAYER}
