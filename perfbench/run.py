"""Benchmark of the fourier_marginals package, one workload per run.

    python3 perfbench/run.py --workload release-rows --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory, and the run fails (exit 2, no result) when that
is missing.  Every input is generated from --seed before any timing.
Each workload is driven in-process by one client in a closed loop: the
next operation starts when the previous one has returned.

An operation is one CLI `release` on the release workloads, one
session of four CLI commands on plan-certify, and one release of each
of the three cases on small-releases.  The end-to-end metrics are
setup_s (import plus the warm-up, median of five fresh processes),
op_time_ref (the median over operations of an operation's seconds
divided by the mean seconds of the fixed computation in reference.py
timed just before and just after it) and peak_rss_mb (ru_maxrss of
this process).
op_time_ref is what the gate compares, because the machine's speed
drifts by 20 to 45 percent over minutes and the ratio cancels most of
that; the plain figures (ops_per_s, release_s, ...) are on the info
line.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones listed in BENCHMARK.json; with --trace 1 the package's public
functions are wrapped (see spans.py) and the metrics are the per-layer
ones, as medians per operation over the traced operations.  A `# info`
line before it carries the environment, the digests of every seeded
output of the warm-up, the digest of each measured operation by input
key (traced operations only, in a traced run), the sample count and
tail percentile, and the workload's own
end-to-end figures under the names a reader of the package would use
(ops_per_s, release_s, predict_s, small_release_p99_us, ...).

BENCHMARK.json lists release-rows and plan-certify only; release-ranges
and small-releases stay runnable here and in report.py.
"""

import argparse
import collections
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# op_digests keeps the first digest of this many operation keys
DIGESTED_KEYS = 256
# the reference computation runs after an operation once this much
# operation time has passed since it last ran
REFERENCE_EVERY_S = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("release-rows", "release-ranges",
                                 "plan-certify", "small-releases"))
    parser.add_argument("--seed", type=int, default=20251221,
                        help="workload seed (default 20251221)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # time import plus the warm-up operation in this fresh process only
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import the package from the checkout; (package, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "fourier_marginals", "cli.py")):
        raise ImportError(f"no fourier_marginals package under {SRC}")
    sys.path.insert(0, SRC)
    start = perf_counter()
    package = importlib.import_module("fourier_marginals")
    for name in ("cli", "core", "fourier", "budget", "mechanism",
                 "optimizer", "factorization"):
        importlib.import_module("fourier_marginals." + name)
    seconds = perf_counter() - start
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(SRC, "fourier_marginals"):
        raise ImportError(f"fourier_marginals imported from {where}")
    return package, seconds


def _tail(samples):
    """Highest of p99.9, p99, p90, p50 with at least 10 samples above it."""
    import numpy as np
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - q / 100) >= 10:
            return {"percentile": q,
                    "value": float(np.percentile(samples, q))}
    return None


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _blas():
    """BLAS name and its thread count, as far as numpy exposes them."""
    import ctypes
    import glob
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                threads = int(getattr(ctypes.CDLL(path), symbol)())
                break
            except (OSError, AttributeError):
                continue
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _environment():
    import importlib.metadata
    import platform
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reading repositories above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
                ROOT))).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    source.update(fh.read())
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy, "blas": _blas(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "source_sha256": source.hexdigest()}


def _probe_setup(args):
    """setup_s of one fresh interpreter, by rerunning this script."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--probe-setup"]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    except (subprocess.SubprocessError, IndexError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"# setup probe failed: {exc}", file=sys.stderr)
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = _parse(argv)
    # on SIGTERM unwind normally, so that a running setup probe is killed
    # and waited for and the work directory is removed
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    loadavg_start = _loadavg()
    try:
        package, import_s = _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # numpy and the benchmark's own modules load only now, so that the
    # import timed above is the package's whole import cost
    import workloads

    workdir = os.path.join(ROOT, ".perfbench",
                           f"work-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](package, args.seed,
                                                      workdir)
        warmup = [workloads.run_op(workload, i, measured=False)
                  for i in range(workload.warmup_ops)]
        setup_s = import_s + sum(r.seconds for r in warmup)
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, package, workload, warmup, setup_s,
                        loadavg_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, package, workload, warmup, setup_s, loadavg_start):
    import reference
    import spans
    import workloads

    setups = [setup_s]
    if not args.trace:
        setups += [_probe_setup(args) for _ in range(SETUP_PROBES)]
    problems = [p for r in warmup for p in r.problems]
    if None in setups:
        problems.append("a setup probe failed")
    expected = {workload.key(i): r.digest for i, r in enumerate(warmup)}

    tracer = spans.Tracer()
    plain, traced = [], []
    # digests of the operations the metrics come from: the traced ones
    # in a traced run, the plain ones otherwise; report.py compares the
    # two runs' digests on their shared keys
    op_digests = {}
    # op seconds / reference seconds of each plain operation, and the
    # plain operations not yet paired with a reference time; the
    # reference time is the mean of the runs just before and just after
    ratios, unpaired = [], []
    ref_before = [reference.seconds() for _ in range(3)][-1]

    def pair():
        nonlocal ref_before
        ref_after = reference.seconds()
        ref_s = (ref_before + ref_after) / 2
        ratios.extend(seconds / ref_s for seconds in unpaired)
        unpaired.clear()
        ref_before = ref_after

    start = perf_counter()
    index = 0
    # the traced run alternates untraced and traced operations, so the
    # difference of their medians is the tracing overhead
    while (perf_counter() - start < args.seconds or not plain
           or (args.trace and not traced)):
        use_trace = bool(args.trace) and index % 2 == 1
        if use_trace:
            tracer.op = index
            with tracer.install(package):
                result = workloads.run_op(workload, index, measured=True)
        else:
            result = workloads.run_op(workload, index, measured=True)
        key = workload.key(index)
        if key in expected and expected[key] != result.digest:
            result.problems.append(f"operation {index}: output differs from "
                                   "an earlier one on the same input")
            result.failed = max(result.failed, 1)
        if use_trace == bool(args.trace) and len(op_digests) < DIGESTED_KEYS:
            op_digests.setdefault(str(key), result.digest)
        (traced if use_trace else plain).append(result)
        if not use_trace:
            unpaired.append(result.seconds)
            if sum(unpaired) >= REFERENCE_EVERY_S:
                pair()
        index += 1
    if unpaired:
        pair()
    if hasattr(workload, "finish"):
        problems += workload.finish()

    everything = warmup + plain + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    problems += [p for r in plain + traced for p in r.problems]
    for problem, count in collections.Counter(problems).most_common(20):
        print(f"# problem: {problem} ({count}x)")

    samples = [s for r in plain for s in r.samples]
    digests = _digests(warmup)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(samples), "tail_s": _tail(samples),
        "setup_samples_s": setups, "digests": digests,
        "op_digests": op_digests,
        "failed_frac": failed / attempted if attempted else 1.0,
        "named": _named(args.workload, plain, samples),
        "environment": _environment(), "loadavg_start": loadavg_start,
    }
    if args.trace:
        per_op = tracer.per_op()
        layers = spans.summarize(per_op)
        layers["trace.overhead_s"] = (
            _median([r.seconds for r in traced])
            - _median([r.seconds for r in plain]))
        info["exact_counts"] = {
            name: sorted({m[name] for m in per_op.values()})
            for name in spans.EXACT_COUNTS}
        path = os.path.join(ROOT, ".perfbench",
                            f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        info["spans_file"] = os.path.relpath(path, ROOT)
        units = dict((name, unit) for name, (unit, _) in
                     spans.PER_LAYER.items())
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        valid = [s for s in setups if s is not None]
        seconds = [r.seconds for r in plain]
        metrics = {
            "setup_s": {"value": _median(valid), "unit": "s"},
            "op_time_ref": {"value": _median(ratios), "unit": "ref"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
        info["named"].update(metrics)
        info["named"]["ops_per_s"] = {
            "value": len(seconds) / sum(seconds) if sum(seconds) else 0.0,
            "unit": "1/s"}
        info["reference_samples"] = len(ratios)
    info["loadavg_end"] = _loadavg()
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digests(warmup):
    """sha256 of each seeded output of the warm-up, over all its ops."""
    if len(warmup) == 1:
        return dict(warmup[0].outputs)
    names = sorted({name for r in warmup for name in r.outputs})
    return {name: hashlib.sha256("".join(r.outputs.get(name, "")
                                         for r in warmup).encode())
            .hexdigest() for name in names}


def _named(workload, results, samples):
    """End-to-end figures under the workload's own names."""
    if workload.startswith("release-"):
        return {"release_s": {"value": _median(samples), "unit": "s"}}
    if workload == "plan-certify":
        return {name: {"value": _median([r.named[name] for r in results
                                         if name in r.named]), "unit": "s"}
                for name in ("session_s", "predict_s", "optimize_s",
                             "verify_s", "lower_bound_s")}
    import numpy as np
    total = sum(samples)
    return {
        "small_release_per_s": {"value": len(samples) / total if total
                                else 0.0, "unit": "1/s"},
        "small_release_p50_us": {"value": float(np.percentile(samples, 50))
                                 * 1e6 if samples else 0.0, "unit": "us"},
        "small_release_p99_us": {"value": float(np.percentile(samples, 99))
                                 * 1e6 if samples else 0.0, "unit": "us"},
    }


if __name__ == "__main__":
    sys.exit(main())
