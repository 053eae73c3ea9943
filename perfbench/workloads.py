"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload object is built from the package under test, a seed and
a private work directory.  Construction writes all input files and
computes the exact answers the outputs are checked against; none of it
is timed.  `op(index)` runs one operation and times only the calls into
the package.  Operations with the same `key(index)` see the same input
and must return byte-identical output, which the runner checks.

Exact answers come from the benchmark's own rows, counted directly with
numpy, so a check never trusts the code it checks.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import os
from time import perf_counter, perf_counter_ns

import numpy as np

# |estimate - truth| of a released cell, in units of its set's sigma
CELL_SIGMAS = 7.0
# |mean error| of a cell over N releases, in units of sigma / sqrt(N)
MEAN_SIGMAS = 5.0
SIGMA_RTOL = 1e-12


@dataclasses.dataclass
class OpResult:
    """One operation: timed seconds, latency samples and output checks.

    seconds covers only calls into the package; samples holds one
    latency per unit of work (a CLI command or release); named holds
    the per-command times; outputs maps each seeded output to its
    sha256, and digest covers them all.
    """

    seconds: float
    samples: list
    named: dict
    outputs: dict
    attempted: int
    failed: int
    problems: list

    @property
    def digest(self):
        return _sha(json.dumps(self.outputs, sort_keys=True).encode())


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _latent_rows(rng, sizes, n, classes=3):
    """Rows drawn from a latent-class mixture, so attributes correlate."""
    z = rng.integers(0, classes, n)
    columns = []
    for m in sizes:
        cdf = np.cumsum(rng.dirichlet(np.full(m, 0.7), size=classes), axis=1)
        x = (rng.random(n)[:, None] > cdf[z]).sum(axis=1)
        columns.append(np.minimum(x, m - 1))
    return np.column_stack(columns).astype(np.int64)


def _workload_doc(names, sizes, kinds, sets, weights, kind):
    return {
        "attributes": [{"name": n, "size": int(m), "kind": k}
                       for n, m, k in zip(names, sizes, kinds)],
        "sets": [{"attrs": [names[j] for j in s], "weight": float(w)}
                 for s, w in zip(sets, weights)],
        "kind": kind,
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _write_csv(path, names, rows):
    np.savetxt(path, rows, fmt="%d", delimiter=",", header=",".join(names),
               comments="")


def _targets(m, kind):
    """Targets of one attribute in original coordinates, and their rows.

    A numerical target t >= 0 counts x <= t and t < 0 counts x >= -t;
    a categorical target t counts x == t.  Numerical targets are listed
    as the doubled domain lays them out: prefixes 0 .. m-1, then the
    suffixes -1 .. -m.
    """
    x = np.arange(m)
    if kind == "numerical":
        targets = list(range(m)) + list(range(-1, -m - 1, -1))
        rows = [x <= t if t >= 0 else x >= -t for t in targets]
    else:
        targets = list(range(m))
        rows = [x == t for t in targets]
    return {t: i for i, t in enumerate(targets)}, np.array(rows, dtype=float)


def _true_table(rows, members, sizes, kinds):
    """Exact counts of a set over every target, with each target's index."""
    sub = [sizes[j] for j in members]
    hist = np.bincount(np.ravel_multi_index(rows[:, list(members)].T, sub),
                       minlength=int(np.prod(sub))).reshape(sub)
    indices = []
    table = hist.astype(float)
    for axis, j in enumerate(members):
        index, indicator = _targets(sizes[j], kinds[j])
        indices.append(index)
        table = np.moveaxis(np.tensordot(indicator, table, axes=(1, axis)),
                            0, axis)
    return table, indices


class CliRelease:
    """`release` from a generated CSV to a JSON file, through cli.main."""

    warmup_ops = 1

    def __init__(self, package, seed, workdir, names, sizes, kinds, sets,
                 n, kind):
        rng = np.random.default_rng(seed)
        self.cli = package.cli
        self.names, self.sizes, self.kinds = names, sizes, kinds
        self.sets = sets
        self.rows = _latent_rows(rng, sizes, n)
        weights = rng.uniform(0.5, 2.0, len(sets))
        self.workload_path = os.path.join(workdir, "workload.json")
        self.dataset_path = os.path.join(workdir, "rows.csv")
        self.out_path = os.path.join(workdir, "release.json")
        _write_json(self.workload_path, _workload_doc(
            names, sizes, kinds, sets, weights, kind))
        _write_csv(self.dataset_path, names, self.rows)
        self.argv = ["release", "--dataset", self.dataset_path,
                     "--workload", self.workload_path, "--mu", "1.0",
                     "--seed", str(int(rng.integers(2 ** 31))),
                     "--out", self.out_path]
        self._checked = {}

    def key(self, index):
        return 0

    def op(self, index, measured):
        start = perf_counter()
        code = self.cli.main(list(self.argv))
        seconds = perf_counter() - start
        if code:
            digest, problems = _sha(b""), [f"release exited {code}"]
        else:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
            digest = _sha(data)
            # identical bytes pass or fail identically: check each once
            if digest not in self._checked:
                self._checked[digest] = self._check(data)
            problems = self._checked[digest]
        return OpResult(seconds, [seconds], {"release_s": seconds},
                        {"release": digest}, 1, int(bool(problems)),
                        problems)

    def _predicted_sigma(self):
        path = self.out_path + ".predicted"
        code = self.cli.main(["predict-error", "--workload",
                              self.workload_path, "--mu", "1.0",
                              "--out", path])
        if code:
            return None
        with open(path) as fh:
            doc = json.load(fh)
        return {tuple(e["attrs"]): e["sigma"] for e in doc["per_set"]}

    def _check(self, data):
        doc = json.loads(data)
        problems = []
        predicted = self._predicted_sigma()
        if predicted is None:
            return ["predict-error failed on the release workload"]
        entries = {tuple(e["attrs"]): e for e in doc["sets"]}
        for members in self.sets:
            label = tuple(self.names[j] for j in members)
            entry = entries.get(label)
            if entry is None:
                problems.append(f"set {label} missing")
                continue
            sigma = entry["sigma"]
            if not math.isclose(sigma, predicted[label],
                                rel_tol=SIGMA_RTOL, abs_tol=0.0):
                problems.append(f"set {label}: sigma {sigma} != predicted "
                                f"{predicted[label]}")
            truth, indices = _true_table(self.rows, members, self.sizes,
                                         self.kinds)
            cells = {tuple(index[t] for index, t in zip(indices, row["t"])):
                     row["estimate"] for row in entry["table"]}
            if len(cells) != truth.size or len(entry["table"]) != truth.size:
                problems.append(f"set {label}: {len(entry['table'])} cells, "
                                f"expected {truth.size}")
                continue
            where = tuple(np.array(list(cells)).T)
            error = np.abs(np.array(list(cells.values())) - truth[where])
            if not error.max() <= CELL_SIGMAS * sigma:
                problems.append(f"set {label}: error {error.max():.4g} > "
                                f"{CELL_SIGMAS} sigma = "
                                f"{CELL_SIGMAS * sigma:.4g}")
        return problems


def release_rows(package, seed, workdir):
    """All 66 two-way marginals of 12 size-4 attributes, 2,000 rows."""
    d = 12
    return CliRelease(package, seed, workdir,
                      names=[f"a{j}" for j in range(d)], sizes=[4] * d,
                      kinds=["categorical"] * d,
                      sets=list(itertools.combinations(range(d), 2)),
                      n=2_000, kind="marginal")


def release_ranges(package, seed, workdir):
    """All 6 pairs of 2 numerical size-64 and 2 categorical size-3
    attributes as range marginals, 2,000 rows."""
    return CliRelease(package, seed, workdir,
                      names=["x0", "x1", "c0", "c1"], sizes=[64, 64, 3, 3],
                      kinds=["numerical"] * 2 + ["categorical"] * 2,
                      sets=list(itertools.combinations(range(4), 2)),
                      n=2_000, kind="extended")


class PlanCertify:
    """A data-free session: predict-error and optimize-weights on a wide
    workload (574 sets over 20 attributes), verify and lower-bound on a
    dense one (5 size-4 attributes, |U| = 1,024, 800 query rows)."""

    warmup_ops = 1
    TOL = 1e-8

    def __init__(self, package, seed, workdir):
        rng = np.random.default_rng(seed)
        self.cli = package.cli
        d = 20
        sizes = [(2, 3, 4, 5, 8)[j % 5] for j in range(d)]
        wide = (list(itertools.combinations(range(d), 2))
                + [s for s in itertools.combinations(range(d), 3)
                   if sum(s) % 3 == 0])
        self.wide_weights = rng.uniform(0.5, 2.0, len(wide))
        self.wide_sets = len(wide)
        dense = (list(itertools.combinations(range(5), 3))
                 + list(itertools.combinations(range(5), 2)))
        paths = {name: os.path.join(workdir, name + ".json")
                 for name in ("wide", "dense")}
        _write_json(paths["wide"], _workload_doc(
            [f"v{j}" for j in range(d)], sizes, ["categorical"] * d, wide,
            self.wide_weights, "marginal"))
        _write_json(paths["dense"], _workload_doc(
            [f"u{j}" for j in range(5)], [4] * 5, ["categorical"] * 5, dense,
            rng.uniform(0.5, 2.0, len(dense)), "marginal"))
        def command(name, *argv):
            out = os.path.join(workdir, name + ".out.json")
            return name, list(argv) + ["--out", out], out

        self.commands = (
            command("predict_s", "predict-error", "--workload",
                    paths["wide"], "--mu", "1.0"),
            command("optimize_s", "optimize-weights", "--workload",
                    paths["wide"], "--tol", repr(self.TOL)),
            command("verify_s", "verify", "--workload", paths["dense"],
                    "--objective", "max-variance"),
            command("lower_bound_s", "lower-bound", "--workload",
                    paths["dense"], "--mu", "1.0"),
        )
        self._checked = {}

    def key(self, index):
        return 0

    def op(self, index, measured):
        named = {}
        outputs = {}
        problems = []
        for name, argv, out in self.commands:
            start = perf_counter()
            code = self.cli.main(list(argv))
            named[name] = perf_counter() - start
            if code:
                problems.append(f"{argv[0]} exited {code}")
                continue
            with open(out, "rb") as fh:
                outputs[name] = fh.read()
        digests = {argv[0]: _sha(outputs.get(name, b""))
                   for name, argv, _ in self.commands}
        key = tuple(digests.values())
        if not problems:
            if key not in self._checked:
                self._checked[key] = self._check(outputs)
            problems = self._checked[key]
        named["session_s"] = seconds = sum(named.values())
        return OpResult(seconds, [seconds], named, digests, 1,
                        int(bool(problems)), problems)

    def _check(self, outputs):
        problems = []
        predict = json.loads(outputs["predict_s"])
        sigma = np.array([e["sigma"] for e in predict["per_set"]])
        p = self.wide_weights / self.wide_weights.sum()
        if len(sigma) != self.wide_sets or not np.all(np.isfinite(sigma)) \
                or not np.all(sigma > 0):
            problems.append("predict-error: per-set sigmas missing or "
                            "not positive")
        else:
            rms = math.sqrt(float(p @ sigma ** 2))
            if not math.isclose(rms, predict["weighted_rms"], rel_tol=1e-9):
                problems.append(f"predict-error: weighted_rms "
                                f"{predict['weighted_rms']} != "
                                f"sqrt(sum p sigma^2) = {rms}")
        optimize = json.loads(outputs["optimize_s"])
        weights = np.array([e["p"] for e in optimize["sets"]])
        if not optimize["kkt_residual"] <= self.TOL:
            problems.append(f"optimize-weights: kkt_residual "
                            f"{optimize['kkt_residual']} > {self.TOL}")
        if len(weights) != self.wide_sets or (weights < 0).any() \
                or abs(weights.sum() - 1.0) > 1e-9:
            problems.append("optimize-weights: weights off the simplex")
        verify = json.loads(outputs["verify_s"])
        if verify.get("pass") is not True:
            problems.append("verify: certificates did not pass")
        ratio = json.loads(outputs["lower_bound_s"])["ratio"]
        if ratio is None or not abs(ratio - 1.0) <= 1e-9:
            problems.append(f"lower-bound: ratio {ratio} is not 1")
        return problems


@dataclasses.dataclass
class _Case:
    release: object
    sets: tuple
    truth: np.ndarray
    sigma: np.ndarray = None
    error_sum: np.ndarray = None
    count: int = 0


class SmallReleases:
    """Closed loop of tiny in-process releases over three fixed cases.

    One operation releases each case once, each release with a
    SeededSampler of its own spawned SeedSequence child; child i of the
    run is the same for every run with the same seed.
    """

    warmup_ops = 30

    def __init__(self, package, seed, workdir):
        rng = np.random.default_rng(seed)
        core, budget, mechanism = (package.core, package.budget,
                                   package.mechanism)
        self.budget = budget
        self.entropy = int(rng.integers(2 ** 63))
        self.cases = []

        def marginal_case(sizes, sets, weights, n):
            universe = core.build_universe(sizes)
            workload = core.Workload(universe=universe, sets=sets,
                                     weights=np.array(weights))
            rows = _latent_rows(rng, sizes, n)
            data = core.Dataset(universe=universe, rows=rows)
            plan = budget.plan_from_tau(1.0, budget.tau_marginal(workload))
            truth = np.concatenate([
                _true_table(rows, s, sizes, ["categorical"] * len(sizes))[0]
                .ravel() for s in sets])

            def release(child):
                return mechanism.release_marginals(
                    data, workload, sampler=budget.SeededSampler(child),
                    plan=plan)
            self.cases.append(_Case(release, sets, truth))

        marginal_case((2,) * 4, tuple(itertools.combinations(range(4), 2)),
                      [1.0 / 6] * 6, 30)
        marginal_case((2, 3, 5), ((0, 1), (1, 2)), [0.5, 0.5], 40)

        sizes, kinds = (2, 3), ("categorical", "numerical")
        universe = core.build_universe(sizes, kinds)
        sets = ((0, 1), (1,))
        workload = core.Workload(universe=universe, sets=sets,
                                 weights=np.array([0.6, 0.4]),
                                 kind="extended")
        rows = _latent_rows(rng, sizes, 25)
        data = core.Dataset(universe=universe, rows=rows)
        truth = np.concatenate([_true_table(rows, s, sizes, kinds)[0].ravel()
                                for s in sets])

        def release_extended(child):
            return mechanism.release_extended(
                data, workload, sampler=budget.SeededSampler(child))
        self.cases.append(_Case(release_extended, sets, truth))

    def key(self, index):
        return index

    def op(self, index, measured):
        samples = []
        failed = 0
        problems = []
        digest = hashlib.sha256()
        for c, case in enumerate(self.cases):
            child = np.random.SeedSequence(
                self.entropy, spawn_key=(len(self.cases) * index + c,))
            start = perf_counter_ns()
            try:
                result = case.release(child)
            except Exception as exc:  # counted as a failed release
                failed += 1
                problems.append(f"case {c}: {type(exc).__name__}: {exc}")
                continue
            samples.append((perf_counter_ns() - start) / 1e9)
            estimate = np.concatenate([np.asarray(result.estimates[s],
                                                  dtype=float).ravel()
                                       for s in case.sets])
            digest.update(estimate.tobytes())
            sigma = np.concatenate([
                np.full(np.asarray(result.estimates[s]).size,
                        result.per_set_sigma[s]) for s in case.sets])
            error = estimate - case.truth
            bad = []
            if case.sigma is not None and not np.array_equal(sigma,
                                                             case.sigma):
                bad.append("per-set sigma changed between releases")
            if not (np.abs(error) <= CELL_SIGMAS * sigma).all():
                bad.append(f"error above {CELL_SIGMAS} sigma")
            try:
                self.budget.accounting(result.plan)
            except self.budget.BudgetMismatch as exc:
                bad.append(f"accounting: {exc}")
            if bad:
                failed += 1
                problems.extend(f"case {c}: {b}" for b in bad)
            case.sigma = sigma
            if measured:
                case.error_sum = (error if case.error_sum is None
                                  else case.error_sum + error)
                case.count += 1
        return OpResult(sum(samples), samples, {},
                        {"releases": digest.hexdigest()}, len(self.cases),
                        failed, problems)

    def finish(self):
        """Run-mean error of every cell within 5 sigma / sqrt(N) of zero."""
        problems = []
        for c, case in enumerate(self.cases):
            if not case.count:
                continue
            mean = case.error_sum / case.count
            limit = MEAN_SIGMAS * case.sigma / math.sqrt(case.count)
            if not (np.abs(mean) <= limit).all():
                problems.append(f"case {c}: mean error over {case.count} "
                                f"releases above {MEAN_SIGMAS} sigma/sqrt(N)")
        return problems


def run_op(workload, index, measured):
    """workload.op, with an exception counted as a failed operation."""
    try:
        return workload.op(index, measured)
    except Exception as exc:  # the run goes on and reports the failure
        return OpResult(0.0, [], {}, {"error": repr(exc)}, 1, 1,
                        [f"{type(exc).__name__}: {exc}"])


WORKLOADS = {
    "release-rows": release_rows,
    "release-ranges": release_ranges,
    "plan-certify": PlanCertify,
    "small-releases": SmallReleases,
}
