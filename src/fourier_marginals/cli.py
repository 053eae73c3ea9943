"""Command line front end for the release pipeline.

Subcommands cover the full life of a workload: release draws private
tables from a dataset, predict-error reports closed-form noise levels
without touching any data, optimize-weights solves for the
max-variance weights, verify builds the dense factorization and checks
its optimality certificates, lower-bound prints the trace-norm bound
next to the achieved error, and plot-data emits the CSV tables behind
the accuracy figures.

Every command is deterministic given its flags; releases require an
explicit --seed and nothing reads ambient entropy.  Reports are written
with the bytes of json.dumps(doc, sort_keys=True, indent=2), but their
long members never go through it: the rest of the document does, and
each long member is written from its arrays and spliced in at its key
(_json_text).  These are the rows members, one {"attrs", number} entry
per set (_rows_text): predict-error's per_set, optimize-weights' sets,
and the weights of verify and of a max-variance release; and a
release's sets, whose tables, in JSON or --format csv, are written per
target layout (mechanism.table_layouts), with the bytes json.dumps and
csv.writer would give for the document that mechanism.release_document
builds.  An output path that cannot be written is an unusable flag.  The only
environment variable consulted is FOURIER_MARGINALS_LOG, which sets
the log level.

Exit codes: 0 success, 2 unusable flags or input files, or an instance
past the dense or release caps, 3 a requested set cannot be estimated,
4 the weight optimizer did not converge, 5 a certificate check failed.
"""

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import budget, core, factorization, mechanism, optimizer

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNESTIMABLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CERTIFICATE = 5

log = logging.getLogger("fourier_marginals.cli")


class ConfigError(core.FourierMarginalsError):
    """Flags or input files that cannot be used."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One parsed invocation, validated before any work starts."""

    command: str
    dataset: str = None
    workload: str = None
    mu: float = 1.0
    seed: int = None
    objective: str = "weighted-rms"
    out: str = None
    fmt: str = "json"
    dense_cap: int = None
    tol: float = 1e-8
    corrupt_scale: float = 1.0
    table: str = None
    m_values: tuple = ()
    k_values: tuple = ()
    d_max: int = 30
    m_max: int = 10000

    def validated(self):
        if not (self.mu > 0 and 0 < self.mu * self.mu < math.inf):
            raise ConfigError(f"mu must be positive with a finite, nonzero "
                              f"square, got {self.mu}")
        if self.command == "release" and self.seed is None:
            raise ConfigError("release draws noise and needs --seed")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got "
                              f"{self.tol}")
        if self.dense_cap is not None and self.dense_cap < 1:
            raise ConfigError(f"dense cap must be at least 1, got "
                              f"{self.dense_cap}")
        if self.command == "plot-data":
            if self.fmt != "csv":
                raise ConfigError("plot-data only emits CSV")
        elif self.fmt == "csv" and self.command != "release":
            raise ConfigError(f"{self.command} only emits JSON")
        return self


def _int_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="fourier-marginals",
        description="Differentially private releases of weighted marginal "
                    "and range workloads, with optimality certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="output path (default: stdout)")

    work = argparse.ArgumentParser(add_help=False)
    work.add_argument("--workload", required=True,
                      help="workload description, JSON")

    p = sub.add_parser("release", parents=[work, output],
                       help="draw a private release of a workload",
                       description=(
                           "Draw a private release of a workload.  The "
                           "privacy analysis assumes ideal real-valued "
                           "Gaussians.  Floating-point noise is a faithful "
                           "simulation, not a hardened implementation, and "
                           "no formal privacy claim is made for it here."))
    p.add_argument("--dataset", required=True, help="dataset rows, CSV")
    p.add_argument("--mu", type=float, default=1.0,
                   help="privacy level (default 1.0)")
    p.add_argument("--seed", type=int, help="noise seed, required")
    p.add_argument("--objective", choices=["weighted-rms", "max-variance"],
                   default="weighted-rms",
                   help="weights as given, or solved to equalize variances")
    p.add_argument("--format", dest="fmt", choices=["json", "csv"],
                   default="json")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="optimizer tolerance for max-variance")

    p = sub.add_parser("predict-error", parents=[work, output],
                       help="closed-form error report, no dataset needed")
    p.add_argument("--mu", type=float, default=1.0)

    p = sub.add_parser("optimize-weights", parents=[work, output],
                       help="solve for the max-variance optimal weights")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("verify", parents=[work, output],
                       help="check the factorization certificates")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="largest residual accepted as a pass")
    p.add_argument("--objective", choices=["weighted-rms", "max-variance"],
                   default="weighted-rms",
                   help="max-variance also certifies the row norms at "
                        "the solved weights")
    p.add_argument("--dense-cap", dest="dense_cap", type=int,
                   help="override the dense universe cap")
    p.add_argument("--corrupt-scale", dest="corrupt_scale", type=float,
                   default=1.0,
                   help="mis-scale one normalization entry; the "
                        "certificates must then fail (testing aid)")

    p = sub.add_parser("lower-bound", parents=[work, output],
                       help="trace-norm lower bound next to the achieved "
                            "error")
    p.add_argument("--mu", type=float, default=1.0)

    p = sub.add_parser("plot-data", parents=[output],
                       help="CSV tables for the accuracy figures")
    p.add_argument("--table", choices=["ratio", "eta-zeta"], required=True)
    p.add_argument("--m", dest="m_values", type=_int_list,
                   default=tuple(range(2, 11)),
                   help="domain sizes for the ratio table (comma list)")
    p.add_argument("--k", dest="k_values", type=_int_list,
                   default=(1, 2, 3),
                   help="marginal arities for the ratio table (comma list)")
    p.add_argument("--d-max", dest="d_max", type=int, default=30,
                   help="largest dimension for the ratio table")
    p.add_argument("--m-max", dest="m_max", type=int, default=10000,
                   help="largest domain size for the eta-zeta table")
    return parser


def _config_from_args(args):
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {name: value for name, value in vars(args).items()
              if name in fields and value is not None}
    if args.command == "plot-data":
        values.setdefault("fmt", "csv")
    return RunConfig(**values)


def _setup_logging():
    level = os.environ.get("FOURIER_MARGINALS_LOG", "")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO))


def _numpy_value(value):
    """json.dumps hook: numpy arrays and scalars as plain Python values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(doc, spliced=None):
    """json.dumps(doc, sort_keys=True, indent=2) plus a line break, with
    numpy values written as plain ones.

    spliced maps top-level keys of the document to the text of their
    values, laid out as that call lays them out there (as _rows_text
    and _release_json write them).  Those members go through json.dumps
    as [] and their text is put in at their keys, so a long member never
    meets json.dumps, whose indent falls back to the pure-Python
    encoder.
    """
    spliced = spliced or {}
    text = json.dumps(dict(doc, **dict.fromkeys(spliced, [])),
                      sort_keys=True, indent=2, default=_numpy_value) + "\n"
    for key, value in spliced.items():
        # a line break followed by two spaces and a quote is indentation
        # (strings escape their line breaks), so this text marks the one
        # top-level member of that key
        member = "\n  %s: " % json.dumps(key)
        head, tail = text.split(member + "[]")
        text = "".join((head, member, value, tail))
    return text


def _rows_text(field, sets, names, values):
    """The text of a top-level rows member of a report: one
    {"attrs": [names[j] for j in S], field: value} per set S, in order,
    as _json_text lays it out.  field must sort after "attrs".

    Each name is quoted once and the values are spelled by one
    json.dumps of a flat list of floats, which writes float.__repr__ and
    NaN, Infinity and -Infinity as it does inside a document.
    """
    if not sets:
        return "[]"
    quoted = list(map(json.dumps, names))
    entry = '\n    {\n      "attrs": %s,\n      ' + json.dumps(field) \
        + ': %s\n    }'
    numbers = json.dumps(np.asarray(values, dtype=float).tolist())
    return "[" + ",".join([
        entry % (_attrs_text([quoted[j] for j in members]), number)
        for members, number in zip(sets, numbers[1:-1].split(", "))]) \
        + "\n  ]"


def _attrs_text(quoted):
    """The "attrs" list of an entry of a top-level list, as _json_text
    lays it out, from its labels as json.dumps quotes them."""
    return "[\n        " + ",\n        ".join(quoted) + "\n      ]" \
        if quoted else "[]"


# The text of a release document's sets as json.dumps(sort_keys=True,
# indent=2) lays it out, in the pieces that lie between its numbers: a
# set's entry up to its sigma, from the sigma to the first estimate, and
# a table cell's target after its estimate, up to the next estimate.
_SET_HEAD = '\n    {\n      "attrs": %s,\n      "sigma": '
_TABLE_HEAD = ',\n      "table": [\n        {\n          "estimate": '
_ROW_TARGET = ',\n          "t": ['
_ROW_ITEM = "\n            %d"
_ROW_TAIL = "\n          ]\n        }"
_ROW_EMPTY = ',\n          "t": []\n        }'
_ROW_NEXT = ',\n        {\n          "estimate": '
_SET_TAIL = "\n      ]\n    }"


def _cell_texts(axes, item, sep, head="", tail=""):
    """Each cell's target as text, in row-major order: head, the item
    text of every attribute's target joined by sep, and tail.  Built one
    attribute at a time, so each target is formatted once per layout,
    not once per cell."""
    texts = [head]
    for i, axis in enumerate(axes):
        items = [(sep if i else "") + item % t for t in axis]
        if i == len(axes) - 1:
            items = [text + tail for text in items]
        texts = [text + part for text in texts for part in items]
    return texts if axes else [head + tail]


def _json_table_pieces(axes):
    """(joins, close) of a table of this layout, the targets of each
    attribute: the text between each estimate and the next, and the
    text after the last one, which closes the set's entry."""
    if axes:
        joins = _cell_texts(axes, _ROW_ITEM, ",", _ROW_TARGET,
                            _ROW_TAIL + _ROW_NEXT)
    else:
        joins = [_ROW_EMPTY + _ROW_NEXT]
    return joins, joins.pop()[:-len(_ROW_NEXT)] + _SET_TAIL


def _release_json(doc, result, spliced=None):
    """_json_text of the release document of result, whose skeleton is
    doc (mechanism.release_skeleton plus the CLI's meta and weights),
    with the members of spliced put in as _json_text puts them.

    The sets are written from the arrays and spliced in at their key,
    which gives the same bytes without the pure-Python encoder.  The
    sigmas and estimates, in document order, are encoded by one
    json.dumps of a flat list, which spells floats with float.__repr__
    and non-finite values as NaN, Infinity and -Infinity, as it does
    inside the document.  The text between them comes per layout of
    mechanism.table_layouts, built on first use.
    """
    keys, layouts = mechanism.table_layouts(result)
    tables = {}
    pieces = []
    numbers = []
    before = "["
    for entry, members, key in zip(doc["sets"], result.workload.sets, keys):
        if key not in tables:
            tables[key] = _json_table_pieces(layouts[key])
        joins, after = tables[key]
        attrs = _attrs_text([json.dumps(a) for a in entry["attrs"]])
        pieces += [before + _SET_HEAD % attrs, _TABLE_HEAD, *joins]
        before = after + ","
        numbers.append(entry["sigma"])
        numbers += result.estimates[members].ravel().tolist()
    texts = json.dumps(numbers)[1:-1].split(", ")
    # a release has at least one set, so after closes the last entry
    sets = "".join(itertools.chain(itertools.chain.from_iterable(
        zip(pieces, texts)), (after, "\n  ]")))
    return _json_text(doc, dict(spliced or {}, sets=sets))


def _csv_row(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _release_csv(doc, result):
    """CSV rows (attrs, t, sigma, estimate) of the release of result, one
    per table cell; doc is its skeleton as in _release_json.

    Attribute and target labels are joined with "|" and floats written
    with float.__repr__.  Each layout's target labels are built once.
    Each set's rows come from one row template: the csv module lays out
    its attrs and sigma cells, with slots for the target and estimate,
    which never need quoting.
    """
    keys, layouts = mechanism.table_layouts(result)
    labels = {}
    out = [_csv_row(["attrs", "t", "sigma", "estimate"])]
    for entry, members, key in zip(doc["sets"], result.workload.sets, keys):
        if key not in labels:
            labels[key] = _cell_texts(layouts[key], "%d", "|")
        attrs = "|".join(str(a) for a in entry["attrs"])
        row = _csv_row([attrs.replace("%", "%%"), "%s",
                        repr(float(entry["sigma"])), "%r"])
        out += [row % cell for cell in zip(
            labels[key], result.estimates[members].ravel().tolist())]
    return "".join(out)


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        # newline="" so csv row terminators survive byte-for-byte
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out!r}: {exc}")


def _load_workload(path):
    try:
        return core.read_workload_json(path)
    # json.load recurses once per nesting level of arrays and objects
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read workload {path!r}: {exc}")


def _load_dataset(path, universe, names):
    try:
        return core.read_dataset_csv(path, universe, names)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read dataset {path!r}: {exc}")


def _weight_rows(solution, names):
    """The text of a weights member: each set's solved weight p."""
    return _rows_text("p", solution.sets, names, solution.p_star)


def cmd_release(config):
    universe, workload, names = _load_workload(config.workload)
    dataset, value_maps = _load_dataset(config.dataset, universe, names)
    log.debug("release: %d rows, %d sets, kind %s", dataset.n,
              len(workload.sets), workload.kind)
    solution = None
    p = None
    if config.objective == "max-variance":
        solution = optimizer.optimize_pstar(workload, tol=config.tol)
        p = solution.p_star
    sampler = budget.SeededSampler(config.seed)
    result = mechanism.release_product(dataset, workload, p=p, mu=config.mu,
                                       sampler=sampler)
    doc = mechanism.release_skeleton(result, names=names)
    doc["meta"]["objective"] = config.objective
    doc["meta"]["value_maps"] = value_maps
    if config.fmt == "csv":
        text = _release_csv(doc, result)
    else:
        text = _release_json(doc, result, None if solution is None else
                             {"weights": _weight_rows(solution, names)})
    _emit(text, config.out)
    return EXIT_OK


def cmd_predict_error(config):
    universe, workload, names = _load_workload(config.workload)
    predicted = mechanism.predicted_error(workload, mu=config.mu)
    baseline = mechanism.gaussian_baseline_sigma(len(workload.sets),
                                                 config.mu)
    doc = {
        "kind": workload.kind,
        "mu": config.mu,
        "weighted_rms": predicted["weighted_rms"],
        "max_sigma": predicted["max_sigma"],
        "baseline_sigma": baseline,
        "improvement_ratio": predicted["weighted_rms"] / baseline,
    }
    sigmas = list(map(predicted["per_set_sigma"].__getitem__, workload.sets))
    per_set = _rows_text("sigma", workload.sets, names, sigmas)
    _emit(_json_text(doc, {"per_set": per_set}), config.out)
    return EXIT_OK


def cmd_optimize_weights(config):
    universe, workload, names = _load_workload(config.workload)
    solution = optimizer.optimize_pstar(workload, tol=config.tol)
    doc = {
        "kind": workload.kind,
        "objective": solution.objective,
        "kkt_residual": solution.kkt_residual,
        "iterations": solution.iterations,
    }
    _emit(_json_text(doc, {"sets": _weight_rows(solution, names)}),
          config.out)
    return EXIT_OK


def cmd_verify(config):
    universe, workload, names = _load_workload(config.workload)
    tol = config.tol
    solution = None
    p = None
    if config.objective == "max-variance":
        solution = optimizer.optimize_pstar(workload, tol=min(tol, 1e-8))
        p = solution.p_star
    fact = factorization.build_factorization(workload, p=p,
                                             dense_cap=config.dense_cap)
    if config.corrupt_scale != 1.0:
        if not len(fact.E):
            raise ConfigError("--corrupt-scale has no entry to mis-scale: "
                              "the workload releases no frequency")
        E = fact.E.copy()
        E[int(np.argmax(E))] *= config.corrupt_scale
        fact = dataclasses.replace(fact, E=E)
    report = factorization.norm_report(fact)
    residuals = factorization.tightness_certificate(fact)
    scale = max(report.svd_lower_bound, 1e-300)
    checks = [
        ("factor_product", residuals["lpl"], tol),
        ("right_gram", residuals["rr"], tol),
        ("column_norms", residuals["colnorm"], tol),
        ("trace_bound_gap",
         abs(report.gammaF_value - report.svd_lower_bound) / scale, tol),
    ]
    if solution is not None:
        # weights are solved to tol, so the max-sigma gap is looser
        checks.append(("row_norms", residuals["rownorm"], tol))
        checks.append(("minimax_gap",
                       abs(report.gamma2_value - report.svd_lower_bound)
                       / scale, max(tol, 1e-7)))
    doc = {
        "kind": workload.kind,
        "objective": config.objective,
        "tolerance": tol,
        "gammaF": report.gammaF_value,
        "gamma2": report.gamma2_value,
        "svd_lower": report.svd_lower_bound,
        "residuals": residuals,
    }
    rows = {}
    if solution is not None:
        rows["weights"] = _weight_rows(solution, names)
    if workload.kind == "extended":
        witness = factorization.lower_bound_witness(workload, p=p)
        checks += [(name, value, max(tol, limit)) for name, value, limit
                   in factorization.range_checks(witness)]
        doc["range_bound"] = {
            "closed_form": witness.closed_form,
            "trace_value": witness.trace_value,
            "op_norm": witness.op_norm,
            "note": witness.note,
        }
    doc["checks"] = [{"name": name, "value": value, "limit": limit,
                      "pass": value <= limit}
                     for name, value, limit in checks]
    ok = all(entry["pass"] for entry in doc["checks"])
    doc["pass"] = ok
    _emit(_json_text(doc, rows), config.out)
    return EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_lower_bound(config):
    universe, workload, names = _load_workload(config.workload)
    upper = mechanism.predicted_error(workload, mu=config.mu)["weighted_rms"]
    doc = {"kind": workload.kind, "mu": config.mu, "upper_bound": upper}
    if workload.kind == "extended":
        lower = factorization.extended_lower_bound(workload) / config.mu
        if core.NUMERICAL in universe.attribute_kind:
            doc["note"] = factorization.WITNESS_NOTE
    else:
        lower = factorization.svd_lower_bound(workload) / config.mu
    doc["lower_bound"] = lower
    doc["ratio"] = doc["lower_bound"] / upper if upper > 0 else None
    _emit(_json_text(doc), config.out)
    return EXIT_OK


def cmd_plot_data(config):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if config.table == "ratio":
        writer.writerow(["d", "k", "m", "ratio"])
        for m in config.m_values:
            for k in config.k_values:
                for d in range(k, config.d_max + 1):
                    sigma = mechanism.k_way_sigma(d, k, m, mu=1.0)
                    baseline = mechanism.gaussian_baseline_sigma(
                        math.comb(d, k), 1.0)
                    writer.writerow([d, k, m, repr(sigma / baseline)])
    else:
        writer.writerow(["m", "eta", "zeta", "difference"])
        for m in range(2, config.m_max + 1):
            high = mechanism.eta(m)
            low = mechanism.zeta(m)
            writer.writerow([m, repr(high), repr(low), repr(high - low)])
    _emit(buf.getvalue(), config.out)
    return EXIT_OK


COMMANDS = {
    "release": cmd_release,
    "predict-error": cmd_predict_error,
    "optimize-weights": cmd_optimize_weights,
    "verify": cmd_verify,
    "lower-bound": cmd_lower_bound,
    "plot-data": cmd_plot_data,
}


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args).validated()
        return COMMANDS[config.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except core.Unestimable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNESTIMABLE
    except optimizer.NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except factorization.CertificateFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except core.FourierMarginalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
