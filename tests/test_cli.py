"""Command line behavior: outputs, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import locale
import math
import numbers
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourier_marginals import budget, cli, core, factorization, mechanism

from conftest import reference_canonical_sets, releases

GOLDEN_PAIR = (1.0 + math.sqrt(2.0)) / 2.0

PAIR_DOC = {
    "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
    "sets": [{"attrs": ["a"], "weight": 0.5},
             {"attrs": ["b"], "weight": 0.5}],
}

RANGE_DOC = {
    "attributes": [{"name": "color", "size": 2, "kind": "categorical"},
                   {"name": "age", "size": 3, "kind": "numerical"}],
    "sets": [{"attrs": ["color", "age"], "weight": 0.6},
             {"attrs": ["age"], "weight": 0.4}],
    "kind": "extended",
}

PAIR_ROWS = "a,b\n0,0\n0,1\n1,1\n1,0\n0,0\n1,1\n0,1\n1,1\n0,0\n1,0\n"


def write_json(tmp_path, doc, name="workload.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_rows(tmp_path, text=PAIR_ROWS, name="rows.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------- release


def test_release_reports_predicted_sigma(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    doc = run_json(capsys, "release", "--workload", workload,
                   "--dataset", rows, "--mu", "1", "--seed", "42")
    assert doc["meta"] == {"kind": "marginal", "mu": 1.0, "seed": 42,
                           "objective": "weighted-rms", "value_maps": {}}
    for entry in doc["sets"]:
        assert entry["sigma"] == pytest.approx(GOLDEN_PAIR, abs=1e-9)
        assert len(entry["table"]) == 2
    assert doc["predicted"]["weighted_rms"] == pytest.approx(GOLDEN_PAIR,
                                                             abs=1e-12)


def test_release_reruns_byte_identical(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    argv = ["release", "--workload", workload, "--dataset", rows,
            "--mu", "1", "--seed", "42"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_release_seed_changes_noise_not_shape(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    one = run_json(capsys, "release", "--workload", workload,
                   "--dataset", rows, "--seed", "1")
    two = run_json(capsys, "release", "--workload", workload,
                   "--dataset", rows, "--seed", "2")
    values = [r["estimate"] for e in one["sets"] for r in e["table"]]
    other = [r["estimate"] for e in two["sets"] for r in e["table"]]
    assert values != other
    assert one["sets"][0]["sigma"] == two["sets"][0]["sigma"]


def test_release_csv_format(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "5",
                         "--format", "csv")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["attrs", "t", "sigma", "estimate"]
    assert len(table) == 5
    for row in table[1:]:
        float(row[2]), float(row[3])


def test_release_writes_output_file(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    out_path = tmp_path / "release.json"
    code, out, _ = run(capsys, "release", "--workload", workload,
                       "--dataset", rows, "--seed", "9",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["meta"]["seed"] == 9


def test_release_string_values_recorded(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path, "a,b\nred,0\nblue,1\nred,1\n")
    doc = run_json(capsys, "release", "--workload", workload,
                   "--dataset", rows, "--seed", "4")
    assert doc["meta"]["value_maps"] == {"a": {"red": 0, "blue": 1}}


def test_release_max_variance_records_weights(tmp_path, capsys):
    nested = {
        "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
        "sets": [{"attrs": ["a"], "weight": 0.5},
                 {"attrs": ["a", "b"], "weight": 0.5}],
    }
    workload = write_json(tmp_path, nested)
    rows = write_rows(tmp_path)
    doc = run_json(capsys, "release", "--workload", workload,
                   "--dataset", rows, "--seed", "6",
                   "--objective", "max-variance")
    assert doc["meta"]["objective"] == "max-variance"
    weights = [entry["p"] for entry in doc["weights"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert weights[0] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_release_extended_workload(tmp_path, capsys):
    workload = write_json(tmp_path, RANGE_DOC)
    rows = write_rows(tmp_path, "color,age\n0,0\n1,2\n0,1\n1,1\n0,2\n")
    doc = run_json(capsys, "release", "--workload", workload,
                   "--dataset", rows, "--seed", "3", "--mu", "1e9")
    assert doc["meta"]["kind"] == "extended"
    by_attrs = {tuple(e["attrs"]): e for e in doc["sets"]}
    targets = [row["t"] for row in by_attrs[("age",)]["table"]]
    assert targets == [[0], [1], [2], [-1], [-2], [-3]]
    # at huge mu the noise vanishes: t >= 0 counts age <= t and
    # t = -s counts age >= s, on ages (0, 2, 1, 1, 2)
    got = {tuple(r["t"]): r["estimate"] for r in by_attrs[("age",)]["table"]}
    want = {(0,): 1, (1,): 3, (2,): 5, (-1,): 4, (-2,): 2, (-3,): 0}
    for target, count in want.items():
        assert got[target] == pytest.approx(count, abs=1e-4)


SPECIAL_ESTIMATES = (-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324,
                     0.1, 2.0 / 3.0, 123456789.0)
# labels that read like the splice points of the JSON writer, past and
# present, or that need quoting or escaping in its templates
TRICKY_LABELS = ("\x00table\x00", '\n  "sets": []', '\n  "sets": ',
                 "%s", "%r%%", 'a,"b"', "\u00e9\n")

# The release writers as they were when they walked the document's
# rows, kept as references for the writers that work from the arrays.
_ROW_HEAD = '        {\n          "estimate": %s,\n          "t": '
_ROW_ITEM = "\n            %d"
_ROW_TAIL = "\n          ]\n        }"
_ROW_EMPTY = "[]\n        }"
_TABLE_SLOT = "\x00table\x00"


def reference_release_json(doc):
    sets = doc["sets"]
    skeleton = dict(doc, sets=[dict(entry, table=_TABLE_SLOT)
                               for entry in sets])
    parts = cli._json_text(skeleton).split(json.dumps(_TABLE_SLOT))
    if len(parts) != len(sets) + 1:
        return cli._json_text(doc)
    out = [parts[0]]
    for entry, part in zip(sets, parts[1:]):
        rows = entry["table"]
        estimates = [row["estimate"] for row in rows]
        if not all(map(math.isfinite, estimates)):
            return cli._json_text(doc)
        width = len(rows[0]["t"])
        template = _ROW_HEAD + ("[" + ",".join([_ROW_ITEM] * width)
                                + _ROW_TAIL if width else _ROW_EMPTY)
        out += ["[\n", ",\n".join([
            template % (text, *row["t"]) for text, row
            in zip(map(float.__repr__, estimates), rows)]), "\n      ]", part]
    return "".join(out)


def reference_release_csv(doc):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["attrs", "t", "sigma", "estimate"])
    for entry in doc["sets"]:
        attrs = "|".join(str(a) for a in entry["attrs"])
        sigma = repr(float(entry["sigma"]))
        for row in entry["table"]:
            target = "|".join(str(v) for v in row["t"])
            writer.writerow([attrs, target, sigma,
                             repr(float(row["estimate"]))])
    return buf.getvalue()


@st.composite
def release_outputs(draw):
    """(result, names, meta, weights) as cmd_release writes them, some
    estimates and sigmas of the result replaced by extreme or non-finite
    values."""
    result, names = draw(releases())
    # hypothesis favours the ends of a range, so rare cases take a value
    # from its middle
    if draw(st.integers(0, 19)) == 13:
        label = draw(st.sampled_from(TRICKY_LABELS))
        if label not in names:
            names[0] = label
    meta = {"objective": draw(st.sampled_from(["weighted-rms",
                                               "max-variance"])),
            "value_maps": draw(st.dictionaries(
                st.sampled_from(names),
                st.dictionaries(st.text(max_size=6), st.integers(0, 5),
                                max_size=3),
                max_size=2))}
    weights = None
    if draw(st.booleans()):
        weights = [{"attrs": [names[j] for j in s],
                    "p": draw(st.floats(0.0, 1.0))}
                   for s in result.workload.sets]
    special = st.sampled_from(SPECIAL_ESTIMATES) | st.floats(
        allow_nan=False, allow_infinity=False)
    if draw(st.integers(0, 19)) == 7:
        special |= st.sampled_from([math.nan, math.inf, -math.inf])
    for members in result.workload.sets:
        table = result.estimates[members].copy()
        cells = table.reshape(-1)
        for i in range(cells.size):
            if draw(st.integers(0, 2)) == 0:
                cells[i] = draw(special)
        result.estimates[members] = table
        if draw(st.integers(0, 9)) == 0:
            result.per_set_sigma[members] = draw(special)
    return result, names, meta, weights


def _with_cli_fields(doc, meta, weights):
    doc["meta"].update(meta)
    if weights is not None:
        doc["weights"] = weights
    return doc


@given(release_outputs())
@settings(max_examples=150, deadline=None)
def test_release_writer_matches_json_dumps(output):
    result, names, meta, weights = output
    doc = _with_cli_fields(mechanism.release_document(result, names=names),
                           meta, weights)
    expected = json.dumps(doc, sort_keys=True, indent=2,
                          default=cli._numpy_value) + "\n"
    skeleton = _with_cli_fields(mechanism.release_skeleton(result, names),
                                meta, weights)
    assert cli._release_json(skeleton, result) == expected
    assert reference_release_json(doc) == expected


@given(release_outputs())
@settings(max_examples=100, deadline=None)
def test_release_csv_writer_matches_reference(output):
    result, names, meta, weights = output
    doc = _with_cli_fields(mechanism.release_document(result, names=names),
                           meta, weights)
    skeleton = _with_cli_fields(mechanism.release_skeleton(result, names),
                                meta, weights)
    assert cli._release_csv(skeleton, result) == reference_release_csv(doc)


# The top-level members of each JSON report other than its rows member,
# and the (key, field) of its rows: the writer splices the rows in
# between members that json.dumps lays out, so their keys must sort on
# both sides of the rows key as they do in the reports.
REPORT_MEMBERS = {
    "predict-error": (("kind", "mu", "weighted_rms", "max_sigma",
                       "baseline_sigma", "improvement_ratio"),
                      ("per_set", "sigma")),
    "optimize-weights": (("kind", "objective", "kkt_residual",
                          "iterations"), ("sets", "p")),
    "verify": (("kind", "objective", "tolerance", "gammaF", "gamma2",
                "svd_lower", "residuals", "range_bound", "checks", "pass"),
               ("weights", "p")),
}
REPORT_NUMBERS = st.sampled_from(SPECIAL_ESTIMATES) | st.floats() \
    | st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def report_documents(draw):
    """(doc, spliced, reference): a report's members other than its rows
    as json.dumps writes them, the rows member as _rows_text writes it,
    and the whole document as the commands built it before."""
    command = draw(st.sampled_from(sorted(REPORT_MEMBERS)))
    keys, (key, field) = REPORT_MEMBERS[command]
    names = draw(st.lists(st.sampled_from(TRICKY_LABELS) | st.text(
        max_size=4), min_size=1, max_size=4, unique=True))
    sets = draw(st.lists(st.lists(st.sampled_from(range(len(names))),
                                  max_size=len(names), unique=True)
                         .map(sorted).map(tuple), max_size=5, unique=True))
    values = draw(st.lists(REPORT_NUMBERS, min_size=len(sets),
                           max_size=len(sets)))
    member = st.one_of(REPORT_NUMBERS, st.text(max_size=4), st.booleans(),
                       st.integers(), st.dictionaries(
                           st.text(max_size=3), REPORT_NUMBERS, max_size=2),
                       st.lists(REPORT_NUMBERS, max_size=2))
    doc = {name: draw(member) for name in keys}
    if command == "verify" and draw(st.booleans()):
        doc["objective"] = "weighted-rms"
        spliced = {}
    else:
        spliced = {key: cli._rows_text(field, sets, names, values)}
    reference = dict(doc)
    if spliced:
        reference[key] = [{"attrs": [names[j] for j in members],
                           field: value}
                          for members, value in zip(sets, values)]
    return doc, spliced, reference


@given(report_documents())
@settings(max_examples=200, deadline=None)
def test_report_writer_matches_json_dumps(report):
    """The rows members of predict-error, optimize-weights and verify,
    spliced into the rest of the report, give json.dumps's bytes: names
    that need escaping or read like the splice point, the empty set,
    non-finite numbers, and verify without weights."""
    doc, spliced, reference = report
    expected = json.dumps(reference, sort_keys=True, indent=2,
                          default=cli._numpy_value) + "\n"
    assert cli._json_text(doc, spliced) == expected


# names the reader accepts, from TRICKY_LABELS and beyond
REPORT_NAMES = ("\x00table\x00", "%s", "%r%%", 'a,"b"', "é", "per_set")


@pytest.mark.parametrize("argv, rows", [
    (["predict-error"], "per_set"), (["optimize-weights"], "sets"),
    (["verify"], None), (["verify", "--objective", "max-variance"], "weights"),
    (["release", "--seed", "3", "--objective", "max-variance"], "weights")])
def test_reports_are_json_dumps_of_their_documents(tmp_path, capsys, argv,
                                                   rows):
    """Each command's report is json.dumps of the document it holds, on
    names that need escaping and a workload with the empty set."""
    doc = {"attributes": [{"name": name, "size": 2}
                          for name in REPORT_NAMES],
           "sets": [{"attrs": [], "weight": 0.5},
                    {"attrs": ["\x00table\x00", "%s"], "weight": 1.0},
                    {"attrs": ['a,"b"', "é", "per_set"], "weight": 2}]}
    argv = [*argv, "--workload", write_json(tmp_path, doc)]
    if argv[0] == "release":
        argv += ["--dataset", write_rows(tmp_path, _csv_text(
            [REPORT_NAMES, [0, 1, 0, 1, 1, 0], [1, 1, 0, 0, 1, 1]]))]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    if rows is None:
        assert "weights" not in report
    else:
        assert [entry["attrs"] for entry in report[rows]] == [
            entry["attrs"] for entry in doc["sets"]]
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------- failures


def test_mu_zero_exits_2(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    code, _, err = run(capsys, "release", "--workload", workload,
                       "--dataset", rows, "--mu", "0", "--seed", "1")
    assert code == 2
    assert "mu" in err


@pytest.mark.parametrize("mu", ["inf", "-inf", "nan", "1e-200", "1e-160",
                                "1e200"])
def test_unusable_mu_exits_2(tmp_path, capsys, mu):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--mu", mu, "--seed", "1")
    assert code == 2 and out == ""
    assert "mu" in err and "Traceback" not in err
    # a finite report (sigma near 1e160) is the right answer there
    if mu != "1e-160":
        code, _, err = run(capsys, "predict-error", "--workload", workload,
                           "--mu", mu)
        assert code == 2 and "mu" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-8"])
@pytest.mark.parametrize("command", [
    ("verify", "--corrupt-scale", "2"), ("optimize-weights",),
    ("release", "--objective", "max-variance", "--seed", "1")])
def test_unusable_tol_exits_2(tmp_path, capsys, command, tol):
    # a limit of inf would pass any residual, even of a corrupted
    # factorization, and stop the optimizer at its uniform start
    args = list(command) + ["--workload", write_json(tmp_path, PAIR_DOC),
                            f"--tol={tol}"]
    if command[0] == "release":
        args += ["--dataset", write_rows(tmp_path)]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: tol must be positive and finite, got " \
        f"{float(tol)}\n"


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_non_finite_weight_exits_2(tmp_path, capsys, weight):
    doc = json.loads(json.dumps(PAIR_DOC))
    doc["sets"][1]["weight"] = weight
    workload = write_json(tmp_path, doc)
    code, out, err = run(capsys, "predict-error", "--workload", workload)
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("weight", ["0.5", True])
def test_unconverted_weight_exits_2(tmp_path, capsys, weight):
    doc = json.loads(json.dumps(PAIR_DOC))
    doc["sets"][1]["weight"] = weight
    workload = write_json(tmp_path, doc)
    code, out, err = run(capsys, "predict-error", "--workload", workload)
    assert code == 2 and out == ""
    assert "is not a number" in err and "Traceback" not in err


def test_string_phi_table_exits_2(tmp_path, capsys):
    doc = dict(PAIR_DOC, kind="product", phi={"a": "10"})
    workload = write_json(tmp_path, doc)
    code, out, err = run(capsys, "predict-error", "--workload", workload)
    assert code == 2 and out == ""
    assert "is not a list of numbers" in err


def test_phi_list_exits_2(tmp_path, capsys):
    doc = dict(PAIR_DOC, kind="product", phi=[1, 0])
    workload = write_json(tmp_path, doc)
    code, out, err = run(capsys, "predict-error", "--workload", workload)
    assert code == 2 and out == ""
    assert "is not an object mapping" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["predict-error", "release"])
def test_overflowing_weight_sum_exits_2(tmp_path, capsys, command):
    doc = json.loads(json.dumps(PAIR_DOC))
    for entry in doc["sets"]:
        entry["weight"] = 1e308
    workload = write_json(tmp_path, doc)
    argv = [command, "--workload", workload]
    if command == "release":
        argv += ["--dataset", write_rows(tmp_path), "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "sum to inf" in err


@pytest.mark.parametrize("command", ["predict-error", "release",
                                     "optimize-weights", "verify",
                                     "lower-bound", "plot-data"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, target):
    out = str(tmp_path / "missing" / "x.json") if target == "missing" \
        else str(tmp_path)
    if command == "plot-data":
        argv = [command, "--table", "ratio", "--m", "2", "--k", "1",
                "--d-max", "2"]
    else:
        argv = [command, "--workload", write_json(tmp_path, PAIR_DOC)]
    if command == "release":
        argv += ["--dataset", write_rows(tmp_path), "--seed", "1"]
    code, out_text, err = run(capsys, *argv, "--out", out)
    assert code == 2 and out_text == ""
    assert f"cannot write output {out!r}" in err


# arbitrary JSON, with integers kept small: a domain of size n costs
# O(n) memory in product workloads
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
NAMES = ("a", "b", "c")


def _or_any(draw, strategy):
    """A draw from strategy, or now and then any JSON value."""
    return draw(JSON_VALUES) if draw(st.integers(0, 5)) == 0 \
        else draw(strategy)


@st.composite
def workload_documents(draw):
    """Workload documents near the valid ones: each of attributes,
    sets, attrs, weight, kind and phi is sometimes any JSON value."""
    d = draw(st.integers(1, 3))
    sizes = [_or_any(draw, st.integers(1, 4) | st.just(10 ** 400))
             for _ in range(d)]
    attributes = _or_any(draw, st.just([
        {"name": _or_any(draw, st.just(NAMES[j])), "size": sizes[j],
         "kind": _or_any(draw, st.sampled_from(["categorical",
                                                "numerical"]))}
        for j in range(d)]))
    entry = st.fixed_dictionaries(
        {"attrs": st.lists(st.sampled_from(NAMES[:d]), max_size=d,
                           unique=True)},
        optional={"weight": st.floats(0.0, 2.0)
                  | st.sampled_from([1e308, 10 ** 400, -1.0])})
    sets = _or_any(draw, st.lists(entry, max_size=3))
    if isinstance(sets, list):
        for item in sets:
            if isinstance(item, dict):
                for key in ("attrs", "weight"):
                    if draw(st.integers(0, 7)) == 0:
                        item[key] = draw(JSON_VALUES)
    doc = {"attributes": attributes, "sets": sets,
           "kind": _or_any(draw, st.sampled_from(
               ["marginal", "product", "extended"]))}
    if draw(st.booleans()):
        doc["phi"] = _or_any(draw, st.dictionaries(
            st.sampled_from(NAMES[:d]),
            st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
            max_size=d))
    return doc


PHI_LIST_DOC = dict(PAIR_DOC, kind="product", phi=[1, 0])
OVERFLOW_DOC = dict(PAIR_DOC, sets=[{"attrs": ["a"], "weight": 1e308},
                                    {"attrs": ["b"], "weight": 1e308}])


@given(workload_documents(), st.sampled_from([None, "missing",
                                              "directory"]))
@example(PHI_LIST_DOC, None)
@example(OVERFLOW_DOC, None)
@example(PAIR_DOC, "directory")
@example(PAIR_DOC, "missing")
@settings(max_examples=150, deadline=None)
def test_workload_document_loads_or_exits_2(doc, target):
    """Any workload document either loads, or raises a typed error and
    predict-error exits 2; a loaded one is reported, or refused with a
    typed error when its weights cannot be normalized."""
    text = json.dumps(doc)
    try:
        _, workload, _ = core.read_workload_json(io.StringIO(text))
    except core.FourierMarginalsError:
        workload = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "workload.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["predict-error", "--workload", path]
        if target is not None:
            argv += ["--out", tmp if target == "directory"
                     else os.path.join(tmp, "missing", "x.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if workload is not None:
        try:
            weights = core.normalize_weights(workload).weights
        except core.FourierMarginalsError:
            workload = None
        else:
            assert math.fsum(weights) == pytest.approx(1.0)
    if workload is None or target is not None:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:
        assert code == 0, err.getvalue()
        assert json.loads(out.getvalue())["kind"] == workload.kind


def reference_read_workload_json(source):
    """core.read_workload_json as it was before its entry loop took
    identity type checks and one lookup per name, with Workload's
    per-set generator (reference_canonical_sets) in front of Workload."""
    AssignmentOutOfRange = core.AssignmentOutOfRange
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise AssignmentOutOfRange(f"workload {doc!r} is not an object")
    attrs = doc.get("attributes")
    if not isinstance(attrs, list):
        raise AssignmentOutOfRange(
            f"attributes {attrs!r} is not a list of attribute objects")
    for a in attrs:
        if not (isinstance(a, dict) and isinstance(a.get("name"), str)
                and "size" in a):
            raise AssignmentOutOfRange(
                f"attribute {a!r} is not an object with a name and a size")
    names = [a["name"] for a in attrs]
    for name in names:
        if name != name.strip():
            raise AssignmentOutOfRange(
                f"attribute name {name!r} has leading or trailing "
                "whitespace")
    if len(set(names)) != len(names):
        raise AssignmentOutOfRange("duplicate attribute names")
    universe = core.build_universe(
        [a["size"] for a in attrs],
        [a.get("kind", core.CATEGORICAL) for a in attrs])
    index = {name: j for j, name in enumerate(names)}
    entries = doc.get("sets")
    if not isinstance(entries, list):
        raise AssignmentOutOfRange(f"sets {entries!r} is not a list of "
                                   "set objects")
    sets = []
    weights = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise AssignmentOutOfRange(f"set {entry!r} is not an object")
        members = entry.get("attrs")
        if not isinstance(members, (list, tuple)):
            raise AssignmentOutOfRange(
                f"attrs {members!r} is not a list of attribute names")
        for name in members:
            if not (isinstance(name, str) and name in index):
                raise AssignmentOutOfRange(f"unknown attribute {name!r}")
        sets.append(tuple(index[name] for name in members))
        weights.append(_reference_number(entry.get("weight", 1.0),
                                         "weight"))
    kind = doc.get("kind", "marginal")
    phi = doc.get("phi")
    if phi is not None and not isinstance(phi, dict):
        raise AssignmentOutOfRange(
            f"phi {phi!r} is not an object mapping attribute names to "
            "tables")
    if phi:
        if kind != "product":
            raise AssignmentOutOfRange(
                "phi tables only apply to product workloads")
        tables = [None] * universe.d
        for name, table in phi.items():
            if name not in index:
                raise AssignmentOutOfRange(
                    f"unknown attribute {name!r} in phi")
            if not (isinstance(table, (list, tuple))
                    and all(map(_reference_is_number, table))):
                raise AssignmentOutOfRange(
                    f"phi table {table!r} of {name!r} is not a list of "
                    "numbers")
            tables[index[name]] = tuple(
                _reference_number(v, f"phi entry of {name!r}")
                for v in table)
        for j, table in enumerate(tables):
            if table is None:
                tables[j] = (1.0,) + (0.0,) * (universe.domain_sizes[j] - 1)
        phi = tuple(tables)
    else:
        phi = None
    workload = core.Workload(
        universe=universe, sets=reference_canonical_sets(sets, universe.d),
        weights=np.array(weights, dtype=float), kind=kind, phi=phi)
    return universe, workload, names


def _reference_number(value, what):
    if not _reference_is_number(value):
        raise core.AssignmentOutOfRange(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise core.AssignmentOutOfRange(f"{what} {value!r} is beyond the "
                                        "float range")


def _reference_is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Name(str):
    """An attribute name of a str subclass, as a caller may pass one in
    an already-parsed document."""


def _loaded(reader, source):
    """What reader makes of source: universe, names, sets, weight bits,
    kind and phi, or the type and message of what it raised."""
    try:
        universe, workload, names = reader(source)
    except Exception as exc:
        return type(exc), str(exc)
    return (universe, names, workload.sets, workload.weights.tobytes(),
            workload.kind, workload.phi)


NUMPY_DOC = {
    "attributes": [{"name": Name("a"), "size": np.int64(2)},
                   {"name": "b", "size": 3}],
    "sets": [{"attrs": [Name("a")], "weight": np.float32(0.1)},
             {"attrs": ("b", Name("a")), "weight": np.int64(3)},
             {"attrs": ["b"], "weight": np.float64(0.7)},
             {"attrs": [], "weight": 2}],
    "kind": "product",
    "phi": {Name("b"): [np.float32(0.5), 1, np.int8(0)]},
}
LATE_ERROR_DOC = dict(PAIR_DOC, sets=[{"attrs": ["a"], "weight": 10 ** 400},
                                      {"attrs": ["zz"]}])


@given(workload_documents())
@example(NUMPY_DOC)
@example(dict(NUMPY_DOC, sets=[*NUMPY_DOC["sets"], {"attrs": [Name("c")]}]))
@example(dict(NUMPY_DOC, sets=[{"attrs": ["a"], "weight": np.bool_(True)}]))
@example(LATE_ERROR_DOC)
@example(OVERFLOW_DOC)
@settings(max_examples=300, deadline=None)
def test_reader_matches_reference(doc):
    """read_workload_json loads what the reference loads, bit for bit,
    or raises the same error type with the same message, from a parsed
    document (numpy scalars and str subclasses included) and from its
    JSON text."""
    expected = _loaded(reference_read_workload_json, doc)
    assert _loaded(core.read_workload_json, doc) == expected
    text = json.dumps(doc, default=cli._numpy_value)
    assert _loaded(core.read_workload_json, io.StringIO(text)) \
        == _loaded(reference_read_workload_json, io.StringIO(text))


@pytest.mark.parametrize("command", ["optimize-weights", "verify",
                                     "release"])
def test_empty_workload_max_variance_exits_2(tmp_path, capsys, command):
    doc = {"attributes": [{"name": "a", "size": 2}], "sets": []}
    argv = [command, "--workload", write_json(tmp_path, doc)]
    if command != "optimize-weights":
        argv += ["--objective", "max-variance"]
    if command == "release":
        argv += ["--dataset", write_rows(tmp_path, "a\n0\n1\n"),
                 "--seed", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no sets" in err


@pytest.mark.parametrize("command", ["release", "predict-error", "verify",
                                     "lower-bound"])
def test_empty_workload_exits_2(tmp_path, capsys, command):
    doc = {"attributes": [{"name": "a", "size": 2}], "sets": []}
    argv = [command, "--workload", write_json(tmp_path, doc)]
    if command == "release":
        argv += ["--dataset", write_rows(tmp_path, "a\n0\n1\n"),
                 "--seed", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: the workload has no sets, so it has no weights "
                   "to normalize\n")


def test_padded_attribute_name_exits_2(tmp_path, capsys):
    # the CSV reader strips header cells, so the workload reader refuses
    # names it could never match
    doc = {"attributes": [{"name": "a ", "size": 2},
                          {"name": "b", "size": 2}],
           "sets": [{"attrs": ["a "]}]}
    workload = write_json(tmp_path, doc)
    rows = write_rows(tmp_path, '"a ",b\n0,1\n')
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "1")
    assert code == 2 and out == ""
    assert "attribute name 'a ' has leading or trailing whitespace" in err


def test_repeated_csv_column_exits_2(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path, "a,b,a\nred,0,1\n0,1,0\n")
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "1")
    assert code == 2 and out == ""
    assert "column 'a' appears more than once" in err


def test_mixed_csv_column_exits_2_with_line(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path, "a,b\n0,0\nred,1\n1,1\nblue,0\n")
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "1")
    assert code == 2 and out == ""
    assert "line 3" in err and "'a'" in err


# the first body is canonical until the defect; the quoted cell sends
# the second through csv.reader from its first chunk on
@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="0xff decodes in this locale's encoding")
@pytest.mark.parametrize("first", [b"0,1", b'"0",1'])
def test_undecodable_dataset_exits_2(tmp_path, capsys, monkeypatch, first):
    monkeypatch.setattr(core, "CSV_CHUNK_ROWS", 2)
    workload = write_json(tmp_path, PAIR_DOC)
    path = tmp_path / "rows.csv"
    # the bad byte lies past the first block the text layer decodes, so
    # the header still reads
    path.write_bytes(b"a,b\n" + first + b"\n" + b"0,1\n" * 5000
                     + b"1,\xff\n")
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", str(path), "--seed", "1")
    assert code == 2 and out == ""
    assert f"cannot read dataset {str(path)!r}" in err


@pytest.mark.parametrize("cell", ["1" * 131073, "x" * 131073])
def test_oversized_csv_field_exits_2(tmp_path, capsys, cell):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path, f"a,b\n0,1\n1,{cell}\n")
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "1")
    assert code == 2 and out == ""
    assert f"cannot read dataset {rows!r}" in err
    assert "field larger than field limit" in err


def test_missing_seed_exits_2(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    code, _, err = run(capsys, "release", "--workload", workload,
                       "--dataset", rows)
    assert code == 2
    assert "seed" in err


def test_negative_seed_exits_2(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    rows = write_rows(tmp_path)
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed must be nonnegative" in err


def test_unknown_attribute_exits_2(tmp_path, capsys):
    bad = {"attributes": [{"name": "a", "size": 2}],
           "sets": [{"attrs": ["zz"], "weight": 1.0}]}
    workload = write_json(tmp_path, bad)
    code, _, err = run(capsys, "predict-error", "--workload", workload)
    assert code == 2
    assert "zz" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "predict-error", "--workload", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["predict-error", "release"])
def test_deeply_nested_workload_exits_2(tmp_path, capsys, command):
    # json.load recurses once per open bracket
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    argv = [command, "--workload", str(path)]
    if command == "release":
        argv += ["--dataset", write_rows(tmp_path), "--seed", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read workload") \
        and err.count("\n") == 1


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "predict-error", "--workload",
                     str(tmp_path / "nope.json"))
    assert code == 2


def test_uncovered_zero_weight_set_exits_3(tmp_path, capsys):
    uncovered = {
        "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
        "sets": [{"attrs": ["a"], "weight": 1.0},
                 {"attrs": ["b"], "weight": 0.0}],
    }
    workload = write_json(tmp_path, uncovered)
    rows = write_rows(tmp_path)
    code, _, err = run(capsys, "release", "--workload", workload,
                       "--dataset", rows, "--seed", "1")
    assert code == 3
    assert "weight" in err


def test_unservable_release_exits_2_before_allocating(tmp_path, capsys):
    # one pair of two size-10^5 attributes: 10^10 frequencies and cells,
    # 74.5 GiB of frequency rows alone
    huge = {
        "attributes": [{"name": "a", "size": 10 ** 5},
                       {"name": "b", "size": 10 ** 5}],
        "sets": [{"attrs": ["a", "b"], "weight": 1.0}],
    }
    workload = write_json(tmp_path, huge)
    rows = write_rows(tmp_path, "a,b\n0,1\n5,7\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", rows, "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (f"error: 10000000000 frequencies exceed the release cap "
                   f"{mechanism.RELEASE_FREQUENCY_CAP}\n")


def test_no_subcommand_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def test_release_help_disclaims_floating_point_noise(capsys):
    code, out, _ = run(capsys, "release", "--help")
    assert code == 0
    text = " ".join(out.split())
    assert "Floating-point noise is a faithful simulation, not a hardened " \
        "implementation, and no formal privacy claim is made for it" in text


def test_csv_format_rejected_outside_release(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    code, _, err = run(capsys, "plot-data", "--table", "ratio")
    assert code == 0
    code, _, err = run(capsys, "verify", "--workload", workload,
                       "--dense-cap", "0")
    assert code == 2


# ------------------------------------------------------ predict-error


def test_predict_error_golden_pair(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    doc = run_json(capsys, "predict-error", "--workload", workload)
    assert doc["weighted_rms"] == pytest.approx(GOLDEN_PAIR, abs=1e-12)
    assert doc["baseline_sigma"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert doc["improvement_ratio"] == pytest.approx(
        GOLDEN_PAIR / math.sqrt(2.0), abs=1e-12)
    sigmas = [entry["sigma"] for entry in doc["per_set"]]
    assert sigmas == [pytest.approx(GOLDEN_PAIR, abs=1e-12)] * 2


def test_predict_error_matches_release_sigma(tmp_path, capsys):
    workload = write_json(tmp_path, RANGE_DOC)
    rows = write_rows(tmp_path, "color,age\n0,0\n1,2\n")
    predicted = run_json(capsys, "predict-error", "--workload", workload)
    released = run_json(capsys, "release", "--workload", workload,
                        "--dataset", rows, "--seed", "8")
    want = {tuple(e["attrs"]): e["sigma"] for e in predicted["per_set"]}
    for entry in released["sets"]:
        assert entry["sigma"] == pytest.approx(want[tuple(entry["attrs"])],
                                               abs=1e-12)


def test_predict_error_single_range_attribute(tmp_path, capsys):
    m = 8
    doc = {"attributes": [{"name": "v", "size": m, "kind": "numerical"}],
           "sets": [{"attrs": ["v"], "weight": 1.0}], "kind": "extended"}
    workload = write_json(tmp_path, doc)
    report = run_json(capsys, "predict-error", "--workload", workload)
    assert report["weighted_rms"] == pytest.approx(
        0.5 * (1.0 + mechanism.eta(m)), abs=1e-10)


def test_predict_error_full_set_ratio_is_one(tmp_path, capsys):
    doc = {"attributes": [{"name": "a", "size": 3}, {"name": "b", "size": 2}],
           "sets": [{"attrs": ["a", "b"], "weight": 1.0}]}
    workload = write_json(tmp_path, doc)
    report = run_json(capsys, "predict-error", "--workload", workload)
    assert report["weighted_rms"] == pytest.approx(1.0, abs=1e-12)
    assert report["improvement_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_predict_error_respects_mu(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    doc = run_json(capsys, "predict-error", "--workload", workload,
                   "--mu", "2.0")
    assert doc["weighted_rms"] == pytest.approx(GOLDEN_PAIR / 2.0,
                                                abs=1e-12)
    assert doc["improvement_ratio"] == pytest.approx(
        GOLDEN_PAIR / math.sqrt(2.0), abs=1e-12)


# --------------------------------------------------- optimize-weights


def test_optimize_weights_nested_pair(tmp_path, capsys):
    nested = {
        "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
        "sets": [{"attrs": ["a"], "weight": 0.5},
                 {"attrs": ["a", "b"], "weight": 0.5}],
    }
    workload = write_json(tmp_path, nested)
    doc = run_json(capsys, "optimize-weights", "--workload", workload)
    weights = [entry["p"] for entry in doc["sets"]]
    assert weights[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert weights[1] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert doc["objective"] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-8)
    assert doc["kkt_residual"] <= 1e-8
    assert isinstance(doc["iterations"], int)


# --------------------------------------------------------------- verify


def test_verify_golden_pair_passes(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    doc = run_json(capsys, "verify", "--workload", workload)
    assert doc["pass"] is True
    assert doc["gammaF"] == pytest.approx(GOLDEN_PAIR, abs=1e-9)
    assert doc["svd_lower"] == pytest.approx(GOLDEN_PAIR, abs=1e-9)
    names = {check["name"] for check in doc["checks"]}
    assert names == {"factor_product", "right_gram", "column_norms",
                     "trace_bound_gap"}


def test_verify_all_two_way_passes(tmp_path, capsys):
    doc = {
        "attributes": [{"name": n, "size": 2} for n in "xyz"],
        "sets": [{"attrs": ["x", "y"], "weight": 1.0},
                 {"attrs": ["x", "z"], "weight": 1.0},
                 {"attrs": ["y", "z"], "weight": 1.0}],
    }
    workload = write_json(tmp_path, doc)
    report = run_json(capsys, "verify", "--workload", workload)
    assert report["pass"] is True


def test_verify_corrupted_normalization_exits_5(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    code, out, _ = run(capsys, "verify", "--workload", workload,
                       "--corrupt-scale", "1.01")
    assert code == 5
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(not check["pass"] for check in doc["checks"])


def test_verify_nan_in_left_factor_exits_5(tmp_path, capsys, monkeypatch):
    build = factorization.build_factorization

    def planted(*args, **kwargs):
        fact = build(*args, **kwargs)
        # the rows of set a on frequency (0, 1), whose support leaves a
        assert fact.rows[0][0] == (0,) and fact.freqs[1] == (0, 1)
        fact.L[0, 1] = math.nan
        return fact

    monkeypatch.setattr(factorization, "build_factorization", planted)
    workload = write_json(tmp_path, PAIR_DOC)
    code, out, _ = run(capsys, "verify", "--workload", workload)
    assert code == 5
    doc = json.loads(out)
    assert doc["pass"] is False
    assert math.isnan(doc["residuals"]["lpl"])
    checks = {check["name"]: check for check in doc["checks"]}
    assert checks["factor_product"]["pass"] is False


def test_verify_extended_includes_range_bound(tmp_path, capsys):
    workload = write_json(tmp_path, RANGE_DOC)
    doc = run_json(capsys, "verify", "--workload", workload)
    assert doc["pass"] is True
    assert doc["range_bound"]["op_norm"] <= 1 + 1e-9
    assert doc["range_bound"]["trace_value"] == pytest.approx(
        doc["range_bound"]["closed_form"], rel=1e-8)
    assert "prefix" in doc["range_bound"]["note"]
    names = {check["name"] for check in doc["checks"]}
    assert {"range_trace_gap", "range_op_norm_excess"} <= names


@pytest.mark.parametrize("objective", ["weighted-rms", "max-variance"])
def test_verify_constant_workload_passes_at_zero(tmp_path, capsys,
                                                 objective):
    # an all-zero phi factor makes every query answer 0: the pair is
    # empty, and every residual, norm and bound is exactly 0
    constant = {
        "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 3}],
        "sets": [{"attrs": ["a", "b"], "weight": 1}],
        "kind": "product",
        "phi": {"a": [0, 0], "b": [1, 0, 0]},
    }
    workload = write_json(tmp_path, constant)
    doc = run_json(capsys, "verify", "--workload", workload,
                   "--objective", objective)
    assert doc["pass"] is True
    assert doc["gammaF"] == doc["svd_lower"] == 0.0
    assert doc["residuals"] == {"lpl": 0.0, "rr": 0.0, "colnorm": 0.0,
                                "rownorm": 0.0}
    assert all(check["pass"] for check in doc["checks"])
    assert len(doc["checks"]) == (6 if objective == "max-variance" else 4)
    # nothing is released, so there is no normalization to corrupt
    code, out, err = run(capsys, "verify", "--workload", workload,
                         "--objective", objective, "--corrupt-scale", "2")
    assert code == 2 and out == ""
    assert "no entry to mis-scale" in err
    assert "Traceback" not in err


def test_verify_max_variance_checks_row_norms(tmp_path, capsys):
    nested = {
        "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
        "sets": [{"attrs": ["a"], "weight": 0.5},
                 {"attrs": ["a", "b"], "weight": 0.5}],
    }
    workload = write_json(tmp_path, nested)
    doc = run_json(capsys, "verify", "--workload", workload,
                   "--objective", "max-variance")
    assert doc["pass"] is True
    names = {check["name"] for check in doc["checks"]}
    assert {"row_norms", "minimax_gap"} <= names
    assert "weights" in doc


def test_verify_dense_cap_exceeded_exits_2(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    code, _, err = run(capsys, "verify", "--workload", workload,
                       "--dense-cap", "2")
    assert code == 2
    assert "dense cap" in err


# ---------------------------------------------------------- lower-bound


def test_lower_bound_marginal_is_tight(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    doc = run_json(capsys, "lower-bound", "--workload", workload,
                   "--mu", "2.0")
    assert doc["lower_bound"] == pytest.approx(GOLDEN_PAIR / 2.0, abs=1e-9)
    assert doc["upper_bound"] == pytest.approx(GOLDEN_PAIR / 2.0, abs=1e-12)
    assert doc["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_lower_bound_extended_below_upper(tmp_path, capsys):
    workload = write_json(tmp_path, RANGE_DOC)
    doc = run_json(capsys, "lower-bound", "--workload", workload)
    assert doc["lower_bound"] == pytest.approx(1.1871329335794163,
                                               abs=1e-10)
    assert doc["lower_bound"] < doc["upper_bound"]
    assert 0 < doc["ratio"] < 1
    assert "prefix" in doc["note"]


def test_lower_bound_has_no_dense_cap(tmp_path, capsys):
    workload = write_json(tmp_path, RANGE_DOC)
    code, out, err = run(capsys, "lower-bound", "--workload", workload,
                         "--dense-cap", "5")
    assert code == 2
    assert out == ""
    assert "--dense-cap" in err


@pytest.mark.parametrize("kind", ["marginal", "product", "extended"])
def test_lower_bound_documents_have_no_dense_witness_key(tmp_path, capsys,
                                                         kind):
    workload = write_json(tmp_path, PINNED_FIXTURES[kind][0])
    report = run_json(capsys, "lower-bound", "--workload", workload)
    assert "dense_witness" not in report


def _off_witness(monkeypatch):
    """Make every range witness's trace_value 1e-6 off."""
    witness = factorization.lower_bound_witness

    def off(*args, **kwargs):
        found = witness(*args, **kwargs)
        return dataclasses.replace(found,
                                   trace_value=found.trace_value + 1e-6)

    monkeypatch.setattr(factorization, "lower_bound_witness", off)


def test_lower_bound_range_check_failure_exits_5(tmp_path, capsys,
                                                 monkeypatch):
    _off_witness(monkeypatch)
    workload = write_json(tmp_path, RANGE_DOC)
    code, out, err = run(capsys, "lower-bound", "--workload", workload)
    assert code == cli.EXIT_CERTIFICATE == 5
    assert out == ""
    assert err.startswith("error: range witness check failed: "
                          "range_trace_gap")
    assert err.count("\n") == 1


def test_verify_range_check_failure_exits_5(tmp_path, capsys, monkeypatch):
    _off_witness(monkeypatch)
    workload = write_json(tmp_path, RANGE_DOC)
    code, out, _ = run(capsys, "verify", "--workload", workload)
    assert code == 5
    doc = json.loads(out)
    failed = [check for check in doc["checks"] if not check["pass"]]
    assert [check["name"] for check in failed] == ["range_trace_gap"]
    # the limit lower-bound applies too, at verify's default tol
    assert failed[0]["limit"] == 1e-8


def test_commands_at_a_domain_size_past_the_address_space(tmp_path, capsys):
    # one table of a size-10^13 attribute would take 146 TiB, more than
    # a 128 TiB user address space: nothing may allocate it
    workload = write_json(tmp_path, {
        "attributes": [{"name": "a", "size": 10 ** 13},
                       {"name": "b", "size": 3}, {"name": "c", "size": 4}],
        "sets": [{"attrs": ["a"], "weight": 1.0},
                 {"attrs": ["b", "c"], "weight": 0.5}]})
    predicted = run_json(capsys, "predict-error", "--workload", workload)
    assert math.isfinite(predicted["weighted_rms"])
    solved = run_json(capsys, "optimize-weights", "--workload", workload)
    assert len(solved["sets"]) == 2
    code, out, err = run(capsys, "lower-bound", "--workload", workload)
    assert (code, out) == (2, "")
    assert "dense cap" in err
    code, out, err = run(capsys, "release", "--workload", workload,
                         "--dataset", write_rows(tmp_path, "a,b,c\n0,1,2\n"),
                         "--seed", "3")
    assert (code, out) == (2, "")
    assert "release cap" in err


def test_lower_bound_extended_plans_the_witness_once(tmp_path, capsys,
                                                    monkeypatch):
    plan = budget.subset_plan
    calls = []

    def counted(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(budget, "subset_plan", counted)
    workload = write_json(tmp_path, RANGE_DOC)
    run_json(capsys, "lower-bound", "--workload", workload)
    # one plan for the predicted error, one for the witness
    assert len(calls) == 2


def test_lower_bound_beyond_cap_computes_the_bound(tmp_path, capsys,
                                                  monkeypatch):
    bound = factorization.svd_lower_bound
    values = []

    def counted(*args, **kwargs):
        values.append(bound(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(factorization, "svd_lower_bound", counted)
    doc = {"attributes": [{"name": f"c{j}", "size": 2} for j in range(13)],
           "sets": [{"attrs": [f"c{j}"], "weight": 1.0} for j in range(13)]}
    workload = write_json(tmp_path, doc)
    report = run_json(capsys, "lower-bound", "--workload", workload)
    assert values == [report["lower_bound"]]
    assert "dense_witness" not in report
    assert report["ratio"] == pytest.approx(1.0, abs=1e-12)


def _assert_lower_bound_meets_upper(tmp_path, capsys, doc):
    workload = write_json(tmp_path, doc)
    report = run_json(capsys, "lower-bound", "--workload", workload)
    assert math.isclose(report["lower_bound"], report["upper_bound"],
                        rel_tol=1e-12)
    assert "dense_witness" not in report


def test_lower_bound_of_all_triples_of_20_size_8_attributes(tmp_path,
                                                            capsys):
    # 1,140 sets over |U| = 8^20, far past both dense caps
    names = [f"a{j}" for j in range(20)]
    _assert_lower_bound_meets_upper(tmp_path, capsys, {
        "attributes": [{"name": name, "size": 8} for name in names],
        "sets": [{"attrs": list(s), "weight": 1.0}
                 for s in itertools.combinations(names, 3)]})


def test_lower_bound_of_a_product_past_the_caps_with_a_zero_coefficient(
        tmp_path, capsys):
    # phi of a is (1, 1, 1), whose coefficients vanish at every a != 0;
    # 9 size-3 attributes make |U| = 19,683
    names = "abcdefghi"
    _assert_lower_bound_meets_upper(tmp_path, capsys, {
        "attributes": [{"name": name, "size": 3} for name in names],
        "sets": [{"attrs": list(s), "weight": 1.0 + i % 3}
                 for i, s in enumerate(itertools.combinations(names, 2))],
        "kind": "product",
        "phi": {name: [1, 1, 1] if name == "a" else [1, 0.5, 0.25]
                for name in names}})



def test_lower_bound_refuses_a_huge_attribute_before_allocating(tmp_path,
                                                                capsys):
    # one size-10^5 attribute: its per-attribute SVD would hold 80 GB
    huge = {"attributes": [{"name": "a", "size": 10 ** 5}],
            "sets": [{"attrs": ["a"], "weight": 1.0}]}
    workload = write_json(tmp_path, huge)
    start = time.perf_counter()
    code, out, err = run(capsys, "lower-bound", "--workload", workload)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (f"error: attribute size 100000 exceeds the dense cap "
                   f"{factorization.DENSE_UNIVERSE_CAP} of the trace "
                   f"bound's per-attribute SVD\n")

# ------------------------------------------------------------ plot-data


def test_plot_ratio_table(capsys):
    code, out, _ = run(capsys, "plot-data", "--table", "ratio",
                       "--m", "2,3", "--k", "1,2", "--d-max", "6")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["d", "k", "m", "ratio"]
    rows = [(int(d), int(k), int(m), float(r)) for d, k, m, r in table[1:]]
    assert len(rows) == 2 * (6 + 5)
    assert all(r <= 1.0 + 1e-12 for *_, r in rows)
    for d, k, m, r in rows:
        if d == k:
            assert r == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(
            mechanism.k_way_sigma(d, k, m) / math.sqrt(math.comb(d, k)),
            abs=1e-15)


def test_plot_eta_zeta_table(capsys):
    code, out, _ = run(capsys, "plot-data", "--table", "eta-zeta",
                       "--m-max", "50")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["m", "eta", "zeta", "difference"]
    assert [int(row[0]) for row in table[1:]] == list(range(2, 51))
    first = table[1]
    assert float(first[1]) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert float(first[2]) == pytest.approx(0.5, abs=1e-12)
    assert all(float(row[3]) > 0 for row in table[1:])


def test_plot_empty_grid_emits_header_only(capsys):
    code, out, _ = run(capsys, "plot-data", "--table", "ratio", "--m", "")
    assert code == 0
    assert out == "d,k,m,ratio\n"


def test_plot_data_writes_file_without_cr(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "plot-data", "--table", "eta-zeta",
                     "--m-max", "5", "--out", str(out_path))
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "m,eta,zeta,difference"


# ------------------------------------------------------------- document


def test_certificate_document_roundtrips_via_json(tmp_path, capsys):
    # the verify document serializes cleanly
    workload = write_json(tmp_path, PAIR_DOC)
    doc = run_json(capsys, "verify", "--workload", workload)
    again = json.loads(json.dumps(doc, sort_keys=True))
    assert again == doc
    assert doc["residuals"]["lpl"] <= 1e-10


# -------------------------------------------------------- seeded bytes

# sha256 of the stdout of seeded commands and of the demos.  A change
# that moves any of these bits must re-record the digests and list the
# moved outputs, with the reason, in CHANGES.md.

PRODUCT_DOC = {
    "attributes": [{"name": "a", "size": 2}, {"name": "b", "size": 3}],
    "sets": [{"attrs": ["a"], "weight": 0.4},
             {"attrs": ["a", "b"], "weight": 0.6}],
    "kind": "product",
    "phi": {"a": [1, 0.5], "b": [0.5, 1, 0]},
}

PINNED_FIXTURES = {
    "marginal": (PAIR_DOC, PAIR_ROWS),
    "product": (PRODUCT_DOC, "a,b\n0,0\n1,2\n0,1\n1,1\n0,2\n1,0\n"),
    "extended": (RANGE_DOC, "color,age\n0,0\n1,2\n0,1\n1,1\n0,2\n"),
}

PINNED_OUTPUTS = {
    ("marginal", "release"):
        "b8d9d04d6a0e24b1760bfb7315f8ac69485ff033eaa2d4c5619463490d09664a",
    ("marginal", "release-csv"):
        "63755c5d2e16e8b3fff659cfef0a62956fa117a17176df6f099d9e97ca552b04",
    ("marginal", "predict-error"):
        "afb7be2677626a5df7b8d22a3191ef03dcd361906dab23f4d6baa1f58e1b448c",
    ("marginal", "verify"):
        "db414547ba7f6217a6f811502d21a7bd8c598fe9ba70ff26aa1afd05120520f9",
    ("marginal", "lower-bound"):
        "525c58aa5e99c788a9773622f5c6dc67359cac8e050f20fd9d5fd21143415651",
    ("product", "release"):
        "e1ac62027a6d65a5da9c0bc6e7b0212e03aa6269e3d059ad9da218eb089a29a7",
    ("product", "release-csv"):
        "984f2520afd5bd7afc3c3c06dd6896e8032fa35af18096e274fa5455f58d715f",
    ("product", "predict-error"):
        "cd116a0ce6144dba0f107e6dce1535be4c192745de6b497594f1fa6a7da9e991",
    ("product", "verify"):
        "92254e4cb30796fdb0d1973aba4b13222433c7a7841a7c906a3e8033a682ff65",
    ("product", "lower-bound"):
        "06b1fe8e10e4a873198aa0dd8b8a390e1a001ac8d4483953f3390762a2d2068f",
    ("extended", "release"):
        "5d93c4137d321dd7727f1076f64c89fea5d630bafada6e5a82509effcddd3b93",
    ("extended", "release-csv"):
        "080effbe927320744e844a0bd914b941c66a7d0cba254cfa9691b1a874e728f3",
    ("extended", "predict-error"):
        "ee8fbf89307efc6337402f33a440d46b9ab26b65eb351e2f05fd47458df21095",
    ("extended", "verify"):
        "a50651c4e6166e78526451d73370cce4a74e4a4a31ac68d952739c7fc67d1655",
    ("extended", "lower-bound"):
        "39eac4b59c29df67463bb6d54b517af642c6f2e5464ed658fae674e398ebb3c2",
}

PINNED_DEMOS = {
    "error_curves.py":
        "01e2e52f3b777e3006cbf42dfb6f77dd7cc5b88b0f42b8e9d0c3d92c9b972aad",
    "optimize_weights.py":
        "12b2f5ab3a00baca89621b020e85d96cc9f79db8f1bb47e7cbd0f35de14d4ed4",
    "range_queries.py":
        "84a9d7c292c2fa2ba2c4ff5ca8b6d081b80abda1080d843394fe2d3d59246d20",
    "release_marginals.py":
        "1979bce609545a86e5beb1dcaf6ff66555a2ea81a7be3c36ff5274c34acd1c7c",
    "smoothed_queries.py":
        "06379d0bc4437035aab0d4c711327ca10a1f7b91c8e300abac949e870c7163b3",
    "verify_factorization.py":
        "00c28ebb4def7e0b26430b172eb7653a75720c55c670249c4599aa3b07dd23e1",
}

REPO = pathlib.Path(__file__).resolve().parents[1]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind, command", sorted(PINNED_OUTPUTS))
def test_seeded_output_bytes_are_pinned(tmp_path, capsys, kind, command):
    doc, text = PINNED_FIXTURES[kind]
    argv = [command, "--workload", write_json(tmp_path, doc)]
    if command.startswith("release"):
        argv = ["release", *argv[1:], "--dataset",
                write_rows(tmp_path, text), "--seed", "11", "--mu", "0.7"]
        if command == "release-csv":
            argv += ["--format", "csv"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert _digest(out) == PINNED_OUTPUTS[kind, command]


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_output_bytes_are_pinned(name):
    path = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(REPO / "demos" / name)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert _digest(done.stdout) == PINNED_DEMOS[name]


def test_cli_and_oracle_import_without_scipy(tmp_path, capsys):
    workload = write_json(tmp_path, PAIR_DOC)
    code, expected, err = run(capsys, "predict-error", "--workload",
                              workload)
    assert code == 0, err
    path = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    # a None entry in sys.modules makes every scipy import fail
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from fourier_marginals import cli, oracle\n"
              "oracle.dense_workload((2,), [(0,)], [1.0])\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    done = subprocess.run([sys.executable, "-c", script, "predict-error",
                           "--workload", workload], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
