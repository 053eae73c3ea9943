"""Universe, workload, and dataset model tests."""

import csv
import dataclasses
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourier_marginals import budget, core, mechanism, oracle

from conftest import (datasets, reference_canonical_sets,
                      universes, workloads)


def test_build_universe_smallest_binary():
    u = core.build_universe([2, 2], [core.CATEGORICAL, core.CATEGORICAL])
    assert u.d == 2
    assert u.size == 4


def test_build_universe_mixed_sizes():
    u = core.build_universe([2, 3, 5])
    assert u.d == 3
    assert u.size == 30
    assert u.subuniverse_size((0, 2)) == 10


def test_build_universe_rejects_small_domain():
    with pytest.raises(core.SizeTooSmall):
        core.build_universe([2, 1])


def test_build_universe_rejects_length_mismatch():
    with pytest.raises(core.LengthMismatch):
        core.build_universe([2, 2], [core.CATEGORICAL])


def test_closure_of_one_pair():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0, 1),), weights=np.array([1.0]))
    assert core.downward_closure(w) == ((), (0,), (1,), (0, 1))


def test_closure_of_two_singletons():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0,), (1,)),
                      weights=np.array([0.5, 0.5]))
    assert core.downward_closure(w) == ((), (0,), (1,))


def test_closure_of_all_pairs_of_three():
    u = core.build_universe([2, 2, 2])
    w = core.Workload(universe=u, sets=((0, 1), (0, 2), (1, 2)),
                      weights=np.array([1.0, 1.0, 1.0]))
    members = core.downward_closure(w)
    assert len(members) == 7
    assert all(len(s) <= 2 for s in members)


@given(workloads())
@settings(max_examples=50, deadline=None)
def test_closure_idempotent_and_subset_closed(w):
    closure = core.downward_closure(w)
    members = set(closure)
    assert () in members
    for s in members:
        for j in s:
            reduced = tuple(v for v in s if v != j)
            assert reduced in members
    again = core.Workload(universe=w.universe, sets=closure,
                          weights=np.ones(len(closure)))
    assert core.downward_closure(again) == closure


def replace_normalize_weights(workload, p=None):
    """normalize_weights by building new workloads through
    dataclasses.replace, which checks the sets and tables again."""
    if not workload.sets:
        raise core.AllZeroWeights("no sets")
    if p is not None:
        workload = dataclasses.replace(workload, weights=p)
    with np.errstate(over="ignore"):
        total = float(workload.weights.sum())
    if total == math.inf:
        raise core.WeightOverflow("sum to inf")
    if total <= 0:
        raise core.AllZeroWeights("all zero")
    return dataclasses.replace(workload, weights=workload.weights / total)


@given(workloads(max_d=4, max_sets=5), st.data())
@settings(max_examples=100, deadline=None)
def test_normalize_weights_matches_replace_bit_for_bit(w, data):
    p = None
    if data.draw(st.booleans()):
        p = data.draw(st.lists(st.floats(0.0, 1e300), min_size=len(w.sets),
                               max_size=len(w.sets)))
        if not any(p):
            p[0] = 1.0
    got = core.normalize_weights(w, p)
    want = replace_normalize_weights(w, p)
    assert got is not w
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tobytes() == want.weights.tobytes()
    assert (got.universe, got.sets, got.kind, got.phi) \
        == (want.universe, want.sets, want.kind, want.phi)
    assert not got.weights.flags.writeable
    with pytest.raises(ValueError):
        got.weights[0] = 0.5
    # the workload given keeps its own weights
    assert w.weights is not got.weights


def test_normalize_weights_keeps_kind_and_tables():
    u = core.build_universe([2, 3])
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([1.0, 3.0]), kind="product",
                      phi=((1.0, 0.5), (0.0, 1.0, 2.0)))
    got = core.normalize_weights(w)
    assert (got.kind, got.phi, got.sets) == (w.kind, w.phi, w.sets)
    assert got.weights.tolist() == [0.25, 0.75]
    assert w.weights.tolist() == [1.0, 3.0]


@pytest.mark.parametrize("p, error", [
    ([1.0], core.LengthMismatch),
    ([1.0, 1.0, 1.0], core.LengthMismatch),
    ([[1.0, 1.0]], core.LengthMismatch),
    ([1.0, -0.5], core.AssignmentOutOfRange),
    ([1.0, math.nan], core.AssignmentOutOfRange),
    ([math.inf, 1.0], core.AssignmentOutOfRange),
    ([0.0, 0.0], core.AllZeroWeights),
    ([1.7e308, 1.7e308], core.WeightOverflow),
])
def test_normalize_weights_rejects_bad_p_as_before(p, error):
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0,), (1,)),
                      weights=np.array([1.0, 1.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(error):
            replace_normalize_weights(w, p)
        with pytest.raises(error):
            core.normalize_weights(w, p)


def test_normalize_weights_uniform():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0,), (1,)),
                      weights=np.array([1.0, 1.0]))
    np.testing.assert_allclose(core.normalize_weights(w).weights, [0.5, 0.5])


def test_normalize_weights_idempotent():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0,), (1,)),
                      weights=np.array([0.5, 0.5]))
    np.testing.assert_array_equal(core.normalize_weights(w).weights,
                                  [0.5, 0.5])


def test_normalize_weights_rejects_all_zero():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0,),), weights=np.array([0.0]))
    with pytest.raises(core.AllZeroWeights):
        core.normalize_weights(w)


@pytest.mark.parametrize("weights", [[1e308, 1e308], [1.7e308, 0.2e308],
                                     [1e308] * 3])
def test_normalize_weights_rejects_overflowing_sum(weights):
    u = core.build_universe([2, 2, 2])
    w = core.Workload(universe=u, sets=((0,), (1,), (2,))[:len(weights)],
                      weights=np.array(weights))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(core.WeightOverflow, match="sum to inf"):
            core.normalize_weights(w)


@given(st.lists(st.floats(0.0, 1.7e308), min_size=1, max_size=4))
@example([8.9e307, 8.9e307])
@example([1e-320, 3e-321])
@settings(max_examples=100, deadline=None)
def test_normalize_weights_keeps_bits_of_finite_sums(weights):
    weights = np.array(weights)
    with np.errstate(over="ignore"):
        total = weights.sum()
    u = core.build_universe([2] * len(weights))
    w = core.Workload(universe=u, sets=tuple((j,) for j in range(len(weights))),
                      weights=weights)
    if not 0 < total < math.inf:
        with pytest.raises((core.AllZeroWeights, core.WeightOverflow)):
            core.normalize_weights(w)
        return
    np.testing.assert_array_equal(core.normalize_weights(w).weights,
                                  weights / float(total))


def test_marginal_eval_examples():
    u = core.build_universe([2, 2])
    d = core.Dataset(universe=u, rows=np.array([[0, 1], [0, 0]]))
    assert core.marginal_eval(d, (0,), (0,)) == 2
    assert core.marginal_eval(d, (0, 1), (0, 1)) == 1
    empty = core.Dataset(universe=u, rows=np.empty((0, 2), dtype=np.int64))
    assert core.marginal_eval(empty, (0, 1), (1, 1)) == 0


def test_marginal_eval_rejects_bad_target():
    u = core.build_universe([2, 3])
    d = core.Dataset(universe=u, rows=np.array([[0, 1]]))
    with pytest.raises(core.AssignmentOutOfRange):
        core.marginal_eval(d, (1,), (3,))
    with pytest.raises(core.AssignmentOutOfRange):
        core.marginal_eval(d, (2,), (0,))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_marginal_tables_partition_rows(data):
    u = data.draw(universes())
    d = data.draw(datasets(u))
    sets = data.draw(st.sets(st.integers(0, u.d - 1), min_size=1))
    members = tuple(sorted(sets))
    import itertools
    total = sum(core.marginal_eval(d, members, t)
                for t in itertools.product(
                    *(range(u.domain_sizes[j]) for j in members)))
    assert total == d.n


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_marginal_eval_matches_dense_matrix(data):
    u = data.draw(universes(max_d=3, max_m=4))
    d = data.draw(datasets(u))
    sets = (tuple(range(u.d)),)
    dw = oracle.dense_workload(u.domain_sizes, sets, [1.0],
                               data_rows=[tuple(r) for r in d.rows])
    for (members, target), row in zip(dw.rows, dw.W):
        assert row @ dw.h == core.marginal_eval(d, members, target)


def test_workload_rejects_duplicates_and_negatives():
    u = core.build_universe([2, 2])
    with pytest.raises(core.AssignmentOutOfRange):
        core.Workload(universe=u, sets=((0, 1), (1, 0)),
                      weights=np.array([1.0, 1.0]))
    with pytest.raises(core.AssignmentOutOfRange):
        core.Workload(universe=u, sets=((0,),), weights=np.array([-0.5]))
    with pytest.raises(core.LengthMismatch):
        core.Workload(universe=u, sets=((0,),), weights=np.array([1.0, 2.0]))


def _outcome(call):
    """call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


SET_MEMBERS = st.integers(-1, 3) | st.integers(0, 3).map(np.int64)


@given(st.lists(st.lists(SET_MEMBERS, max_size=4)
                | st.tuples(SET_MEMBERS, SET_MEMBERS), max_size=5))
@settings(max_examples=200, deadline=None)
def test_workload_canonicalizes_sets_as_before(sets):
    """Workload's sets and set errors equal those of the per-set
    generator it used before: unsorted, repeated, out-of-range and
    duplicate sets of Python and numpy integers."""
    u = core.build_universe([2, 2, 2])
    got = _outcome(lambda: core.Workload(
        universe=u, sets=sets, weights=np.ones(len(sets))).sets)
    assert got == _outcome(lambda: reference_canonical_sets(sets, u.d))
    if got and not isinstance(got[0], type):
        assert all(type(j) is int for s in got for j in s)


def test_workload_phi_defaults_to_indicator():
    u = core.build_universe([3, 2])
    w = core.Workload(universe=u, sets=((0,),), weights=np.array([1.0]),
                      kind="product")
    assert w.phi_tables() == ((1.0, 0.0, 0.0), (1.0, 0.0))


def test_dataset_rejects_out_of_range_rows():
    u = core.build_universe([2, 2])
    with pytest.raises(core.AssignmentOutOfRange):
        core.Dataset(universe=u, rows=np.array([[0, 2]]))


def test_dataset_rejects_wrong_shape():
    u = core.build_universe([2, 2])
    for rows in (np.zeros((3, 4)), np.zeros(4), np.zeros((2, 2, 1)),
                 np.zeros((0, 3))):
        with pytest.raises(core.LengthMismatch):
            core.Dataset(universe=u, rows=rows)
    assert core.Dataset(universe=u, rows=np.zeros((0, 2))).n == 0


def test_dataset_copies_rows_and_rejects_writes():
    u = core.build_universe([3, 2])
    source = np.array([[0, 1], [2, 0], [1, 1]], dtype=np.int64)
    data = core.Dataset(universe=u, rows=source)
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([0.5, 0.5]))
    before = mechanism.release_marginals(data, w,
                                         sampler=budget.SeededSampler(3))
    # 7 is outside attribute 0's domain: kept by reference, it would be
    # released silently mod 3
    source[0, 0] = 7
    np.testing.assert_array_equal(data.rows, [[0, 1], [2, 0], [1, 1]])
    after = mechanism.release_marginals(data, w,
                                        sampler=budget.SeededSampler(3))
    for s in w.sets:
        assert after.estimates[s].tobytes() == before.estimates[s].tobytes()
    with pytest.raises(ValueError):
        data.rows[0, 0] = 1
    np.testing.assert_array_equal(data.rows[0], [0, 1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_workload_rejects_non_finite_weights(bad):
    u = core.build_universe([2, 2])
    with pytest.raises(core.AssignmentOutOfRange, match="finite"):
        core.Workload(universe=u, sets=((0,), (1,)),
                      weights=np.array([1.0, bad]))


WORKLOAD_DOC = {
    "attributes": [
        {"name": "color", "size": 3, "kind": "categorical"},
        {"name": "age", "size": 4, "kind": "numerical"},
    ],
    "sets": [
        {"attrs": ["color"], "weight": 1.0},
        {"attrs": ["color", "age"], "weight": 3.0},
    ],
    "kind": "marginal",
}


def test_read_workload_json():
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    assert names == ["color", "age"]
    assert universe.domain_sizes == (3, 4)
    assert universe.attribute_kind == (core.CATEGORICAL, core.NUMERICAL)
    assert workload.sets == ((0,), (0, 1))
    np.testing.assert_array_equal(workload.weights, [1.0, 3.0])


def test_read_workload_json_from_stream():
    stream = io.StringIO(json.dumps(WORKLOAD_DOC))
    universe, workload, _ = core.read_workload_json(stream)
    assert workload.kind == "marginal"


def test_read_workload_json_phi_requires_product():
    doc = dict(WORKLOAD_DOC)
    doc["phi"] = {"color": [1.0, 1.0, 0.0]}
    with pytest.raises(core.AssignmentOutOfRange):
        core.read_workload_json(doc)
    doc["kind"] = "product"
    _, workload, _ = core.read_workload_json(doc)
    assert workload.phi[0] == (1.0, 1.0, 0.0)
    assert workload.phi[1] == (1.0, 0.0, 0.0, 0.0)


def test_read_workload_json_unknown_attr():
    doc = dict(WORKLOAD_DOC)
    doc["sets"] = [{"attrs": ["height"], "weight": 1.0}]
    with pytest.raises(core.AssignmentOutOfRange):
        core.read_workload_json(doc)


def test_read_dataset_csv_integer_cells():
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    text = "age,color\n0,1\n3,2\n"
    dataset, value_maps = core.read_dataset_csv(io.StringIO(text),
                                                universe, names)
    np.testing.assert_array_equal(dataset.rows, [[1, 0], [2, 3]])
    assert value_maps == {}


def test_read_dataset_csv_string_codes():
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    text = "color,age\nred,0\nblue,1\nred,3\n"
    dataset, value_maps = core.read_dataset_csv(io.StringIO(text),
                                                universe, names)
    np.testing.assert_array_equal(dataset.rows, [[0, 0], [1, 1], [0, 3]])
    assert value_maps == {"color": {"red": 0, "blue": 1}}


def test_read_dataset_csv_strips_header_cells():
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    text = " age ,\tcolor\n0,1\n3,2\n"
    dataset, _ = core.read_dataset_csv(io.StringIO(text), universe, names)
    np.testing.assert_array_equal(dataset.rows, [[1, 0], [2, 3]])


def test_read_dataset_csv_missing_column():
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    with pytest.raises(core.LengthMismatch):
        core.read_dataset_csv(io.StringIO("color\n1\n"), universe, names)


def test_read_dataset_csv_value_out_of_range():
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    with pytest.raises(core.AssignmentOutOfRange):
        core.Dataset(universe=universe, rows=np.array([[0, 9]]))
    text = "color,age\na,0\nb,1\nc,2\nd,3\n"
    with pytest.raises(core.AssignmentOutOfRange):
        core.read_dataset_csv(io.StringIO(text), universe, names)


@pytest.mark.parametrize("text, line", [
    ("color,age\n0,0\nred,1\n", 3),
    ("color,age\nred,0\nblue,1\n2,2\n", 4),
    ("color,age\nred,0\n\n0,1\n", 4),
])
def test_read_dataset_csv_rejects_mixed_column(text, line):
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    with pytest.raises(core.AssignmentOutOfRange,
                       match=f"line {line}: attribute 'color' mixes"):
        core.read_dataset_csv(io.StringIO(text), universe, names)


@pytest.mark.parametrize("text, line, cell", [
    ("color,age\n0,0\n1,3\n2,4\n", 4, "value 4 of attribute 'age'"),
    ("color,age\n0,0\n\n1,1\n\n-1,2\n", 6,
     "value -1 of attribute 'color'"),
    ("color,age\n0,1\n0,99999999999999999999\n", 3,
     "value 99999999999999999999 of attribute 'age'"),
])
def test_read_dataset_csv_out_of_range_names_line(text, line, cell):
    universe, workload, names = core.read_workload_json(WORKLOAD_DOC)
    with pytest.raises(core.AssignmentOutOfRange,
                       match=f"line {line}: {cell}"):
        core.read_dataset_csv(io.StringIO(text), universe, names)


def reference_parse_csv_rows(reader, universe, names):
    """The reader cell by cell: one Python loop over the lines and cells,
    range errors located after every line has parsed."""
    header = next(reader, None)
    if header is None:
        raise core.LengthMismatch("empty dataset file")
    header = [h.strip() for h in header]
    position = {}
    for col, name in enumerate(header):
        if name not in names:
            raise core.AssignmentOutOfRange(f"unknown column {name!r}")
        if name in position:
            raise core.AssignmentOutOfRange(
                f"column {name!r} appears more than once")
        position[name] = col
    if len(position) != len(names):
        missing = sorted(set(names) - set(position))
        raise core.LengthMismatch(f"missing columns: {', '.join(missing)}")
    order = [position[name] for name in names]
    value_maps = {name: {} for name in names}
    coded = [value_maps[name] for name in names]
    blank = []
    out = []
    for line, raw in enumerate(reader, start=2):
        if not raw:
            blank.append(line)
            continue
        if len(raw) != len(header):
            raise core.LengthMismatch(
                f"line {line}: expected {len(header)} cells")
        point = []
        for j, col in enumerate(order):
            cell = raw[col].strip()
            try:
                value = int(cell)
            except ValueError:
                codes = coded[j]
                if cell not in codes:
                    if not codes and out:
                        raise core._mixed_column(line, names[j])
                    if len(codes) >= universe.domain_sizes[j]:
                        raise core.AssignmentOutOfRange(
                            f"line {line}: attribute {names[j]!r} has more "
                            f"than {universe.domain_sizes[j]} distinct "
                            "values")
                    codes[cell] = len(codes)
                value = codes[cell]
            else:
                if coded[j]:
                    raise core._mixed_column(line, names[j])
            point.append(value)
        out.append(point)
    try:
        rows = np.array(out, dtype=np.int64).reshape(len(out), universe.d)
        dataset = core.Dataset(universe=universe, rows=rows)
    except (OverflowError, core.AssignmentOutOfRange):
        rows = np.array(out, dtype=object).reshape(len(out), universe.d)
        sizes = np.array(universe.domain_sizes)
        bad = ((rows < 0) | (rows >= sizes)).astype(bool)
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[i]))
        line = i + 2
        for skipped in blank:
            if skipped > line:
                break
            line += 1
        raise core.AssignmentOutOfRange(
            f"line {line}: value {rows[i, j]} of attribute {names[j]!r} "
            f"outside [0, {sizes[j]})") from None
    value_maps = {name: codes for name, codes in value_maps.items() if codes}
    return dataset, value_maps


CSV_NAMES = ("a", "b", "c")
CSV_WORDS = ("red", "blue", "x", "y", "z")
CSV_OUTSIDE = ("99999999999999999999", "-99999999999999999999", "-1", "9",
               "007", "1_0", "999999999999999999", "1000000000000000000",
               "9223372036854775807", "-9223372036854775808",
               "9999999999999999999")
# integers that int() reads inside the domain but that the canonical
# grammar rejects (signed, grouped, non-ASCII or 19 digits), and an
# 18-digit one that it accepts
CSV_SPELLED = ("-0", "+1", "\u0661", "0000000000000000001",
               "000000000000000001")
CSV_ROGUE = CSV_OUTSIDE + ("", "1.5")


@st.composite
def csv_cells(draw, kind, size, mode, bare):
    own = (st.integers(0, size - 1).map(str) if kind == "int"
           else st.sampled_from(CSV_WORDS[:size]))
    # hypothesis favours the ends of a range, so rare cases take values
    # from its middle
    pick = draw(st.integers(0, 31)) if mode != "clean" else 0
    if pick not in (9, 17, 21, 25):
        cell = draw(own)
    elif mode == "range":
        cell = draw(st.sampled_from(CSV_OUTSIDE + CSV_SPELLED)) \
            if kind == "int" else draw(own)
    elif pick == 9:
        cell = draw(st.sampled_from(CSV_WORDS) if kind == "int"
                    else st.integers(0, size - 1).map(str))
    else:
        cell = draw(st.sampled_from(CSV_ROGUE + CSV_SPELLED + CSV_WORDS))
    if bare:
        return cell
    return draw(st.sampled_from(("{}", " {} ", '"{}"', '" {}"'))).format(cell)


@st.composite
def csv_files(draw):
    """(text, universe, names) of a dataset file, often a defective one."""
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    names = list(CSV_NAMES[:d])
    header = list(draw(st.permutations(names)))
    defect = draw(st.integers(0, 19))
    if defect == 7:
        header[draw(st.integers(0, d - 1))] = "zz"
    elif defect == 13 and d > 1:
        header.pop()
    elif defect == 17 and d > 1:
        header[-1] = header[0]
    # bare cells are written as they are, unquoted and unpadded, in
    # integer columns, so that most chunks of a bare file are canonical
    bare = draw(st.booleans())
    kinds = {name: "int" if bare else draw(st.sampled_from(("int", "str")))
             for name in names}
    size = dict(zip(names, sizes))
    # a clean file has no defective cells, a range file only integers
    # outside their domain, a rogue one any defect, ragged lines too
    mode = draw(st.sampled_from(("clean", "range", "rogue")))
    lines = []
    for _ in range(draw(st.integers(0, 12)) or draw(st.integers(0, 12))):
        shape = draw(st.integers(0, 24))
        if shape == 6:
            lines.append("")
            continue
        cells = [draw(csv_cells(kinds.get(name, "int"), size.get(name, 2),
                                mode, bare))
                 for name in header]
        if mode == "rogue" and shape == 12:
            cells.append("0")
        elif mode == "rogue" and shape == 18 and len(cells) > 1:
            cells.pop()
        lines.append(",".join(cells))
    end = draw(st.sampled_from(("\n", "\r\n")))
    text = ",".join(header) + end + end.join(lines)
    if draw(st.booleans()):
        text += end
    return text, core.build_universe(sizes), names


def _csv_outcome(parse):
    try:
        dataset, value_maps = parse()
    except core.FourierMarginalsError as exc:
        return type(exc), str(exc)
    return dataset.rows.tolist(), [(name, list(codes.items()))
                                   for name, codes in value_maps.items()]


@given(csv_files(), st.sampled_from([1, 2, 3, core.CSV_CHUNK_ROWS]))
@example(("", core.build_universe([2]), ["a"]), 1)
@example(("a,b\n0,0\n1,1\n\n1,7\n0\n", core.build_universe([2, 2]),
          ["a", "b"]), 2)
# as many separators as two good lines, with the line break misplaced
@example(("a,b\n0\n0,1,1\n", core.build_universe([2, 2]), ["a", "b"]), 2)
# one empty cell and one two-digit cell take as many bytes as two
# one-digit cells
@example(("c0\n\n10", core.build_universe([11]), ["c0"]), 2)
@settings(max_examples=400, deadline=None)
def test_read_dataset_csv_matches_cell_by_cell_reader(case, chunk_rows):
    text, universe, names = case
    expected = _csv_outcome(lambda: reference_parse_csv_rows(
        csv.reader(io.StringIO(text)), universe, names))
    with mock.patch.object(core, "CSV_CHUNK_ROWS", chunk_rows):
        actual = _csv_outcome(lambda: core.read_dataset_csv(
            io.StringIO(text), universe, names))
    assert actual == expected


def test_read_dataset_csv_canonical_chunks_skip_cell_conversion():
    universe = core.build_universe([2, 2])
    text = "b,a\r\n1,0\n0,1\r\n1,1\n000000000000000001,0\n1,1"
    with mock.patch.object(core, "CSV_CHUNK_ROWS", 2), \
            mock.patch.object(core, "_convert_column",
                              side_effect=AssertionError("cell by cell")):
        dataset, value_maps = core.read_dataset_csv(
            io.StringIO(text), universe, ["a", "b"])
    np.testing.assert_array_equal(dataset.rows,
                                  [[0, 1], [1, 0], [1, 1], [0, 1], [1, 1]])
    assert value_maps == {}


@pytest.mark.parametrize("text", [
    'a,b\n0,1\n1,0\n"1\n",0\n1,1\n',
    'a,b\n0,1\n1,0\n"1\n",0\n1,7\n0,0\n',
    'a,b\n0,1\n1,0\n"1\n",0\nred,1\n',
    'a,b\n0,1\n1,0\n"red\n",0\n0,1\n',
    'a,b\n0,1\n1,0\n"1\n",0\n\n1\n',
])
def test_read_dataset_csv_quoted_record_in_second_chunk(text):
    universe = core.build_universe([2, 2])
    expected = _csv_outcome(lambda: reference_parse_csv_rows(
        csv.reader(io.StringIO(text)), universe, ["a", "b"]))
    with mock.patch.object(core, "CSV_CHUNK_ROWS", 2):
        actual = _csv_outcome(lambda: core.read_dataset_csv(
            io.StringIO(text), universe, ["a", "b"]))
    assert actual == expected


@pytest.mark.parametrize("size, attrs", [
    ("4.5", '["a"]'),
    ('"3"', '["a"]'),
    ("true", '["a"]'),
    ("1e400", '["a"]'),
    ("2", '"ab"'),
])
def test_read_workload_json_rejects_reinterpreted_input(size, attrs):
    text = ('{"attributes": [{"name": "a", "size": %s}, '
            '{"name": "b", "size": 2}], "sets": [{"attrs": %s}]}'
            % (size, attrs))
    with pytest.raises(core.AssignmentOutOfRange,
                       match="is not an integer|is not a list"):
        core.read_workload_json(io.StringIO(text))


PAIR_WORKLOAD = {"attributes": [{"name": "a", "size": 2},
                                {"name": "b", "size": 2}],
                 "sets": [{"attrs": ["a"]}, {"attrs": ["a", "b"]}],
                 "kind": "product"}


@pytest.mark.parametrize("field, value", [
    ("weight", "0.5"),
    ("weight", True),
    ("weight", None),
    ("weight", [0.5]),
    ("phi", {"a": "10"}),
    ("phi", {"a": [1.0, "0"]}),
    ("phi", {"a": [True, False]}),
    ("phi", {"a": 1.0}),
    ("phi", {"a": {"0": 1.0, "1": 0.0}}),
    ("phi", {"a": [1.0, 10 ** 400]}),
    ("weight", 10 ** 400),
])
def test_read_workload_json_rejects_unconverted_numbers(field, value):
    doc = json.loads(json.dumps(PAIR_WORKLOAD))
    if field == "weight":
        doc["sets"][0]["weight"] = value
    else:
        doc["phi"] = value
    with pytest.raises(core.AssignmentOutOfRange,
                       match="is not a number|is not a list of numbers|"
                             "beyond the float range"):
        core.read_workload_json(doc)


@pytest.mark.parametrize("change, message", [
    (lambda doc: [doc], "is not an object"),
    (lambda doc: dict(doc, attributes={"a": 2}), "is not a list of attribute"),
    (lambda doc: dict(doc, attributes=[["a", 2], ["b", 2]]),
     "is not an object with a name and a size"),
    (lambda doc: dict(doc, attributes=[{"name": 1, "size": 2}]),
     "is not an object with a name and a size"),
    (lambda doc: dict(doc, attributes=[{"name": "a"}]),
     "is not an object with a name and a size"),
    (lambda doc: dict(doc, attributes=[{"name": "a", "size": 10 ** 400}]),
     "exceeds"),
    (lambda doc: dict(doc, attributes=[{"name": "a ", "size": 2},
                                       {"name": "b", "size": 2}]),
     "name 'a ' has leading or trailing whitespace"),
    (lambda doc: {key: doc[key] for key in ("attributes", "kind")},
     "is not a list of set objects"),
    (lambda doc: dict(doc, sets=[["a"]]), "is not an object"),
    (lambda doc: dict(doc, sets=[{"weight": 1.0}]), "is not a list of"),
    (lambda doc: dict(doc, sets=[{"attrs": [["a"]]}]), "unknown attribute"),
    (lambda doc: dict(doc, sets=[{"attrs": [{"a": 1}]}]),
     "unknown attribute"),
    (lambda doc: dict(doc, phi=[1, 0]), "is not an object mapping"),
    (lambda doc: dict(doc, phi="a"), "is not an object mapping"),
    (lambda doc: dict(doc, phi={"a": [math.nan, 0.0]}), "must be finite"),
    (lambda doc: dict(doc, phi={"a": [1.0, math.inf]}), "must be finite"),
])
def test_read_workload_json_rejects_malformed_documents(change, message):
    text = json.dumps(change(json.loads(json.dumps(PAIR_WORKLOAD))))
    with pytest.raises(core.AssignmentOutOfRange, match=message):
        core.read_workload_json(io.StringIO(text))


def test_read_workload_json_accepts_numbers():
    doc = json.loads(json.dumps(PAIR_WORKLOAD))
    doc["sets"][0]["weight"] = 2
    doc["sets"][1]["weight"] = 0.5
    doc["phi"] = {"b": [1, 0.5]}
    _, workload, _ = core.read_workload_json(doc)
    np.testing.assert_array_equal(workload.weights, [2.0, 0.5])
    assert workload.phi == ((1.0, 0.0), (1.0, 0.5))


# the first body is canonical and parses on the numpy path, the second
# holds a coded column and goes through csv.reader
@pytest.mark.parametrize("body", ["0,1,0\n1,0,1\n", "red,0,1\n0,1,0\n"])
def test_read_dataset_csv_rejects_repeated_column(body):
    universe = core.build_universe([2, 2])
    with pytest.raises(core.AssignmentOutOfRange,
                       match="column 'a' appears more than once"):
        core.read_dataset_csv(io.StringIO("a,b,a\n" + body), universe,
                              ["a", "b"])
