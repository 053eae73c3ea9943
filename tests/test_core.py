"""Universe, workload, and dataset model tests."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_marginals import core, oracle

from conftest import datasets, universes, workloads


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


def test_closure_positive_only_drops_uncovered():
    u = core.build_universe([2, 2, 2])
    w = core.Workload(universe=u, sets=((0, 1), (2,)),
                      weights=np.array([1.0, 0.0]))
    restricted = core.downward_closure(w, positive_only=True)
    assert (2,) not in restricted
    assert restricted == ((), (0,), (1,), (0, 1))


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
