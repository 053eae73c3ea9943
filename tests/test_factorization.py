"""Dense factorizations: norms, lower bounds, tightness certificates."""

import dataclasses
import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourier_marginals import budget, core, factorization, fourier
from fourier_marginals import mechanism, optimizer, oracle

from conftest import frequency_vectors, workloads

GOLDEN_PAIR_GAMMA = (1.0 + math.sqrt(2.0)) / 2.0


def make_workload(sizes, sets, weights=None, kind="marginal", kinds=None,
                  phi=None):
    universe = core.build_universe(sizes, kinds)
    if weights is None:
        weights = [1.0] * len(sets)
    return core.Workload(universe=universe, sets=tuple(sets),
                         weights=np.array(weights, dtype=float), kind=kind,
                         phi=phi)


def two_singletons():
    # the worked 2x2 example whose bound is (1 + sqrt 2) / 2
    return make_workload((2, 2), [(0,), (1,)])


def dense_oracle(workload, **kwargs):
    return oracle.dense_workload(workload.universe.domain_sizes,
                                 workload.sets, workload.weights, **kwargs)


# ---------------------------------------------------------------- build


def test_pair_workload_product_is_query_matrix():
    fact = factorization.build_factorization(two_singletons())
    den = dense_oracle(two_singletons())
    product = fact.L @ fact.R
    assert np.abs(product.imag).max() < 1e-12
    assert np.abs(product.real - den.W).max() < 1e-9


def test_pair_workload_norm_product_hits_golden_value():
    report = factorization.norm_report(
        factorization.build_factorization(two_singletons()))
    assert report.col_max == pytest.approx(1.0, abs=1e-12)
    assert report.frob_weighted * report.col_max == pytest.approx(
        GOLDEN_PAIR_GAMMA, abs=1e-12)
    assert report.gammaF_value == pytest.approx(GOLDEN_PAIR_GAMMA, abs=1e-12)


def test_pair_workload_importance_weights():
    fact = factorization.build_factorization(two_singletons())
    tau = dict(zip(fact.freqs, fact.tau))
    assert tau[(0, 0)] == pytest.approx(0.5, abs=1e-15)
    assert tau[(0, 1)] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)),
                                        abs=1e-15)
    assert tau[(1, 0)] == pytest.approx(tau[(0, 1)], abs=1e-15)
    assert (0, 0) not in dict.fromkeys([])  # guard against silent empties
    assert sum(tau.values()) == pytest.approx(GOLDEN_PAIR_GAMMA, abs=1e-12)


def test_single_set_norm_is_one():
    w = make_workload((3, 4), [(0, 1)])
    report = factorization.norm_report(factorization.build_factorization(w))
    assert report.gammaF_value == pytest.approx(1.0, abs=1e-12)
    assert factorization.svd_lower_bound(w) == pytest.approx(1.0, abs=1e-8)


def test_universe_cap_rejected():
    w = make_workload((2,) * 13, [tuple(range(13))])
    with pytest.raises(factorization.DenseTooLarge):
        factorization.build_factorization(w)
    # the trace bound forms no matrix of W, so |U| does not cap it
    assert math.isclose(factorization.svd_lower_bound(w),
                        mechanism.predicted_error(w)["weighted_rms"],
                        rel_tol=1e-12)


def test_row_cap_rejected():
    sets = [tuple(range(12)), tuple(range(11)), tuple(range(1, 12)),
            tuple(range(10))]
    w = make_workload((2,) * 12, sets)
    with pytest.raises(factorization.DenseTooLarge):
        factorization.build_factorization(w)


# phi_0 = (1, 1) has the spectrum (2, 0): every frequency with a_0 = 1
# has a zero coefficient in a set containing attribute 0
ZERO_SPECTRUM_PHI = ((1.0, 1.0), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("sets,kind,phi,rejected", [
    ([(0,), (1,)], "marginal", None, True),
    # (0, 1) needs the unfunded (0, v), whose coefficient 2 is nonzero
    ([(0,), (0, 1)], "product", ZERO_SPECTRUM_PHI, True),
    # (0, 1) leaves (1, 0) and (1, v) unfunded, but their coefficients
    # are zero, so nothing it needs goes without budget
    ([(1,), (0, 1)], "product", ZERO_SPECTRUM_PHI, False),
], ids=["marginal-raises", "product-raises", "product-estimable"])
def test_uncovered_zero_weight_set_rejected(sets, kind, phi, rejected):
    sizes = (2, 2) if phi is None else (2, 3)
    w = make_workload(sizes, sets, weights=[1.0, 0.0], kind=kind, phi=phi)
    if rejected:
        with pytest.raises(core.Unestimable):
            factorization.build_factorization(w)
        return
    fact = factorization.build_factorization(w)
    assert np.abs(fact.L @ fact.R
                  - reference_dense_matrix(fact.workload)).max() < 1e-9
    data = core.Dataset(universe=w.universe, rows=np.array([[1, 2], [0, 1]]))
    mechanism.release_product(data, w, sampler=budget.SeededSampler(3))


def test_noise_application_matches_release():
    # same seed, same draw order: reconstruct through U~ and compare
    w = two_singletons()
    universe = w.universe
    dataset = core.Dataset(universe=universe,
                           rows=np.array([[0, 0], [0, 1], [1, 1], [1, 0],
                                          [0, 0]]))
    released = mechanism.release_marginals(
        dataset, w, mu=1.0, sampler=budget.SeededSampler(7))
    fact = factorization.build_factorization(w)
    plan = budget.plan_from_tau(1.0, dict(zip(fact.freqs, fact.tau)))
    sampler = budget.SeededSampler(7)
    table = fourier.fourier_queries(dataset, fact.freqs)
    noisy = np.array([value
                      + budget.sample_complex_gaussian(plan.variances[a],
                                                       sampler)
                      for a, value in zip(fact.freqs, table.values)])
    coeff = fact.L * np.sqrt(fact.E)[None, :]
    answers = (coeff @ noisy).real
    start = 0
    for members in w.sets:
        block = universe.subuniverse_size(members)
        got = released.table(members).ravel()
        assert np.abs(answers[start:start + block] - got).max() < 1e-9
        start += block


# ------------------------------------------------------------- realify


def test_realify_binary_universe_stacks_zero_block():
    fact = factorization.build_factorization(two_singletons())
    real = factorization.realify(fact)
    k = len(fact.freqs)
    assert np.abs(real.R[k:, :]).max() < 1e-12
    den = dense_oracle(two_singletons())
    assert np.abs(real.L @ real.R - den.W).max() < 1e-9


def test_realify_preserves_norms():
    w = make_workload((3, 3), [(0,), (0, 1)], weights=[0.4, 0.6])
    fact = factorization.build_factorization(w)
    real = factorization.realify(fact)
    assert np.abs(np.linalg.norm(real.R, axis=0)
                  - np.linalg.norm(fact.R, axis=0)).max() < 1e-12
    assert np.abs(np.linalg.norm(real.L, axis=1)
                  - np.linalg.norm(fact.L, axis=1)).max() < 1e-12
    frob = math.sqrt(float((fact.P * np.linalg.norm(real.L, axis=1) ** 2)
                           .sum()))
    report = factorization.norm_report(fact)
    assert frob == pytest.approx(report.frob_weighted, abs=1e-12)


def test_realify_random_complex_pair_regression():
    rng = np.random.default_rng(20240817)
    W = rng.normal(size=(4, 4))
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    L, R = M, np.linalg.solve(M, W.astype(complex))
    Lhat, Rhat = factorization.realify_pair(L, R)
    assert np.abs(Lhat @ Rhat - W).max() < 1e-10


def test_drop_redundant_rows_halves_and_preserves():
    w = make_workload((3, 2), [(0,), (0, 1)], weights=[0.5, 0.5])
    fact = factorization.build_factorization(w)
    real = factorization.realify(fact, drop_redundant=True)
    full = factorization.realify(fact)
    assert real.L.shape[1] < full.L.shape[1]
    den = dense_oracle(w)
    assert np.abs(real.L @ real.R - den.W).max() < 1e-9
    assert np.abs(np.linalg.norm(real.R, axis=0) - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(real.L, axis=1)
                  - np.linalg.norm(fact.L, axis=1)).max() < 1e-12
    # self-conjugate frequencies keep only their real row
    selfpair = [(a, part) for a, part in real.labels
                if all((2 * v) % m == 0 for v, m in
                       zip(a, w.universe.domain_sizes))]
    assert all(part == "re" for _, part in selfpair)


# ------------------------------------------------ svd lower bound


def test_svd_lower_bound_golden_pair():
    assert factorization.svd_lower_bound(two_singletons()) == pytest.approx(
        GOLDEN_PAIR_GAMMA, abs=1e-10)
    den = dense_oracle(two_singletons())
    gram = den.W.T @ (den.P[:, None] * den.W)
    eig = np.sort(np.linalg.eigvalsh(gram))
    assert np.abs(eig - np.array([0.0, 0.5, 0.5, 1.0])).max() < 1e-10


def test_svd_lower_bound_single_one_way():
    w = make_workload((2,), [(0,)])
    assert factorization.svd_lower_bound(w) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("sizes,sets,weights", [
    ((2, 2, 2), [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0]),
    ((3, 2), [(0,), (0, 1)], [0.3, 0.7]),
    ((2, 3, 2), [(0,), (1, 2), (0, 1, 2)], [0.2, 0.5, 0.3]),
])
def test_svd_lower_bound_equals_weight_formula(sizes, sets, weights):
    w = make_workload(sizes, sets, weights)
    # the formula takes normalized weights as given
    p = np.array(weights) / np.sum(weights)
    formula = oracle.pstar_objective(sizes, sets, p)
    got = factorization.svd_lower_bound(w)
    assert abs(got - formula) <= 1e-8 * formula


def test_svd_lower_bound_equals_weight_formula_product():
    phi = ((1.0, 0.25), (0.5, 1.0, 0.0))
    w = make_workload((2, 3), [(0,), (0, 1)], [0.4, 0.6], kind="product",
                      phi=phi)
    formula = oracle.pstar_objective((2, 3), w.sets, w.weights, phi=phi)
    got = factorization.svd_lower_bound(w)
    assert abs(got - formula) <= 1e-8 * formula
    report = factorization.norm_report(factorization.build_factorization(w))
    assert abs(report.gammaF_value - formula) <= 1e-8 * formula


def test_singular_values_are_scaled_importance_weights():
    w = make_workload((2, 3), [(0, 1), (1,)], [0.6, 0.4])
    fact = factorization.build_factorization(w)
    den = dense_oracle(w)
    sv = np.linalg.svd(np.sqrt(den.P)[:, None] * den.W, compute_uv=False)
    expect = np.sqrt(w.universe.size) * np.sort(fact.tau)[::-1]
    expect = np.concatenate([expect, np.zeros(len(sv) - len(expect))])
    assert np.abs(np.sort(sv) - np.sort(expect)).max() < 1e-8


def test_gamma_two_meets_bound_at_optimal_weights():
    w = make_workload((2, 2), [(0,), (0, 1)])
    solution = optimizer.optimize_pstar(w, tol=1e-10)
    fact = factorization.build_factorization(w, p=solution.p_star)
    report = factorization.norm_report(fact)
    assert abs(report.gamma2_value - report.svd_lower_bound) \
        <= 1e-6 * report.svd_lower_bound
    assert abs(report.gamma2_value - solution.objective) \
        <= 1e-6 * solution.objective


def test_gamma_two_meets_bound_at_optimal_weights_product():
    phi = ((1.0, 0.25), (0.5, 1.0, 0.0))
    w = make_workload((2, 3), [(0,), (0, 1)], kind="product", phi=phi)
    solution = optimizer.optimize_pstar(w, tol=1e-10)
    fact = factorization.build_factorization(w, p=solution.p_star)
    report = factorization.norm_report(fact)
    assert abs(report.gamma2_value - report.svd_lower_bound) \
        <= 1e-6 * report.svd_lower_bound


def test_norm_chain_orders_bounds():
    # away from the optimum gamma2 exceeds gammaF strictly
    w = make_workload((2, 2), [(0,), (0, 1)], weights=[0.5, 0.5])
    report = factorization.norm_report(factorization.build_factorization(w))
    slack = 1e-9 * max(1.0, report.gamma2_value)
    assert report.svd_lower_bound <= report.gammaF_value + slack
    assert report.gammaF_value <= report.gamma2_value + slack
    assert report.gamma2_value > report.gammaF_value + 1e-3


# ------------------------------------------------------- tightness


def test_tightness_residuals_golden_pair():
    fact = factorization.build_factorization(two_singletons())
    residuals = factorization.tightness_certificate(fact)
    assert max(residuals.values()) <= 1e-10


def test_tightness_residuals_all_two_way():
    w = make_workload((2, 2, 2), [(0, 1), (0, 2), (1, 2)])
    fact = factorization.build_factorization(w)
    residuals = factorization.tightness_certificate(fact)
    assert max(residuals.values()) <= 1e-10
    rows = np.linalg.norm(fact.L, axis=1)
    assert rows.max() - rows.min() <= 1e-10


def test_tightness_flags_corrupted_normalization():
    fact = factorization.build_factorization(two_singletons())
    E = fact.E.copy()
    E[int(np.argmax(E))] *= 1.01
    corrupted = dataclasses.replace(fact, E=E)
    residuals = factorization.tightness_certificate(corrupted)
    assert max(residuals.values()) > 1e-3


def test_tightness_row_gap_away_from_optimum():
    w = make_workload((2, 2), [(0,), (0, 1)], weights=[0.5, 0.5])
    residuals = factorization.tightness_certificate(
        factorization.build_factorization(w))
    assert residuals["lpl"] <= 1e-10
    assert residuals["rr"] <= 1e-10
    assert residuals["rownorm"] > 1e-3


# ------------------------------------------------- blocks and memory


def _dense_certify_workload():
    # 5 size-4 attributes, all 2- and 3-way sets: |U| = 1,024 and 800
    # query rows
    sets = list(itertools.combinations(range(5), 3)) \
        + list(itertools.combinations(range(5), 2))
    return make_workload((4,) * 5, sets,
                         weights=[0.5 + 0.1 * i for i in range(len(sets))])


@pytest.mark.parametrize("w", [
    make_workload((4, 4, 3), [(0, 1, 2), (0, 1)], weights=[1.0, 0.5]),
    make_workload((3, 4, 3), [(0, 1, 2), (1, 2)], kind="product",
                  phi=((1.0, 0.5, 0.0), (2.0, 1.0, 0.0, 0.5),
                       (1.0, 1.0, 0.5))),
    make_workload((3, 4, 2), [(0, 1, 2), (1, 2), (0, 2)], kind="extended",
                  kinds=(core.NUMERICAL, core.NUMERICAL, core.CATEGORICAL)),
], ids=["marginal", "product", "extended"])
def test_blocked_norms_and_residuals_equal_whole_matrices(w, monkeypatch):
    fact = factorization.build_factorization(w)
    # the pair, its workload and its bound all come from w's own kind
    assert np.abs(fact.L @ fact.R
                  - reference_dense_matrix(fact.workload)).max() <= 1e-9
    assert factorization._trace_bound(fact.workload) \
        == factorization.svd_lower_bound(w)
    monkeypatch.setattr(factorization, "BLOCK", 16)
    assert len(factorization._blocks(len(fact.freqs))) >= 3
    col = np.linalg.norm(fact.R, axis=0)
    row = np.linalg.norm(fact.L, axis=1)
    assert np.array_equal(factorization._vector_norms(fact.R, axis=0), col)
    assert np.array_equal(factorization._vector_norms(fact.L, axis=1), row)
    report = factorization.norm_report(fact)
    assert report.col_max == float(col.max())
    assert report.row_max == float(row.max())
    # the unblocked Gram matrices, as whole products; L* P L is summed
    # set by set, so its residual matches up to the order of summation
    total = float(fact.tau.sum())
    lpl = fact.L.conj().T @ (fact.P[:, None] * fact.L)
    rr = fact.R @ fact.R.conj().T
    size = fact.workload.universe.size
    residuals = factorization.tightness_certificate(fact)
    eps = np.finfo(float).eps
    assert abs(residuals["lpl"] - float(
        np.abs(lpl - np.diag(total ** 2 * fact.E)).max())) \
        <= 64 * eps * np.abs(np.diag(lpl)).max()
    assert abs(residuals["rr"] - float(
        np.abs(rr - np.diag(size * fact.E)).max())) \
        <= 64 * eps * np.abs(np.diag(rr)).max()
    assert residuals["colnorm"] == float(col.max() - col.min())


def test_blocks_start_at_multiples_and_never_leave_one():
    assert factorization._blocks(0) == []
    assert factorization._blocks(1) == [slice(0, 1)]
    block = factorization.BLOCK
    assert factorization._blocks(2 * block + 1) == [
        slice(0, block), slice(block, 2 * block + 1)]
    assert factorization._blocks(block + 2)[-1] == slice(block, block + 2)


def test_norm_report_bound_does_not_read_the_pair():
    w = _dense_certify_workload()
    fact = factorization.build_factorization(w)
    corrupted = dataclasses.replace(fact, E=fact.E * 1.01, L=fact.L * 1.01)
    report = factorization.norm_report(corrupted)
    assert report.svd_lower_bound == factorization.svd_lower_bound(w)


def _assert_verify_holds_one_dense_matrix_beside_the_pair(w):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fact = factorization.build_factorization(w)
        factorization.norm_report(fact)
        factorization.tightness_certificate(fact)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    W = len(fact.rows) * w.universe.size * 8
    assert peak <= fact.L.nbytes + fact.R.nbytes + W + 2 * 2 ** 20


def test_verify_holds_one_dense_matrix_beside_the_pair():
    _assert_verify_holds_one_dense_matrix_beside_the_pair(
        _dense_certify_workload())


def test_verify_of_one_full_set_holds_no_copy_of_l():
    # one set over all attributes: its rows of L are all of L, and the
    # Gram residual reads them in place
    _assert_verify_holds_one_dense_matrix_beside_the_pair(
        make_workload((4,) * 5, [tuple(range(5))]))


def test_coefficient_matrix_fills_a_set_carrying_every_column_in_place():
    # one set over 5 size-4 attributes carries all 1,024 frequencies, so
    # its block is the whole of U~
    w = core.normalize_weights(make_workload((4,) * 5, [tuple(range(5))]))
    product, plan, _ = mechanism.as_product(w)
    indices, _ = budget.released_rows(
        *plan.frequencies(plan.roots(product.weights)))
    rows, _ = factorization._row_index(product)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        U = factorization._coefficient_matrix(product, plan.spectrum.tables,
                                              rows, indices)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert U.shape == (1024, 1024)
    assert np.array_equal(U, reference_coefficient_matrix(
        product, plan.spectrum.tables, rows, tuple(map(tuple, indices))))
    # U~ itself and per-attribute tables, no second 16 MiB block
    assert peak <= U.nbytes + 2 ** 20


def test_range_witness_allocates_less_than_one_wide_matrix():
    # 6 range pairs of 2 numerical size-16 and 2 categorical size-4
    # attributes: 528 query rows over |U| = 4,096
    pairs = list(itertools.combinations(range(4), 2))
    w = make_workload((16, 16, 4, 4), pairs, kind="extended",
                      kinds=(core.NUMERICAL, core.NUMERICAL,
                             core.CATEGORICAL, core.CATEGORICAL))
    rows = sum(w.universe.subuniverse_size(s) for s in w.sets)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        witness = factorization.lower_bound_witness(w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(witness.trace_value - witness.closed_form) <= 1e-8
    assert witness.op_norm <= 1 + 1e-9
    # one rows x |U| complex matrix
    assert peak < rows * w.universe.size * 16


# ------------------------------------------- range-query lower bound


@pytest.mark.parametrize("m,expected", [
    (2, 1.0),
    (3, 1.0515668461264172),
    (4, 1.1035533905932737),
])
def test_range_bound_single_numerical_attribute(m, expected):
    w = make_workload((m,), [(0,)], kind="extended", kinds=("numerical",))
    got = factorization.extended_lower_bound(w)
    assert got == pytest.approx(expected, abs=1e-12)
    half = 0.5 * (1.0 + 1.0 / m) + 0.5 * mechanism.zeta(m)
    assert got == pytest.approx(half, abs=1e-12)


def test_range_bound_categorical_only_is_weight_formula():
    w = make_workload((2, 3), [(0,), (0, 1)], [0.4, 0.6], kind="extended")
    formula = oracle.pstar_objective((2, 3), w.sets, w.weights)
    assert factorization.extended_lower_bound(w) == pytest.approx(
        formula, rel=1e-10)


def test_range_bound_below_release_error_and_ratio_grows():
    ratios = []
    for m in (4, 16, 64, 256):
        w = make_workload((m,), [(0,)], kind="extended",
                          kinds=("numerical",))
        lower = factorization.extended_lower_bound(w)
        upper = mechanism.predicted_error(w)["weighted_rms"]
        assert lower <= upper + 1e-12
        ratios.append(lower / upper)
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 0.8


def test_range_bound_mixed_universe_witness_agrees():
    w = make_workload((2, 3), [(0, 1), (1,)], [0.6, 0.4], kind="extended",
                      kinds=("categorical", "numerical"))
    witness = factorization.lower_bound_witness(w)
    closed = factorization.extended_lower_bound(w)
    assert witness.trace_value == pytest.approx(closed, abs=1e-8)
    assert witness.op_norm <= 1 + 1e-9
    _, kappa = witness_columns(core.normalize_weights(w))
    assert witness.trace_value == pytest.approx(kappa.sum(), abs=1e-10)
    assert witness.f_tables[0] is None
    assert witness.f_tables[1][0] == pytest.approx(2.0)  # (m + 1) / 2 at m=3
    assert witness.note


def test_range_witness_checks_past_the_old_dense_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("formed a matrix")

    for name in ("_row_index", "_unit_table", "_coefficient_matrix"):
        monkeypatch.setattr(factorization, name, refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    # one size-100,000 numerical attribute, and the pairs over sizes
    # (3,000, 3,000, 4): |U| = 36,000,000
    for w in (make_workload((100_000,), [(0,)], kind="extended",
                            kinds=(core.NUMERICAL,)),
              make_workload((3000, 3000, 4),
                            list(itertools.combinations(range(3), 2)),
                            kind="extended",
                            kinds=(core.NUMERICAL, core.NUMERICAL,
                                   core.CATEGORICAL))):
        assert factorization.dense_refusal(w) is not None
        start = time.perf_counter()
        value = factorization.extended_lower_bound(w)
        assert time.perf_counter() - start < 1.0
        witness = factorization.lower_bound_witness(w)
        assert value == witness.closed_form
        assert abs(witness.trace_value - value) <= 1e-12 * value
        assert witness.op_norm <= 1 + 1e-9


# ------------------------------------------------- matrix identities


def test_trace_duality_on_random_matrices():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    trace_norm = np.linalg.svd(X, compute_uv=False).sum()
    best = 0.0
    for _ in range(100):
        Y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        Y /= np.linalg.svd(Y, compute_uv=False)[0]
        value = abs((X * np.conj(Y)).sum())
        assert value <= trace_norm + 1e-9
        best = max(best, value)
    U, _, Vh = np.linalg.svd(X)
    exact = abs((X * np.conj(U @ Vh)).sum())
    assert abs(exact - trace_norm) < 1e-10
    assert best <= exact + 1e-9


def test_matrix_cauchy_schwarz():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    Y = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    lhs = np.linalg.svd(X @ Y, compute_uv=False).sum()
    assert lhs <= np.linalg.norm(X) * np.linalg.norm(Y) + 1e-9
    # equality: X* X = c Y Y* by construction
    c = 2.0
    Q = np.linalg.qr(rng.normal(size=(5, 5))
                     + 1j * rng.normal(size=(5, 5)))[0]
    Y = (1.0 / math.sqrt(c)) * X.conj().T @ Q
    lhs = np.linalg.svd(X @ Y, compute_uv=False).sum()
    rhs = np.linalg.norm(X) * np.linalg.norm(Y)
    assert abs(lhs - rhs) <= 1e-9 * rhs


# ------------------------------------------------------- properties


@settings(deadline=None, max_examples=40)
@given(workloads(positive=True))
def test_property_factorization_matches_dense_matrix(w):
    fact = factorization.build_factorization(w)
    den = dense_oracle(w)
    product = fact.L @ fact.R
    assert np.abs(product.real - den.W).max() < 1e-9
    assert np.abs(product.imag).max() < 1e-9
    assert np.abs(np.linalg.norm(fact.R, axis=0) - 1.0).max() < 1e-12


@settings(deadline=None, max_examples=25)
@given(workloads(positive=True))
def test_property_svd_bound_met_with_equality(w):
    report = factorization.norm_report(factorization.build_factorization(w))
    assert abs(report.gammaF_value - report.svd_lower_bound) \
        <= 1e-8 * max(1.0, report.gammaF_value)


@settings(deadline=None, max_examples=25)
@given(workloads(positive=True), st.integers(0, 10 ** 6))
def test_property_singular_value_multiset(w, _seed):
    fact = factorization.build_factorization(w)
    den = dense_oracle(w)
    sv = np.linalg.svd(np.sqrt(den.P)[:, None] * den.W, compute_uv=False)
    expect = np.sqrt(w.universe.size) * fact.tau
    expect = np.sort(np.concatenate(
        [expect, np.zeros(max(0, len(sv) - len(expect)))]))
    assert np.abs(np.sort(sv)[-len(expect):] - expect).max() < 1e-8


# ------------------------------------------- builders against the loops


def _reference_unit_row(m, a):
    return np.exp(2j * np.pi * ((a * np.arange(m)) % m) / m)


def reference_character_matrix(universe, freqs):
    """Column by column, one outer product per attribute."""
    sizes = universe.domain_sizes
    cols = np.empty((universe.size, len(freqs)), dtype=complex)
    for k, a in enumerate(freqs):
        col = np.ones(1, dtype=complex)
        for j, aj in enumerate(a):
            col = np.multiply.outer(col, _reference_unit_row(sizes[j],
                                                             aj)).ravel()
        cols[:, k] = col
    return cols


def reference_coefficient_matrix(workload, coeffs, rows, freqs):
    """Set by set and frequency by frequency, scale as a scalar."""
    universe = workload.universe
    sizes = universe.domain_sizes
    supports = [set(j for j, v in enumerate(a) if v) for a in freqs]
    out = np.zeros((len(rows), len(freqs)), dtype=complex)
    start = 0
    for members in workload.sets:
        size = universe.subuniverse_size(members)
        covered = set(members)
        for k, a in enumerate(freqs):
            if not supports[k] <= covered:
                continue
            scale = 1.0 + 0.0j
            for j in members:
                scale *= coeffs[j][a[j]]
            if scale == 0:
                continue
            col = np.ones(1, dtype=complex)
            for j in members:
                col = np.multiply.outer(
                    col, _reference_unit_row(sizes[j], a[j])).ravel()
            out[start:start + size, k] = (scale / size) * col
        start += size
    return out


def _reference_kron_blocks(workload, part):
    universe = workload.universe
    blocks = []
    for members in workload.sets:
        parts = [part(j, universe.domain_sizes[j]) if j in members
                 else np.ones((1, universe.domain_sizes[j]))
                 for j in range(universe.d)]
        blocks.append(functools.reduce(np.kron, parts))
    return np.vstack(blocks)


def reference_dense_matrix(workload):
    """One Kronecker product of d factors per set."""
    tables = [np.asarray(t, dtype=float) for t in workload.phi_tables()]

    def circulant(j, m):
        shift = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
        return tables[j][shift]

    return _reference_kron_blocks(workload, circulant)


def numerical_members(universe):
    return {j for j, kind in enumerate(universe.attribute_kind)
            if kind == core.NUMERICAL}


def witness_columns(w):
    """The frequencies of the range witness of the normalized workload
    w and their kappa_a, the tau_a of its plan."""
    plan = factorization._witness_plan(w)
    freqs, kappa = budget.released_rows(
        *plan.frequencies(plan.roots(w.weights)))
    return tuple(map(tuple, freqs.tolist())), kappa


def reference_kappa(workload, f_tables, freqs):
    """kappa_a frequency by frequency and set by set."""
    universe = workload.universe
    numerical = numerical_members(universe)
    kappa = {}
    for a in freqs:
        support = set(j for j, v in enumerate(a) if v)
        c = 0.0
        for members, pS in zip(workload.sets, workload.weights):
            if pS <= 0 or not support <= set(members):
                continue
            prod = 1.0
            for j in members:
                if j in numerical:
                    prod *= abs(f_tables[j][a[j]]) ** 2
            c += pS * prod / universe.subuniverse_size(members) ** 2
        kappa[a] = math.sqrt(c)
    return kappa


def reference_extended_closed_form(workload):
    """Range-query trace bound as an explicit double sum.

    One term per covered subset, split into categorical members (factor
    m_j - 1) and numerical members (factor zeta(m_j)); the square root
    collects the weights of the covering sets with a (1 + 1/m_j)^2
    boost for every uncovered numerical attribute.
    """
    universe = workload.universe
    sizes = universe.domain_sizes
    numerical = numerical_members(universe)
    closure = {subset for members, pS in zip(workload.sets, workload.weights)
               if pS > 0 for r in range(len(members) + 1)
               for subset in itertools.combinations(members, r)}
    total = 0.0
    for subset in sorted(closure, key=lambda s: (len(s), s)):
        gain = 1.0
        for j in subset:
            gain *= mechanism.zeta(sizes[j]) if j in numerical \
                else sizes[j] - 1
        inner = 0.0
        for members, pS in zip(workload.sets, workload.weights):
            if pS <= 0 or not set(subset) <= set(members):
                continue
            term = pS
            cat_size = 1
            for j in members:
                if j in numerical:
                    term /= 4.0
                    if j not in subset:
                        term *= (1.0 + 1.0 / sizes[j]) ** 2
                else:
                    cat_size *= sizes[j]
            inner += term / cat_size ** 2
        total += gain * math.sqrt(inner)
    return total


@st.composite
def builder_workloads(draw):
    """Marginal, product (often with exact zeros in the spectrum, from
    0/1 factor tables) and extended workloads, weights possibly 0."""
    kind = draw(st.sampled_from(("marginal", "product", "extended")))
    d = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    kinds = draw(st.lists(st.sampled_from((core.CATEGORICAL,
                                           core.NUMERICAL)),
                          min_size=d, max_size=d))
    subsets = [s for r in range(1, d + 1)
               for s in itertools.combinations(range(d), r)]
    sets = draw(st.lists(st.sampled_from(subsets), min_size=1,
                         max_size=min(4, len(subsets)), unique=True))
    weights = draw(st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 0.3)),
                            min_size=len(sets), max_size=len(sets)))
    if not any(weights):
        weights[0] = 1.0
    phi = None
    if kind == "product":
        phi = tuple(tuple(draw(st.lists(st.sampled_from((0.0, 1.0, 0.5)),
                                         min_size=m, max_size=m)))
                    for m in sizes)
    return make_workload(sizes, sets, weights, kind=kind, kinds=kinds,
                         phi=phi)


@settings(deadline=None, max_examples=60)
@given(builder_workloads())
def test_property_builders_equal_loop_references(w):
    w = core.normalize_weights(w)
    product, plan, _ = mechanism.as_product(w)
    universe = product.universe
    freqs = tuple(sorted(a for members in core.downward_closure(product)
                         for a in frequency_vectors(universe, members)))
    coeffs = plan.spectrum.tables
    rows, _ = factorization._row_index(product)
    assert np.array_equal(factorization._character_matrix(universe, freqs),
                          reference_character_matrix(universe, freqs))
    assert np.array_equal(
        factorization._coefficient_matrix(product, coeffs, rows, freqs),
        reference_coefficient_matrix(product, coeffs, rows, freqs))
    try:
        fact = factorization.build_factorization(w)
    except core.Unestimable:
        pass
    else:
        # L and R are scaled in place, with the same products as
        # U~ E^(-1/2) and E^(1/2) V~* out of place
        U = reference_coefficient_matrix(fact.workload, coeffs, fact.rows,
                                         fact.freqs)
        V = reference_character_matrix(universe, fact.freqs)
        assert np.array_equal(fact.L, U / np.sqrt(fact.E)[None, :])
        assert np.array_equal(fact.R, np.sqrt(fact.E)[:, None] * V.conj().T)
    if w.kind == "extended":
        witness = factorization.lower_bound_witness(w)
        # the weights the witness read: normalized once more
        w = core.normalize_weights(w)
        # the witness's kappa, the plan's tau, is the set-by-set sum
        # within rounding
        freqs, kappa = witness_columns(w)
        reference = reference_kappa(w, witness.f_tables, freqs)
        eps = np.finfo(float).eps
        assert all(abs(k - reference[a]) <= 8 * eps * reference[a]
                   for a, k in zip(freqs, kappa.tolist()))


def set_rows(fact):
    """(set, slice of its rows of L), in set order."""
    universe = fact.workload.universe
    out = []
    start = 0
    for members in fact.workload.sets:
        size = universe.subuniverse_size(members)
        out.append((members, slice(start, start + size)))
        start += size
    return out


@settings(deadline=None, max_examples=60)
@given(builder_workloads(), st.data())
def test_property_gram_residuals_see_every_plant(w, data):
    try:
        fact = factorization.build_factorization(w)
    except core.Unestimable:
        assume(False)
    k = len(fact.freqs)
    assume(k > 0)
    eps = np.finfo(float).eps
    # rounding of a diagonal entry of L* P L, which a plant below raises
    # by P_r <= 1
    lpl_slack = 64 * eps * (float(fact.tau.sum()) ** 2 * fact.E.max() + 1.0)
    rr_slack = 64 * eps * fact.workload.universe.size * fact.E.max()
    with pytest.MonkeyPatch.context() as patch:
        # several column blocks even for these small pairs
        patch.setattr(factorization, "BLOCK", 16)
        lpl, rr = factorization._gram_residuals(fact)
        # a nonzero in a set's rows on a frequency whose support leaves
        # the set, where U~ is zero by construction: entry (c, c) of
        # L* P L grows by P_r
        outside = [(rows, c) for members, rows in set_rows(fact)
                   for c, a in enumerate(fact.freqs)
                   if any(v and j not in members for j, v in enumerate(a))]
        if outside:
            rows, c = data.draw(st.sampled_from(outside))
            r = data.draw(st.integers(rows.start, rows.stop - 1))
            L = fact.L.copy()
            assert L[r, c] == 0
            L[r, c] = 1.0
            planted, _ = factorization._gram_residuals(
                dataclasses.replace(fact, L=L))
            assert planted >= fact.P[r] - lpl - lpl_slack
        # a NaN anywhere in L, whatever the weight of its row
        r = data.draw(st.integers(0, fact.L.shape[0] - 1))
        c = data.draw(st.integers(0, k - 1))
        L = fact.L.copy()
        L[r, c] = np.nan
        planted, _ = factorization._gram_residuals(
            dataclasses.replace(fact, L=L))
        assert math.isnan(planted)
        # R[i, x] + delta moves the off-diagonal entry (i, j) of R R* by
        # delta conj(R[j, x]), of modulus delta sqrt(E_j), in the lower
        # block triangle when i > j
        if k >= 2:
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                      max_size=2, unique=True))
            x = data.draw(st.integers(0, fact.R.shape[1] - 1))
            delta = 1e-3
            R = fact.R.copy()
            R[i, x] += delta
            _, planted = factorization._gram_residuals(
                dataclasses.replace(fact, R=R))
            assert planted >= delta * abs(fact.R[j, x]) - rr - rr_slack


@settings(deadline=None, max_examples=60)
@given(builder_workloads())
def test_property_witness_equals_dense_test_matrix(w):
    assume(w.kind == "extended")
    witness = factorization.lower_bound_witness(w)
    # Y = P^(1/2) U~ V~* / sqrt(|U|) whole, from the loop references, on
    # the weights the witness read, against the oracle's dense W
    w = core.normalize_weights(w)
    universe = w.universe
    den = dense_oracle(w, kind="extended",
                       attr_kinds=universe.attribute_kind)
    freqs, norms = witness_columns(w)
    coeffs = tuple(np.ones(m) if f is None else f
                   for m, f in zip(universe.domain_sizes, witness.f_tables))
    U = reference_coefficient_matrix(w, coeffs, den.rows, freqs) \
        / norms[None, :]
    V = reference_character_matrix(universe, freqs)
    root = np.sqrt(den.P)[:, None]
    Y = root * (U @ V.conj().T) / math.sqrt(universe.size)
    trace = abs(complex((root * den.W * np.conj(Y)).sum())) \
        / math.sqrt(universe.size)
    op_norm = float(np.linalg.svd(Y, compute_uv=False)[0])
    assert math.isclose(witness.trace_value, trace, rel_tol=1e-12)
    assert math.isclose(witness.op_norm, op_norm, rel_tol=1e-12)


@settings(deadline=None, max_examples=60)
@given(builder_workloads())
def test_property_range_bound_equals_double_sum(w):
    assume(w.kind == "extended")
    value = factorization.extended_lower_bound(w)
    reference = reference_extended_closed_form(core.normalize_weights(w))
    assert math.isclose(value, reference, rel_tol=1e-13)


def full_svd_trace_bound(product):
    """(1 / sqrt(|U|)) ||P^(1/2) W||_tr of a product form from the
    oracle's dense W, by the SVD of the whole matrix."""
    kwargs = {} if product.kind == "marginal" else {
        "kind": "product", "phi": product.phi_tables()}
    den = dense_oracle(product, **kwargs)
    values = np.linalg.svd(np.sqrt(den.P)[:, None] * den.W,
                           compute_uv=False)
    kept = values[values >= factorization.RANK_CUTOFF * values[0]]
    return float(kept.sum()) / math.sqrt(product.universe.size), den


def reference_member_blocks(w):
    """(R, M_R) for each member R of the downward closure of the
    weighted sets, in (size, lex) order.

    M_R = P^(1/2) W Q_R is the column block of R (see
    factorization._trace_bound), without the rows of the sets that do
    not contain R and of the sets of weight zero, which are zero.
    Column b of Q_R is indexed like a frequency of R: b_j in
    1 .. m_j - 1 for j in R and 0 elsewhere.  So with
    T_j = [C_j 1 / sqrt(m_j) | C_j H_j[:, 1:]] (reference_member_factors),
    the rows of each weighted set S >= R, in set order, are
    sqrt(P_S) prod_{j not in S} sqrt(m_j) times
    prod_{j in S} T_j[t_j, b_j], filled in place by _character_grid.
    """
    universe = w.universe
    sizes = universe.domain_sizes
    tables = [np.hstack(factors) for factors in reference_member_factors(w)]
    # the weighted sets containing each member, with their scales
    covering = {}
    for members, pS in zip(w.sets, w.weights):
        if pS <= 0:
            continue
        size = universe.subuniverse_size(members)
        scale = math.sqrt(pS / size) * math.prod(
            math.sqrt(m) for j, m in enumerate(sizes) if j not in members)
        for r in range(len(members) + 1):
            for member in itertools.combinations(members, r):
                covering.setdefault(member, []).append((members, size, scale))
    for member in sorted(covering, key=lambda s: (len(s), s)):
        sets = covering[member]
        # the columns of Q_R as frequencies of R, in row-major order
        cols = np.zeros((math.prod(sizes[j] - 1 for j in member),
                         universe.d), dtype=np.intp)
        cols[:, list(member)] = list(
            itertools.product(*(range(1, sizes[j]) for j in member)))
        block = np.empty((sum(size for _, size, _ in sets), len(cols)))
        stop = 0
        for members, size, scale in sets:
            part = block[stop:stop + size]
            part.fill(scale)
            factorization._character_grid(
                part.reshape(universe.subdomain_sizes(members) + (len(cols),)),
                tables, cols, members)
            stop += size
        yield member, block


def assembled_member_blocks(product):
    """The member blocks of reference_member_blocks placed into
    M = P^(1/2) W Q over the rows of the weighted sets, with each
    member's columns."""
    universe = product.universe
    starts = {}
    stop = 0
    for members, pS in zip(product.sets, product.weights):
        if pS > 0:
            starts[members] = stop
            stop += universe.subuniverse_size(members)
    blocks = list(reference_member_blocks(product))
    M = np.zeros((stop, sum(block.shape[1] for _, block in blocks)))
    columns = []
    left = 0
    for member, block in blocks:
        assert block.shape[1] == math.prod(
            universe.domain_sizes[j] - 1 for j in member)
        cols = slice(left, left + block.shape[1])
        left = cols.stop
        columns.append(cols)
        row = 0
        for members, start in starts.items():
            if set(member) <= set(members):
                size = universe.subuniverse_size(members)
                M[start:start + size, cols] = block[row:row + size]
                row += size
        assert row == block.shape[0]
    return M, columns


@settings(deadline=None, max_examples=80)
@given(builder_workloads())
def test_property_projected_bound_equals_full_svd(w):
    product, _ = mechanism.product_form(core.normalize_weights(w))
    reference, den = full_svd_trace_bound(product)
    got = factorization.svd_lower_bound(w)
    assert abs(got - reference) <= 1e-12 * reference
    # a projection never raises the trace norm
    assert got <= reference * (1 + 1e-13)


@settings(deadline=None, max_examples=80)
@given(builder_workloads())
def test_property_member_blocks_split_the_projection(w):
    product, _ = mechanism.product_form(core.normalize_weights(w))
    _, den = full_svd_trace_bound(product)
    M, columns = assembled_member_blocks(product)
    assert M.shape[1] <= product.universe.size
    # the column blocks are orthogonal: M* M is block diagonal, so the
    # singular values of M are the union of the blocks' own
    gram = M.T @ M
    largest = max(np.abs(gram[cols, cols]).max() for cols in columns)
    for cols, others in itertools.permutations(columns, 2):
        assert np.abs(gram[cols, others]).max() <= 1e-12 * largest
    # tight: Q Q* fixes every weighted row, so M M* = P^(1/2) W W* P^(1/2)
    # over the rows of the sets with weight
    A = (np.sqrt(den.P)[:, None] * den.W)[den.P > 0]
    assert np.abs(M @ M.T - A @ A.T).max() <= 1e-12 * np.abs(A @ A.T).max()


@settings(deadline=None, max_examples=80)
@given(builder_workloads())
def test_property_factored_bound_equals_member_block_svds(w):
    product, _ = mechanism.product_form(core.normalize_weights(w))
    values = np.concatenate([np.linalg.svd(block, compute_uv=False)
                             for _, block in reference_member_blocks(product)])
    kept = values[values >= factorization.RANK_CUTOFF * values.max()]
    reference = float(kept.sum()) / math.sqrt(product.universe.size)
    got = factorization.svd_lower_bound(w)
    assert abs(got - reference) <= 1e-12 * reference


def test_trace_bound_reads_neither_the_plan_nor_the_closed_form(
        monkeypatch):
    # 13 binary attributes, |U| = 8,192, past the dense cap; phi_0 =
    # (1, 1) has a zero coefficient at a_0 = 1
    sets = [(0, j) for j in range(1, 13)] + [(1, 2, 3)]
    w = make_workload((2,) * 13, sets, kind="product",
                      phi=((1.0, 1.0),) + ((1.0, 0.5),) * 12)
    assert factorization.dense_refusal(w) is not None
    expected = mechanism.predicted_error(w)["weighted_rms"]

    def refuse(*args, **kwargs):
        raise AssertionError("read the mechanism")

    monkeypatch.setattr(budget, "subset_plan", refuse)
    monkeypatch.setattr(mechanism, "predicted_error", refuse)
    assert math.isclose(factorization.svd_lower_bound(w), expected,
                        rel_tol=1e-12)



def test_attribute_norms_drop_only_what_vanishes_against_the_table():
    # phi = (1, 1, 1, 1, 1) has no coefficient but the constant one, so
    # A_j is zero up to rounding (singular values up to 9e-16 here),
    # judged against ||u_j|| = 5, and dropped
    trace, outside = factorization._attribute_norms((1.0,) * 5)
    assert trace == 0.0
    assert outside == pytest.approx(25.0, rel=1e-15)
    # a coefficient 1e-10 of phi_j's scale is a value, and is kept:
    # |phi^(a)| = 1e-10 at a = 1 and 2
    trace, _ = factorization._attribute_norms((1.0 + 1e-10, 1.0, 1.0))
    assert trace == pytest.approx(2e-10, rel=1e-5)


def test_svd_lower_bound_refuses_an_attribute_past_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factored")

    big = factorization.DENSE_UNIVERSE_CAP + 1
    monkeypatch.setattr(factorization, "_attribute_norms", refuse)
    with pytest.raises(factorization.DenseTooLarge,
                       match=f"attribute size {big} exceeds"):
        factorization.svd_lower_bound(make_workload((big, 2), [(0, 1)]))
    monkeypatch.undo()
    # an attribute of no set with positive weight is never factored
    w = make_workload((big, 2), [(0,), (1,)], weights=(0.0, 1.0))
    assert math.isclose(factorization.svd_lower_bound(w),
                        mechanism.predicted_error(w)["weighted_rms"],
                        rel_tol=1e-12)

def reference_member_factors(product):
    """(C_j 1 / sqrt(m_j), C_j H_j[:, 1:]) per attribute: the circulant
    of phi_j times the constant column and the other columns of the QR
    basis whose first column is constant."""
    factors = []
    for m, table in zip(product.universe.domain_sizes,
                        product.phi_tables()):
        shift = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
        circulant = np.asarray(table, dtype=float)[shift]
        basis = np.eye(m)
        basis[:, 0] = 1.0
        basis = np.linalg.qr(basis)[0]
        factors.append((circulant.sum(axis=1, keepdims=True) / math.sqrt(m),
                        circulant @ basis[:, 1:]))
    return factors


@settings(deadline=None, max_examples=80)
@given(builder_workloads())
def test_property_member_block_rows_are_kronecker_products(w):
    product, _ = mechanism.product_form(core.normalize_weights(w))
    universe = product.universe
    sizes = universe.domain_sizes
    factors = reference_member_factors(product)
    weighted = [(members, pS) for members, pS
                in zip(product.sets, product.weights) if pS > 0]
    closure = {member for members, _ in weighted
               for r in range(len(members) + 1)
               for member in itertools.combinations(members, r)}
    blocks = list(reference_member_blocks(product))
    # exactly the closure of the weighted sets, in (size, lex) order
    assert [member for member, _ in blocks] == sorted(
        closure, key=lambda s: (len(s), s))
    for member, block in blocks:
        stop = 0
        for members, pS in weighted:
            if not set(member) <= set(members):
                continue
            scale = math.sqrt(pS / universe.subuniverse_size(members)) \
                * math.prod(math.sqrt(m) for j, m in enumerate(sizes)
                            if j not in members)
            # np.kron folded from the scale, one factor per attribute:
            # the builder multiplies in the same order, so every entry,
            # for sets of any size, has the same bits
            reference = functools.reduce(
                np.kron, [factors[j][j in member] for j in members],
                np.full((1, 1), scale))
            assert np.array_equal(block[stop:stop + len(reference)],
                                  reference)
            stop += len(reference)
        assert stop == len(block)


def test_member_blocks_skip_members_only_zero_weight_sets_cover():
    w = make_workload((2, 2, 2), [(0, 1), (2,)], weights=[1.0, 0.0])
    members = [member for member, _ in reference_member_blocks(
        core.normalize_weights(w))]
    assert members == [(), (0,), (1,), (0, 1)]


def test_member_blocks_of_the_dense_certify_shape():
    # the closure of all 2- and 3-way sets of 5 size-4 attributes spans
    # 1 + 5 * 3 + 10 * 9 + 10 * 27 = 376 of the 1,024 columns of W; the
    # empty member's block has the rows of all 20 sets, a singleton's
    # those of 6 triples and 4 pairs, a pair's those of 3 triples and
    # itself, a triple's its own
    w = core.normalize_weights(_dense_certify_workload())
    assert w.universe.size == 1024
    shapes = [block.shape for _, block in reference_member_blocks(w)]
    assert sorted(set(shapes)) == [(64, 27), (208, 9), (448, 3), (800, 1)]
    assert [shapes.count(shape) for shape in
            ((800, 1), (448, 3), (208, 9), (64, 27))] == [1, 5, 10, 10]
    assert sum(columns for _, columns in shapes) == 376
    reference, _ = full_svd_trace_bound(w)
    assert math.isclose(factorization.svd_lower_bound(w), reference,
                        rel_tol=1e-13)


def test_certificates_plan_nothing_past_the_caps(monkeypatch):
    def refuse(*args):
        raise AssertionError("planned")

    monkeypatch.setattr(budget, "subset_plan", refuse)
    w = make_workload((8, 8), [(0, 1)])
    with pytest.raises(factorization.DenseTooLarge):
        factorization.build_factorization(w, dense_cap=32)
    # svd_lower_bound plans nothing, within the caps or past them
    assert factorization.svd_lower_bound(w) > 0
    assert factorization.svd_lower_bound(
        make_workload((8,) * 5, [(0, 1), (2, 3, 4)])) > 0
