"""End-to-end release pipeline tests.

Noiseless runs (sampler=None) must reproduce exact counts; seeded runs
are checked for determinism, noise reuse across sets, and agreement
with the closed-form error predictions and the brute-force reference.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_marginals import (budget, core, factorization, fourier,
                               mechanism, oracle)

from conftest import (datasets, frequency_vectors, releases, set_families,
                      universes, workloads)


def make_dataset(sizes, rows, kinds=None):
    u = core.build_universe(sizes, kinds)
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), u.d)
    return core.Dataset(universe=u, rows=arr)


def uniform_kway_workload(universe, k):
    sets = tuple(itertools.combinations(range(universe.d), k))
    return core.Workload(universe=universe, sets=sets,
                         weights=np.full(len(sets), 1.0 / len(sets)))


# ---------------------------------------------------------------- marginals


def test_single_pair_weighted_rms_is_one():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0, 1),), weights=np.array([1.0]))
    report = mechanism.predicted_error(w, mu=1.0)
    assert report["weighted_rms"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_all_two_way_binary_variance_display(d):
    pairs = math.comb(d, 2)
    expected_var = (1 + 2 / math.sqrt(d - 1) + 1 / math.sqrt(pairs)) \
        * (pairs + d * math.sqrt(d - 1) + math.sqrt(pairs)) / 16  # mu = 1
    sigma = mechanism.k_way_sigma(d, 2, 2, mu=1.0)
    assert sigma ** 2 == pytest.approx(expected_var, rel=1e-12)


def test_noiseless_zero_dataset_releases_zeros():
    u = core.build_universe([2, 2, 2])
    data = core.Dataset(universe=u, rows=np.empty((0, 3), dtype=np.int64))
    w = uniform_kway_workload(u, 2)
    result = mechanism.release_marginals(data, w, mu=1.0, sampler=None)
    for members in w.sets:
        np.testing.assert_array_equal(result.estimates[members], 0.0)


def test_noiseless_release_reproduces_marginals():
    data = make_dataset((2, 3, 2), [(0, 2, 1), (1, 0, 1), (0, 2, 0),
                                    (0, 1, 1)])
    u = data.universe
    w = core.Workload(universe=u, sets=((0, 1), (1, 2), (2,)),
                      weights=np.array([1.0, 2.0, 3.0]))
    result = mechanism.release_marginals(data, w, mu=1.0, sampler=None)
    for members in w.sets:
        for t in itertools.product(*(range(u.domain_sizes[j])
                                     for j in members)):
            assert result.estimate(members, t) == pytest.approx(
                core.marginal_eval(data, members, t), abs=1e-9)


def test_zero_weight_covered_set_is_free():
    data = make_dataset((2, 2), [(0, 0), (1, 1), (1, 0)])
    w = core.Workload(universe=data.universe, sets=((0, 1), (0,)),
                      weights=np.array([1.0, 0.0]))
    result = mechanism.release_marginals(data, w, mu=1.0, sampler=None)
    assert math.isfinite(result.per_set_sigma[(0,)])
    assert result.estimate((0,), (1,)) == pytest.approx(2.0, abs=1e-9)


def test_uncovered_zero_weight_set_raises():
    data = make_dataset((2, 2), [(0, 0)])
    w = core.Workload(universe=data.universe, sets=((0,), (1,)),
                      weights=np.array([1.0, 0.0]))
    with pytest.raises(core.Unestimable):
        mechanism.release_marginals(data, w, mu=1.0, sampler=None)
    report = mechanism.predicted_error(w, mu=1.0)
    assert math.isinf(report["per_set_sigma"][(1,)])
    assert math.isinf(report["max_sigma"])


def test_release_is_deterministic_under_seed():
    data = make_dataset((2, 2), [(0, 1), (1, 1)])
    w = core.Workload(universe=data.universe, sets=((0,), (1,)),
                      weights=np.array([0.5, 0.5]))
    a = mechanism.release_marginals(data, w, mu=1.0,
                                    sampler=budget.SeededSampler(42))
    b = mechanism.release_marginals(data, w, mu=1.0,
                                    sampler=budget.SeededSampler(42))
    for members in w.sets:
        np.testing.assert_array_equal(a.estimates[members],
                                      b.estimates[members])
    assert a.seed == 42


def test_shared_frequencies_make_tables_consistent():
    # the sub-table noise is reused, so summing out an attribute of the
    # pair table must reproduce the singleton table exactly
    data = make_dataset((2, 3), [(0, 2), (1, 1), (0, 0), (1, 2)])
    w = core.Workload(universe=data.universe, sets=((0,), (0, 1)),
                      weights=np.array([0.5, 0.5]))
    result = mechanism.release_marginals(data, w, mu=0.7,
                                         sampler=budget.SeededSampler(3))
    collapsed = result.estimates[(0, 1)].sum(axis=1)
    np.testing.assert_allclose(collapsed, result.estimates[(0,)],
                               atol=1e-9)


def test_fft_reconstruction_matches_naive_on_noisy_values():
    # replicate the documented noise order (lexicographic frequencies)
    # and push the same noisy values through the direct double sum
    data = make_dataset((3, 4), [(0, 3), (2, 1), (1, 1), (2, 3)])
    u = data.universe
    w = core.Workload(universe=u, sets=((0, 1),), weights=np.array([1.0]))
    seed = 11
    result = mechanism.release_marginals(data, w, mu=1.0,
                                         sampler=budget.SeededSampler(seed))
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    sampler = budget.SeededSampler(seed)
    table = fourier.fourier_queries(data, sorted(plan.tau_map))
    coeffs = np.zeros((3, 4), dtype=complex)
    for a, value in zip(sorted(plan.tau_map), table.values):
        noise = budget.sample_complex_gaussian(plan.variances[a], sampler)
        coeffs[a] = value + noise
    direct = oracle.naive_inverse(coeffs).real / u.size
    np.testing.assert_allclose(result.estimates[(0, 1)], direct, atol=1e-9)


def test_plan_reuse_reproduces_release():
    data = make_dataset((2, 2), [(0, 1)])
    w = core.Workload(universe=data.universe, sets=((0, 1),),
                      weights=np.array([1.0]))
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    a = mechanism.release_marginals(data, w, mu=1.0,
                                    sampler=budget.SeededSampler(5))
    b = mechanism.release_marginals(data, w, mu=1.0,
                                    sampler=budget.SeededSampler(5),
                                    plan=plan)
    np.testing.assert_array_equal(a.estimates[(0, 1)], b.estimates[(0, 1)])


# ------------------------------------------------------------------- k-way


@pytest.mark.parametrize("d,m,mu", [(1, 2, 1.0), (2, 3, 1.0), (3, 2, 2.0)])
def test_full_way_sigma_is_inverse_mu(d, m, mu):
    data = make_dataset((m,) * d, [(0,) * d])
    result = mechanism.release_k_way(data, d, mu=mu, sampler=None)
    for sigma in result.per_set_sigma.values():
        assert sigma == pytest.approx(1.0 / mu, rel=1e-12)
    assert mechanism.k_way_sigma(d, d, m, mu) == pytest.approx(1.0 / mu,
                                                               rel=1e-12)


def test_three_way_pairwise_sigma_value():
    data = make_dataset((2, 2, 2), [(0, 1, 0)])
    result = mechanism.release_k_way(data, 2, mu=1.0, sampler=None)
    for sigma in result.per_set_sigma.values():
        assert sigma == pytest.approx(1.2953851375880139, rel=1e-12)


@pytest.mark.parametrize("d,k,m", [(3, 2, 2), (4, 2, 3), (5, 3, 2),
                                   (6, 2, 4), (4, 4, 2)])
def test_release_sigma_equals_closed_form(d, k, m):
    data = make_dataset((m,) * d, [(0,) * d])
    result = mechanism.release_k_way(data, k, mu=1.3, sampler=None)
    expected = mechanism.k_way_sigma(d, k, m, mu=1.3)
    for sigma in result.per_set_sigma.values():
        assert sigma == pytest.approx(expected, rel=1e-12)


def test_k_way_rejects_non_uniform_domain():
    data = make_dataset((2, 3), [(0, 0)])
    with pytest.raises(mechanism.NonUniformDomain):
        mechanism.release_k_way(data, 1, mu=1.0)


def test_k_way_refuses_past_the_caps_before_planning(monkeypatch):
    def refuse(*args):
        raise AssertionError("planned")

    monkeypatch.setattr(budget, "k_way_budget", refuse)
    # 1 + 2 * 3,999 + 3,999^2 frequencies, over the frequency cap
    data = make_dataset((4000, 4000), [(0, 0)])
    with pytest.raises(mechanism.ReleaseTooLarge, match="frequencies"):
        mechanism.release_k_way(data, 2, mu=1.0)


def test_improvement_ratio_tends_to_quarter():
    # fixed k=2, m=2: sigma * mu / sqrt(binom(d,2)) falls toward 1/4
    ratios = [mechanism.k_way_sigma(d, 2, 2) / math.sqrt(math.comb(d, 2))
              for d in (10, 100, 1000, 2000)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(0.25, rel=0.05)


# ----------------------------------------------------------------- product


def test_indicator_product_identical_to_marginals():
    data = make_dataset((2, 3), [(0, 2), (1, 0), (1, 2)])
    u = data.universe
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([0.25, 0.75]))
    seed = 21
    a = mechanism.release_marginals(data, w, mu=1.1,
                                    sampler=budget.SeededSampler(seed))
    # the product side takes the indicator tables of a product workload
    b = mechanism.release_product(data, dataclasses.replace(w, kind="product"),
                                  mu=1.1, sampler=budget.SeededSampler(seed))
    for members in w.sets:
        np.testing.assert_array_equal(a.estimates[members],
                                      b.estimates[members])
    assert a.plan.variances == b.plan.variances
    assert a.predicted == b.predicted


def test_zero_budget_workload_reports_unestimable_set():
    # the only weighted set has an all-zero factor, so nothing gets
    # budget, yet the zero-weight set needs F_0
    data = make_dataset((2, 2), [(0, 1), (1, 1)])
    phi = ((0.0, 0.0), (1.0, 0.0))
    w = core.Workload(universe=data.universe, sets=((0,), (1,)),
                      weights=np.array([1.0, 0.0]), kind="product", phi=phi)
    report = mechanism.predicted_error(w, mu=1.0)
    assert report["weighted_rms"] == 0.0
    assert report["per_set_sigma"] == {(0,): 0.0, (1,): math.inf}
    with pytest.raises(core.Unestimable):
        mechanism.release_product(data, w, mu=1.0)


def test_release_refuses_past_the_caps_before_allocating(monkeypatch):
    # 10^10 frequencies: the frequency rows alone would take 74.5 GiB
    data = make_dataset((10 ** 5, 10 ** 5), [(0, 1), (5, 7)])
    w = core.Workload(universe=data.universe, sets=((0, 1),),
                      weights=np.array([1.0]))
    plan = budget.subset_plan(w, fourier.unit_spectrum((10 ** 5,) * 2))
    assert mechanism.release_refusal(plan) == (
        "10000000000 frequencies exceed the release cap "
        f"{mechanism.RELEASE_FREQUENCY_CAP}")

    def enumerate_frequencies(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(budget, "_member_frequencies", enumerate_frequencies)
    for kind in ("marginal", "product", "extended"):
        with pytest.raises(mechanism.ReleaseTooLarge, match="release cap"):
            mechanism.release_product(
                data, dataclasses.replace(w, kind=kind), mu=1.0)


def test_release_cell_cap_counts_every_table_cell(monkeypatch):
    # 8 closure members of one frequency each, 4 + 8 cells in the tables
    data = make_dataset((2, 2, 2), [(0, 1, 1)])
    w = core.Workload(universe=data.universe, sets=((0, 1), (0, 1, 2)),
                      weights=np.array([0.5, 0.5]))
    _, plan, _ = mechanism.as_product(w)
    assert mechanism.release_refusal(plan) is None
    monkeypatch.setattr(mechanism, "RELEASE_CELL_CAP", 11)
    assert mechanism.release_refusal(plan) == (
        "12 table cells exceed the release cap 11")
    with pytest.raises(mechanism.ReleaseTooLarge):
        mechanism.release_product(data, w, mu=1.0)
    monkeypatch.setattr(mechanism, "RELEASE_CELL_CAP", 12)
    monkeypatch.setattr(mechanism, "RELEASE_FREQUENCY_CAP", 7)
    assert mechanism.release_refusal(plan) == (
        "8 frequencies exceed the release cap 7")
    monkeypatch.setattr(mechanism, "RELEASE_FREQUENCY_CAP", 8)
    assert mechanism.release_product(data, w, mu=1.0).estimates


def test_all_zero_factor_releases_exact_zeros():
    data = make_dataset((2, 2), [(0, 1), (1, 1)])
    u = data.universe
    phi = ((0.0, 0.0), (1.0, 1.0))
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([0.5, 0.5]), kind="product", phi=phi)
    result = mechanism.release_product(data, w, mu=1.0,
                                       sampler=budget.SeededSampler(1))
    for members in w.sets:
        np.testing.assert_array_equal(result.estimates[members], 0.0)
        assert result.per_set_sigma[members] == 0.0
    assert result.plan.tau_map == {}
    assert result.predicted["weighted_rms"] == 0.0


def test_noiseless_product_release_matches_dense_reference():
    data = make_dataset((3, 4), [(0, 3), (2, 1), (1, 1), (2, 3), (0, 0)])
    u = data.universe
    phi = ((1.0, 0.5, 0.0), (1.0, 1.0, 0.0, -1.0))
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([0.5, 0.5]), kind="product", phi=phi)
    dw = oracle.dense_workload(u.domain_sizes, w.sets, w.weights,
                               kind="product", phi=[list(t) for t in phi],
                               data_rows=[tuple(r) for r in data.rows])
    answers = dw.W @ dw.h
    # every release function honours the factor tables of the workload
    for release in (mechanism.release_product, mechanism.release_marginals,
                    mechanism.release_extended):
        result = release(data, w, mu=1.0, sampler=None)
        assert result.kind == "product"
        for (members, target), value in zip(dw.rows, answers):
            assert result.estimate(members, target) == pytest.approx(
                value, abs=1e-9)


# ---------------------------------------------------------------- extended


def test_embedding_identity_on_categorical_universe():
    u = core.build_universe([3, 2])
    emb = mechanism.embed_extended(u)
    assert emb.embedded.domain_sizes == u.domain_sizes
    assert emb.phi == ((1.0, 0.0, 0.0), (1.0, 0.0))


def test_embedding_prefix_and_suffix_by_brute_force():
    u = core.build_universe([3], [core.NUMERICAL])
    emb = mechanism.embed_extended(u)
    assert emb.embedded.domain_sizes == (6,)
    phi = emb.phi[0]
    for t in range(-3, 3):
        t_emb = emb.embed_target((0,), (t,))[0]
        if t == -2:
            assert t_emb == 4
        for x in range(3):
            truth = (x <= t) if t >= 0 else (x >= -t)
            assert phi[(t_emb - x) % 6] == float(truth)


@pytest.mark.parametrize("kind", [core.NUMERICAL, core.CATEGORICAL])
def test_embedding_rejects_targets_that_are_not_integers(kind):
    emb = mechanism.embed_extended(core.build_universe([3], [kind]))
    assert emb.embed_target((0,), (np.int64(1),)) == (1,)
    for t in (1.5, 1.0, True, "1"):
        with pytest.raises(core.AssignmentOutOfRange):
            emb.embed_target((0,), (t,))


def test_embedding_target_map_is_bijection():
    u = core.build_universe([3, 2, 4],
                            [core.NUMERICAL, core.CATEGORICAL,
                             core.NUMERICAL])
    emb = mechanism.embed_extended(u)
    for members in [(0,), (0, 1), (0, 2), (0, 1, 2)]:
        ranges = []
        for j in members:
            m = u.domain_sizes[j]
            if u.attribute_kind[j] == core.NUMERICAL:
                ranges.append(range(-m, m))
            else:
                ranges.append(range(m))
        images = set()
        for t in itertools.product(*ranges):
            t_emb = emb.embed_target(members, t)
            assert emb.lift_target(members, t_emb) == t
            images.add(t_emb)
        assert len(images) == emb.target_count(members)


def prefix_suffix_count(rows, universe, members, target):
    if rows.size == 0:
        return 0
    match = np.ones(rows.shape[0], dtype=bool)
    for j, t in zip(members, target):
        if universe.attribute_kind[j] == core.NUMERICAL:
            match &= (rows[:, j] <= t) if t >= 0 else (rows[:, j] >= -t)
        else:
            match &= rows[:, j] == t
    return int(match.sum())


@pytest.mark.parametrize("sizes,kinds,rows", [
    ((3,), (core.NUMERICAL,), [(0,), (2,), (1,), (2,)]),
    ((2, 3), (core.CATEGORICAL, core.NUMERICAL),
     [(0, 2), (1, 0), (1, 2), (0, 1)]),
    ((4, 2, 3), (core.NUMERICAL, core.CATEGORICAL, core.NUMERICAL),
     [(3, 0, 1), (0, 1, 2), (2, 1, 0)]),
])
def test_noiseless_extended_release_counts_ranges(sizes, kinds, rows):
    data = make_dataset(sizes, rows, kinds)
    u = data.universe
    members = tuple(range(u.d))
    w = core.Workload(universe=u, sets=(members,), weights=np.array([1.0]),
                      kind="extended")
    result = mechanism.release_extended(data, w, mu=1.0, sampler=None)
    ranges = [range(-m, m) if k == core.NUMERICAL else range(m)
              for m, k in zip(sizes, kinds)]
    for t in itertools.product(*ranges):
        assert result.estimate(members, t) == pytest.approx(
            prefix_suffix_count(data.rows, u, members, t), abs=1e-8)


@pytest.mark.parametrize("m,mu", [(2, 1.0), (3, 1.0), (4, 2.0)])
def test_single_numerical_attribute_error(m, mu):
    u = core.build_universe([m], [core.NUMERICAL])
    w = core.Workload(universe=u, sets=((0,),), weights=np.array([1.0]),
                      kind="extended")
    report = mechanism.predicted_error(w, mu=mu)
    expected = (1 + mechanism.eta(m)) / (2 * mu)
    assert report["weighted_rms"] == pytest.approx(expected, rel=1e-12)
    assert report["per_set_sigma"][(0,)] == pytest.approx(expected,
                                                          rel=1e-12)


def test_categorical_only_extended_degenerates_to_marginal():
    u = core.build_universe([3, 2])
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([0.4, 0.6]))
    plain = mechanism.predicted_error(w, mu=1.0)
    ext = mechanism.predicted_error(dataclasses.replace(w, kind="extended"),
                                    mu=1.0)
    assert ext["weighted_rms"] == pytest.approx(plain["weighted_rms"],
                                                rel=1e-12)
    for members in w.sets:
        assert ext["per_set_sigma"][members] == pytest.approx(
            plain["per_set_sigma"][members], rel=1e-12)


def extended_closed_form(universe, sets, weights, mu):
    """Per-support closed form with eta factors, written independently."""
    C = [j for j in range(universe.d)
         if universe.attribute_kind[j] == core.CATEGORICAL]
    N = [j for j in range(universe.d)
         if universe.attribute_kind[j] == core.NUMERICAL]
    total = 0.0
    supports = set()
    for s in sets:
        for r in range(len(s) + 1):
            supports.update(itertools.combinations(s, r))
    for member in supports:
        R = [j for j in member if j in C]
        O = [j for j in member if j in N]
        inner = 0.0
        for s, p in zip(sets, weights):
            if p > 0 and set(member).issubset(s):
                cat_size = np.prod([universe.domain_sizes[j]
                                    for j in s if j in C])
                inner += p / (cat_size ** 2 * 4.0 ** sum(1 for j in s
                                                         if j in N))
        if inner == 0.0:
            continue
        factor = np.prod([universe.domain_sizes[j] - 1 for j in R]) \
            * np.prod([mechanism.eta(universe.domain_sizes[j]) for j in O])
        total += factor * math.sqrt(inner)
    return total / mu


@pytest.mark.parametrize("sizes,kinds,sets,weights", [
    ((3, 2), (core.NUMERICAL, core.CATEGORICAL), ((0, 1),), (1.0,)),
    ((2, 3, 2), (core.CATEGORICAL, core.NUMERICAL, core.NUMERICAL),
     ((0, 1), (1, 2), (2,)), (0.2, 0.5, 0.3)),
    ((4, 3), (core.NUMERICAL, core.NUMERICAL), ((0,), (0, 1)), (0.7, 0.3)),
])
def test_extended_error_matches_closed_form(sizes, kinds, sets, weights):
    u = core.build_universe(sizes, kinds)
    w = core.Workload(universe=u, sets=sets, weights=np.array(weights),
                      kind="extended")
    report = mechanism.predicted_error(w, mu=1.0)
    expected = extended_closed_form(u, w.sets, w.weights, 1.0)
    assert report["weighted_rms"] == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------- error formulas


def test_two_singleton_error_value():
    u = core.build_universe([2, 2])
    w = core.Workload(universe=u, sets=((0,), (1,)),
                      weights=np.array([0.5, 0.5]))
    report = mechanism.predicted_error(w, mu=1.0)
    assert report["weighted_rms"] == pytest.approx((1 + math.sqrt(2)) / 2,
                                                   rel=1e-14)


def test_single_set_sigma_is_inverse_mu():
    u = core.build_universe([3, 4])
    w = core.Workload(universe=u, sets=((0, 1),), weights=np.array([1.0]))
    report = mechanism.predicted_error(w, mu=2.5)
    assert report["per_set_sigma"][(0, 1)] == pytest.approx(1 / 2.5,
                                                            rel=1e-12)


def test_uniform_kway_predicted_matches_theorem():
    u = core.build_universe([3, 3, 3, 3])
    w = uniform_kway_workload(u, 2)
    report = mechanism.predicted_error(w, mu=1.0)
    expected = mechanism.k_way_sigma(4, 2, 3, mu=1.0)
    for sigma in report["per_set_sigma"].values():
        assert sigma == pytest.approx(expected, rel=1e-12)


@given(workloads(max_d=3, max_m=4, positive=True))
@settings(max_examples=40, deadline=None)
def test_rms_decomposes_over_sets(w):
    mu = 1.0
    report = mechanism.predicted_error(w, mu=mu)
    p = np.asarray(w.weights) / np.asarray(w.weights).sum()
    total = sum(pS * report["per_set_sigma"][s] ** 2
                for s, pS in zip(w.sets, p))
    assert report["weighted_rms"] ** 2 == pytest.approx(total, rel=1e-9)


@given(workloads(max_d=3, max_m=4, positive=True))
@settings(max_examples=40, deadline=None)
def test_rms_matches_enumerated_objective(w):
    report = mechanism.predicted_error(w, mu=1.0)
    reference = oracle.pstar_objective(
        w.universe.domain_sizes, w.sets,
        np.asarray(w.weights) / np.asarray(w.weights).sum())
    assert report["weighted_rms"] == pytest.approx(reference, rel=1e-10)


def test_product_rms_matches_enumerated_objective():
    u = core.build_universe([3, 4])
    phi = ((1.0, 0.5, 0.25), (1.0, 1.0, 0.0, 0.0))
    w = core.Workload(universe=u, sets=((0,), (0, 1)),
                      weights=np.array([0.5, 0.5]), kind="product", phi=phi)
    report = mechanism.predicted_error(w, mu=1.0)
    reference = oracle.pstar_objective(u.domain_sizes, w.sets,
                                       np.asarray(w.weights),
                                       phi=[list(t) for t in phi])
    assert report["weighted_rms"] == pytest.approx(reference, rel=1e-10)


# ------------------------------------- per-frequency reference, subset plan


def reference_tau(workload, magnitudes):
    """tau_a frequency by frequency, summing over the sets for each
    closure member, with the tables |phi_hat_j| in magnitudes."""
    universe = workload.universe
    out = {}
    for members in core.downward_closure(workload):
        c = 0.0
        for s, pS in zip(workload.sets, workload.weights):
            if pS > 0 and set(members).issubset(s):
                off = 1.0
                for j in s:
                    if j not in members:
                        off *= magnitudes[j][0] ** 2
                c += pS * off / universe.subuniverse_size(s) ** 2
        root = math.sqrt(c)
        for a in frequency_vectors(universe, members):
            scale = 1.0
            for j in members:
                scale *= magnitudes[j][a[j]]
            out[a] = scale * root
    return out


def reference_sigma(universe, members, tau_map, tau_total, magnitudes):
    """sigma_S by a sum over every frequency supported inside S; inf
    when a frequency with a nonzero coefficient has no budget."""
    total = 0.0
    for r in range(len(members) + 1):
        for sub in itertools.combinations(members, r):
            for a in frequency_vectors(universe, sub):
                num = 1.0
                for j in members:
                    num *= magnitudes[j][a[j]] ** 2
                if num == 0.0:
                    continue
                tau_a = tau_map.get(a, 0.0)
                if tau_a <= 0.0:
                    return math.inf
                total += num / tau_a
    return math.sqrt(tau_total * total) / universe.subuniverse_size(members)


def product_form(workload):
    """(normalized product-form workload, its phi_hat tables): exact
    ones for a marginal workload, the FFT of phi otherwise."""
    w = core.normalize_weights(workload)
    if w.kind == "extended":
        emb = mechanism.embed_extended(w.universe)
        w = core.Workload(universe=emb.embedded, sets=w.sets,
                          weights=w.weights, kind="product", phi=emb.phi)
    if w.kind == "marginal":
        return w, [np.ones(m, dtype=complex)
                   for m in w.universe.domain_sizes]
    return w, list(fourier.phi_spectrum(w.phi_tables()).tables)


def product_tau(product):
    """budget's tau map of a product-form workload."""
    return (budget.tau_marginal(product) if product.kind == "marginal"
            else budget.tau_product(product))


def reference_report(workload, mu):
    w, tables = product_form(workload)
    magnitudes = [np.abs(t) for t in tables]
    tau_map = reference_tau(w, magnitudes)
    tau_total = sum(tau_map.values()) / mu ** 2
    sigma = {s: reference_sigma(w.universe, s, tau_map, tau_total,
                                magnitudes) for s in w.sets}
    return tau_map, sigma, sum(tau_map.values()) / mu


@st.composite
def kinded_workloads(draw):
    """Marginal, product (factor values with exact zeros in their
    spectra) and extended workloads, some sets weighted zero."""
    kind = draw(st.sampled_from(["marginal", "product", "extended"]))
    kinds = (core.CATEGORICAL, core.NUMERICAL) if kind == "extended" \
        else (core.CATEGORICAL,)
    universe = draw(universes(max_d=3, max_m=4, kinds=kinds))
    sets = draw(set_families(universe.d, max_sets=4))
    weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0])
                            | st.floats(0.01, 2.0),
                            min_size=len(sets), max_size=len(sets)))
    if sum(weights) == 0:
        weights[0] = 1.0
    phi = None
    if kind == "product":
        phi = tuple(tuple(draw(st.lists(
            st.integers(-4, 4).map(lambda v: v / 2)
            | st.floats(0.1, 2.0), min_size=m, max_size=m)))
            for m in universe.domain_sizes)
    return core.Workload(universe=universe, sets=sets,
                         weights=np.array(weights), kind=kind, phi=phi)


def assert_close(actual, expected, rel=1e-12):
    if math.isinf(expected):
        assert actual == expected
    else:
        assert actual == pytest.approx(expected, rel=rel, abs=0.0)


@given(kinded_workloads())
@settings(max_examples=150, deadline=None)
def test_subset_plan_matches_per_frequency_reference(w):
    mu = 1.7
    tau_ref, sigma_ref, rms_ref = reference_report(w, mu)
    report = mechanism.predicted_error(w, mu=mu)
    for s in w.sets:
        assert_close(report["per_set_sigma"][s], sigma_ref[s])
    assert_close(report["max_sigma"], max(sigma_ref.values()))
    assert_close(report["weighted_rms"], rms_ref)
    product, _ = product_form(w)
    tau = product_tau(product)
    assert list(tau) == list(tau_ref)
    assert tau == tau_ref  # same arithmetic in the same order
    sizes = product.universe.domain_sizes
    phi = None if product.kind == "marginal" \
        else [list(t) for t in product.phi_tables()]
    objective = oracle.pstar_objective(sizes, product.sets, product.weights,
                                       phi=phi)
    assert report["weighted_rms"] == pytest.approx(objective / mu, rel=1e-10)


RELEASE_CASES = [
    ("marginal", (2, 3, 2), None, ((0, 1), (1, 2), (2,)), (1.0, 2.0, 0.0)),
    ("product", (3, 4), None, ((0,), (0, 1)), (0.5, 0.5)),
    ("extended", (3, 2), (core.NUMERICAL, core.CATEGORICAL),
     ((0,), (0, 1)), (0.7, 0.3)),
]


def release_case(kind, sizes, kinds, sets, weights):
    data = make_dataset(sizes, [(0,) * len(sizes), (1,) * len(sizes)],
                        kinds)
    phi = ((1.0, 0.5, 0.0), (1.0, 1.0, 0.0, -1.0)) if kind == "product" \
        else None
    w = core.Workload(universe=data.universe, sets=sets,
                      weights=np.array(weights), kind=kind, phi=phi)
    release = {"marginal": mechanism.release_marginals,
               "product": mechanism.release_product,
               "extended": mechanism.release_extended}[kind]
    return data, w, release


@pytest.mark.parametrize("case", RELEASE_CASES, ids=lambda c: c[0])
def test_every_release_function_releases_the_workloads_own_kind(case):
    data, w, _ = release_case(*case)
    results = [release(data, w, mu=0.8, sampler=budget.SeededSampler(4))
               for release in (mechanism.release_marginals,
                               mechanism.release_product,
                               mechanism.release_extended)]
    first = results[0]
    assert first.kind == w.kind
    for result in results[1:]:
        assert result.kind == w.kind
        for s in w.sets:
            np.testing.assert_array_equal(result.estimates[s],
                                          first.estimates[s])
        assert result.per_set_sigma == first.per_set_sigma
        for name in ("indices", "tau", "variance", "share"):
            assert getattr(result.plan, name).tobytes() \
                == getattr(first.plan, name).tobytes()


@pytest.mark.parametrize("case", RELEASE_CASES, ids=lambda c: c[0])
def test_release_sigma_equals_predicted_error(case):
    data, w, release = release_case(*case)
    result = release(data, w, mu=0.8, sampler=budget.SeededSampler(4))
    report = mechanism.predicted_error(w, mu=0.8)
    assert result.per_set_sigma == report["per_set_sigma"]
    assert result.predicted == report


def bad_targets(universe, members, kind):
    """Targets of the set members that no release of this kind serves:
    one value too many or too few, and per attribute a value past the
    end, a fraction, a bool, and one below the lowest target (-1, or
    -m - 1 for the suffixes of a numerical attribute of a range
    workload)."""
    good = (0,) * len(members)
    out = [good + (0,), good[1:]]
    for i, j in enumerate(members):
        m = universe.domain_sizes[j]
        suffixes = kind == "extended" \
            and universe.attribute_kind[j] == core.NUMERICAL
        for t in (m, 0.5, True, -m - 1 if suffixes else -1):
            out.append(good[:i] + (t,) + good[i + 1:])
    return out


@pytest.mark.parametrize("case", RELEASE_CASES, ids=lambda c: c[0])
def test_estimate_rejects_bad_targets(case):
    data, w, release = release_case(*case)
    result = release(data, w, mu=0.8, sampler=None)
    for members in w.sets:
        assert math.isfinite(result.estimate(members, (0,) * len(members)))
        for target in bad_targets(data.universe, members, case[0]):
            with pytest.raises(core.AssignmentOutOfRange):
                result.estimate(members, target)
        # the target follows the members as given, sorted or not
        top = tuple(data.universe.domain_sizes[j] - 1 for j in members)
        assert result.estimate(members[::-1], top[::-1]) \
            == result.estimate(members, top)
        if len(set(top)) > 1:
            with pytest.raises(core.AssignmentOutOfRange):
                result.estimate(members[::-1], top)
    outside = next(s for r in range(1, w.universe.d + 1)
                   for s in itertools.combinations(range(w.universe.d), r)
                   if s not in w.sets)
    with pytest.raises(core.AssignmentOutOfRange):
        result.estimate(outside, (0,) * len(outside))
    with pytest.raises(core.AssignmentOutOfRange):
        result.table(outside)
    if case[0] == "marginal":
        # negative indices would read cells from the end of the table
        with pytest.raises(core.AssignmentOutOfRange):
            result.estimate((0, 1), (-1, -1))


def test_marginal_product_form_has_exact_unit_spectrum():
    u = core.build_universe([89, 2])
    w = core.Workload(universe=u, sets=((0, 1),), weights=np.array([1.0]))
    product, plan, embedding = mechanism.as_product(w)
    spectrum = plan.spectrum
    assert product is w and embedding is None
    assert spectrum.scaled == ()
    for table, m in zip(spectrum.tables, u.domain_sizes):
        assert table.shape == (m,) and (table == 1).all()
    # the FFT of the indicator of zero is not exactly one at m = 89
    indicator = fourier.phi_spectrum(w.phi_tables())
    assert indicator.scaled == (0,)
    for case in RELEASE_CASES:
        product, plan, _ = mechanism.as_product(release_case(*case)[1])
        assert [len(t) for t in plan.spectrum.tables] \
            == list(product.universe.domain_sizes)


@pytest.mark.parametrize("case", RELEASE_CASES, ids=lambda c: c[0])
def test_product_form_is_as_product_unplanned(case, monkeypatch):
    w = release_case(*case)[1]
    planned, _, planned_embedding = mechanism.as_product(w)

    def refuse(*args):
        raise AssertionError("planned")

    monkeypatch.setattr(budget, "subset_plan", refuse)
    product, embedding = mechanism.product_form(w)
    assert product.kind == planned.kind
    assert product.universe == planned.universe
    assert product.sets == planned.sets and product.phi == planned.phi
    assert np.array_equal(product.weights, planned.weights)
    assert (embedding is None) == (planned_embedding is None)
    # a product form is its own product form
    again, none = mechanism.product_form(product)
    assert again is product and none is None


@pytest.mark.parametrize("case", RELEASE_CASES[:2], ids=lambda c: c[0])
def test_planned_release_computes_no_tau(case, monkeypatch):
    data, w, release = release_case(*case)
    product, _ = product_form(w)
    plan = budget.plan_from_tau(0.8, product_tau(product))
    expected = release(data, w, mu=0.8, sampler=budget.SeededSampler(4))

    def no_tau(self, roots):
        raise AssertionError("a planned release computed tau")
    monkeypatch.setattr(budget.SubsetPlan, "frequencies", no_tau)
    result = release(data, w, mu=0.8, sampler=budget.SeededSampler(4),
                     plan=plan)
    for s in w.sets:
        np.testing.assert_array_equal(result.estimates[s],
                                      expected.estimates[s])
    assert result.per_set_sigma == expected.per_set_sigma


def test_plan_for_another_mu_is_rejected():
    data = make_dataset((2, 2), [(0, 1)])
    w = core.Workload(universe=data.universe, sets=((0, 1), (0,)),
                      weights=np.array([0.5, 0.5]))
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, w, mu=2.0, plan=plan)
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_product(data, w, mu=2.0, plan=plan)
    kway = budget.k_way_budget(2, 1, 2, mu=1.0)
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_k_way(data, 1, mu=2.0, plan=kway)


def test_plan_for_other_weights_is_rejected():
    data = make_dataset((2, 3), [(0, 1)])
    w = core.Workload(universe=data.universe, sets=((0, 1), (0,)),
                      weights=np.array([0.5, 0.5]))
    other = budget.plan_from_tau(1.0, budget.tau_marginal(w, p=[0.9, 0.1]))
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, w, mu=1.0, plan=other)
    fewer = core.Workload(universe=data.universe, sets=((0,),),
                          weights=np.array([1.0]))
    partial = budget.plan_from_tau(1.0, budget.tau_marginal(fewer))
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, w, mu=1.0, plan=partial)
    # proportional on the workload's frequencies, but holds more
    larger = budget.plan_from_tau(1.0, budget.tau_marginal(w, p=[1.0, 0.0]))
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, fewer, mu=1.0, plan=larger)
    # as many frequencies as the workload's, but none of them
    elsewhere = budget.plan_from_tau(1.0, {(0, 1): 1.0, (0, 2): 1.0})
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, fewer, mu=1.0, plan=elsewhere)
    # every frequency is checked: (0, 2) is not the first frequency of
    # its member (1,)
    tau = budget.tau_marginal(w)
    tau[(0, 2)] *= 2
    doubled = budget.plan_from_tau(1.0, tau)
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, w, mu=1.0, plan=doubled)
    # the workload's own frequencies, out of lexicographic order
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    reversed_rows = dataclasses.replace(
        plan, indices=plan.indices[::-1], tau=plan.tau[::-1],
        variance=plan.variance[::-1], share=plan.share[::-1])
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, w, mu=1.0, plan=reversed_rows)
    # any scale of the workload's own weights is the same plan
    scaled = budget.plan_from_tau(1.0, budget.tau_marginal(w, p=[3.0, 3.0]))
    mechanism.release_marginals(data, w, mu=1.0, plan=scaled)


def test_inconsistent_plan_fails_accounting():
    data = make_dataset((2, 2), [(0, 1)])
    w = core.Workload(universe=data.universe, sets=((0, 1),),
                      weights=np.array([1.0]))
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    variance = plan.variance.copy()
    variance[0] /= 2
    broken = dataclasses.replace(plan, variance=variance)
    with pytest.raises(budget.BudgetMismatch):
        mechanism.release_marginals(data, w, mu=1.0, plan=broken)


@given(kinded_workloads(), st.sampled_from([0.25, 1.0, 1.7, 40.0]))
@settings(max_examples=150, deadline=None)
def test_release_plan_equals_per_frequency_plan(w, mu):
    """The plan a release builds from member blocks is, bit for bit, the
    plan of the per-frequency reference weights."""
    if math.isinf(mechanism.predicted_error(w, mu=mu)["max_sigma"]):
        return
    data = core.Dataset(universe=w.universe,
                        rows=np.zeros((1, w.universe.d), dtype=np.int64))
    plan = RELEASES[w.kind](data, w, mu=mu).plan
    product, tables = product_form(w)
    tau = reference_tau(product, [np.abs(t) for t in tables])
    if not any(t > 0 for t in tau.values()):
        assert len(plan.indices) == 0 and plan.tau_total == 0.0
        return
    expected = budget.plan_from_tau(mu, tau)
    assert plan.mu == expected.mu
    assert plan.tau_total == expected.tau_total
    for name in ("indices", "tau", "variance", "share"):
        actual, wanted = getattr(plan, name), getattr(expected, name)
        assert actual.dtype == wanted.dtype
        assert actual.shape == wanted.shape
        assert actual.tobytes() == wanted.tobytes()


def test_releases_walk_no_frequency(monkeypatch):
    # the package holds no per-frequency enumerator, and a release
    # neither validates indices one by one nor builds per-frequency dicts
    assert not hasattr(fourier, "frequency_vectors")

    def walk(*args):
        raise AssertionError("a frequency walk ran")
    monkeypatch.setattr(fourier, "_validate_index", walk)
    monkeypatch.setattr(budget.BudgetPlan, "_view", walk)
    for case in RELEASE_CASES:
        data, w, release = release_case(*case)
        result = release(data, w, mu=0.8, sampler=budget.SeededSampler(4))
        if case[0] != "extended":
            release(data, w, mu=0.8, sampler=budget.SeededSampler(4),
                    plan=result.plan)
        factorization.build_factorization(w)
    data = make_dataset((3, 3, 3), [(0, 1, 2), (2, 2, 0)])
    mechanism.release_k_way(data, 2, mu=0.8, sampler=budget.SeededSampler(4))
    mechanism.release_k_way(data, 2, mu=0.8, sampler=budget.SeededSampler(4),
                            plan=budget.k_way_budget(3, 2, 3, 0.8))


# ------------------------------- per-frequency reference, reconstruction


def reference_reconstruct(universe, members, noisy, tables):
    """One set's table from {a: noisy F_a}, frequency by frequency over
    every support inside the set, each value scaled by prod_{j in S}
    phi_hat_j(a_j) one axis at a time, from the phi_hat tables; a table
    of exact ones scales nothing."""
    ones = {j for j, table in enumerate(tables) if (table == 1).all()}
    if not members:
        return np.array(noisy.get((0,) * universe.d, 0j).real)
    shape = universe.subdomain_sizes(members)
    coeffs = np.zeros(shape, dtype=complex)
    for r in range(len(members) + 1):
        for sub in itertools.combinations(members, r):
            for a in frequency_vectors(universe, sub):
                value = noisy.get(a)
                if value is None:
                    continue
                for j in members:
                    if j not in ones:
                        value = value * tables[j][a[j]]
                coeffs[tuple(a[j] for j in members)] = value
    table = fourier.inverse_table(coeffs, expected_shape=shape)
    return np.real(table) / universe.subuniverse_size(members)


RELEASES = {"marginal": mechanism.release_marginals,
            "product": mechanism.release_product,
            "extended": mechanism.release_extended}


@given(kinded_workloads(), st.data())
@settings(max_examples=150, deadline=None)
def test_reconstruction_matches_per_frequency_reference(w, data):
    mu = 1.3
    dataset = data.draw(datasets(w.universe, max_rows=8))
    seed = data.draw(st.none() | st.integers(0, 2 ** 32 - 1))
    product, tables = product_form(w)
    kwargs = {"mu": mu}
    if seed is not None:
        kwargs["sampler"] = budget.SeededSampler(seed)
    if w.kind != "extended" and data.draw(st.booleans()):
        tau = product_tau(product)
        if any(t > 0 for t in tau.values()):
            kwargs["plan"] = budget.plan_from_tau(mu, tau)
    release = RELEASES[w.kind]
    if math.isinf(mechanism.predicted_error(w, mu=mu)["max_sigma"]):
        with pytest.raises(core.Unestimable):
            release(dataset, w, **kwargs)
        return
    result = release(dataset, w, **kwargs)

    # the noisy frequencies as the release draws them
    order = sorted(result.plan.tau_map)
    embedded = core.Dataset(universe=product.universe, rows=dataset.rows)
    table = fourier.fourier_queries(embedded, order)
    values = table.values.copy()
    if seed is not None:
        variances = np.array([result.plan.variances[a] for a in order])
        values += budget.sample_complex_gaussian(
            variances, budget.SeededSampler(seed))
    noisy = dict(zip(order, values.tolist()))
    for s in w.sets:
        expected = reference_reconstruct(product.universe, s, noisy,
                                         tables)
        assert result.estimates[s].shape == expected.shape
        assert result.estimates[s].tobytes() == expected.tobytes()


# --------------------------------------------------------------- eta, zeta


def test_eta_zeta_small_values():
    assert mechanism.eta(2) == pytest.approx(math.sqrt(2), rel=1e-14)
    assert mechanism.zeta(2) == pytest.approx(0.5, rel=1e-14)


def test_eta_zeta_reject_small_m():
    assert mechanism.BadArity is budget.BadArity
    with pytest.raises(mechanism.BadArity):
        mechanism.eta(1)
    with pytest.raises(mechanism.BadArity):
        mechanism.zeta(1)


@pytest.mark.parametrize("m", [2, 5, 17, 100, 1234, 10000])
def test_eta_log_bands(m):
    gap = mechanism.eta(m) - math.log(m) / math.pi
    assert 1.19 <= gap <= 3.90
    sharp = mechanism.eta(m) - 2 * math.log(m) / math.pi
    assert 0.9625 <= sharp <= 0.9730


@pytest.mark.parametrize("m", [2, 3, 10, 257, 9999])
def test_zeta_below_eta(m):
    assert mechanism.zeta(m) < mechanism.eta(m)


# ------------------------------------------------------- statistical checks


def kway_release_fn(data, k, mu):
    plan = budget.k_way_budget(data.universe.d, k,
                               data.universe.domain_sizes[0], mu)

    def run(seed):
        sampler = budget.SeededSampler(seed)
        result = mechanism.release_k_way(data, k, mu=mu, sampler=sampler,
                                         plan=plan)
        values = []
        for members in sorted(result.estimates):
            values.extend(np.atleast_1d(result.estimates[members]).ravel())
        return np.array(values)

    return run


def test_monte_carlo_variance_and_shape():
    data = make_dataset((2,), [(0,), (1,), (1,)])
    mu = 1.0
    run = kway_release_fn(data, 1, mu)
    noiseless = mechanism.release_k_way(data, 1, mu=mu, sampler=None)
    truth = np.array([noiseless.estimates[(0,)][0],
                      noiseless.estimates[(0,)][1]])
    stats = oracle.monte_carlo(run, truth, trials=3000, seed=123,
                               sigma=1.0 / mu)
    np.testing.assert_allclose(stats["var_err"], 1.0, rtol=0.1)
    assert np.all(np.abs(stats["mean_err"]) <= 5 / math.sqrt(3000))
    assert np.all(stats["ks_pvalue"] > 1e-3)


def test_variance_zero_mode_is_exact():
    data = make_dataset((2, 2), [(0, 1), (1, 0)])
    noiseless = mechanism.release_k_way(data, 2, mu=1.0, sampler=None)
    run = lambda seed: np.atleast_1d(noiseless.estimates[(0, 1)]).ravel()
    truth = run(None)
    stats = oracle.monte_carlo(run, truth, trials=1000, seed=0)
    np.testing.assert_array_equal(stats["var_err"], 0.0)


# ----------------------------------------------------------------- reports


def test_release_document_schema():
    data = make_dataset((2, 2), [(0, 1), (1, 1)])
    w = core.Workload(universe=data.universe, sets=((0,), (0, 1)),
                      weights=np.array([0.5, 0.5]))
    result = mechanism.release_marginals(data, w, mu=1.0,
                                         sampler=budget.SeededSampler(9))
    doc = mechanism.release_document(result, names=["a", "b"])
    assert doc["meta"] == {"mu": 1.0, "seed": 9, "kind": "marginal"}
    assert [s["attrs"] for s in doc["sets"]] == [["a"], ["a", "b"]]
    assert len(doc["sets"][1]["table"]) == 4
    assert doc["sets"][1]["table"][0]["t"] == [0, 0]
    assert doc["predicted"]["weighted_rms"] == pytest.approx(
        result.predicted["weighted_rms"])


def test_release_document_extended_targets():
    data = make_dataset((2,), [(0,), (1,)], (core.NUMERICAL,))
    w = core.Workload(universe=data.universe, sets=((0,),),
                      weights=np.array([1.0]), kind="extended")
    result = mechanism.release_extended(data, w, mu=1.0, sampler=None)
    doc = mechanism.release_document(result)
    targets = [row["t"][0] for row in doc["sets"][0]["table"]]
    assert targets == [0, 1, -1, -2]
    estimates = [row["estimate"] for row in doc["sets"][0]["table"]]
    assert estimates == pytest.approx([1.0, 2.0, 1.0, 0.0], abs=1e-8)


def reference_release_document(result, names=None):
    """release_document as it was built cell by cell, through
    lift_target; the reference for the one built from table layouts."""
    universe = result.workload.universe
    label = (lambda j: names[j]) if names else (lambda j: j)
    sets_out = []
    for members in result.workload.sets:
        table = result.estimates[members]
        rows = []
        if members:
            domain = [range(universe.domain_sizes[j]) for j in members]
            for target in itertools.product(*domain):
                value = float(table[tuple(target)])
                shown = target
                if result.embedding is not None:
                    shown = result.embedding.lift_target(members, target)
                rows.append({"t": list(shown), "estimate": value})
        else:
            rows.append({"t": [], "estimate": float(table)})
        sets_out.append({
            "attrs": [label(j) for j in members],
            "sigma": result.per_set_sigma[members],
            "table": rows,
        })
    return {
        "meta": {"mu": result.plan.mu, "seed": result.seed,
                 "kind": result.kind},
        "sets": sets_out,
        "predicted": {
            "weighted_rms": result.predicted["weighted_rms"],
            "max_sigma": result.predicted["max_sigma"],
        },
    }


@given(releases(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_release_document_matches_cell_by_cell_reference(release, labelled):
    result, names = release
    names = names if labelled else None
    doc = mechanism.release_document(result, names=names)
    assert doc == reference_release_document(result, names=names)
    # the rows' targets are plain ints, as the reference's are
    assert all(type(v) is int for entry in doc["sets"]
               for row in entry["table"] for v in row["t"])


def test_table_layouts_share_one_layout_per_shape():
    data = make_dataset((2, 3, 2), [(0, 1, 1), (1, 2, 0)],
                        (core.NUMERICAL, core.CATEGORICAL, core.NUMERICAL))
    w = core.Workload(universe=data.universe,
                      sets=((), (0,), (2,), (0, 1), (1, 2)),
                      weights=np.ones(5), kind="extended")
    result = mechanism.release_extended(data, w, mu=1.0, sampler=None)
    keys, layouts = mechanism.table_layouts(result)
    # attributes 0 and 2 are both numerical of size 2
    assert keys[1] == keys[2] == ((4, True),)
    assert len(layouts) == 4
    assert layouts[keys[0]] == ()
    assert layouts[keys[1]] == ([0, 1, -1, -2],)
    # the document's targets are the row-major product of the axes
    tables = [entry["table"] for entry in
              mechanism.release_document(result)["sets"]]
    assert [row["t"] for row in tables[0]] == [[]]
    assert [row["t"] for row in tables[3][:4]] == [[0, 0], [0, 1], [0, 2],
                                                   [1, 0]]
    assert [row["t"] for row in tables[4]] == [
        [t, u] for t in range(3) for u in (0, 1, -1, -2)]
