"""Budget plan and sampler tests."""

import dataclasses
import itertools
import math
import unittest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_marginals import budget, core, fourier, mechanism

from conftest import workloads


def two_singletons():
    u = core.build_universe([2, 2])
    return core.Workload(universe=u, sets=((0,), (1,)),
                         weights=np.array([0.5, 0.5]))


def reference_k_way_tau(d, k, m):
    """{a: sqrt(binom(d - l, k - l))} for every frequency of Hamming
    weight l <= k, frequency by frequency in closure order."""
    tau_map = {}
    for members in itertools.chain.from_iterable(
            itertools.combinations(range(d), r) for r in range(k + 1)):
        value = math.sqrt(math.comb(d - len(members), k - len(members)))
        for nonzero in itertools.product(range(1, m), repeat=len(members)):
            a = [0] * d
            for j, v in zip(members, nonzero):
                a[j] = v
            tau_map[tuple(a)] = value
    return tau_map


def reference_subset_plan(workload, spectrum):
    """SubsetPlan by loops over sets, subsets and attributes: the closure
    as a set of tuples, and each pair's z_{S - R} multiplied in
    attribute order over the scaled attributes of S - R."""
    universe = workload.universe
    closure = set()
    for s in workload.sets:
        for r in range(len(s) + 1):
            closure.update(itertools.combinations(s, r))
    members = tuple(sorted(closure, key=lambda s: (len(s), s)))
    index = {sub: i for i, sub in enumerate(members)}
    gains = [len(table) - 1.0 for table in spectrum.tables]
    zeros = {}
    for j in spectrum.scaled:
        gains[j] = float(spectrum.magnitudes[j][1:].sum())
        zeros[j] = float(spectrum.magnitudes[j][0]) ** 2
    pair_member, pair_set, pair_zero = [], [], []
    for k, s in enumerate(workload.sets):
        scaled = [j for j in s if j in zeros]
        for r in range(len(s) + 1):
            for sub in itertools.combinations(s, r):
                pair_member.append(index[sub])
                pair_set.append(k)
                z = 1.0
                for j in scaled:
                    if j not in sub:
                        z *= zeros[j]
                pair_zero.append(z)
    return budget.SubsetPlan(
        universe=universe, sets=workload.sets, members=members,
        gains=np.array([math.prod(gains[j] for j in sub)
                        for sub in members], dtype=float),
        pair_member=np.array(pair_member, dtype=np.intp),
        pair_set=np.array(pair_set, dtype=np.intp),
        pair_zero=np.array(pair_zero, dtype=float),
        set_square=np.array([float(universe.subuniverse_size(s) ** 2)
                             for s in workload.sets]),
        spectrum=spectrum)


PLAN_ARRAYS = ("gains", "pair_member", "pair_set", "pair_zero",
               "set_square", "pair_square", "need_member", "need_set",
               "need_coef", "need")


def assert_same_plan(plan, reference):
    """Same members and every array equal bit for bit, dtype included."""
    assert plan.members == reference.members
    for name in PLAN_ARRAYS:
        got, want = getattr(plan, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def planned_spectrum(workload):
    """The product form of a workload and the spectrum as_product plans
    it with."""
    product, _ = mechanism.product_form(workload)
    if product.kind == "marginal":
        return product, fourier.unit_spectrum(product.universe.domain_sizes)
    return product, fourier.phi_spectrum(product.phi_tables())


# table entries whose transforms have zero and non-unit coefficients
# ((1, 1) has phi_hat = (2, 0), (1, -1) has (0, 2)), and 0.3 and 0.7,
# whose products round differently when taken in another order
PHI_VALUES = (0.0, 1.0, -1.0, 0.5, 2.0, 0.3, 0.7)


@st.composite
def plan_workloads(draw):
    """Marginal, product or extended workloads over up to 30 attributes
    with up to six distinct sets of up to ten attributes; the empty
    set and no sets at all are among them."""
    kind = draw(st.sampled_from(("marginal", "product", "extended")))
    d = draw(st.integers(1, 30))
    sizes = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    kinds = (core.CATEGORICAL, core.NUMERICAL) if kind == "extended" \
        else (core.CATEGORICAL,)
    universe = core.build_universe(sizes, draw(st.lists(
        st.sampled_from(kinds), min_size=d, max_size=d)))
    sets = draw(st.lists(
        st.lists(st.integers(0, d - 1), max_size=10, unique=True)
        .map(lambda s: tuple(sorted(s))), max_size=6, unique=True))
    phi = None
    if kind == "product":
        phi = tuple(tuple(draw(st.lists(st.sampled_from(PHI_VALUES),
                                        min_size=m, max_size=m)))
                    for m in sizes)
    return core.Workload(universe=universe, sets=tuple(sets),
                         weights=np.ones(len(sets)), kind=kind, phi=phi)


class TestSubsetPlan(unittest.TestCase):

    @given(plan_workloads())
    @settings(max_examples=150, deadline=None)
    def test_property_arrays_equal_reference_loop(self, w):
        product, spectrum = planned_spectrum(w)
        assert_same_plan(budget.subset_plan(product, spectrum),
                         reference_subset_plan(product, spectrum))

    def test_no_sets_and_the_empty_set(self):
        u = core.build_universe([3, 2])
        for sets in ((), ((),), ((), (1,)), ((0, 1), ())):
            w = core.Workload(universe=u, sets=sets, weights=np.ones(len(sets)))
            spectrum = fourier.unit_spectrum(u.domain_sizes)
            plan = budget.subset_plan(w, spectrum)
            assert_same_plan(plan, reference_subset_plan(w, spectrum))
            self.assertEqual(plan.members, core.downward_closure(w))

    def test_set_sizes_beyond_float_precision(self):
        # |U_S| = (10^6 + 3)^3 is past 2^53, so |U_S|^2 must be rounded
        # once from the exact integer
        u = core.build_universe([10 ** 6 + 3] * 3 + [7])
        w = core.Workload(universe=u, sets=((0, 1, 2), (1, 3), (0, 1, 2, 3)),
                          weights=np.ones(3))
        spectrum = fourier.unit_spectrum(u.domain_sizes)
        plan = budget.subset_plan(w, spectrum)
        assert_same_plan(plan, reference_subset_plan(w, spectrum))
        self.assertEqual(plan.set_square[0],
                         float((10 ** 6 + 3) ** 6))

    def test_product_sets_of_mixed_sizes(self):
        u = core.build_universe([2, 3, 2, 4, 2])
        phi = ((1.0, 1.0), (0.5, 2.0, 0.0), (1.0, -1.0), (1.0, 0.0, 0.0, 0.0),
               (0.0, 2.0))
        sets = ((0, 1, 2, 3, 4), (1,), (0, 2), (), (1, 3, 4))
        w = core.Workload(universe=u, sets=sets, weights=np.ones(5),
                          kind="product", phi=phi)
        product, spectrum = planned_spectrum(w)
        assert_same_plan(budget.subset_plan(product, spectrum),
                         reference_subset_plan(product, spectrum))


class TestTauMarginal(unittest.TestCase):

    def test_two_singleton_values(self):
        tau = budget.tau_marginal(two_singletons())
        self.assertAlmostEqual(tau[(0, 0)], 0.5, places=15)
        self.assertAlmostEqual(tau[(1, 0)], 1 / (2 * math.sqrt(2)), places=15)
        self.assertAlmostEqual(tau[(0, 1)], 1 / (2 * math.sqrt(2)), places=15)

    def test_single_set_is_uniform(self):
        u = core.build_universe([3, 4])
        w = core.Workload(universe=u, sets=((0, 1),), weights=np.array([1.0]))
        tau = budget.tau_marginal(w)
        self.assertEqual(len(tau), 12)
        for value in tau.values():
            self.assertAlmostEqual(value, 1 / 12, places=15)

    def test_zero_weights_give_zero_tau(self):
        u = core.build_universe([2, 2])
        w = core.Workload(universe=u, sets=((0,), (1,)),
                          weights=np.array([0.0, 0.0]))
        self.assertEqual(set(budget.tau_marginal(w).values()), {0.0})

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tau_monotone_in_weights(self, data):
        w = data.draw(workloads(max_d=3, max_m=3))
        bump = data.draw(st.integers(0, len(w.sets) - 1))
        before = budget.tau_marginal(w)
        raised = np.asarray(w.weights).copy()
        raised[bump] += data.draw(st.floats(0.1, 2.0))
        after = budget.tau_marginal(w, raised)
        for a, value in before.items():
            self.assertGreaterEqual(after[a] + 1e-15, value)


class TestTauProduct(unittest.TestCase):

    def test_flat_spectrum_matches_marginal(self):
        w = two_singletons()
        marginal = budget.tau_marginal(w)
        product = budget.tau_product(w)
        self.assertEqual(set(marginal), set(product))
        for a in marginal:
            self.assertAlmostEqual(marginal[a], product[a], places=14)

    def test_even_prefix_frequencies_vanish(self):
        m = 3
        u = core.build_universe([2 * m])
        phi = ((1.0,) * m + (0.0,) * m,)
        w = core.Workload(universe=u, sets=((0,),), weights=np.array([1.0]),
                          kind="product", phi=phi)
        tau = budget.tau_product(w)
        for a in range(1, 2 * m):
            if a % 2 == 0:
                self.assertEqual(tau[(a,)], 0.0)
            else:
                self.assertGreater(tau[(a,)], 0.0)

    def test_prefix_zero_frequency_weight(self):
        for m in (2, 3, 5):
            u = core.build_universe([2 * m])
            phi = ((1.0,) * m + (0.0,) * m,)
            w = core.Workload(universe=u, sets=((0,),),
                              weights=np.array([1.0]), kind="product",
                              phi=phi)
            tau = budget.tau_product(w)
            self.assertAlmostEqual(tau[(0,) * 1], 0.5, places=14)

    def test_spectrum_shape_checked(self):
        w = two_singletons()
        bad = fourier.phi_spectrum([[1.0, 0.0]])
        with self.assertRaises(core.LengthMismatch):
            budget.tau_product(w, spectrum=bad)


class TestKWayBudget(unittest.TestCase):

    def test_full_way_budget_is_universe_size(self):
        for d, m in ((1, 2), (2, 3), (3, 2), (2, 5)):
            plan = budget.k_way_budget(d, d, m, mu=1.0)
            self.assertAlmostEqual(plan.tau_total * 1.0 ** 2, m ** d,
                                   places=10)

    def test_three_attributes_pairwise(self):
        plan = budget.k_way_budget(3, 2, 2, mu=1.0)
        expected = math.sqrt(3) + 3 * math.sqrt(2) + 3
        self.assertAlmostEqual(plan.tau_total, expected, places=12)
        self.assertAlmostEqual(budget.k_way_tau_total(3, 2, 2, 1.0),
                               expected, places=12)

    def test_single_binary_attribute(self):
        plan = budget.k_way_budget(1, 1, 2, mu=1.0)
        self.assertAlmostEqual(plan.tau_total, 2.0, places=14)
        self.assertAlmostEqual(plan.variances[(1,)], 4.0, places=14)

    def test_variance_ratio_follows_remaining_choices(self):
        d, k, m = 4, 2, 3
        plan = budget.k_way_budget(d, k, m, mu=1.0)
        top = plan.variances[(1, 2, 0, 0)]
        for a, ratio in (((0, 0, 0, 0), math.comb(d, k)),
                         ((0, 0, 1, 0), d - 1)):
            self.assertAlmostEqual(top / plan.variances[a],
                                   math.sqrt(ratio), places=10)

    def test_matches_uniform_weight_plan(self):
        d, k, m = 4, 2, 2
        u = core.build_universe([m] * d)
        sets = tuple(itertools.combinations(range(d), k))
        w = core.Workload(universe=u, sets=sets,
                          weights=np.full(len(sets), 1 / len(sets)))
        direct = budget.plan_from_tau(2.0, budget.tau_marginal(w))
        closed = budget.k_way_budget(d, k, m, mu=2.0)
        self.assertEqual(set(direct.variances), set(closed.variances))
        for a in direct.variances:
            self.assertAlmostEqual(direct.variances[a], closed.variances[a],
                                   places=10)
            self.assertAlmostEqual(direct.shares[a], closed.shares[a],
                                   places=10)

    def test_matches_per_frequency_reference(self):
        for (d, k, m), mu in itertools.product(
                ((1, 1, 2), (3, 2, 2), (4, 2, 3), (5, 3, 4), (3, 3, 5)),
                (0.3, 1.0, 2.5)):
            plan = budget.k_way_budget(d, k, m, mu)
            expected = budget.plan_from_tau(mu, reference_k_way_tau(d, k, m))
            self.assertEqual(plan.mu, expected.mu)
            self.assertEqual(plan.tau_total, expected.tau_total)
            for name in ("indices", "tau", "variance", "share"):
                actual, wanted = getattr(plan, name), getattr(expected, name)
                self.assertEqual(actual.dtype, wanted.dtype)
                self.assertEqual(actual.shape, wanted.shape)
                self.assertEqual(actual.tobytes(), wanted.tobytes())

    def test_bad_arity(self):
        for d, k, m in ((2, 0, 2), (2, 3, 2), (3, 1, 1)):
            with self.assertRaises(budget.BadArity):
                budget.k_way_budget(d, k, m, mu=1.0)


class TestSampler(unittest.TestCase):

    def test_zero_variance_is_exact_zero(self):
        s = budget.SeededSampler(1)
        self.assertEqual(budget.sample_complex_gaussian(0.0, s), 0j)
        self.assertEqual(s.counter, 0)

    def test_negative_variance_rejected(self):
        s = budget.SeededSampler(1)
        with self.assertRaises(budget.NegativeVariance):
            budget.sample_complex_gaussian(-1.0, s)

    def test_identical_seeds_identical_streams(self):
        a = budget.SeededSampler(123)
        b = budget.SeededSampler(123)
        for _ in range(50):
            self.assertEqual(budget.sample_complex_gaussian(2.0, a),
                             budget.sample_complex_gaussian(2.0, b))
        self.assertEqual(a.counter, 100)

    def test_children_are_reproducible_and_distinct(self):
        base = budget.SeededSampler(7)
        first = [budget.sample_complex_gaussian(1.0, base.child(0))
                 for _ in range(1)]
        again = budget.sample_complex_gaussian(1.0, base.child(0))
        self.assertEqual(first[0], again)
        other = budget.sample_complex_gaussian(1.0, base.child(1))
        self.assertNotEqual(first[0], other)

    def test_array_form_matches_scalar_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        variances = rng.uniform(0.0, 5.0, size=5000)
        variances[rng.random(5000) < 0.2] = 0.0
        loop_sampler = budget.SeededSampler(17)
        loop = np.array([budget.sample_complex_gaussian(v, loop_sampler)
                         for v in variances])
        vector_sampler = budget.SeededSampler(17)
        vector = budget.sample_complex_gaussian(variances, vector_sampler)
        self.assertEqual(vector.shape, variances.shape)
        np.testing.assert_array_equal(vector.view(np.uint64),
                                      loop.view(np.uint64))
        positive = int((variances > 0).sum())
        self.assertEqual(vector_sampler.counter, 2 * positive)
        self.assertEqual(loop_sampler.counter, 2 * positive)
        self.assertTrue((vector[variances == 0] == 0).all())
        # the streams stay aligned after the vector call
        self.assertEqual(budget.sample_complex_gaussian(1.0, loop_sampler),
                         budget.sample_complex_gaussian(1.0, vector_sampler))

    def test_array_form_edge_cases(self):
        s = budget.SeededSampler(1)
        out = budget.sample_complex_gaussian(np.zeros(4), s)
        np.testing.assert_array_equal(out, np.zeros(4, dtype=complex))
        self.assertEqual(budget.sample_complex_gaussian(np.array([]), s).size,
                         0)
        self.assertEqual(s.counter, 0)
        for bad in ([1.0, -1.0], [1.0, float("nan")]):
            with self.assertRaises(budget.NegativeVariance):
                budget.sample_complex_gaussian(np.array(bad), s)
        self.assertEqual(s.counter, 0)

    def test_component_variances(self):
        s = budget.SeededSampler(99)
        draws = np.array([budget.sample_complex_gaussian(2.0, s)
                          for _ in range(10 ** 6)])
        self.assertLess(abs(draws.real.var() - 1.0), 0.02)
        self.assertLess(abs(draws.imag.var() - 1.0), 0.02)

    def test_unbiased_mean(self):
        s = budget.SeededSampler(5)
        variance = 3.0
        n = 10 ** 5
        draws = np.array([budget.sample_complex_gaussian(variance, s)
                          for _ in range(n)])
        bound = 5 * math.sqrt(variance / n)
        self.assertLess(abs(draws.real.mean()), bound)
        self.assertLess(abs(draws.imag.mean()), bound)


class TestAccounting(unittest.TestCase):

    def test_valid_plan_has_tiny_residual(self):
        plan = budget.plan_from_tau(2.0, budget.tau_marginal(two_singletons()))
        report = budget.accounting(plan)
        self.assertLessEqual(report["residual"], 1e-12 * plan.mu ** 2)
        self.assertAlmostEqual(report["share_total"], 4.0, places=12)

    def test_missing_frequency_detected(self):
        plan = budget.plan_from_tau(1.0, budget.tau_marginal(two_singletons()))
        row = list(plan.shares).index((1, 0))
        broken = dataclasses.replace(plan, share=np.delete(plan.share, row))
        with self.assertRaises(budget.BudgetMismatch):
            budget.accounting(broken)

    def test_empty_plan_rejected(self):
        with self.assertRaises(budget.BudgetMismatch):
            budget.plan_from_tau(1.0, {})
        plan = budget.plan_from_tau(1.0, budget.tau_marginal(two_singletons()))
        empty = dataclasses.replace(
            plan, tau_total=0.0, indices=plan.indices[:0], tau=plan.tau[:0],
            variance=plan.variance[:0], share=plan.share[:0])
        with self.assertRaises(budget.BudgetMismatch):
            budget.accounting(empty)

    def test_plan_is_read_only(self):
        plan = budget.plan_from_tau(1.0, budget.tau_marginal(two_singletons()))
        for name in ("indices", "tau", "variance", "share"):
            with self.assertRaises(ValueError):
                getattr(plan, name)[0] = 0
        broken = dataclasses.replace(plan, variance=plan.variance * 2)
        with self.assertRaises(ValueError):
            broken.variance[0] = 1.0
        for name in ("tau_map", "variances", "shares"):
            with self.assertRaises(TypeError):
                getattr(plan, name)[(0, 1)] = 1e-30
        self.assertEqual(plan.variances[(0, 1)], plan.variance[1])

    def test_unusable_mu_rejected(self):
        tau = budget.tau_marginal(two_singletons())
        for mu in (math.inf, -math.inf, math.nan, 0.0, -1.0, 1e-200,
                   1e-160, 1e200):
            with self.assertRaises(budget.BudgetMismatch):
                budget.plan_from_tau(mu, tau)

    def test_released_rows_keep_positive_weights_in_order(self):
        indices = np.array([[1, 0], [0, 2], [0, 0], [0, 1]])
        tau = np.array([0.5, 0.0, 2.0, -0.0])
        rows, kept = budget.released_rows(indices, tau)
        self.assertEqual(rows.tolist(), [[0, 0], [1, 0]])
        self.assertEqual(kept.tolist(), [2.0, 0.5])
        plan = budget.plan_from_arrays(1.0, indices, tau)
        self.assertEqual(plan.indices.tolist(), rows.tolist())
        self.assertEqual(plan.tau.tolist(), kept.tolist())

    def test_document_shape(self):
        plan = budget.plan_from_tau(1.5, budget.tau_marginal(two_singletons()))
        doc = plan.to_document()
        self.assertEqual(doc["mu"], 1.5)
        self.assertEqual([e["a"] for e in doc["entries"]],
                         [[0, 0], [0, 1], [1, 0]])
        for entry in doc["entries"]:
            self.assertAlmostEqual(
                entry["variance"] * entry["tau"], 2 * doc["tau_total"],
                places=12)


if __name__ == "__main__":
    unittest.main()
