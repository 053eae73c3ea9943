"""Worst-case weight solver checks against analytic and grid answers."""

import dataclasses
import itertools
import math
import tracemalloc
import unittest

import numpy as np
import pytest

from fourier_marginals import core, fourier, mechanism, optimizer, oracle


def workload(sizes, sets, kinds=None, kind="marginal", phi=None):
    u = core.build_universe(sizes, kinds)
    return core.Workload(universe=u, sets=sets,
                         weights=np.full(len(sets), 1.0 / len(sets)),
                         kind=kind, phi=phi)


class SymmetricSolutions(unittest.TestCase):

    def test_all_two_way_binary_is_uniform(self):
        w = workload((2, 2, 2), ((0, 1), (0, 2), (1, 2)))
        sol = optimizer.optimize_pstar(w)
        np.testing.assert_allclose(sol.p_star, 1 / 3, atol=1e-6)
        self.assertLessEqual(sol.kkt_residual, 1e-8)
        self.assertEqual(sol.iterations, 0)  # uniform start is already p*

    def test_all_two_way_ternary_is_uniform(self):
        sets = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        w = workload((3, 3, 3, 3), sets)
        sol = optimizer.optimize_pstar(w)
        np.testing.assert_allclose(sol.p_star, 1 / 6, atol=1e-6)
        self.assertLessEqual(sol.kkt_residual, 1e-10)

    def test_single_set_is_trivial(self):
        w = workload((2, 3), ((0, 1),))
        sol = optimizer.optimize_pstar(w)
        self.assertEqual(sol.p_star[0], 1.0)
        self.assertEqual(sol.kkt_residual, 0.0)

    def test_error_equals_max_sigma_at_optimum(self):
        w = workload((2, 2, 2), ((0, 1), (0, 2), (1, 2)))
        sol = optimizer.optimize_pstar(w)
        report = mechanism.predicted_error(w, p=sol.p_star, mu=1.0)
        self.assertAlmostEqual(report["weighted_rms"],
                               report["max_sigma"], delta=1e-8)


class AnalyticSolution(unittest.TestCase):
    # sets {0} and {0,1} over a 2x2 domain: with x on the pair,
    # f = (sqrt(4-3x) + sqrt(x))/2, maximized at x = 1/3

    def test_nested_pair_weights(self):
        w = workload((2, 2), ((0,), (0, 1)))
        sol = optimizer.optimize_pstar(w, tol=1e-10)
        np.testing.assert_allclose(sol.p_star, [2 / 3, 1 / 3], atol=1e-6)
        self.assertAlmostEqual(sol.objective, 2 / math.sqrt(3), delta=1e-9)

    def test_nested_pair_error_equals_max_sigma(self):
        w = workload((2, 2), ((0,), (0, 1)))
        sol = optimizer.optimize_pstar(w, tol=1e-10)
        report = mechanism.predicted_error(w, p=sol.p_star, mu=1.0)
        self.assertAlmostEqual(report["weighted_rms"],
                               report["max_sigma"], delta=1e-8)
        self.assertAlmostEqual(report["weighted_rms"],
                               2 / math.sqrt(3), delta=1e-8)


class GridAgreement(unittest.TestCase):

    def check(self, w, step, phi=None):
        sol = optimizer.optimize_pstar(w)
        grid_w, grid_val = oracle.grid_search_pstar(
            w.universe.domain_sizes, w.sets, step, phi=phi)
        self.assertLessEqual(abs(sol.objective - grid_val),
                             1e-4 * grid_val)
        # the solver maximizes, so the grid can only trail it
        self.assertGreaterEqual(sol.objective, grid_val - 1e-12)
        return sol, grid_w

    def test_two_set_marginal(self):
        w = workload((2, 2), ((0,), (0, 1)))
        sol, grid_w = self.check(w, 1e-4)
        np.testing.assert_allclose(sol.p_star, grid_w, atol=2e-4)

    def test_three_set_marginal_asymmetric(self):
        w = workload((2, 3), ((0,), (1,), (0, 1)))
        self.check(w, 1e-4)

    def test_two_set_product(self):
        phi = ((1.0, 0.25), (0.5, 1.0, 0.0))
        w = workload((2, 3), ((0,), (0, 1)), kind="product", phi=phi)
        self.check(w, 1e-4, phi=[list(t) for t in phi])


class KktReports(unittest.TestCase):

    def test_uniform_all_kway_residual_zero(self):
        w = workload((2, 2, 2), ((0, 1), (0, 2), (1, 2)))
        report = optimizer.kkt_check(w, [1 / 3, 1 / 3, 1 / 3])
        self.assertLessEqual(report["residual"], 1e-10)
        self.assertLessEqual(report["sigma_gap"], 1e-10)
        self.assertEqual(len(report["supported"]), 3)

    def test_perturbed_optimum_has_positive_residual(self):
        w = workload((2, 2, 2), ((0, 1), (0, 2), (1, 2)))
        p = np.array([1 / 3 + 1e-3, 1 / 3 - 1e-3, 1 / 3])
        report = optimizer.kkt_check(w, p)
        self.assertGreater(report["residual"], 1e-6)
        self.assertGreater(report["sigma_gap"], 0.0)

    def test_strict_subset_support_is_flagged(self):
        w = workload((2, 2), ((0,), (1,)))
        report = optimizer.kkt_check(w, [1.0, 0.0])
        self.assertEqual(report["supported"], [(0,)])
        self.assertTrue(math.isinf(report["residual"]))
        self.assertTrue(math.isinf(report["sigma_gap"]))

    def test_interior_non_optimum_sigma_gap(self):
        w = workload((2, 2), ((0,), (0, 1)))
        report = optimizer.kkt_check(w, [0.9, 0.1])
        self.assertGreater(report["residual"], 0.0)
        self.assertGreater(report["sigma_gap"], 0.0)
        self.assertTrue(math.isfinite(report["sigma_gap"]))

    def test_checker_confirms_solver_output(self):
        phi = ((1.0, 0.25), (0.5, 1.0, 0.0))
        w = workload((2, 3), ((0,), (0, 1)), kind="product", phi=phi)
        sol = optimizer.optimize_pstar(w, tol=1e-9)
        report = optimizer.kkt_check(w, sol.p_star)
        self.assertLessEqual(report["residual"], 1e-9)

    def test_rejects_points_off_the_simplex(self):
        w = workload((2, 2), ((0,), (1,)))
        with self.assertRaises(optimizer.NotOnSimplex):
            optimizer.kkt_check(w, [0.5, 0.6])
        with self.assertRaises(optimizer.NotOnSimplex):
            optimizer.kkt_check(w, [1.5, -0.5])
        with self.assertRaises(optimizer.NotOnSimplex):
            optimizer.kkt_check(w, [1.0])

    def test_empty_workload_is_off_the_simplex(self):
        w = core.Workload(universe=core.build_universe([2]), sets=(),
                          weights=np.zeros(0))
        with self.assertRaises(optimizer.NotOnSimplex):
            optimizer.kkt_check(w, [])


class SolverBehaviour(unittest.TestCase):

    def test_trace_is_nondecreasing(self):
        w = workload((2, 3), ((0,), (1,), (0, 1)))
        sol = optimizer.optimize_pstar(w)
        trace = sol.objective_trace
        self.assertGreater(len(trace), 1)
        for earlier, later in zip(trace, trace[1:]):
            self.assertGreaterEqual(later, earlier - 1e-12)

    def test_deterministic(self):
        w = workload((2, 3), ((0,), (1,), (0, 1)))
        a = optimizer.optimize_pstar(w)
        b = optimizer.optimize_pstar(w)
        np.testing.assert_array_equal(a.p_star, b.p_star)
        self.assertEqual(a.objective, b.objective)
        self.assertEqual(a.iterations, b.iterations)

    def test_input_weights_are_ignored(self):
        u = core.build_universe([2, 3])
        sets = ((0,), (1,), (0, 1))
        wa = core.Workload(universe=u, sets=sets,
                           weights=np.array([1.0, 0.0, 0.0]))
        wb = core.Workload(universe=u, sets=sets,
                           weights=np.array([0.1, 0.2, 0.7]))
        a = optimizer.optimize_pstar(wa)
        b = optimizer.optimize_pstar(wb)
        np.testing.assert_array_equal(a.p_star, b.p_star)

    def test_inner_sums_positive_at_optimum(self):
        w = workload((2, 3), ((0,), (1,), (0, 1)))
        sol = optimizer.optimize_pstar(w)
        p = sol.as_map()
        for member in core.downward_closure(w):
            inner = sum(p[s] / w.universe.subuniverse_size(s) ** 2
                        for s in w.sets if set(member).issubset(s))
            self.assertGreater(inner, 1e-12)

    def test_no_convergence_carries_best_iterate(self):
        w = workload((2, 3), ((0,), (1,), (0, 1)))
        with self.assertRaises(optimizer.NoConvergence) as ctx:
            optimizer.optimize_pstar(w, max_iter=0)
        best = ctx.exception.best
        self.assertEqual(ctx.exception.max_iter, 0)
        self.assertEqual(best.iterations, 0)
        self.assertGreater(best.objective, 0.0)
        self.assertGreater(best.kkt_residual, 1e-8)

    def test_rejects_bad_tolerance(self):
        w = workload((2, 2), ((0,),))
        with self.assertRaises(core.FourierMarginalsError):
            optimizer.optimize_pstar(w, tol=0.0)

    def test_rejects_empty_workload(self):
        w = core.Workload(universe=core.build_universe([2]), sets=(),
                          weights=np.zeros(0))
        with self.assertRaisesRegex(core.FourierMarginalsError, "no sets"):
            optimizer.optimize_pstar(w)


class ExtendedAndDegenerate(unittest.TestCase):

    def test_extended_matches_embedded_grid(self):
        u = core.build_universe([3, 2], [core.NUMERICAL, core.CATEGORICAL])
        w = core.Workload(universe=u, sets=((0,), (0, 1)),
                          weights=np.array([0.5, 0.5]), kind="extended")
        sol = optimizer.optimize_pstar(w)
        phi = [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0]]
        grid_w, grid_val = oracle.grid_search_pstar((6, 2), w.sets, 1e-4,
                                                    phi=phi)
        self.assertLessEqual(abs(sol.objective - grid_val), 1e-4 * grid_val)

    def test_extended_on_categorical_equals_marginal(self):
        w = workload((3, 2), ((0,), (0, 1)))
        plain = optimizer.optimize_pstar(w)
        ext = optimizer.optimize_pstar(dataclasses.replace(w,
                                                           kind="extended"))
        np.testing.assert_allclose(ext.p_star, plain.p_star, atol=1e-9)
        self.assertAlmostEqual(ext.objective, plain.objective, delta=1e-12)

    def test_all_zero_factors_solve_trivially(self):
        phi = ((0.0, 0.0), (1.0, 1.0))
        w = workload((2, 2), ((0,), (0, 1)), kind="product", phi=phi)
        sol = optimizer.optimize_pstar(w)
        self.assertEqual(sol.objective, 0.0)
        self.assertEqual(sol.kkt_residual, 0.0)


def scaled_down_tables(phi_0, scale):
    """Sizes (2, 2, 3), sets (0,), (1,), (0, 2), (1, 2), attribute 0's
    table phi_0 and the others (s, 2s) and (3s, s, 2s) at s = scale."""
    s = scale
    return workload((2, 2, 3), ((0,), (1,), (0, 2), (1, 2)), kind="product",
                    phi=(phi_0, (s, 2 * s), (3 * s, s, 2 * s)))


# Known failures.  In the first case the ascent keeps the weight of
# (1, 2) near 1.5e-9 and ends at residual 1.42 after 20,000 accepted
# steps; the SUM_FLOOR guard (_floored) turns down 19,906 step halvings
# and the Armijo test 113.  The second case takes no ascent step (40
# halvings turned down by _floored, 20 by Armijo) and its Newton polish
# ends at residual 1.9e-4 (401 trials turned down for a negative weight,
# 287 by _floored).
@pytest.mark.xfail(strict=True, raises=optimizer.NoConvergence)
def test_scaled_down_tables_with_flat_first_table_converge():
    optimizer.optimize_pstar(scaled_down_tables((1.0, 1.0), 0.01))


@pytest.mark.xfail(strict=True, raises=optimizer.NoConvergence)
def test_scaled_down_tables_with_zero_first_table_converge():
    optimizer.optimize_pstar(scaled_down_tables((0.0, 0.0), 1e-4))


def reference_structure(workload):
    """members, G, C and active by a double loop over members and sets."""
    kind = workload.kind
    universe = workload.universe
    if kind == "extended":
        embedding = mechanism.embed_extended(universe)
        workload = core.Workload(universe=embedding.embedded,
                                 sets=workload.sets,
                                 weights=workload.weights, kind="product",
                                 phi=embedding.phi)
        universe = workload.universe
        kind = "product"
    if kind == "product":
        spectrum = fourier.phi_spectrum(workload.phi_tables())
        gains = [float(np.abs(spectrum.tables[j][1:]).sum())
                 for j in range(universe.d)]
        zeros = [float(np.abs(spectrum.tables[j][0])) ** 2
                 for j in range(universe.d)]
    else:
        gains = [m - 1.0 for m in universe.domain_sizes]
        zeros = [1.0] * universe.d
    sets = workload.sets
    members = sorted({sub for S in sets for r in range(len(S) + 1)
                      for sub in itertools.combinations(S, r)},
                     key=lambda R: (len(R), R))
    G = np.array([float(np.prod([gains[j] for j in R])) for R in members])
    C = np.zeros((len(members), len(sets)))
    for i, R in enumerate(members):
        for k, S in enumerate(sets):
            if set(R).issubset(S):
                z = 1.0
                for j in S:
                    if j not in R:
                        z *= zeros[j]
                C[i, k] = z / universe.subuniverse_size(S) ** 2
    active = (G > 0) & (C.max(axis=1) > 0)
    return members, sets, G, C, active


def reference_objective(G, C, active, p):
    c = C[active] @ p
    return float(G[active] @ np.sqrt(np.maximum(c, 0.0)))


def reference_derivatives(G, C, active, p):
    Ga, Ca = G[active], C[active]
    c = Ca @ p
    if c.size == 0:
        return np.zeros(C.shape[1])
    if (c > 0).all():
        return Ca.T @ (Ga / np.sqrt(c))
    out = np.zeros(C.shape[1])
    for i, ci in enumerate(c):
        if ci > 0:
            out = out + Ca[i] * (Ga[i] / math.sqrt(ci))
        else:
            out[Ca[i] > 0] = math.inf
    return out


def reference_newton(G, C, active, p, tol):
    Ga, Ca = G[active], C[active]
    best = None
    for _ in range(100):
        D = reference_derivatives(G, C, active, p)
        residual = optimizer._residual(D, p)
        f_val = reference_objective(G, C, active, p)
        if best is None or residual < best[1]:
            best = (p.copy(), residual, f_val)
        if residual <= tol:
            break
        idx = np.flatnonzero(p > optimizer.SUPPORT_TOL)
        c = Ca @ p if Ca.size else np.empty(0)
        if idx.size <= 1 or (c <= 0).any():
            break
        Cs = Ca[:, idx]
        J = -0.5 * Cs.T @ (Cs * (Ga / c ** 1.5)[:, None])
        k = idx.size
        system = np.zeros((k + 1, k + 1))
        system[:k, :k] = J
        system[:k, k] = -1.0
        system[k, :k] = 1.0
        lam = float(D[idx].mean())
        rhs = np.concatenate([lam - D[idx], [0.0]])
        try:
            delta = np.linalg.solve(system, rhs)[:k]
        except np.linalg.LinAlgError:
            break
        alpha = 1.0
        cand = None
        while alpha > 1e-12:
            trial = p.copy()
            trial[idx] = p[idx] + alpha * delta
            if trial[idx].min() >= 0 and not ((Ca @ trial)
                                              < optimizer.SUM_FLOOR).any():
                cand = trial
                break
            alpha *= 0.5
        if cand is None:
            trial = p.copy()
            trial[idx] = np.maximum(p[idx] + delta, 0.0)
            if trial.sum() <= 0:
                break
            trial /= trial.sum()
            if ((Ca @ trial) < optimizer.SUM_FLOOR).any():
                break
            cand = trial
        if np.array_equal(cand, p):
            break
        p = cand
    return best


def reference_optimize_pstar(workload, tol=1e-8, max_iter=20000):
    """The dense members-by-sets solver: (p*, objective, residual,
    iterations), by the same steps as optimizer.optimize_pstar."""
    _, sets, G, C, active = reference_structure(workload)
    p = np.full(len(sets), 1.0 / len(sets))
    step = 1.0
    for it in range(max_iter + 1):
        f_val = reference_objective(G, C, active, p)
        D = reference_derivatives(G, C, active, p)
        residual = optimizer._residual(D, p)
        near = residual <= 1e-3 * max(1.0, float(np.max(D[np.isfinite(D)],
                                                        initial=0.0)))
        if residual > tol and near:
            p_new, residual_new, f_new = reference_newton(G, C, active,
                                                          p.copy(), tol)
            if residual_new < residual:
                p, residual, f_val = p_new, residual_new, f_new
        if residual <= tol:
            return p, f_val, residual, it
        gradient = D / 2.0
        moved = False
        while step > 1e-18:
            q = optimizer._project_simplex(p + step * gradient)
            cq = C[active] @ q
            if cq.size and (cq < optimizer.SUM_FLOOR).any():
                step *= 0.5
                continue
            advance = float(gradient @ (q - p))
            if advance <= 0.0:
                break
            if reference_objective(G, C, active, q) - f_val \
                    >= 1e-4 * advance:
                moved = True
                break
            step *= 0.5
        if not moved:
            p_new, residual_new, f_new = reference_newton(G, C, active,
                                                          p.copy(), tol)
            assert residual_new <= tol
            return p_new, f_new, residual_new, it
        p = q
        step = min(step * 2.0, 1e8)
    raise AssertionError("the reference solver did not converge")


class StructureFromSubsetPlan(unittest.TestCase):
    # the optimizer's workloads above, each with its kind
    CASES = (
        workload((2, 2, 2), ((0, 1), (0, 2), (1, 2))),
        workload((3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                (2, 3))),
        workload((2, 3), ((0, 1),)),
        workload((2, 2), ((0,), (0, 1))),
        workload((2, 3), ((0,), (1,), (0, 1))),
        workload((2, 3), ((0,), (0, 1)), kind="product",
                 phi=((1.0, 0.25), (0.5, 1.0, 0.0))),
        workload((3, 2), ((0,), (0, 1)),
                 kinds=(core.NUMERICAL, core.CATEGORICAL), kind="extended"),
        workload((3, 2), ((0,), (0, 1)), kind="extended"),
        workload((2, 2), ((0,), (0, 1)), kind="product",
                 phi=((0.0, 0.0), (1.0, 1.0))),
    )

    def test_structure_equals_double_loop(self):
        # the plan's pairs, scattered to dense, are the double loop's C;
        # its needed pairs are C's entries with G > 0
        for w in self.CASES:
            _, plan, _ = mechanism.as_product(w)
            members, sets, G, C, active = reference_structure(w)
            self.assertEqual(list(plan.members), members)
            self.assertEqual(plan.sets, sets)
            np.testing.assert_array_equal(plan.gains, G)
            pairs = set(zip(plan.pair_member, plan.pair_set))
            self.assertEqual(len(pairs), plan.pair_zero.size)
            dense = np.zeros_like(C)
            dense[plan.pair_member, plan.pair_set] = \
                plan.pair_zero / plan.pair_square
            np.testing.assert_array_equal(dense, C)
            self.assertTrue((plan.need_coef > 0).all())
            dense = np.zeros_like(C)
            dense[plan.need_member, plan.need_set] = plan.need_coef
            np.testing.assert_array_equal(dense, np.where(G[:, None] > 0,
                                                          C, 0.0))
            np.testing.assert_array_equal(
                plan.need, G[plan.need_member] * plan.need_coef)
            np.testing.assert_array_equal(np.unique(plan.need_member),
                                          np.flatnonzero(active))

    def test_pstar_unchanged(self):
        for w in self.CASES:
            new = optimizer.optimize_pstar(w)
            p, objective, _, iterations = reference_optimize_pstar(w)
            np.testing.assert_allclose(new.p_star, p, rtol=0, atol=1e-12)
            self.assertAlmostEqual(new.objective, objective, delta=1e-12)
            self.assertEqual(new.iterations, iterations)
            self.assertLessEqual(new.kkt_residual, 1e-8)

    def test_kkt_check_reads_the_release_sigma(self):
        # derivatives and sigma come from the roots that predict-error
        # and a release use, bit for bit
        rng = np.random.default_rng(11)
        for w in self.CASES:
            p = rng.dirichlet(np.ones(len(w.sets)))
            report = optimizer.kkt_check(w, p)
            weighted = core.normalize_weights(w, p)
            product, plan, _ = mechanism.as_product(weighted)
            D = plan.derivatives(plan.roots(product.weights))
            self.assertEqual(list(report["derivatives"].values()),
                             D.tolist())
            self.assertEqual(report["per_set_sigma"],
                             mechanism.predicted_error(w, p=p)[
                                 "per_set_sigma"])

    def test_newton_step_equals_dense_bordered_solve(self):
        # 2- and 3-way sets over 8 attributes, on full and partial
        # supports: the CG step solves the (k + 1)^2 bordered system
        # [J, -1; 1^T, 0] built from the double loop's dense C
        sets = tuple(s for r in (2, 3)
                     for s in itertools.combinations(range(8), r))
        w = workload((2, 3, 2, 4, 3, 2, 3, 2), sets)
        _, plan, _ = mechanism.as_product(w)
        _, _, G, C, active = reference_structure(w)
        p = np.random.default_rng(3).uniform(0.5, 1.5, len(sets))
        p /= p.sum()
        roots = plan.roots(p)
        c = C[active] @ p
        np.testing.assert_allclose(roots[active] ** 2, c, rtol=1e-14)
        D = plan.derivatives(roots)
        for idx in (np.arange(len(sets)), np.arange(0, len(sets), 3)):
            Cs = C[active][:, idx]
            k = idx.size
            system = np.zeros((k + 1, k + 1))
            system[:k, :k] = -0.5 * Cs.T @ (Cs * (G[active]
                                                  / c ** 1.5)[:, None])
            system[:k, k] = -1.0
            system[k, :k] = 1.0
            rhs = np.concatenate([D[idx].mean() - D[idx], [0.0]])
            dense = np.linalg.solve(system, rhs)[:k]
            np.testing.assert_allclose(
                optimizer._newton_step(plan, roots, D, idx), dense,
                rtol=1e-12, atol=0)

    def test_newton_step_ends_at_curvature_not_positive_and_finite(self):
        # negated roots make -J negative definite; a root whose cube
        # underflows makes it infinite: either way no step is taken
        w = workload((2, 3), ((0,), (1,), (0, 1)))
        _, plan, _ = mechanism.as_product(w)
        roots = plan.roots(np.array([0.2, 0.3, 0.5]))
        D = plan.derivatives(roots)
        idx = np.arange(3)
        self.assertTrue(optimizer._newton_step(plan, roots, D, idx).any())
        tiny = roots.copy()
        tiny[plan.need_member[0]] = 1e-120
        with np.errstate(all="ignore"):
            for bad in (-roots, tiny):
                np.testing.assert_array_equal(
                    optimizer._newton_step(plan, bad, D, idx), np.zeros(3))


def random_workload(rng, kind):
    """A marginal, product or extended workload of up to 60 sets of 1
    to 3 attributes over 2 to 7 attributes of sizes 2 to 4; product
    tables have zeros, which puts some p* on the simplex boundary."""
    d = int(rng.integers(2, 8))
    sizes = tuple(int(m) for m in rng.integers(2, 5, d))
    pool = [s for r in (1, 2, 3) for s in itertools.combinations(range(d), r)]
    n = int(rng.integers(2, min(60, len(pool)) + 1))
    sets = tuple(pool[i]
                 for i in sorted(rng.choice(len(pool), n, replace=False)))
    kinds = phi = None
    if kind == "product":
        phi = tuple(tuple((rng.uniform(0.0, 2.0, m)
                           * (rng.random(m) > 0.2)).tolist())
                    for m in sizes)
    if kind == "extended":
        kinds = tuple(core.NUMERICAL if numerical else core.CATEGORICAL
                      for numerical in rng.random(d) < 0.5)
    return workload(sizes, sets, kinds=kinds, kind=kind, phi=phi)


class NewtonStepByConjugateGradients(unittest.TestCase):

    def test_all_455_two_and_three_way_sets_match_the_dense_solver(self):
        # 14 size-3 attributes: the optimizer holds less than one dense
        # k x k Jacobian at any time
        sets = tuple(s for r in (2, 3)
                     for s in itertools.combinations(range(14), r))
        w = workload((3,) * 14, sets)
        p, objective, _, iterations = reference_optimize_pstar(w)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            new = optimizer.optimize_pstar(w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        self.assertEqual(len(sets), 455)
        np.testing.assert_allclose(new.p_star, p, rtol=0, atol=1e-12)
        self.assertEqual(new.iterations, iterations)
        self.assertAlmostEqual(new.objective, objective, delta=1e-12)
        self.assertLess(peak, len(sets) ** 2 * 8)

    def test_random_workloads_reach_the_dense_solvers_objective(self):
        # objectives, not p*: a product workload can have many maximizers
        rng = np.random.default_rng(20251221)
        cases = [random_workload(rng, kind) for _ in range(20)
                 for kind in ("marginal", "product", "extended")]
        # a zero-gain set (phi_0 = 0 gives D = 0) on the support of the
        # first Newton step: the derivatives are small from the start
        cases.append(workload((2, 2, 3), ((0,), (1,), (2,), (1, 2)),
                              kind="product",
                              phi=((0.0, 0.0), (1e-4, 2e-4),
                                   (3e-4, 1e-4, 2e-4))))
        compared = boundary = 0
        for w in cases:
            try:
                p, objective, _, _ = reference_optimize_pstar(w)
            except AssertionError:
                continue
            new = optimizer.optimize_pstar(w)
            self.assertLessEqual(abs(new.objective - objective),
                                 1e-12 * abs(objective))
            self.assertLessEqual(new.kkt_residual, 1e-8)
            compared += 1
            boundary += bool((p <= optimizer.SUPPORT_TOL).any())
        self.assertGreaterEqual(compared, 55)
        self.assertGreaterEqual(boundary, 5)

if __name__ == "__main__":
    unittest.main()
