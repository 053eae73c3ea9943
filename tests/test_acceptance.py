"""Gate checks for the release pipeline, one test per criterion.

Every check states its tolerance inline and compares production code
against the independent dense oracle, a closed form, or a simulation.
Each runs in well under a minute except the statistical suite, which
draws three hundred thousand releases and takes a few minutes.

The improvement-ratio check (criterion 3) asserts the exact value at
d = 100.  For binary attributes the ratio of the all-2-way sigma to the
independent-Gaussian baseline is 1/4 + 1/(2 sqrt(d-1)) +
1/(4 sqrt(binom(d,2))), which is 0.303805 at d = 100.  The mechanism is
optimal among factorization mechanisms, so no mechanism of that kind
gets lower.  The ratio approaches its limit (1 - 1/m)^k = 0.25 at the
rate d^(-1/2); the check also asserts that it first comes within 5
percent of the limit at d = 1658.
"""

import itertools
import math
import time
from functools import reduce

import numpy as np
import pytest

from fourier_marginals import budget, core, factorization, fourier
from fourier_marginals import mechanism, optimizer, oracle


def make_workload(sizes, sets, weights=None, kind="marginal", kinds=None,
                  phi=None):
    universe = core.build_universe(sizes, kinds)
    if weights is None:
        weights = [1.0] * len(sets)
    return core.Workload(universe=universe, sets=tuple(sets),
                         weights=np.array(weights, dtype=float), kind=kind,
                         phi=phi)


def random_corpus():
    # 25 reproducible workloads, |U| <= 512, every fifth one a product
    # workload with random factor tables
    rng = np.random.default_rng(20260817)
    out = []
    while len(out) < 25:
        d = int(rng.integers(1, 5))
        sizes = tuple(int(rng.integers(2, 9)) for _ in range(d))
        if int(np.prod(sizes)) > 512:
            continue
        pool = []
        for _ in range(int(rng.integers(1, 5))):
            width = int(rng.integers(1, d + 1))
            members = rng.integers(0, d, size=width)
            pool.append(tuple(sorted(set(int(j) for j in members))))
        sets = tuple(dict.fromkeys(pool))
        weights = rng.uniform(0.1, 1.0, size=len(sets))
        kind, phi = "marginal", None
        if len(out) % 5 == 4:
            kind = "product"
            phi = tuple(tuple(float(v) for v in
                              rng.uniform(0.1, 1.0, size=m).round(3))
                        for m in sizes)
        out.append(make_workload(sizes, sets, weights, kind=kind, phi=phi))
    return out


def dense(workload, **kwargs):
    return oracle.dense_workload(workload.universe.domain_sizes,
                                 workload.sets, workload.weights,
                                 kind=kwargs.pop("kind", workload.kind),
                                 phi=kwargs.pop("phi", workload.phi),
                                 **kwargs)


def test_criterion_01_pair_workload_golden_values():
    """Both norm formulas and the dense bound hit (1 + sqrt 2) / 2."""
    golden = (1.0 + math.sqrt(2.0)) / 2.0
    w = make_workload((2, 2), [(0,), (1,)], [0.5, 0.5])
    assert abs(sum(budget.tau_marginal(w).values()) - golden) <= 1e-9
    fact = factorization.build_factorization(w)
    report = factorization.norm_report(fact)
    assert abs(report.frob_weighted * report.col_max - golden) <= 1e-9
    assert abs(report.svd_lower_bound - golden) <= 1e-9
    den = dense(w)
    gram = den.W.T @ (den.P[:, None] * den.W)
    eigenvalues = np.sort(np.linalg.eigvalsh(gram))
    assert np.abs(eigenvalues - np.array([0.0, 0.5, 0.5, 1.0])).max() <= 1e-10


@pytest.mark.slow
def test_criterion_02_k_way_sigma_formula_and_simulation():
    """Per-query sigma matches the closed form and simulated deviation."""
    for d in range(1, 7):
        for k in range(1, d + 1):
            for m in (2, 3, 4):
                closed = mechanism.k_way_sigma(d, k, m, mu=1.0)
                sets = tuple(itertools.combinations(range(d), k))
                w = make_workload((m,) * d, sets,
                                  [1.0 / len(sets)] * len(sets))
                per = mechanism.predicted_error(w)["per_set_sigma"]
                assert max(abs(s - closed) for s in per.values()) <= 1e-12
                if d == k:
                    assert closed == 1.0
    assert mechanism.k_way_sigma(3, 3, 4, mu=2.0) == 0.5

    rng = np.random.default_rng(322)
    universe = core.build_universe((2, 2, 2))
    data = core.Dataset(universe=universe,
                        rows=rng.integers(0, 2, size=(40, 3)))
    sets = tuple(itertools.combinations(range(3), 2))
    den = oracle.dense_workload((2, 2, 2), sets, np.ones(3) / 3,
                                data_rows=data.rows)
    truth = den.W @ den.h
    plan = budget.k_way_budget(3, 2, 2, 1.0)

    def release(seed):
        result = mechanism.release_k_way(
            data, 2, sampler=budget.SeededSampler(seed), plan=plan)
        return np.concatenate([result.table(s).ravel() for s in sets])

    stats = oracle.monte_carlo(release, truth, 100_000, 7)
    sigma = mechanism.k_way_sigma(3, 2, 2, mu=1.0)
    assert np.abs(np.sqrt(stats["var_err"]) / sigma - 1.0).max() <= 0.02


def test_criterion_03_improvement_ratio_window():
    """Noise-to-baseline ratio for 2-way binary marginals at d = 100."""
    ratio = (mechanism.k_way_sigma(100, 2, 2, mu=1.0)
             / math.sqrt(math.comb(100, 2)))
    # m = 2, k = 2: 1/4 + 1/(2 sqrt(d-1)) + 1/(4 sqrt(binom(d,2)))
    exact = 0.25 + 1 / (2 * math.sqrt(99)) + 1 / (4 * math.sqrt(4950))
    assert abs(ratio - exact) <= 1e-12, (
        f"ratio at (d, k, m) = (100, 2, 2) is {ratio!r}, expected the "
        f"exact {exact!r} (0.303805); it approaches the limit "
        f"(1 - 1/m)^k = 0.25 at the rate d^(-1/2)")
    # the 5 percent window around the limit is first entered at d = 1658
    before, at = (mechanism.k_way_sigma(d, 2, 2, mu=1.0)
                  / math.sqrt(math.comb(d, 2)) for d in (1657, 1658))
    assert before > 0.2625, (
        f"ratio at d = 1657 is {before!r}, expected just above the "
        f"window [0.2375, 0.2625]")
    assert 0.2375 <= at <= 0.2625, (
        f"ratio at d = 1658 is {at!r}, expected inside the window "
        f"[0.2375, 0.2625]")


def test_criterion_04_factorization_exactness_on_corpus():
    """Realified L R reproduces W; unit columns; shares sum to mu^2."""
    mu = 1.3
    for w in random_corpus():
        fact = factorization.build_factorization(w)
        real = factorization.realify(fact)
        den = dense(w)
        assert np.abs(real.L @ real.R - den.W).max() <= 1e-9
        assert np.abs(np.linalg.norm(real.R, axis=0) - 1.0).max() <= 1e-12
        plan = budget.plan_from_tau(mu, dict(zip(fact.freqs, fact.tau)))
        budget.accounting(plan)
        assert abs(sum(plan.shares.values()) - mu ** 2) <= 1e-12


def test_criterion_05_optimality_certificates_on_corpus():
    """Gram identities hold; the norm formula meets the dense bound."""
    for w in random_corpus():
        fact = factorization.build_factorization(w)
        cert = factorization.tightness_certificate(fact)
        assert cert["lpl"] <= 1e-9
        assert cert["rr"] <= 1e-9
        report = factorization.norm_report(fact)
        gap = abs(report.gammaF_value - report.svd_lower_bound)
        assert gap <= 1e-8 * report.svd_lower_bound


def test_criterion_06_worst_case_weights():
    """Weight optimizer: symmetric optimum, KKT, grid agreement."""
    w = make_workload((2, 2, 2), tuple(itertools.combinations(range(3), 2)))
    solution = optimizer.optimize_pstar(w)
    assert np.abs(solution.p_star - 1.0 / 3.0).max() <= 1e-6
    assert solution.kkt_residual <= 1e-8
    predicted = mechanism.predicted_error(w, p=solution.p_star)
    assert abs(solution.objective - predicted["max_sigma"]) <= 1e-8

    for sizes, sets in (((2, 3), ((0,), (1,), (0, 1))),
                        ((2, 2), ((0,), (0, 1)))):
        solution = optimizer.optimize_pstar(make_workload(sizes, sets))
        _, grid_value = oracle.grid_search_pstar(sizes, sets, 1e-4)
        assert abs(solution.objective - grid_value) <= 1e-4 * grid_value


def test_criterion_07_prefix_attribute_error_curve():
    """Weighted RMS of one prefix attribute and its growth band."""
    for m in range(2, 1025):
        w = make_workload((m,), [(0,)], kinds=("numerical",),
                          kind="extended")
        rms = mechanism.predicted_error(w)["weighted_rms"]
        assert abs(rms - 0.5 * (1.0 + mechanism.eta(m))) <= 1e-10
    deviations = [mechanism.eta(m) - math.log(m) / math.pi
                  for m in range(2, 10_001)]
    assert 1.19 <= min(deviations) and max(deviations) <= 3.90


def test_criterion_08_range_embedding_and_bound_sandwich():
    """Doubled-domain tables answer range queries exactly; bounds nest."""
    cases = []
    for d in (1, 2):
        for kinds in itertools.product((core.CATEGORICAL, core.NUMERICAL),
                                       repeat=d):
            cases.append((d, kinds))
    cases.append((3, (core.NUMERICAL,) * 3))
    for d, kinds in cases:
        for sizes in itertools.product(range(2, 9), repeat=d):
            universe = core.build_universe(sizes, kinds)
            embedding = mechanism.embed_extended(universe)
            den = oracle.dense_workload(sizes, (tuple(range(d)),),
                                        np.ones(1), kind="extended_prsuf",
                                        attr_kinds=kinds)
            parts = []
            for j, m in enumerate(sizes):
                table = np.asarray(embedding.phi[j], dtype=float)
                span = embedding.embedded.domain_sizes[j]
                shift = (np.arange(span)[:, None]
                         - np.arange(m)[None, :]) % span
                parts.append(table[shift])
            assert np.array_equal(den.W, reduce(np.kron, parts))

    ratios = []
    for m in (4, 16, 64, 256):
        w = make_workload((2, m), [(0, 1), (1,)], [0.6, 0.4],
                          kind="extended",
                          kinds=(core.CATEGORICAL, core.NUMERICAL))
        lower = factorization.extended_lower_bound(w)
        upper = mechanism.predicted_error(w)["weighted_rms"]
        assert lower <= upper + 1e-12
        ratios.append(lower / upper)
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.slow
def test_criterion_09_statistical_suite():
    """Unbiasedness, variance match, and normality on three workloads."""
    trials = 100_000
    rng = np.random.default_rng(31)
    runs = []

    sets = tuple(itertools.combinations(range(4), 2))
    w = make_workload((2,) * 4, sets, [1.0 / 6] * 6)
    data = core.Dataset(universe=w.universe,
                        rows=rng.integers(0, 2, size=(30, 4)))
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    runs.append((w, data, dict(plan=plan), 2101))

    sizes = (2, 3, 5)
    w = make_workload(sizes, ((0, 1), (1, 2)), [0.5, 0.5])
    rows = np.column_stack([rng.integers(0, m, size=40) for m in sizes])
    data = core.Dataset(universe=w.universe, rows=rows)
    plan = budget.plan_from_tau(1.0, budget.tau_marginal(w))
    runs.append((w, data, dict(plan=plan), 2102))

    kinds = (core.CATEGORICAL, core.NUMERICAL)
    w = make_workload((2, 3), ((0, 1), (1,)), [0.6, 0.4], kind="extended",
                      kinds=kinds)
    rows = np.column_stack([rng.integers(0, m, size=25) for m in (2, 3)])
    data = core.Dataset(universe=w.universe, rows=rows)
    runs.append((w, data, dict(), 2103))

    for w, data, extra, seed in runs:
        if w.kind == "extended":
            den = oracle.dense_workload(w.universe.domain_sizes, w.sets,
                                        w.weights, kind="extended_prsuf",
                                        attr_kinds=w.universe.attribute_kind,
                                        data_rows=data.rows)

            def release(child, w=w, data=data):
                out = mechanism.release_extended(
                    data, w, sampler=budget.SeededSampler(child))
                return np.concatenate([out.estimates[s].ravel()
                                       for s in w.sets])

            predicted = mechanism.predicted_error(w)
            sizes_of = mechanism.embed_extended(w.universe).target_count
        else:
            den = oracle.dense_workload(w.universe.domain_sizes, w.sets,
                                        w.weights, data_rows=data.rows)

            def release(child, w=w, data=data, extra=extra):
                out = mechanism.release_marginals(
                    data, w, sampler=budget.SeededSampler(child), **extra)
                return np.concatenate([out.table(s).ravel()
                                       for s in w.sets])

            predicted = mechanism.predicted_error(w)
            sizes_of = w.universe.subuniverse_size
        truth = den.W @ den.h
        sigma = np.concatenate([
            np.full(sizes_of(s), predicted["per_set_sigma"][s])
            for s in w.sets])
        stats = oracle.monte_carlo(release, truth, trials, seed,
                                   sigma=sigma)
        assert np.all(np.abs(stats["mean_err"])
                      <= 5.0 * sigma / math.sqrt(trials))
        assert np.abs(stats["var_err"] / sigma ** 2 - 1.0).max() <= 0.02
        assert stats["ks_pvalue"].min() >= 1e-3


def test_criterion_10_fft_matches_naive_and_scales():
    """Fast reconstruction equals the naive sum and stays subquadratic."""
    rng = np.random.default_rng(1234)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        while True:
            shape = tuple(int(rng.integers(2, 13)) for _ in range(d))
            if int(np.prod(shape)) <= 4096:
                break
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        fast = fourier.inverse_table(coeffs, expected_shape=shape)
        assert np.abs(fast - oracle.naive_inverse(coeffs)).max() <= 1e-9

    def best_time(n, reps=400):
        coeffs = rng.normal(size=(n,)) + 1j * rng.normal(size=(n,))
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(reps):
                fourier.inverse_table(coeffs, expected_shape=(n,))
            best = min(best, (time.perf_counter() - start) / reps)
        return max(best, 1e-7)

    t256, t1024, t4096 = (best_time(n) for n in (256, 1024, 4096))
    # quadratic scaling would multiply the time by 16 per step
    assert t1024 <= 8.0 * t256
    assert t4096 <= 8.0 * t1024
