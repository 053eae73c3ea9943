"""Noise budgets: importance weights, variances, shares, and sampling.

Releasing the frequency F_a with complex Gaussian noise of variance
2 tau / tau_a costs a squared budget share of tau_a / tau, where

    tau_a = sqrt( sum_{S containing supp(a)} p(S) / |U_S|^2 ),
    tau   = (1 / mu^2) sum_a tau_a,

so the shares sum to mu^2 exactly and the release satisfies mu-GDP by
composition.  Product workloads scale each term of tau_a by
prod_{j in S} |phi_hat_j(a_j)|^2.  Frequencies with tau_a = 0 are left
out of the plan entirely; they are never sampled and reconstruction
treats them as exact zeros, which the estimability rule guarantees is
only done when no positive-weight set needs them.

The sampler wraps a counter-tracked PCG64 generator.  Identical seeds
reproduce identical streams bit for bit within one build of this
package; parallel use must go through child samplers, which are derived
by extending the seed sequence's spawn key with the child index.

A real-world caveat: the analysis assumes ideal real-valued Gaussians.
Floating-point noise is a faithful simulation, not a hardened
implementation, and no formal privacy claim is made for it here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .core import FourierMarginalsError, LengthMismatch, downward_closure


class BadArity(FourierMarginalsError):
    """k-way parameters violate 1 <= k <= d or m >= 2."""


class NegativeVariance(FourierMarginalsError):
    """A noise variance below zero was requested."""


class BudgetMismatch(FourierMarginalsError):
    """Budget shares do not add up to the total squared budget."""


@dataclass(frozen=True, eq=False)
class BudgetPlan:
    """Complete noise recipe for one release.

    tau_map keeps every frequency with positive importance weight;
    variances hold the complex noise variance 2 tau / tau_a and shares
    the squared budget fraction tau_a / tau of each one.  Instances are
    immutable; consistency is verified by accounting(), not here, so
    tests can build deliberately broken plans.
    """

    mu: float
    tau_total: float
    tau_map: dict
    variances: dict
    shares: dict

    def to_document(self):
        """JSON-ready dict with one entry per released frequency."""
        entries = [
            {"a": list(a), "tau": self.tau_map[a],
             "variance": self.variances[a], "share": self.shares[a]}
            for a in sorted(self.tau_map)
        ]
        return {"mu": self.mu, "tau_total": self.tau_total,
                "entries": entries}


class SeededSampler:
    """Deterministic Gaussian source with an explicit position counter.

    seed may be an integer or a numpy SeedSequence.  child(i) derives an
    independent stream by appending i to the spawn key, so concurrent
    noise generation stays reproducible regardless of scheduling.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(int(seed))
        self.seed = self._sequence.entropy
        self.counter = 0
        self._rng = np.random.Generator(np.random.PCG64(self._sequence))

    def normal(self, std):
        self.counter += 1
        return float(self._rng.normal(0.0, std))

    def normals(self, std):
        """One draw per entry of the array std, from one generator call.

        Yields the same numbers as calling normal() on each entry in
        order.
        """
        std = np.asarray(std, dtype=float)
        self.counter += std.size
        return self._rng.normal(0.0, std)

    def child(self, index):
        key = self._sequence.spawn_key + (int(index),)
        return SeededSampler(np.random.SeedSequence(self._sequence.entropy,
                                                    spawn_key=key))


def sample_complex_gaussian(variance, sampler):
    """Draws of CN(0, variance): independent N(0, variance/2) parts.

    variance may be a number, giving a complex number, or an ndarray,
    giving a complex array of the same shape from one generator call.
    Each real part is drawn before its imaginary part, entry by entry,
    so the stream equals that of one scalar call per entry.  Zero
    variances give exactly 0j without consuming randomness; the
    sampler's counter advances by 2 per positive variance.
    """
    if not isinstance(variance, np.ndarray):
        if not variance >= 0:
            raise NegativeVariance(f"variance {variance} is not nonnegative")
        if variance == 0:
            return 0j
        std = math.sqrt(variance / 2.0)
        re = sampler.normal(std)
        im = sampler.normal(std)
        return complex(re, im)
    variances = variance.astype(float, copy=False)
    if not (variances >= 0).all():
        raise NegativeVariance("variances must be nonnegative")
    positive = variances > 0
    out = np.zeros(variances.shape, dtype=complex)
    if positive.any():
        std = np.sqrt(variances[positive] / 2.0)
        draws = sampler.normals(np.repeat(std, 2))
        out.real[positive] = draws[0::2]
        out.imag[positive] = draws[1::2]
    return out


def tau_marginal(workload, p=None):
    """Importance weight of every frequency in the workload's closure.

    Returns {a: tau_a} with tau_a = sqrt(sum over S containing supp(a)
    of p(S) / |U_S|^2).  Frequencies whose support is only covered by
    zero-weight sets get tau_a = 0 and are kept in the map so callers
    can see what is missing.
    """
    universe = workload.universe
    if p is None:
        p = workload.weights
    p = np.asarray(p, dtype=float)
    if (p < 0).any():
        raise NegativeVariance("weights must be nonnegative")
    out = {}
    for members in downward_closure(workload):
        c = 0.0
        for s, pS in zip(workload.sets, p):
            if pS > 0 and set(members).issubset(s):
                c += pS / universe.subuniverse_size(s) ** 2
        value = math.sqrt(c)
        for a in fourier.frequency_vectors(universe, members):
            out[a] = value
    return out


def tau_product(workload, p=None, spectrum=None):
    """Importance weights with per-attribute factor magnitudes.

    Each term of tau_a^2 is scaled by prod_{j in S} |phi_hat_j(a_j)|^2;
    attributes of S outside supp(a) contribute |phi_hat_j(0)|^2.  With a
    flat spectrum this reduces to tau_marginal.
    """
    universe = workload.universe
    if spectrum is None:
        spectrum = fourier.phi_spectrum(workload.phi_tables())
    if len(spectrum.tables) != universe.d:
        raise LengthMismatch("one spectrum per attribute required")
    for table, m in zip(spectrum.tables, universe.domain_sizes):
        if len(table) != m:
            raise LengthMismatch("spectrum length must match domain size")
    if p is None:
        p = workload.weights
    p = np.asarray(p, dtype=float)
    if (p < 0).any():
        raise NegativeVariance("weights must be nonnegative")
    magnitudes = [spectrum.magnitudes(j) for j in range(universe.d)]
    out = {}
    for members in downward_closure(workload):
        c = 0.0
        for s, pS in zip(workload.sets, p):
            if pS > 0 and set(members).issubset(s):
                off = 1.0
                for j in s:
                    if j not in members:
                        off *= magnitudes[j][0] ** 2
                c += pS * off / universe.subuniverse_size(s) ** 2
        root = math.sqrt(c)
        for a in fourier.frequency_vectors(universe, members):
            scale = 1.0
            for j in members:
                scale *= magnitudes[j][a[j]]
            out[a] = scale * root
    return out


def plan_from_tau(mu, tau_map):
    """Assemble a BudgetPlan from importance weights.

    Zero-weight frequencies are dropped; the remaining ones get complex
    noise variance 2 tau / tau_a and squared budget share tau_a / tau.
    """
    # mu * mu, not mu ** 2: overflow gives inf instead of raising
    if not (mu > 0 and 0 < mu * mu < math.inf):
        raise BudgetMismatch(f"budget mu={mu} must be positive with a "
                             "finite, nonzero square")
    kept = {a: float(t) for a, t in tau_map.items() if t > 0}
    total = sum(kept.values())
    if total == 0:
        raise BudgetMismatch("no frequency has positive importance weight")
    tau_total = total / mu ** 2
    if tau_total == math.inf:
        raise BudgetMismatch(f"budget mu={mu} is so small that the noise "
                             "variances overflow")
    variances = {a: 2.0 * tau_total / t for a, t in kept.items()}
    shares = {a: t / tau_total for a, t in kept.items()}
    return BudgetPlan(mu=float(mu), tau_total=tau_total, tau_map=kept,
                      variances=variances, shares=shares)


def k_way_budget(d, k, m, mu):
    """Noise plan for all k-way marginals over d size-m attributes.

    Uses the closed form: a frequency of Hamming weight l has importance
    weight sqrt(binom(d-l, k-l)), and the total is
    (1/mu^2) sum_l binom(d,l) (m-1)^l sqrt(binom(d-l, k-l)).  This is
    the uniform-weight plan up to one global scale factor on tau_a,
    which leaves every variance and share unchanged.
    """
    d, k, m = int(d), int(k), int(m)
    if not 1 <= k <= d:
        raise BadArity(f"need 1 <= k <= d, got k={k}, d={d}")
    if m < 2:
        raise BadArity(f"need m >= 2, got m={m}")
    tau_map = {}
    import itertools
    for members in itertools.chain.from_iterable(
            itertools.combinations(range(d), r) for r in range(k + 1)):
        value = math.sqrt(math.comb(d - len(members), k - len(members)))
        for nonzero in itertools.product(range(1, m), repeat=len(members)):
            a = [0] * d
            for j, v in zip(members, nonzero):
                a[j] = v
            tau_map[tuple(a)] = value
    return plan_from_tau(mu, tau_map)


def k_way_tau_total(d, k, m, mu):
    """Budget constant of the k-way plan, by the closed-form sum."""
    if not 1 <= k <= d:
        raise BadArity(f"need 1 <= k <= d, got k={k}, d={d}")
    if m < 2:
        raise BadArity(f"need m >= 2, got m={m}")
    total = sum(math.comb(d, j) * (m - 1) ** j
                * math.sqrt(math.comb(d - j, k - j)) for j in range(k + 1))
    return total / mu ** 2


def accounting(plan):
    """Composition check: shares must sum to mu^2.

    Returns {"mu_squared", "share_total", "residual"} and raises
    BudgetMismatch when the residual exceeds 1e-9 * mu^2.
    """
    target = plan.mu ** 2
    share_total = sum(plan.shares.values())
    residual = abs(share_total - target)
    if residual > 1e-9 * target:
        raise BudgetMismatch(
            f"shares sum to {share_total}, expected {target}")
    for a, tau in plan.tau_map.items():
        if abs(plan.variances[a] * tau - 2.0 * plan.tau_total) \
                > 1e-9 * plan.tau_total:
            raise BudgetMismatch(f"variance of {a} is off its 2 tau / tau_a value")
    return {"mu_squared": target, "share_total": share_total,
            "residual": residual}
