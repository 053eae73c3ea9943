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

Every such quantity is a sum over the members R of the workload's
downward closure, and SubsetPlan holds that structure once: the
members, their gains G_R = prod_{j in R} sum_{v > 0} |phi_hat_j(v)|,
and one pair per R <= S with z_{S - R} = prod_{j in S - R} |phi_hat_j(0)|^2.
With the member roots

    r_R = sqrt( sum_{S containing R} p(S) z_{S - R} / |U_S|^2 ),

every frequency a with support R has tau_a = r_R prod_{j in R}
|phi_hat_j(a_j)|, the weights add up to sum_a tau_a = sum_R G_R r_R,
and the per-query noise variance of a set S is tau D_S with

    D_S = sum_{R <= S} G_R z_{S - R} / (|U_S|^2 r_R).

Error predictions and weight optimization therefore cost
O(sum_S 2^|S|), not one term per frequency; per-frequency weights are
only broadcast from the roots when a release draws its noise.

The sampler wraps a counter-tracked PCG64 generator.  Identical seeds
reproduce identical streams bit for bit within one build of this
package; parallel use must go through child samplers, which are derived
by extending the seed sequence's spawn key with the child index.

A real-world caveat: the analysis assumes ideal real-valued Gaussians.
Floating-point noise is a faithful simulation, not a hardened
implementation, and no formal privacy claim is made for it here.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .core import (FourierMarginalsError, LengthMismatch, Universe,
                   downward_closure)


class BadArity(FourierMarginalsError):
    """An arity or domain size is out of range: 1 <= k <= d, m >= 2."""


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


@dataclass(frozen=True, eq=False)
class SubsetPlan:
    """Importance-weight structure of a workload, one entry per subset.

    members is the downward closure of sets, ordered by (size,
    lexicographic), and gains holds G_R for each member.  Every pair
    R <= S is listed once, set by set: pair_member and pair_set index
    it and pair_zero holds z_{S - R}.  set_square holds |U_S|^2 per set
    and magnitudes the tables |phi_hat_j| (None for plain marginals,
    whose magnitudes are all 1).  Storage is O(sum_S 2^|S|).
    """

    universe: Universe
    sets: tuple
    members: tuple
    gains: np.ndarray
    pair_member: np.ndarray
    pair_set: np.ndarray
    pair_zero: np.ndarray
    set_square: np.ndarray
    magnitudes: tuple = None

    @property
    def coef(self):
        """z_{S - R} / |U_S|^2 for every pair."""
        return self.pair_zero / self.set_square[self.pair_set]

    def roots(self, p):
        """Member roots r_R = sqrt(c_R(p)) for set weights p.

        Each c_R adds its terms p(S) z_{S - R} / |U_S|^2 in set order.
        """
        terms = p[self.pair_set] * self.pair_zero \
            / self.set_square[self.pair_set]
        return np.sqrt(np.bincount(self.pair_member, weights=terms,
                                   minlength=len(self.members)))

    def derivatives(self, roots):
        """D_S = sum_{R <= S} G_R z_{S - R} / (|U_S|^2 r_R) per set.

        Pairs with G_R z_{S - R} = 0 add nothing; a pair that needs a
        member without budget (r_R = 0) makes D_S infinite.
        """
        need = self.gains[self.pair_member] * self.coef
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(need > 0, need / roots[self.pair_member], 0.0)
        return np.bincount(self.pair_set, weights=terms,
                           minlength=len(self.sets))

    def tau_map(self, roots):
        """{a: tau_a} for every frequency of every member, in closure
        order; tau_a = r_R prod_{j in R} |phi_hat_j(a_j)|."""
        out = {}
        for members, root in zip(self.members, roots.tolist()):
            freqs = fourier.frequency_vectors(self.universe, members)
            if self.magnitudes is None or not members:
                out.update(dict.fromkeys(freqs, root))
                continue
            scale = self.magnitudes[members[0]][1:]
            for j in members[1:]:
                scale = np.multiply.outer(scale, self.magnitudes[j][1:])
            out.update(zip(freqs, (scale.ravel() * root).tolist()))
        return out


def subset_plan(workload, spectrum=None):
    """SubsetPlan of a workload's sets; spectrum None means marginals.

    The workload's weights are not read: roots() takes them.
    """
    universe = workload.universe
    members = downward_closure(workload)
    index = {sub: i for i, sub in enumerate(members)}
    if spectrum is None:
        magnitudes = zeros = None
        gains = [m - 1.0 for m in universe.domain_sizes]
    else:
        magnitudes = tuple(spectrum.magnitudes(j) for j in range(universe.d))
        gains = [float(table[1:].sum()) for table in magnitudes]
        zeros = [float(table[0]) ** 2 for table in magnitudes]
    pair_member, pair_set, pair_zero = [], [], []
    for k, s in enumerate(workload.sets):
        for r in range(len(s) + 1):
            for sub in itertools.combinations(s, r):
                pair_member.append(index[sub])
                pair_set.append(k)
                z = 1.0
                if zeros is not None:
                    for j in s:
                        if j not in sub:
                            z *= zeros[j]
                pair_zero.append(z)
    return SubsetPlan(
        universe=universe, sets=workload.sets, members=members,
        gains=np.array([math.prod(gains[j] for j in sub)
                        for sub in members], dtype=float),
        pair_member=np.array(pair_member, dtype=np.intp),
        pair_set=np.array(pair_set, dtype=np.intp),
        pair_zero=np.array(pair_zero, dtype=float),
        set_square=np.array([float(universe.subuniverse_size(s) ** 2)
                             for s in workload.sets]),
        magnitudes=magnitudes)


def _weights(workload, p):
    p = np.asarray(workload.weights if p is None else p, dtype=float)
    if p.shape != (len(workload.sets),):
        raise LengthMismatch("one weight per set required")
    if (p < 0).any():
        raise NegativeVariance("weights must be nonnegative")
    return p


def tau_marginal(workload, p=None):
    """Importance weight of every frequency in the workload's closure.

    Returns {a: tau_a} with tau_a = sqrt(sum over S containing supp(a)
    of p(S) / |U_S|^2).  Frequencies whose support is only covered by
    zero-weight sets get tau_a = 0 and are kept in the map so callers
    can see what is missing.
    """
    plan = subset_plan(workload)
    return plan.tau_map(plan.roots(_weights(workload, p)))


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
    plan = subset_plan(workload, spectrum)
    return plan.tau_map(plan.roots(_weights(workload, p)))


def check_plan(plan, structure, roots, mu):
    """Reject a BudgetPlan that does not serve this workload at mu.

    The plan must be made for mu and hold exactly as many frequencies
    as the workload gives positive weight, and one frequency per
    funded closure member must carry the workload's own weight up to
    one common factor (plans are valid in any scale).  Raises
    BudgetMismatch; returns nothing.
    """
    if plan.mu != float(mu):
        raise BudgetMismatch(f"plan was made for mu={plan.mu}, the release "
                             f"asks for mu={mu}")
    sizes = structure.universe.domain_sizes
    magnitudes = structure.magnitudes
    if magnitudes is None:
        nonzero = [range(1, m) for m in sizes]
    else:
        nonzero = [[v for v, t in enumerate(table.tolist()) if v and t > 0]
                   for table in magnitudes]
    count = 0
    ratios = []
    for members, root in zip(structure.members, roots.tolist()):
        if root <= 0 or not all(nonzero[j] for j in members):
            continue
        count += math.prod(len(nonzero[j]) for j in members)
        a = [0] * len(sizes)
        tau = root
        for j in members:
            a[j] = nonzero[j][0]
            if magnitudes is not None:
                tau *= magnitudes[j][a[j]]
        ratios.append(plan.tau_map.get(tuple(a), 0.0) / tau)
    if len(plan.tau_map) != count or ratios and not (
            0 < min(ratios) and max(ratios) - min(ratios)
            <= 1e-9 * min(ratios)):
        raise BudgetMismatch("plan does not match the workload's weights")


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


def _check_arity(d, k, m):
    if not 1 <= k <= d:
        raise BadArity(f"need 1 <= k <= d, got k={k}, d={d}")
    if m < 2:
        raise BadArity(f"need m >= 2, got m={m}")


def k_way_budget(d, k, m, mu):
    """Noise plan for all k-way marginals over d size-m attributes.

    Uses the closed form: a frequency of Hamming weight l has importance
    weight sqrt(binom(d-l, k-l)), and the total is k_way_tau_sum / mu^2.
    This is the uniform-weight plan up to one global scale factor on
    tau_a, which leaves every variance and share unchanged.
    """
    d, k, m = int(d), int(k), int(m)
    _check_arity(d, k, m)
    tau_map = {}
    for members in itertools.chain.from_iterable(
            itertools.combinations(range(d), r) for r in range(k + 1)):
        value = math.sqrt(math.comb(d - len(members), k - len(members)))
        for nonzero in itertools.product(range(1, m), repeat=len(members)):
            a = [0] * d
            for j, v in zip(members, nonzero):
                a[j] = v
            tau_map[tuple(a)] = value
    return plan_from_tau(mu, tau_map)


def k_way_tau_sum(d, k, m):
    """sum_l binom(d,l) (m-1)^l sqrt(binom(d-l, k-l)), the closed form
    of sum_a tau_a for the all-k-way plan of k_way_budget."""
    _check_arity(d, k, m)
    return sum(math.comb(d, l) * (m - 1) ** l
               * math.sqrt(math.comb(d - l, k - l)) for l in range(k + 1))


def k_way_tau_total(d, k, m, mu):
    """Budget constant of the k-way plan, by the closed-form sum."""
    return k_way_tau_sum(d, k, m) / mu ** 2


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
