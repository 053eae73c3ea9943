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
O(sum_S 2^|S|), not one term per frequency.  The plan itself is built
by numpy, a few calls per distinct set size and per attribute column,
not by a Python loop over sets and subsets; its arrays have the bits
such a loop gives (see subset_plan).  A release broadcasts the
roots to its frequencies member block by member block, into the arrays
of a BudgetPlan: one row per frequency, in the order noise is drawn.

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
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import fourier
from .core import (FourierMarginalsError, LengthMismatch, Universe,
                   subset_pairs)


class BadArity(FourierMarginalsError):
    """An arity or domain size is out of range: 1 <= k <= d, m >= 2."""


class NegativeVariance(FourierMarginalsError):
    """A noise variance below zero was requested."""


class BudgetMismatch(FourierMarginalsError):
    """Budget shares do not add up to the total squared budget."""


@dataclass(frozen=True, eq=False)
class BudgetPlan:
    """Complete noise recipe for one release, as read-only arrays.

    indices holds every frequency with positive importance weight, one
    int64 row each, in lexicographic order; tau holds tau_a, variance
    the complex noise variance 2 tau / tau_a and share the squared
    budget fraction tau_a / tau of each row.  tau_map, variances,
    shares and to_document() are built from the arrays on access, as
    read-only views.  Consistency is verified by accounting(), not
    here, so tests can build deliberately broken plans.
    """

    mu: float
    tau_total: float
    indices: np.ndarray
    tau: np.ndarray
    variance: np.ndarray
    share: np.ndarray

    def __post_init__(self):
        for name in ("indices", "tau", "variance", "share"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def _view(self, values):
        return MappingProxyType(dict(zip(map(tuple, self.indices.tolist()),
                                         values.tolist())))

    # {a: tau_a}, {a: 2 tau / tau_a} and {a: tau_a / tau}, read-only
    tau_map = property(lambda self: self._view(self.tau))
    variances = property(lambda self: self._view(self.variance))
    shares = property(lambda self: self._view(self.share))

    def to_document(self):
        """JSON-ready dict with one entry per released frequency."""
        entries = [
            {"a": a, "tau": tau, "variance": variance, "share": share}
            for a, tau, variance, share in zip(
                self.indices.tolist(), self.tau.tolist(),
                self.variance.tolist(), self.share.tolist())
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
    it, pair_zero holds z_{S - R} and pair_square |U_S|^2.  The pairs
    with G_R coef(R, S) > 0, where coef(R, S) = z_{S - R} / |U_S|^2,
    are the ones some sigma_S needs; they are listed again, in the same
    order: need_member and need_set index them, need_coef holds
    coef(R, S) and need G_R coef(R, S).  These per-pair constants are
    computed once, when the plan is made.
    set_square holds |U_S|^2 per set and spectrum the fourier.PhiSpectrum
    of the factor tables, the unit spectrum for plain marginals.
    Storage is O(sum_S 2^|S|).  subset_plan builds the members and
    pairs with core.subset_pairs, and every array equals, bit for bit
    and dtype included, what a loop over sets, then over the size of R,
    then over itertools.combinations gives.
    """

    universe: Universe
    sets: tuple
    members: tuple
    gains: np.ndarray
    pair_member: np.ndarray
    pair_set: np.ndarray
    pair_zero: np.ndarray
    set_square: np.ndarray
    spectrum: fourier.PhiSpectrum
    pair_square: np.ndarray = field(init=False, repr=False)
    need_member: np.ndarray = field(init=False, repr=False)
    need_set: np.ndarray = field(init=False, repr=False)
    need_coef: np.ndarray = field(init=False, repr=False)
    need: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        square = self.set_square[self.pair_set]
        coef = self.pair_zero / square
        need = self.gains[self.pair_member] * coef
        pairs = np.flatnonzero(need > 0)
        for name, value in (("pair_square", square),
                            ("need_member", self.pair_member[pairs]),
                            ("need_set", self.pair_set[pairs]),
                            ("need_coef", coef[pairs]),
                            ("need", need[pairs])):
            object.__setattr__(self, name, value)

    def roots(self, p):
        """Member roots r_R = sqrt(c_R(p)) for set weights p.

        Each c_R adds its terms p(S) z_{S - R} / |U_S|^2 in set order.
        """
        terms = p[self.pair_set] * self.pair_zero / self.pair_square
        return np.sqrt(np.bincount(self.pair_member, weights=terms,
                                   minlength=len(self.members)))

    def derivatives(self, roots):
        """D_S = sum_{R <= S} G_R z_{S - R} / (|U_S|^2 r_R) per set.

        Pairs with G_R z_{S - R} = 0 add nothing; a pair that needs a
        member without budget (r_R = 0) makes D_S infinite.
        """
        with np.errstate(divide="ignore"):
            terms = self.need / roots[self.need_member]
        return np.bincount(self.need_set, weights=terms,
                           minlength=len(self.sets))

    def frequencies(self, roots):
        """(indices, tau) of every frequency of every member, in closure
        order; see _member_frequencies."""
        return _member_frequencies(self.spectrum, self.members, roots)

    def support_members(self, supports):
        """Closure position of each boolean support row, len(members)
        for a support that is not a member."""
        index = {members: i for i, members in enumerate(self.members)}
        attrs = iter(supports.nonzero()[1].tolist())
        return np.array([
            index.get(tuple(itertools.islice(attrs, size)), len(index))
            for size in supports.sum(axis=1).tolist()], dtype=np.intp)


def _member_frequencies(spectrum, members, roots):
    """(indices, tau) of every frequency of every member, in closure order.

    The domain sizes are the lengths of the spectrum's tables.  Member
    R's block holds the int64 rows with a_j in 1 .. m_j - 1 for
    j in R and zero elsewhere, in row-major order of those coordinates;
    tau is _weights_at() of the rows.  No frequency is visited in Python.
    """
    sizes = [len(table) for table in spectrum.tables]
    d = len(sizes)
    width = max(map(len, members), default=0)
    # attrs[i, l] is the l-th attribute of member i, padded with a
    # dummy attribute d of size 2 whose column is cut off at the end
    attrs = np.array([r + (d,) * (width - len(r)) for r in members],
                     dtype=np.intp).reshape(len(members), width)
    span = np.append(np.asarray(sizes, dtype=np.int64), 2)[attrs] - 1
    counts = span.prod(axis=1)
    steps = counts[:, None] // np.cumprod(span, axis=1)
    member_of = np.repeat(np.arange(len(members)), counts)
    rank = np.arange(len(member_of)) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    indices = np.zeros((len(rank), d + 1), dtype=np.int64)
    indices[np.arange(len(rank))[:, None], attrs[member_of]] = \
        rank[:, None] // steps[member_of] % span[member_of] + 1
    indices = np.ascontiguousarray(indices[:, :d])
    return indices, _weights_at(indices, member_of, roots, spectrum)


def _weights_at(indices, member_of, roots, spectrum):
    """tau_a = r_R prod_{j in R} |phi_hat_j(a_j)| of each row a, where R
    is the member at member_of (len(roots): none, tau_a = 0).

    The factors of the scaled attributes are multiplied in attribute
    order, the root last.
    """
    scale = 1.0
    for j in spectrum.scaled:
        scale *= np.where(indices[:, j] > 0,
                          spectrum.magnitudes[j][indices[:, j]], 1.0)
    return scale * np.append(roots, 0.0)[member_of]


def subset_plan(workload, spectrum):
    """SubsetPlan of a workload's sets under the spectrum of its factor
    tables.

    The members and pairs are core.subset_pairs'.  gains and pair_zero
    are multiplied one attribute column of R, or of S - R, at a time,
    in ascending attribute order, from per-attribute factor tables in
    which the sentinel attribute d has the factor 1.0.  Each value is
    thus the product taken term by term in attribute order, as a loop
    over the attributes takes it; a factor of exactly 1.0, for padding
    or for an attribute whose table is exactly one, changes no bit.
    |U_S|^2 is rounded once from the exact integer.  The workload's
    weights are not read: roots() takes them.
    """
    universe = workload.universe
    members, rows, pair_member, pair_set, rest = subset_pairs(workload)
    # a table of exact ones has G_j = m_j - 1 and |phi_hat_j(0)|^2 = 1
    gain = np.ones(universe.d + 1)
    gain[:-1] = [len(table) - 1.0 for table in spectrum.tables]
    zero = np.ones(universe.d + 1)
    for j in spectrum.scaled:
        gain[j] = float(spectrum.magnitudes[j][1:].sum())
        zero[j] = float(spectrum.magnitudes[j][0]) ** 2
    gains = np.ones(len(members))
    for column in rows.T:
        gains *= gain[column]
    pair_zero = np.ones(len(pair_member))
    if spectrum.scaled:
        for column in rest.T:
            pair_zero *= zero[column]
    # |U_S| as a python int, so it is exact at any size: each set's
    # first pair is R = {}, the member at 0, whose rest is S itself
    size = np.array(universe.domain_sizes + (1,), dtype=object)
    subuniverse = np.ones(len(workload.sets), dtype=object)
    for column in rest[pair_member == 0].T:
        subuniverse *= size[column]
    return SubsetPlan(
        universe=universe, sets=workload.sets, members=members,
        gains=gains, pair_member=pair_member, pair_set=pair_set,
        pair_zero=pair_zero,
        set_square=(subuniverse * subuniverse).astype(float),
        spectrum=spectrum)


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
    return tau_product(workload, p,
                       fourier.unit_spectrum(workload.universe.domain_sizes))


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
    return _tau_dict(subset_plan(workload, spectrum), _weights(workload, p))


def _tau_dict(structure, p):
    indices, tau = structure.frequencies(structure.roots(p))
    return dict(zip(map(tuple, indices.tolist()), tau.tolist()))


def check_plan(plan, structure, roots, mu):
    """Reject a BudgetPlan that does not serve this workload at mu.

    The plan must be made for mu and hold exactly the frequencies the
    workload gives positive weight, as distinct rows in lexicographic
    order, each with the workload's own tau_a = r_R prod_{j in R}
    |phi_hat_j(a_j)| up to one common factor (plans are valid in any
    scale).  The expected weights are formed on the plan's own rows, so
    no frequency of the workload is enumerated.  Raises BudgetMismatch;
    returns nothing.
    """
    if plan.mu != float(mu):
        raise BudgetMismatch(f"plan was made for mu={plan.mu}, the release "
                             f"asks for mu={mu}")
    mismatch = BudgetMismatch("plan does not match the workload's weights")
    sizes = structure.universe.domain_sizes
    spectrum = structure.spectrum
    a = plan.indices
    if a.dtype.kind != "i" or a.shape != (len(plan.tau), len(sizes)) \
            or (a < 0).any() or (a >= np.array(sizes)).any():
        raise mismatch
    # strictly increasing rows: the first nonzero step of each is up
    step = a[1:] - a[:-1]
    if (step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0).any():
        raise mismatch
    supports, support_of = fourier._group_rows(a != 0)
    expected = _weights_at(
        a, structure.support_members(supports)[support_of], roots, spectrum)
    nonzero = [len(table) - 1 for table in spectrum.tables]
    for j in spectrum.scaled:
        nonzero[j] = np.count_nonzero(spectrum.magnitudes[j][1:])
    count = sum(math.prod(nonzero[j] for j in members)
                for members, root in zip(structure.members, roots.tolist())
                if root > 0)
    if len(a) != count or not (expected > 0).all():
        raise mismatch
    if len(a):
        ratios = plan.tau / expected
        low = ratios.min()
        if not (low > 0 and ratios.max() - low <= 1e-9 * low):
            raise mismatch


def plan_from_arrays(mu, indices, tau):
    """Assemble a BudgetPlan from frequency rows and their weights.

    Zero-weight rows are dropped and the rest put in lexicographic
    order; they get complex noise variance 2 tau / tau_a and squared
    budget share tau_a / tau, where mu^2 tau is the sum of the positive
    tau_a taken in the given order.
    """
    # mu * mu, not mu ** 2: overflow gives inf instead of raising
    if not (mu > 0 and 0 < mu * mu < math.inf):
        raise BudgetMismatch(f"budget mu={mu} must be positive with a "
                             "finite, nonzero square")
    tau = np.asarray(tau, dtype=float)
    positive = tau > 0
    if not positive.any():
        raise BudgetMismatch("no frequency has positive importance weight")
    # the built-in sum, term after term in the given order: its
    # roundings set every variance and share of the seeded outputs
    tau_total = sum(tau[positive].tolist()) / mu ** 2
    if tau_total == math.inf:
        raise BudgetMismatch(f"budget mu={mu} is so small that the noise "
                             "variances overflow")
    indices, tau = released_rows(np.asarray(indices, dtype=np.int64), tau)
    return BudgetPlan(mu=float(mu), tau_total=tau_total,
                      indices=indices, tau=tau,
                      variance=2.0 * tau_total / tau, share=tau / tau_total)


def released_rows(indices, tau):
    """The rows of indices with tau_a > 0 and their weights, in
    lexicographic order: the frequencies a release draws noise for."""
    positive = tau > 0
    indices, tau = indices[positive], tau[positive]
    order = np.lexsort(indices.T[::-1])
    return indices[order], tau[order]


def plan_from_tau(mu, tau_map):
    """plan_from_arrays of a {a: tau_a} map."""
    return plan_from_arrays(
        mu, np.array(list(tau_map), dtype=np.int64),
        np.fromiter(tau_map.values(), dtype=float, count=len(tau_map)))


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
    closure = tuple(itertools.chain.from_iterable(
        itertools.combinations(range(d), r) for r in range(k + 1)))
    roots = [math.sqrt(math.comb(d - len(members), k - len(members)))
             for members in closure]
    return plan_from_arrays(mu, *_member_frequencies(
        fourier.unit_spectrum((m,) * d), closure, roots))


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
    BudgetMismatch when the plan's arrays differ in length, when the
    residual exceeds 1e-9 * mu^2, or when a variance is off its
    2 tau / tau_a value.
    """
    if not (len(plan.indices) == len(plan.tau) == len(plan.variance)
            == len(plan.share)):
        raise BudgetMismatch("plan arrays differ in length")
    target = plan.mu ** 2
    share_total = float(plan.share.sum())
    residual = abs(share_total - target)
    if residual > 1e-9 * target:
        raise BudgetMismatch(
            f"shares sum to {share_total}, expected {target}")
    off = np.abs(plan.variance * plan.tau - 2.0 * plan.tau_total) \
        > 1e-9 * plan.tau_total
    if off.any():
        a = tuple(plan.indices[off.argmax()].tolist())
        raise BudgetMismatch(f"variance of {a} is off its 2 tau / tau_a value")
    return {"mu_squared": target, "share_total": share_total,
            "residual": residual}
