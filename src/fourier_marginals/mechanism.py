"""Private release of marginal, product, and range-marginal workloads.

The pipeline releases the aggregate frequencies F_a(D), adding complex
Gaussian noise with variance 2 tau / tau_a to each frequency whose
importance weight tau_a is positive, and reconstructs every requested
per-target table from the shared noisy frequencies by an inverse FFT.
Noise is attached to a frequency exactly once and reused by every set
containing its support; a release never resamples per set.  Frequencies
are sampled in lexicographic order of their index vectors, so a fixed
seed determines the entire output regardless of workload order or
parallel reconstruction.

Reconstruction works on member blocks: the released frequencies are
grouped by their support R once per release, the blocks of the closure
members R <= S that the budget.SubsetPlan pairs with a set S are
scattered into S's grid, and the grids of each shape take one inverse
FFT together.  A set is estimable when every pair R <= S with
G_R z_{S - R} > 0 has budget (r_R > 0).  Otherwise its sigma is
infinite: predicted_error reports it, and releases and
factorization.build_factorization raise Unestimable through the one
rule in _require_estimable.  A release whose plan enumerates more
frequencies, or whose tables hold more cells, than the release caps is
refused with ReleaseTooLarge by the one rule in release_refusal, before
any array per frequency or cell is allocated.

Per-query noise is Gaussian with a standard deviation that is constant
on each set,

    sigma_S^2 = (tau / |U_S|^2) sum_{supp(a) <= S}
                (prod_{j in S} |phi_hat_j(a_j)|^2) / tau_a,

and the weighted root mean squared error over the workload has the
closed form (1/mu) sum_a tau_a.  Both are evaluated per member of the
downward closure, from a budget.SubsetPlan: sigma_S^2 = tau D_S and
sum_a tau_a = sum_R G_R r_R, so predicted_error and the per-set sigma
of a release cost O(sum_S 2^|S|) and never enumerate frequencies.
as_product hands back every workload's product form with that plan;
product_form gives the same form without planning.

Range queries over numerical attributes (prefixes t >= 0 counting
x <= t, suffixes t < 0 counting x >= |t|) are handled by doubling each
numerical domain and choosing factor tables that turn every such query
into a shifted product query; the target map between the two views is a
bijection, so the embedded release answers exactly the original
workload.  Degenerate targets (the always-true prefix and always-false
suffix) are kept for uniformity; trimming them would shave a little
off the error and is left as a possible refinement.

Estimates are unbiased and are not post-processed for consistency or
non-negativity.  Passing sampler=None runs the pipeline with the noise
forced to zero, which separates transform bugs from noise in tests.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import budget, fourier
from .budget import BadArity
from .core import (NUMERICAL, AssignmentOutOfRange, Dataset,
                   FourierMarginalsError, Unestimable, Universe, Workload,
                   build_universe, normalize_weights)


# Each frequency a release enumerates carries an index row, its weight,
# variance, share, measured value and noise, and each table cell a grid
# entry and a reconstruction scatter row: at the caps these take a few
# GiB.  The counterparts of factorization's dense caps; no flag moves
# them.
RELEASE_FREQUENCY_CAP = 2 ** 23
RELEASE_CELL_CAP = 2 ** 24


class NonUniformDomain(FourierMarginalsError):
    """The all-k-way release needs every attribute size equal."""


class ReleaseTooLarge(FourierMarginalsError):
    """The release would exceed the caps on its frequencies or cells."""


def eta(m):
    """(1/m) sum_{l=1}^{m} 1 / sin(pi (2l - 1) / (2m)).

    Per-attribute error factor of a released numerical attribute; grows
    like (2/pi) ln m.
    """
    m = int(m)
    if m < 2:
        raise BadArity(f"need m >= 2, got {m}")
    return sum(1.0 / math.sin(math.pi * (2 * l - 1) / (2 * m))
               for l in range(1, m + 1)) / m


def zeta(m):
    """(1/m) sum_{l=1}^{m-1} 1 / sin(pi l / m).

    Lower-bound counterpart of eta; stays within an additive constant
    of it.
    """
    m = int(m)
    if m < 2:
        raise BadArity(f"need m >= 2, got {m}")
    return sum(1.0 / math.sin(math.pi * l / m) for l in range(1, m)) / m


@dataclass(frozen=True, eq=False)
class ExtendedEmbedding:
    """Doubled-domain view that turns range marginals into product queries.

    Numerical attributes get domain size 2m and the factor table
    1{z <= m-1}; categorical attributes keep their size and the
    indicator of zero.  Targets map bijectively: prefixes and
    categorical values are fixed, the suffix starting at |t| maps to
    m - 1 - t in the doubled domain.
    """

    original: Universe
    embedded: Universe
    phi: tuple

    def embed_target(self, members, target):
        out = []
        for j, t in zip(members, target):
            m = self.original.domain_sizes[j]
            numerical = self.original.attribute_kind[j] == NUMERICAL
            if not _is_index(t):
                raise _bad_target(j, t)
            if numerical and -m <= t < 0:
                out.append(m - 1 - t)
            elif 0 <= t < m:
                out.append(int(t))
            else:
                raise _bad_target(j, t)
        return tuple(out)

    def lift_target(self, members, embedded_target):
        out = []
        for j, t in zip(members, embedded_target):
            m = self.original.domain_sizes[j]
            if self.original.attribute_kind[j] == NUMERICAL and t >= m:
                out.append(m - 1 - t)
            else:
                out.append(int(t))
        return tuple(out)

    def target_count(self, members):
        n = 1
        for j in members:
            n *= self.embedded.domain_sizes[j]
        return n


def _bad_target(j, t):
    return AssignmentOutOfRange(f"target {t} invalid for attribute {j}")


def _is_index(t):
    # bools are integers to Python, but no target is True or False
    return isinstance(t, (int, np.integer)) and not isinstance(t, bool)


def embed_extended(universe):
    """Build the doubled-domain embedding of range-marginal queries.

    A categorical-only universe embeds as itself.  The returned phi
    tables answer, for every x in the original universe, every prefix,
    suffix, and equality query exactly.
    """
    sizes = []
    phi = []
    for m, kind in zip(universe.domain_sizes, universe.attribute_kind):
        if kind == NUMERICAL:
            sizes.append(2 * m)
            phi.append((1.0,) * m + (0.0,) * m)
        else:
            sizes.append(m)
            phi.append((1.0,) + (0.0,) * (m - 1))
    embedded = build_universe(sizes, universe.attribute_kind)
    return ExtendedEmbedding(original=universe, embedded=embedded,
                             phi=tuple(phi))


def product_form(workload):
    """Product form of a workload, unplanned: (workload, embedding).

    Marginal and product workloads come back unchanged, with embedding
    None; extended workloads are replaced by their doubled-domain
    product workload, returned with its embedding.  Weights are carried
    over as given.  A product form is its own product form.
    """
    if workload.kind != "extended":
        return workload, None
    embedding = embed_extended(workload.universe)
    return Workload(universe=embedding.embedded, sets=workload.sets,
                    weights=workload.weights, kind="product",
                    phi=embedding.phi), embedding


def as_product(workload):
    """Product form of a workload, planned: (workload, plan, embedding).

    workload and embedding are product_form's; plan is the
    budget.SubsetPlan of the product form, its spectrum plan.spectrum:
    fourier.unit_spectrum for marginal workloads, the spectrum of the
    factor tables otherwise.
    """
    workload, embedding = product_form(workload)
    if workload.kind == "marginal":
        spectrum = fourier.unit_spectrum(workload.universe.domain_sizes)
    else:
        spectrum = fourier.phi_spectrum(workload.phi_tables())
    return workload, budget.subset_plan(workload, spectrum), embedding


@dataclass(frozen=True, eq=False)
class ReleaseResult:
    """Released tables plus the noise plan that produced them.

    estimates maps each query set to a real table over its target
    domain (the doubled domain for range workloads; use estimate() to
    look up original targets).  per_set_sigma gives the exact per-query
    noise deviation of each set, constant across its targets.  kind is
    the kind of the workload given; workload is its product form.
    """

    kind: str
    workload: Workload
    estimates: dict
    per_set_sigma: dict
    plan: budget.BudgetPlan
    seed: object
    predicted: dict
    embedding: ExtendedEmbedding = None

    def table(self, members):
        """The table of one set of the workload, members in any order;
        any other set raises AssignmentOutOfRange."""
        key = tuple(sorted(members))
        if key not in self.estimates:
            raise AssignmentOutOfRange(f"the workload has no set {members}")
        return self.estimates[key]

    def estimate(self, members, target):
        """The estimate of one target of one set of the workload, target[i]
        being the value of attribute members[i] in any order of members;
        any other set or target raises AssignmentOutOfRange."""
        members, target = tuple(members), tuple(target)
        order = sorted(range(len(members)), key=members.__getitem__)
        if tuple(sorted(members)) not in self.estimates \
                or len(target) != len(members) \
                or not all(map(_is_index, target)):
            raise AssignmentOutOfRange(
                f"the workload has no set {members} with target {target}")
        members, target = (tuple(x[i] for i in order)
                           for x in (members, target))
        if self.embedding is not None:
            target = self.embedding.embed_target(members, target)
        sizes = self.workload.universe.domain_sizes
        for j, t in zip(members, target):
            if not 0 <= t < sizes[j]:
                raise _bad_target(j, t)
        return float(self.estimates[members][target])


def _error_report(structure, roots, mu):
    """Per-set sigma, weighted RMS and worst sigma from member roots.

    sigma_S = sqrt(tau D_S), inf when S needs a frequency without
    budget; the weighted RMS is (1/mu) sum_R G_R r_R.
    """
    total = float(structure.gains @ roots)
    derivatives = structure.derivatives(roots)
    with np.errstate(invalid="ignore"):
        sigma = np.sqrt(total / mu ** 2 * derivatives)
    sigma[np.isinf(derivatives)] = math.inf
    per_set_sigma = dict(zip(structure.sets, sigma.tolist()))
    return {
        "per_set_sigma": per_set_sigma,
        "weighted_rms": total / mu,
        "max_sigma": max(per_set_sigma.values(), default=0.0),
    }


def _require_estimable(per_set_sigma):
    """The estimability rule: raise Unestimable for the first set whose
    sigma is infinite, i.e. that needs a frequency with a nonzero
    coefficient and no budget."""
    for members, sigma in per_set_sigma.items():
        if math.isinf(sigma):
            raise Unestimable(
                f"set {members} needs frequencies with no budget; give it "
                "positive weight or cover it by a larger weighted set")


def _size_refusal(frequencies, cells):
    if frequencies > RELEASE_FREQUENCY_CAP:
        return (f"{frequencies} frequencies exceed the release cap "
                f"{RELEASE_FREQUENCY_CAP}")
    if cells > RELEASE_CELL_CAP:
        return f"{cells} table cells exceed the release cap {RELEASE_CELL_CAP}"
    return None


def release_refusal(plan):
    """The release-cap rule: why releasing the workload of plan, a
    budget.SubsetPlan, would exceed the caps, or None when it fits.

    Two counts, made in O(closure) before any array per frequency or per
    cell is allocated: the frequencies the plan enumerates,
    sum_R prod_{j in R} (m_j - 1) over the members R of the downward
    closure, among which are those released; and the cells of the sets'
    tables, sum_S |U_S|, which also counts the rows reconstruction
    scatters, since sum_{R <= S} prod_{j in R} (m_j - 1) = |U_S|.  The
    release's counterpart of factorization.dense_refusal.
    """
    universe = plan.universe
    return _size_refusal(
        sum(math.prod(universe.domain_sizes[j] - 1 for j in members)
            for members in plan.members),
        sum(map(universe.subuniverse_size, plan.sets)))


def _require_servable(refusal):
    if refusal is not None:
        raise ReleaseTooLarge(refusal)


def _reconstruct(structure, table, values):
    """Estimate tables of every set from the released frequencies.

    table is the fourier.FourierTable of the released frequencies, in
    lexicographic order, and values holds F_a plus noise for each.  The
    table groups the frequencies by their support R; each set S takes
    the groups of the members R <= S that the plan pairs with it.  The
    sets' grids lie end to end in one array, sets of one shape side by
    side, so one fancy-index assignment scatters every frequency, after
    scaling by prod_{j in S} phi_hat_j(a_j) on the spectrum's scaled
    attributes.  Each grid shape then takes one inverse_table call over
    its stacked grids.  Unreleased frequencies stay exact zeros.
    """
    universe = structure.universe
    sets = structure.sets
    by_shape = {}
    for k, members in enumerate(sets):
        by_shape.setdefault(universe.subdomain_sizes(members), []).append(k)
    # strides[k, j] is the row-major step of attribute j in the grid of
    # set k, 0 for attributes outside the set; offsets[k] is where that
    # grid starts
    strides = np.zeros((len(sets), universe.d), dtype=np.intp)
    offsets = np.zeros(len(sets), dtype=np.intp)
    end = 0
    for shape, group in by_shape.items():
        for k in group:
            offsets[k] = end
            end += math.prod(shape)
            step = 1
            for j in reversed(sets[k]):
                strides[k, j] = step
                step *= universe.domain_sizes[j]
    # the closure member each frequency lies on (len(members): none);
    # by_member lists the frequencies member by member, in their order
    member_of = structure.support_members(table.supports)[table.support_of]
    by_member = np.argsort(member_of, kind="stable")
    counts = np.bincount(member_of, minlength=len(structure.members) + 1)
    lengths = counts[structure.pair_member]
    # pair by pair, the run of by_member that holds the pair's member
    runs = np.cumsum(counts)[structure.pair_member] - lengths \
        - (np.cumsum(lengths) - lengths)
    rows = by_member[np.repeat(runs, lengths) + np.arange(lengths.sum())]
    owners = np.repeat(structure.pair_set, lengths)
    steps = strides[owners]
    a = table.indices[rows]
    cells = offsets[owners] + (a * steps).sum(axis=1)
    # explicit parts, one attribute of S at a time in ascending order:
    # the same roundings as multiplying each value in turn; leaving out
    # a table of exact ones can only flip the sign of a zero part
    coeffs = values[rows]
    for j in structure.spectrum.scaled:
        on = steps[:, j] > 0
        t = structure.spectrum.tables[j][a[on, j]]
        r, i = coeffs.real[on], coeffs.imag[on]
        coeffs.real[on] = r * t.real - i * t.imag
        coeffs.imag[on] = r * t.imag + i * t.real
    grid = np.zeros(end, dtype=complex)
    grid[cells] = coeffs
    estimates = [None] * len(sets)
    for shape, group in by_shape.items():
        start = offsets[group[0]]
        if not shape:
            estimates[group[0]] = np.array(grid[start].real)
            continue
        size = math.prod(shape)
        stack = grid[start:start + len(group) * size]
        tables = np.real(fourier.inverse_table(
            stack.reshape((len(group),) + shape), expected_shape=shape)) / size
        for i, k in enumerate(group):
            estimates[k] = tables[i]
    return dict(zip(sets, estimates))


def _run_release(dataset, workload, mu, sampler, plan):
    """Release a workload with normalized weights in the product form
    as_product gives it.  A given plan is checked against that form and
    mu and used as it is; otherwise the plan is made from the weights."""
    kind = workload.kind
    workload, structure, embedding = as_product(workload)
    _require_servable(release_refusal(structure))
    if embedding is not None:
        dataset = Dataset(universe=embedding.embedded, rows=dataset.rows)
    roots = structure.roots(workload.weights)
    if plan is None:
        indices, tau = structure.frequencies(roots)
        if (tau > 0).any():
            plan = budget.plan_from_arrays(mu, indices, tau)
        else:
            # every reconstruction coefficient is zero: the workload is
            # constant, released exactly, and consumes no budget
            plan = budget.BudgetPlan(mu=float(mu), tau_total=0.0,
                                     indices=indices[:0], tau=tau[:0],
                                     variance=tau[:0], share=tau[:0])
    else:
        budget.check_plan(plan, structure, roots, mu)
    if len(plan.tau):
        budget.accounting(plan)
    # sigma_S is invariant under scaling the plan, so the workload's
    # own roots give the sigma of any plan that check_plan accepts
    predicted = _error_report(structure, roots, mu)
    _require_estimable(predicted["per_set_sigma"])

    table = fourier.fourier_queries(dataset, plan.indices)
    values = table.values
    if sampler is not None:
        values = values + budget.sample_complex_gaussian(plan.variance,
                                                         sampler)
    estimates = _reconstruct(structure, table, values)
    seed = sampler.seed if sampler is not None else None
    return ReleaseResult(kind=kind, workload=workload, estimates=estimates,
                         per_set_sigma=dict(predicted["per_set_sigma"]),
                         plan=plan, seed=seed, predicted=predicted,
                         embedding=embedding)


def release_product(dataset, workload, p=None, mu=1.0, sampler=None,
                    plan=None):
    """Private estimates of every table of a workload, of its own kind.

    Weights are normalized internally; every set of the workload is
    reconstructed, including zero-weight sets whose frequencies are
    already paid for.  sampler=None skips the noise (test mode).  A
    given plan is used as it is, after checks: it must be made for mu
    and for this workload's weights, in any scale (BudgetMismatch).  A
    product workload with the indicator-of-zero tables releases as the
    marginal workload up to the rounding of their FFT (not exactly one
    from m = 89).
    """
    return _run_release(dataset, normalize_weights(workload, p), mu,
                        sampler, plan)


# one release for every kind, under the name of each
release_marginals = release_product


def release_extended(dataset, workload, p=None, mu=1.0, sampler=None):
    """Private estimates of equality/prefix/suffix range marginals.

    release_product without a plan.  An extended workload is released
    on the doubled domain; the result's estimate() accepts original
    targets (negative values select suffixes).  The released tables
    cover every target of every set.
    """
    return _run_release(dataset, normalize_weights(workload, p), mu,
                        sampler, None)


def release_k_way(dataset, k, mu=1.0, sampler=None, plan=None):
    """Private estimates of all k-way marginals of a uniform domain.

    A given plan is checked as in release_product.  Without one, the
    release caps are applied to the closed-form counts before the
    k-way plan is made.
    """
    universe = dataset.universe
    sizes = set(universe.domain_sizes)
    if len(sizes) != 1:
        raise NonUniformDomain(f"attribute sizes {sorted(sizes)} differ")
    m = sizes.pop()
    d = universe.d
    if plan is None:
        if 1 <= k <= d:
            # k_way_budget enumerates the frequencies, so the counts are
            # checked first; k_way_budget rejects any other k
            _require_servable(_size_refusal(
                sum(math.comb(d, l) * (m - 1) ** l for l in range(k + 1)),
                math.comb(d, k) * m ** k))
        plan = budget.k_way_budget(d, k, m, mu)
    sets = tuple(itertools.combinations(range(d), k))
    workload = Workload(universe=universe, sets=sets,
                        weights=np.full(len(sets), 1.0 / len(sets)))
    return _run_release(dataset, workload, mu, sampler, plan)


def predicted_error(workload, p=None, mu=1.0):
    """Closed-form error report, no sampling.

    Returns per-set noise deviations, the weighted root mean squared
    error (1/mu) sum_a tau_a, and the worst per-set deviation.
    Unestimable zero-weight sets are reported with sigma = inf instead
    of raising.  Costs O(sum_S 2^|S|), whatever the domain sizes.
    """
    workload, structure, _ = as_product(normalize_weights(workload, p))
    return _error_report(structure, structure.roots(workload.weights), mu)


def k_way_sigma(d, k, m, mu=1.0):
    """Per-query noise deviation of the all-k-way release, closed form.

    sigma = (1 / (mu m^k sqrt(binom(d,k)))) *
            sum_l binom(d,l) (m-1)^l sqrt(binom(d-l, k-l)).
    """
    return budget.k_way_tau_sum(d, k, m) \
        / (mu * m ** k * math.sqrt(math.comb(d, k)))


def gaussian_baseline_sigma(num_queries_sets, mu=1.0):
    """Per-query deviation of the independent-noise baseline.

    Splitting the budget evenly over the sets and adding real Gaussian
    noise to each count costs sqrt(|S|) / mu per query.
    """
    return math.sqrt(num_queries_sets) / mu


def release_skeleton(result, names=None):
    """release_document without the tables: meta, each set's attrs and
    sigma, and the predicted errors.

    names, when given, labels set attributes; otherwise zero-based
    indices are used.
    """
    label = (lambda j: names[j]) if names else (lambda j: j)
    return {
        "meta": {"mu": result.plan.mu, "seed": result.seed,
                 "kind": result.kind},
        "sets": [{"attrs": [label(j) for j in members],
                  "sigma": result.per_set_sigma[members]}
                 for members in result.workload.sets],
        "predicted": {
            "weighted_rms": result.predicted["weighted_rms"],
            "max_sigma": result.predicted["max_sigma"],
        },
    }


def table_layouts(result):
    """(keys, layouts): the target layout of each table of a release.

    keys[k] is the layout key of the k-th set of result.workload, one
    (size, lifted) pair per attribute, lifted for the numerical
    attributes of a range release.  layouts[key] holds the targets of
    each attribute of the table in index order, in original
    coordinates: 0..m-1, and for a numerical attribute of a range
    release 0..m-1 then the suffixes -1..-m.  The target of cell i of
    table.ravel() is row i of their row-major product.  Each distinct
    layout is built once.
    """
    universe = result.workload.universe
    pairs = [(size, result.embedding is not None and kind == NUMERICAL)
             for size, kind in zip(universe.domain_sizes,
                                   universe.attribute_kind)]
    keys = [tuple([pairs[j] for j in members])
            for members in result.workload.sets]
    layouts = {}
    for key in keys:
        if key in layouts:
            continue
        axes = []
        for size, lift in key:
            axis = list(range(size))
            if lift:
                # the doubled domain's cell t >= m is the suffix m - 1 - t
                m = size // 2
                axis[m:] = range(-1, -m - 1, -1)
            axes.append(axis)
        layouts[key] = tuple(axes)
    return keys, layouts


def release_document(result, names=None):
    """JSON-ready dict of a release: meta, per-set tables, predictions.

    Each set's table lists one {"t": target, "estimate": value} row per
    cell in row-major order.  Targets of range workloads are reported in
    original coordinates (negative values are suffixes).  names, when
    given, labels set attributes; otherwise zero-based indices are used.
    The skeleton is release_skeleton and the targets the row-major
    product of the axes of table_layouts, which the CLI writes from
    directly.
    """
    doc = release_skeleton(result, names)
    keys, layouts = table_layouts(result)
    for entry, members, key in zip(doc["sets"], result.workload.sets, keys):
        entry["table"] = [
            {"t": list(t), "estimate": value} for t, value
            in zip(itertools.product(*layouts[key]),
                   result.estimates[members].ravel().tolist())]
    return doc
