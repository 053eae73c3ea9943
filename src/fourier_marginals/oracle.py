"""Brute-force reference implementations used as ground truth in the tests.

Everything in this module is deliberately naive: dense query matrices are
assembled row by row from the query definitions, the inverse character sum
is evaluated directly without any transform structure, and the weight
optimizer is checked against an exhaustive simplex grid search.  Nothing
here calls into the production modules; the duplicated logic is the point,
since these functions arbitrate disagreements.

Features:
    * dense_workload: materialize the query matrix W with one row per
      (set, target) pair and one column per universe element, plus the
      row-weight diagonal and a dataset histogram.
    * naive_inverse: direct double-sum evaluation of the inverse
      character transform.
    * pstar_objective: weighted error objective evaluated by enumerating
      every frequency vector, no grouping shortcuts.
    * grid_search_pstar: best simplex grid point of the objective for up
      to three query sets.
    * monte_carlo: empirical error statistics of a randomized release
      against ground truth, one independent child seed per trial.

Inputs are plain primitives (size tuples, index tuples, float arrays) so
the module has no dependency on the library's own types.  Dense paths are
quadratic and capped at 4096 universe elements and 8192 query rows.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np


MAX_UNIVERSE = 4096
MAX_ROWS = 8192
MAX_GRID_SETS = 3


class OracleError(Exception):
    """Base class for reference-implementation failures."""


class DenseTooLarge(OracleError):
    """Universe or row count exceeds the dense-materialization cap."""


class TooManySets(OracleError):
    """Grid search supports at most three query sets."""


@dataclass(frozen=True)
class DenseWorkload:
    """Dense matrix form of a query workload.

    W has one row per (set, target) query and one column per universe
    element; P is the diagonal of the row-weight matrix, assigning each
    row the weight of its set divided by the number of rows of that set.
    h is the histogram of the dataset over the columns, so W @ h gives
    every query answer at once.
    """

    W: np.ndarray
    P: np.ndarray
    rows: tuple
    columns: tuple
    h: np.ndarray


def _column_coords(sizes):
    columns = tuple(itertools.product(*(range(m) for m in sizes)))
    # coords[j] holds attribute j of every column, for vectorized predicates
    coords = np.array(columns, dtype=np.int64).T.reshape(len(sizes), -1)
    return columns, coords


def _target_ranges(sizes, attr_kinds, members, kind):
    """Per-coordinate target value lists for one query set.

    For prefix/suffix queries on a numerical attribute of size m the
    targets are ordered [0, .., m-1, -1, -2, .., -m]: prefixes first,
    then suffixes by increasing start point.  This matches the column
    order of the doubled domain that represents these queries as shifted
    product queries, so the two dense matrices agree row for row.
    """
    ranges = []
    for j in members:
        m = sizes[j]
        if kind == "extended_prsuf" and attr_kinds[j] == "numerical":
            ranges.append(list(range(m)) + [-(i + 1) for i in range(m)])
        else:
            ranges.append(list(range(m)))
    return ranges


def _row_values(kind, members, target, coords, phi, sizes, attr_kinds):
    vals = np.ones(coords.shape[1])
    for j, t in zip(members, target):
        xj = coords[j]
        if kind == "marginal":
            vals = vals * (xj == t)
        elif kind == "product":
            table = np.asarray(phi[j], dtype=float)
            vals = vals * table[(t - xj) % sizes[j]]
        else:
            if attr_kinds[j] == "categorical":
                vals = vals * (xj == t)
            elif t >= 0:
                vals = vals * (xj <= t)
            else:
                vals = vals * (xj >= -t)
    return vals


def dense_workload(sizes, sets, weights, kind="marginal", attr_kinds=None,
                   phi=None, data_rows=None):
    """Materialize the dense query matrix for a workload.

    sizes: attribute domain sizes.  sets: tuples of 0-based attribute
    indices.  weights: one nonnegative weight per set (normalized here).
    kind: "marginal", "product" (requires phi, one table of length m_j
    per attribute), "extended" (prefix targets only), or
    "extended_prsuf" (prefix and suffix targets; requires attr_kinds
    with "categorical"/"numerical" per attribute).  data_rows: optional
    dataset rows used to build the histogram.
    """
    sizes = tuple(int(m) for m in sizes)
    n_cols = int(np.prod(sizes))
    if n_cols > MAX_UNIVERSE:
        raise DenseTooLarge(f"universe size {n_cols} exceeds {MAX_UNIVERSE}")
    if kind in ("extended", "extended_prsuf") and attr_kinds is None:
        raise ValueError("extended kinds require attr_kinds")
    if kind == "product" and phi is None:
        raise ValueError("product kind requires phi tables")

    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    p = weights / total

    columns, coords = _column_coords(sizes)
    row_blocks = []
    row_labels = []
    row_weights = []
    for members, pS in zip(sets, p):
        members = tuple(members)
        ranges = _target_ranges(sizes, attr_kinds, members, kind)
        n_rows = int(np.prod([len(r) for r in ranges])) if members else 1
        targets = itertools.product(*ranges)
        for t in targets:
            row_blocks.append(_row_values(kind, members, t, coords, phi,
                                          sizes, attr_kinds))
            row_labels.append((members, t))
            row_weights.append(pS / n_rows)
        if len(row_labels) > MAX_ROWS:
            raise DenseTooLarge(f"row count exceeds {MAX_ROWS}")

    W = np.array(row_blocks, dtype=float)
    P = np.array(row_weights, dtype=float)
    h = np.zeros(n_cols)
    if data_rows is not None:
        index = {x: i for i, x in enumerate(columns)}
        for row in data_rows:
            h[index[tuple(int(v) for v in row)]] += 1
    return DenseWorkload(W=W, P=P, rows=tuple(row_labels),
                         columns=columns, h=h)


def naive_inverse(coeffs):
    """Direct evaluation of the inverse character sum.

    Given complex coefficients c indexed by frequency vectors a over a
    product domain, returns the table T[t] = sum_a c[a] * chi_a(t) where
    chi_a(t) = prod_j exp(2 pi i a_j t_j / m_j).  The sum over a is
    carried out explicitly for every t; no transform structure is used.
    """
    c = np.asarray(coeffs, dtype=complex)
    sizes = c.shape
    n = c.size
    if n > MAX_UNIVERSE:
        raise DenseTooLarge(f"domain size {n} exceeds {MAX_UNIVERSE}")
    roots = [np.exp(2j * np.pi * np.arange(m) / m) for m in sizes]
    out = np.empty(sizes, dtype=complex)
    for t in itertools.product(*(range(m) for m in sizes)):
        axis_phases = [roots[j][(np.arange(m) * tj) % m]
                       for j, (tj, m) in enumerate(zip(t, sizes))]
        chi = reduce(np.multiply.outer, axis_phases)
        out[t] = (c * chi).sum()
    return out


def _naive_dft(values):
    # phi_hat[a] = sum_z phi[z] * exp(-2 pi i a z / m), written out directly
    v = np.asarray(values, dtype=complex)
    m = v.size
    a = np.arange(m)
    return np.array([(v * np.exp(-2j * np.pi * k * a / m)).sum() for k in a])


def _downward_closure(sets):
    closure = set()
    for members in sets:
        members = tuple(sorted(members))
        for r in range(len(members) + 1):
            closure.update(itertools.combinations(members, r))
    return sorted(closure, key=lambda s: (len(s), s))


def pstar_objective(sizes, sets, weights, phi=None):
    """Weighted error objective at a weight vector, by full enumeration.

    Sums, over every frequency vector a supported inside the downward
    closure, the square root of sum_{S containing supp(a)} p(S) *
    prod_{j in S} |phi_hat_j(a_j)|^2 / |U_S|^2.  With phi omitted every
    |phi_hat_j| is 1 and this is the marginal-query objective.
    """
    sizes = tuple(int(m) for m in sizes)
    sets = [tuple(sorted(s)) for s in sets]
    p = np.asarray(weights, dtype=float)
    if phi is None:
        phat_sq = [np.ones(m) for m in sizes]
    else:
        phat_sq = [np.abs(_naive_dft(phi[j])) ** 2 for j in range(len(sizes))]
    set_sizes = [float(np.prod([sizes[j] for j in s])) if s else 1.0
                 for s in sets]

    closure = _downward_closure(sets)
    count = sum(int(np.prod([sizes[j] - 1 for j in r])) for r in closure)
    if count > MAX_UNIVERSE:
        raise DenseTooLarge(f"frequency count {count} exceeds {MAX_UNIVERSE}")

    total = 0.0
    for r in closure:
        nonzero = [range(1, sizes[j]) for j in r]
        for avals in itertools.product(*nonzero):
            acc = 0.0
            for s, pS, uS in zip(sets, p, set_sizes):
                if not set(r).issubset(s):
                    continue
                prod = 1.0
                for j in s:
                    if j in r:
                        prod *= phat_sq[j][avals[r.index(j)]]
                    else:
                        prod *= phat_sq[j][0]
                acc += pS * prod / uS ** 2
            total += np.sqrt(acc)
    return float(total)


def _grouped_objective_terms(sizes, sets, phi):
    """Per-support constants for fast objective evaluation on a grid.

    For a support set R all frequencies with that support contribute
    G_R * sqrt(c_R . p) where G_R collects prod_j sum_{a!=0}
    |phi_hat_j(a)| and c_R[i] is the fixed multiplier of p(set_i).
    """
    sizes = tuple(int(m) for m in sizes)
    sets = [tuple(sorted(s)) for s in sets]
    if phi is None:
        phat_abs = [np.ones(m) for m in sizes]
    else:
        phat_abs = [np.abs(_naive_dft(phi[j])) for j in range(len(sizes))]
    set_sizes = [float(np.prod([sizes[j] for j in s])) if s else 1.0
                 for s in sets]
    terms = []
    for r in _downward_closure(sets):
        g = float(np.prod([phat_abs[j][1:].sum() for j in r])) if r else 1.0
        coef = np.zeros(len(sets))
        for i, (s, uS) in enumerate(zip(sets, set_sizes)):
            if set(r).issubset(s):
                extra = float(np.prod([phat_abs[j][0] ** 2
                                       for j in s if j not in r]))
                coef[i] = extra / uS ** 2
        terms.append((g, coef))
    return terms


def grid_search_pstar(sizes, sets, step, phi=None):
    """Best simplex grid point of the weighted error objective.

    Scans weight vectors whose entries are multiples of step and sum to
    one, returning (weights, objective value) of the best point.  Only
    workloads with at most three sets are supported; the grid for three
    sets is evaluated in vectorized chunks.
    """
    sets = [tuple(sorted(s)) for s in sets]
    k = len(sets)
    if k > MAX_GRID_SETS:
        raise TooManySets(f"{k} sets exceeds {MAX_GRID_SETS}")
    if k == 1:
        w = np.array([1.0])
        return w, pstar_objective(sizes, sets, w, phi)

    terms = _grouped_objective_terms(sizes, sets, phi)
    n = int(round(1.0 / step))
    grid = np.arange(n + 1) / n

    def objective_rows(p_cols):
        # p_cols: (k, chunk) weight vectors as columns
        val = np.zeros(p_cols.shape[1])
        for g, coef in terms:
            val += g * np.sqrt(np.maximum(coef @ p_cols, 0.0))
        return val

    best_val = -np.inf
    best_w = None
    if k == 2:
        p = np.vstack([grid, 1.0 - grid])
        vals = objective_rows(p)
        i = int(np.argmax(vals))
        best_val = float(vals[i])
        best_w = p[:, i].copy()
    else:
        for i in range(n + 1):
            p1 = grid[i]
            p2 = grid[: n - i + 1]
            p3 = 1.0 - p1 - p2
            p = np.vstack([np.full(p2.size, p1), p2, p3])
            vals = objective_rows(p)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best_w = p[:, j].copy()
    return best_w, best_val


def monte_carlo(release_fn, truth, trials, seed, sigma=None):
    """Empirical error statistics of a randomized release.

    Calls release_fn once per trial with an independently derived child
    seed (a numpy SeedSequence) and collects estimate - truth per query.
    Returns per-query arrays: mean_err, var_err (sample variance), and
    the Kolmogorov-Smirnov statistic and p-value of the standardized
    errors against the standard normal.  Errors are standardized by
    sigma when given, otherwise by their sample deviation; queries with
    zero deviation get NaN KS entries.
    """
    # scipy is needed here only, so the package imports without it
    from scipy import stats

    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    truth = np.asarray(truth, dtype=float)
    children = np.random.SeedSequence(seed).spawn(trials)
    errs = np.empty((trials, truth.size))
    for i, child in enumerate(children):
        est = np.asarray(release_fn(child), dtype=float)
        errs[i] = est - truth
    mean_err = errs.mean(axis=0)
    var_err = errs.var(axis=0, ddof=1)
    if sigma is None:
        scale = errs.std(axis=0, ddof=1)
    else:
        scale = np.broadcast_to(np.asarray(sigma, dtype=float),
                                mean_err.shape)
    ks_stat = np.full(truth.size, np.nan)
    ks_pvalue = np.full(truth.size, np.nan)
    for q in range(truth.size):
        if scale[q] > 0:
            res = stats.kstest(errs[:, q] / scale[q], "norm")
            ks_stat[q] = res.statistic
            ks_pvalue[q] = res.pvalue
    return {"mean_err": mean_err, "var_err": var_err,
            "ks_stat": ks_stat, "ks_pvalue": ks_pvalue}
