"""Dense factorizations, matrix norms, and optimality certificates.

The release mechanism never forms a matrix.  This module materializes
the factorization it implicitly runs, so that its optimality can be
checked numerically instead of taken on faith.  For row weights
P_{(S,t)} = p(S) / |U_S| the released answers are W h + noise, where W
stacks one row per (set, target) query, and the noise is shaped by

    L = U~ E^(-1/2),    R = E^(1/2) V~*,    E_{a,a} = tau_a / sum_b tau_b.

V~ holds the characters chi_a(x) and U~ the reconstruction
coefficients, so L R = W exactly.  Every column of R has unit norm, the
weighted Frobenius norm of L is sum_a tau_a, and the pair also reads
off a singular value decomposition of P^(1/2) W with singular values
sqrt(|U|) tau_a.  Three certificates follow:

  * the trace-norm bound (1 / sqrt(|U|)) ||P^(1/2) W||_tr equals
    ||P^(1/2) L||_F ||R||_{1->2}, so no factorization has smaller
    weighted error.  It is read off M = P^(1/2) W Q, where the
    orthonormal columns of Q are Kronecker products of per-attribute
    bases, one block Q_R per member R of the downward closure of the
    weighted sets.  A projection never raises a trace norm, so the
    value is a lower bound whatever Q is (sound); every weighted row of
    W lies in the range of Q, so no singular value is lost (tight).
    The column blocks M_R = P^(1/2) W Q_R are mutually orthogonal, and
    each M_R* M_R is a scalar times a Kronecker product of
    per-attribute Gram matrices, so the bound is one numeric SVD of an
    m_j x m_j matrix per attribute and one scalar per member, with no
    matrix of W formed (see _trace_bound);
  * at the optimizer's weights ||L||_{2->inf} ||R||_{1->2} meets the
    same bound, so the mechanism's worst-case error is optimal too;
  * for range-marginal workloads a Fourier test matrix gives a closed
    form trace bound showing the doubled-domain release is within the
    ratio of two explicit log-like sums per numerical attribute.  The
    bound is sum_R G_R r_R of the budget.SubsetPlan of the test
    matrix's tables over the original universe, and the test matrix
    takes its frequencies from the same plan.  Its trace value and
    operator norm factor per attribute and per closure member like the
    trace bound, so the test matrix is checked at every size, never
    formed (see LowerBoundWitness).

Every dense matrix is a stack of per-set blocks, and each block is a
product over attributes of per-attribute tables read at a frequency
per column: V~ and U~ of the character tables omega_m^(a v).  One
builder, _character_grid, fills them in place, broadcasting one
attribute's table over the grid at a time, in attribute order, so
every entry is multiplied in the same order as a Kronecker product
would, with no loop per frequency.

Dense matrices are built only for small instances, as dense_refusal
decides: past the caps build_factorization refuses.  The trace bound
forms no matrix of W, so neither the universe nor the query rows cap
it; svd_lower_bound refuses only an attribute larger than
DENSE_UNIVERSE_CAP, whose own SVD would be too large.  The range
witness holds one length-m_j array per attribute and one scalar per
closure member, and has no cap.
Whether every set can be estimated is decided by the release's own
rule, an infinite sigma_S read off the budget.SubsetPlan, so a
factorization is refused exactly when a release would be.

Memory holds one dense matrix at a time beside the pair: no temporary
the size of L or R lives next to them, and neither W nor Q is ever
formed.  U~ is filled set by set on the frequencies with supp(a)
within the set, the only columns where a set's rows are
nonzero, in place when a set carries every column.  The norms read L
and R BLOCK rows or columns at a time, through the same elementwise
operations and reductions as the whole matrix would, so each norm is
the same float.  The Gram residuals hold one BLOCK-wide column block
of a Gram matrix, on and above its diagonal, plus one set's rows of L
on the columns where they are nonzero: L* P L is summed set by set, so
its residual equals that of the whole product up to the order of
summation.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import budget, fourier, mechanism
from .core import (NUMERICAL, FourierMarginalsError, Workload,
                   normalize_weights)

DENSE_UNIVERSE_CAP = 4096
DENSE_QUERY_CAP = 8192
RANK_CUTOFF = 1e-12
# rows or columns of L and R per block of the norms and Gram residuals;
# a multiple of 16, and wide enough that BLAS runs near full speed
BLOCK = 128


class DenseTooLarge(FourierMarginalsError):
    """The instance exceeds the caps for materializing dense matrices."""


class CertificateFailed(FourierMarginalsError):
    """A certificate the result rests on failed its check."""


@dataclass(frozen=True, eq=False)
class ExplicitFactorization:
    """The pair (L, R) with L R = W, plus its bookkeeping.

    workload is the (normalized, possibly doubled-domain) form whose
    matrix the pair factors; rows lists the (set, target) index of every
    row of L, freqs the frequency vector of every column; E and P are
    the diagonals of the normalization and row-weight matrices, and tau
    the importance weight of each kept frequency.  row_norms and
    col_norms, the norms of the rows of L and the columns of R, are
    computed once per pair, on first use.
    """

    workload: Workload
    rows: tuple
    freqs: tuple
    L: np.ndarray
    R: np.ndarray
    E: np.ndarray
    P: np.ndarray
    tau: np.ndarray

    @functools.cached_property
    def row_norms(self):
        return _vector_norms(self.L, axis=1)

    @functools.cached_property
    def col_norms(self):
        return _vector_norms(self.R, axis=0)


@dataclass(frozen=True)
class NormReport:
    """Factorization norms next to the trace-norm lower bound.

    gammaF_value = frob_weighted * col_max and gamma2_value =
    row_max * col_max; svd_lower_bound is (1/sqrt(|U|)) ||P^(1/2) W||_tr
    of the pair's workload (see _trace_bound).
    """

    col_max: float
    frob_weighted: float
    row_max: float
    gammaF_value: float
    gamma2_value: float
    svd_lower_bound: float


@dataclass(frozen=True, eq=False)
class RealFactorization:
    """Real matrices with L R = W and the complex pair's norms."""

    L: np.ndarray
    R: np.ndarray
    P: np.ndarray
    rows: tuple
    labels: tuple


@dataclass(frozen=True, eq=False)
class LowerBoundWitness:
    """The range-query test matrix Y = P^(1/2) U~ V~* / sqrt(|U|), read
    per attribute and per closure member R of the weighted sets.

    U~ holds the coefficients c_j of _witness_plan (f_j in f_tables,
    None where c_j = 1), column a divided by its plan weight tau_a =
    r_R prod_{j in R} |c_j(a_j)|.  op_norm = ||Y||_2 <= 1, so
    trace_value = |tr(P^(1/2) W Y*)| / sqrt(|U|) bounds every
    factorization of the prefix query matrix W from below.

    V~ / sqrt(|U|) has orthonormal columns, and so, up to scale, has
    P^(1/2) U~: two frequencies carried by one set differ on it.  So
    op_norm is the largest column norm, max_R sqrt(c_R) / r_R with c_R
    = sum_{S >= R, p_S > 0} p_S prod_{j in S - R} |c_j(0)|^2 / |U_S|^2,
    summed apart from the plan so that it checks the plan's roots.  The
    trace factors over the attributes of each set into

        |sum_R (prod_{j in R} h_j / r_R)
              sum_{S >= R, p_S > 0} p_S / |U_S|^3 prod_{j in S - R} h0_j|,

    h_j = sum_{a > 0} conj(c_j(a)) g_j(a) / |c_j(a)| and h0_j =
    conj(c_j(0)) g_j(0), with g_j(a) = sum_t omega^(-a t) sum_x
    w_j[t, x] omega^(a x) for the prefix indicator or identity w_j.
    """

    f_tables: tuple
    trace_value: float
    op_norm: float
    closed_form: float
    note: str


WITNESS_NOTE = ("certifies the prefix query family; quoted unchanged for "
                "prefix-suffix releases, whose matching bound is not "
                "computed here")


def dense_refusal(workload, dense_cap=None):
    """The dense-cap rule: why the dense matrices of workload would
    exceed the caps, or None when they fit.

    The universe must be within dense_cap (DENSE_UNIVERSE_CAP when None)
    and the query rows within DENSE_QUERY_CAP.  It decides whether
    build_factorization runs; the trace bound forms no matrix of W and
    caps only the size of each attribute (see svd_lower_bound), and the
    range witness forms no matrix at all.
    """
    cap = DENSE_UNIVERSE_CAP if dense_cap is None else int(dense_cap)
    size = workload.universe.size
    if size > cap:
        return f"universe size {size} exceeds the dense cap {cap}"
    rows = sum(workload.universe.subuniverse_size(s) for s in workload.sets)
    if rows > DENSE_QUERY_CAP:
        return f"{rows} query rows exceed the dense cap {DENSE_QUERY_CAP}"
    return None


def _unit_table(m):
    """omega_m^(a v) at [v, a], for every value v and frequency a."""
    # phases as rational multiples of one turn, like the character code
    v = np.arange(m)
    return np.exp(2j * np.pi * ((v[:, None] * v[None, :]) % m) / m)


def _character_grid(grid, tables, freqs, axes):
    """Multiply grid[..., k] in place by tables[j][v_j, freqs[k, j]] for
    each attribute j in axes.

    grid has one axis per attribute in axes, then one per frequency;
    the factors multiply from the right in the order of axes.
    """
    for axis, j in enumerate(axes):
        shape = [1] * grid.ndim
        shape[axis] = tables[j].shape[0]
        shape[-1] = freqs.shape[0]
        np.multiply(grid, tables[j][:, freqs[:, j]].reshape(shape),
                    out=grid)


def _character_matrix(universe, freqs):
    """Columns chi_a over the row-major universe grid, one per frequency."""
    sizes = universe.domain_sizes
    freqs = np.array(freqs, dtype=np.intp).reshape(len(freqs), universe.d)
    cols = np.ones((universe.size, len(freqs)), dtype=complex)
    _character_grid(cols.reshape(tuple(sizes) + (len(freqs),)),
                    [_unit_table(m) for m in sizes], freqs, range(universe.d))
    return cols


def _row_index(workload):
    """Row labels (S, t) in set order with row-major targets, plus P."""
    universe = workload.universe
    rows = []
    weight = []
    for members, pS in zip(workload.sets, workload.weights):
        size = universe.subuniverse_size(members)
        for t in itertools.product(
                *(range(m) for m in universe.subdomain_sizes(members))):
            rows.append((members, t))
            weight.append(pS / size)
    return tuple(rows), np.array(weight)


def _coefficient_products(coeffs, freqs, members):
    """prod_{j in members} coeffs[j][a_j] per frequency, as complex
    numbers multiplied one at a time in members order.

    The parts are formed as re*re' - im*im' and re*im' + im*re' in
    separate float operations, which is how a product of two complex
    scalars rounds; numpy's complex array loops may fuse them instead.
    """
    re = np.ones(len(freqs))
    im = np.zeros(len(freqs))
    for j in members:
        values = coeffs[j][freqs[:, j]]
        re, im = (re * values.real - im * values.imag,
                  re * values.imag + im * values.real)
    scale = np.empty(len(freqs), dtype=complex)
    scale.real = re
    scale.imag = im
    return scale


def _coefficient_matrix(workload, coeffs, rows, freqs):
    """U~: entries coeff(S, a) prod_{j in S} omega_m^(a_j t_j) / |U_S| on
    supp(a) within S, and zero elsewhere.  Each set's block is filled
    only on the columns it carries, in place when that is all of them,
    else apart and then copied into the zero matrix."""
    universe = workload.universe
    tables = [_unit_table(m) for m in universe.domain_sizes]
    freqs = np.array(freqs, dtype=np.intp).reshape(len(freqs), universe.d)
    out = np.zeros((len(rows), len(freqs)), dtype=complex)
    start = 0
    for members in workload.sets:
        size = universe.subuniverse_size(members)
        outside = [j for j in range(universe.d) if j not in members]
        carried = ~freqs[:, outside].any(axis=1)
        sub = freqs[carried]
        scale = _coefficient_products(coeffs, sub, members)
        whole = len(sub) == len(freqs)
        block = out[start:start + size] if whole \
            else np.empty((size, len(sub)), dtype=complex)
        block.fill(1.0)
        _character_grid(
            block.reshape(universe.subdomain_sizes(members) + (len(sub),)),
            tables, sub, members)
        np.multiply(scale / size, block, out=block)
        block[:, scale == 0] = 0.0
        if not whole:
            out[start:start + size, carried] = block
        start += size
    return out


def build_factorization(workload, p=None, dense_cap=None):
    """Materialize L, R, E, and P for one weighted workload.

    Running the release with this pair is the same distribution as the
    mechanism module: the frequency noise vector hits L exactly as the
    reconstruction applies it.  Raises DenseTooLarge past the caps and,
    by the release's rule, Unestimable when a set needs a frequency no
    weighted set pays for.  dense_cap overrides the default universe
    cap.
    """
    w, _ = mechanism.product_form(normalize_weights(workload, p))
    refusal = dense_refusal(w, dense_cap)
    if refusal is not None:
        raise DenseTooLarge(refusal)
    _, structure, _ = mechanism.as_product(w)
    roots = structure.roots(w.weights)
    mechanism._require_estimable(
        mechanism._error_report(structure, roots, 1.0)["per_set_sigma"])
    indices, tau = budget.released_rows(*structure.frequencies(roots))
    E = tau / tau.sum()
    rows, P = _row_index(w)
    U = _coefficient_matrix(w, structure.spectrum.tables, rows, indices)
    V = _character_matrix(w.universe, indices)
    # L and R are scaled in place in the builders' arrays
    L = np.divide(U, np.sqrt(E)[None, :], out=U)
    R = np.conjugate(V, out=V).T
    np.multiply(np.sqrt(E)[:, None], R, out=R)
    return ExplicitFactorization(workload=w, rows=rows,
                                 freqs=tuple(map(tuple, indices.tolist())),
                                 L=L, R=R, E=E, P=P, tau=tau)


def _trace_bound(w):
    """(1 / sqrt(|U|)) ||P^(1/2) W||_tr of the product form w, from one
    numeric SVD per attribute and one scalar per closure member.

    Q = (Q_R) has orthonormal real columns, one block Q_R per member R
    of the downward closure of the sets with positive weight: the
    Kronecker product over all attributes of H_j[:, 1:] for j in R and
    the constant column 1 / sqrt(m_j) elsewhere, where H_j is an
    orthogonal m_j x m_j basis whose first column is 1 / sqrt(m_j),
    from QR.

    Sound: ||A Q||_tr <= ||A||_tr for every Q with orthonormal columns,
    since Q* is a contraction, so the value of M = P^(1/2) W Q bounds
    every factorization of W from below whatever Q is, and an incomplete
    Q could only make verify fail.  Tight: a row of W_S lies in the
    tensor product of R^{m_j} over j in S and span(1) over j outside S,
    which is the direct sum of the spaces of the Q_R with R <= S.  So
    Q Q* fixes every row of a set with positive weight, M M* =
    P^(1/2) W W* P^(1/2), and the nonzero singular values of M are
    those of P^(1/2) W.

    Split: the column blocks M_R = P^(1/2) W Q_R are mutually
    orthogonal, M_R* M_R' = 0 for R != R'.  Each set block of M_R* M_R'
    is a Kronecker product over the attributes of the set, and an
    attribute j in R but not in R' contributes A_j* u_j, which is zero,
    with A_j = C_j H_j[:, 1:], u_j = C_j 1 / sqrt(m_j) and C_j the
    circulant of the factor table phi_j: C_j maps the constant vector
    to a multiple of itself, and so does C_j*, and the columns of
    H_j[:, 1:] are orthogonal to 1.  So M* M is block diagonal, and
    ||M||_tr is the sum of the blocks' trace norms.  Without the
    orthogonality that sum could exceed ||M||_tr.

    Factored: the rows of a weighted set S >= R in M_R are scale_S
    times the Kronecker product of A_j for j in R and u_j for j in
    S - R, with scale_S = sqrt(p_S / |U_S|) prod_{j not in S} sqrt(m_j).
    So M_R* M_R = c_R kron_{j in R} A_j* A_j, with c_R the sum over the
    sets S >= R with p_S > 0 of scale_S^2 prod_{j in S - R} ||u_j||^2,
    and ||M_R||_tr = sqrt(c_R) prod_{j in R} ||A_j||_tr.  The value
    reads neither |phi^_j| nor a budget.SubsetPlan, so it stays
    independent of the mechanism's closed form sum_R G_R r_R.

    Singular values of A_j below RANK_CUTOFF times the largest singular
    value of C_j, ||u_j|| among them, are dropped from ||A_j||_tr: an
    exact zero comes only from a zero coefficient of phi^_j, so it is
    one attribute's, and it is judged against the scale of phi_j, which
    a zero coefficient does not shrink.  Only the attributes of the
    sets with positive weight are factored.
    """
    sizes = w.universe.domain_sizes
    tables = w.phi_tables()
    weighted = [(members, pS) for members, pS in zip(w.sets, w.weights)
                if pS > 0]
    # ||A_j||_tr and ||u_j||^2 per attribute
    norms = {j: _attribute_norms(tables[j])
             for j in sorted({j for members, _ in weighted for j in members})}
    c = _member_sums(weighted, [
        pS / w.universe.subuniverse_size(members)
        * math.prod(m for j, m in enumerate(sizes) if j not in members)
        for members, pS in weighted], {j: norms[j][1] for j in norms})
    trace = sum(math.sqrt(value) * math.prod(norms[j][0] for j in member)
                for member, value in c.items())
    return trace / math.sqrt(w.universe.size)


def _member_sums(weighted, scales, factors):
    """{R: sum over the sets S >= R of scales[S] prod_{j in S - R}
    factors[j]} for every member R of the downward closure of weighted,
    a list of (S, p_S) pairs with one scale each.

    One pass over the sets, in order, and over each set's subsets by
    size, then lexicographically; every term is the scale times the
    factors multiplied in attribute order.  Reads no budget.SubsetPlan.
    """
    sums = {}
    for (members, _), scale in zip(weighted, scales):
        for r in range(len(members) + 1):
            for member in itertools.combinations(members, r):
                sums[member] = sums.get(member, 0.0) + scale * math.prod(
                    factors[j] for j in members if j not in member)
    return sums


def _attribute_norms(table):
    """(||A_j||_tr, ||u_j||^2) of one factor table phi_j, with A_j =
    C_j H_j[:, 1:] and u_j = C_j 1 / sqrt(m_j) (see _trace_bound)."""
    table = np.asarray(table, dtype=float)
    m = len(table)
    circulant = table[(np.arange(m)[:, None] - np.arange(m)[None, :]) % m]
    basis = np.eye(m)
    basis[:, 0] = 1.0
    basis = np.linalg.qr(basis)[0]
    values = np.linalg.svd(circulant @ basis[:, 1:], compute_uv=False)
    u = circulant.sum(axis=1) / math.sqrt(m)
    outside = float(u @ u)
    largest = max(math.sqrt(outside), float(values.max(initial=0.0)))
    return float(values[values >= RANK_CUTOFF * largest].sum()), outside


def _blocks(total):
    """Consecutive slices covering range(total), BLOCK long but the last.

    BLAS computes a product in tiles counted from the start of its
    operands, and numpy sends a single row or column to a matrix-vector
    routine.  So blocks start at multiples of BLOCK, itself a multiple
    of every tile size, and a last block of one is merged into the one
    before: then each block of a product has the bits of the same block
    of the whole product.
    """
    parts = [slice(start, min(start + BLOCK, total))
             for start in range(0, total, BLOCK)]
    if len(parts) > 1 and parts[-1].stop - parts[-1].start == 1:
        parts[-2:] = [slice(parts[-2].start, total)]
    return parts


def _vector_norms(matrix, axis):
    """np.linalg.norm(matrix, axis=axis) of a 2-D matrix, a block of the
    kept axis at a time.

    Each block goes through np.linalg.norm's own arithmetic, the real
    part of conj(x) * x summed along axis, so every norm is the same
    float as from the whole matrix.
    """
    kept = 1 - axis
    out = np.empty(matrix.shape[kept])
    for part in _blocks(matrix.shape[kept]):
        x = matrix[(slice(None), part) if kept else part]
        s = (x.conj() * x).real
        out[part] = np.sqrt(np.add.reduce(s, axis=axis))
    return out


def _gram_residuals(fact):
    """max |L* P L - (sum tau)^2 E| and max |R R* - |U| E|, entrywise,
    over the upper block triangle of each Gram matrix.

    A Gram matrix is Hermitian, so its blocks below the diagonal hold
    nothing the ones above do not check.  For a column block of L* P L
    the rows of L come set by set, and L* P L is the sum over sets S of
    L_S* P_S L_S, with L_S the rows of S on the columns where they hold
    a nonzero.  Those columns are read off L itself, not off the
    supports S should carry, so a stray nonzero or a NaN anywhere in L
    enters the sum.  Each term is conj(L_S^T conj(P_S L_S)), with L_S
    gathered on the block's columns and those before it (a view when
    that is all of them), so neither Gram matrix, nor a conjugate of L
    or R, nor a copy of L is ever held.  The rows in a block of R R* are
    conj(conj(R_block) R^T) on the columns from the block on.  An empty
    pair has residuals 0.0.
    """
    L, R = fact.L, fact.R
    universe = fact.workload.universe
    lpl_diagonal = float(fact.tau.sum()) ** 2 * fact.E
    rr_diagonal = universe.size * fact.E
    # each set's rows of L and the columns they hold a nonzero in
    sets = []
    start = 0
    for members in fact.workload.sets:
        rows = slice(start, start + universe.subuniverse_size(members))
        sets.append((rows, np.flatnonzero((L[rows] != 0).any(axis=0))))
        start = rows.stop
    lpl = [0.0]
    rr = [0.0]
    for part in _blocks(L.shape[1]):
        inside = np.arange(part.stop - part.start)
        # conj of rows :part.stop of the column block part of L* P L
        block = np.zeros((part.stop, len(inside)), dtype=complex)
        for rows, carried in sets:
            before, stop = np.searchsorted(carried, [part.start, part.stop])
            if before == stop:
                continue
            if stop == part.stop:
                # the set carries every column up to the block's end
                ours = L[rows, :stop]
            else:
                cols = carried[:stop]
                ours = L[rows][:, cols]
            term = np.multiply(fact.P[rows, None], ours[:, before:])
            np.conjugate(term, out=term)
            term = ours.T @ term
            if stop == part.stop:
                block += term
            else:
                block[np.ix_(cols, cols[before:] - part.start)] += term
        np.conjugate(block, out=block)
        block[inside + part.start, inside] -= lpl_diagonal[part]
        lpl.append(np.abs(block).max())
        block = np.conjugate(R[part]) @ R[part.start:].T
        np.conjugate(block, out=block)
        block[inside, inside] -= rr_diagonal[part]
        rr.append(np.abs(block).max())
    return float(np.max(lpl)), float(np.max(rr))


def norm_report(fact):
    """Norms of the pair next to the trace-norm lower bound.

    The bound is computed from the workload's query definitions by
    _trace_bound, which reads neither L, R nor E, so agreement is
    evidence.
    """
    col = fact.col_norms
    row = fact.row_norms
    col_max = float(col.max())
    row_max = float(row.max())
    frob = float(math.sqrt(float((fact.P * row ** 2).sum())))
    return NormReport(col_max=col_max, frob_weighted=frob, row_max=row_max,
                      gammaF_value=frob * col_max,
                      gamma2_value=row_max * col_max,
                      svd_lower_bound=_trace_bound(fact.workload))


def svd_lower_bound(workload, p=None):
    """(1 / sqrt(|U|)) ||P^(1/2) W||_tr of the product form, from
    P^(1/2) W projected onto the closure's Kronecker basis, factored
    per attribute and per closure member (see _trace_bound).

    Valid for every factorization of W, whatever mechanism produced it:
    a projection never raises a trace norm, and this one keeps every
    nonzero singular value.  Forms no matrix of P^(1/2) W, so the
    universe and the query rows have no cap; the SVD of each attribute
    holds m_j x m_j matrices, so raises DenseTooLarge before any is
    allocated when an attribute of a weighted set is larger than
    DENSE_UNIVERSE_CAP.  Plans nothing.
    """
    w, _ = mechanism.product_form(normalize_weights(workload, p))
    sizes = w.universe.domain_sizes
    largest = max((sizes[j] for members, pS in zip(w.sets, w.weights)
                   if pS > 0 for j in members), default=0)
    if largest > DENSE_UNIVERSE_CAP:
        raise DenseTooLarge(
            f"attribute size {largest} exceeds the dense cap "
            f"{DENSE_UNIVERSE_CAP} of the trace bound's per-attribute SVD")
    return _trace_bound(w)


def realify_pair(L, R):
    """Real pair with the same product and the same row/column norms.

    Stacks real and imaginary parts: (Re L | Im L)(Re R ; -Im R) equals
    Re(L R), and squared norms add up exactly as in the complex pair.
    """
    L = np.asarray(L, dtype=complex)
    R = np.asarray(R, dtype=complex)
    return np.hstack([L.real, L.imag]), np.vstack([R.real, -R.imag])


def _drop_conjugate_rows(fact, L, R):
    """Keep one representative of each conjugate frequency pair.

    The partner of a negates every component mod its domain size and
    carries conjugate rows, so its two real rows repeat the kept ones up
    to sign; scaling the representative by sqrt(2) preserves the product
    and every norm.  Self-paired frequencies are real and lose only
    their zero imaginary row.
    """
    sizes = fact.workload.universe.domain_sizes
    index = {a: i for i, a in enumerate(fact.freqs)}
    k = len(fact.freqs)
    keep = []
    scale = []
    labels = []
    for i, a in enumerate(fact.freqs):
        partner = tuple((m - v) % m for v, m in zip(a, sizes))
        if partner not in index:
            keep += [i, k + i]
            scale += [1.0, 1.0]
            labels += [(a, "re"), (a, "im")]
        elif partner == a:
            keep.append(i)
            scale.append(1.0)
            labels.append((a, "re"))
        elif a < partner:
            keep += [i, k + i]
            scale += [math.sqrt(2.0), math.sqrt(2.0)]
            labels += [(a, "re"), (a, "im")]
    s = np.array(scale)
    return L[:, keep] * s[None, :], R[keep, :] * s[:, None], tuple(labels)


def realify(fact, drop_redundant=False):
    """Real form of a complex factorization, norms unchanged.

    With drop_redundant the conjugate-pair rows of R (and matching
    columns of L) are eliminated.
    """
    L, R = realify_pair(fact.L, fact.R)
    labels = tuple((a, "re") for a in fact.freqs) \
        + tuple((a, "im") for a in fact.freqs)
    if drop_redundant:
        L, R, labels = _drop_conjugate_rows(fact, L, R)
    return RealFactorization(L=L, R=R, P=fact.P, rows=fact.rows,
                             labels=labels)


def tightness_certificate(fact):
    """Numerical residuals of the exact-optimality conditions.

    lpl and rr check the diagonal identities L* P L = (sum tau)^2 E and
    R R* = |U| E; colnorm is the spread of the column norms of R, which
    the trace bound needs to be uniform; rownorm is how far the weighted
    rows of L fall short of the longest row, which vanishes exactly at
    the optimizing weights, over the rows of the sets with weight.
    """
    lpl_residual, rr_residual = _gram_residuals(fact)
    col = fact.col_norms
    row = fact.row_norms
    support = fact.P > 0
    rownorm = float(row.max() - row[support].min()) \
        if support.any() else float("inf")
    return {"lpl": lpl_residual, "rr": rr_residual,
            "colnorm": float(col.max() - col.min()), "rownorm": rownorm}


def _witness_plan(workload):
    """budget.SubsetPlan of the range-query test matrix over the
    original universe.

    Its spectrum's tables are the witness's coefficients c_j: f_j(0) =
    (m + 1) / 2 and f_j(a) = 1 / (1 - omega_m^-a) on every numerical
    attribute, the scaled ones, and ones on categorical attributes.  Its
    sum_R G_R r_R is the closed-form range bound: a numerical attribute
    adds sum_{a > 0} |f_j(a)| = m_j zeta(m_j) / 2 to G_R when in R and
    |f_j(0)|^2 = (m_j + 1)^2 / 4 to z_{S - R} when in S - R.
    """
    universe = workload.universe
    coeffs = []
    for m, kind in zip(universe.domain_sizes, universe.attribute_kind):
        if kind == NUMERICAL:
            f = np.empty(m, dtype=complex)
            f[0] = (m + 1) / 2.0
            a = np.arange(1, m)
            f[1:] = 1.0 / (1.0 - np.exp(-2j * np.pi * a / m))
            coeffs.append(f)
        else:
            coeffs.append(np.ones(m))
    scaled = tuple(j for j, kind in enumerate(universe.attribute_kind)
                   if kind == NUMERICAL)
    return budget.subset_plan(
        workload, fourier.PhiSpectrum(tables=tuple(coeffs), scaled=scaled))


def lower_bound_witness(workload, p=None):
    """The range-query test matrix, factored per attribute and per
    closure member (see LowerBoundWitness): no matrix, no SVD and no
    frequency is formed, so it runs at every size.  Checks nothing
    itself (see range_checks).
    """
    w = normalize_weights(workload, p)
    plan = _witness_plan(w)
    sizes = w.universe.domain_sizes
    coeffs = plan.spectrum.tables
    numerical = plan.spectrum.scaled
    weighted = [(members, pS) for members, pS in zip(w.sets, w.weights)
                if pS > 0]
    h = {}
    h0 = {}
    for j in sorted({j for members, _ in weighted for j in members}):
        m = sizes[j]
        c = coeffs[j]
        # g_j(a) = sum_t omega^(-a t) sum_{x <= t} omega^(a x), the DFT
        # of m - k, where w_j = 1{x <= t}; m where w_j is the identity
        g = np.fft.fft(m - np.arange(m)) if j in numerical \
            else np.full(m, float(m))
        h[j] = complex((np.conj(c[1:]) * g[1:] / np.abs(c[1:])).sum())
        h0[j] = complex(np.conj(c[0]) * g[0])
    cells = [w.universe.subuniverse_size(members) for members, _ in weighted]
    cube = _member_sums(weighted, [pS / n ** 3 for (_, pS), n
                                   in zip(weighted, cells)], h0)
    square = _member_sums(weighted, [pS / n ** 2 for (_, pS), n
                                     in zip(weighted, cells)],
                          {j: abs(coeffs[j][0]) ** 2 for j in h})
    roots = plan.roots(w.weights)
    root = dict(zip(plan.members, roots.tolist()))
    trace = abs(sum(math.prod(h[j] for j in member) / root[member] * value
                    for member, value in cube.items()))
    op_norm = max(math.sqrt(value) / root[member]
                  for member, value in square.items())
    return LowerBoundWitness(
        f_tables=tuple(c if j in numerical else None
                       for j, c in enumerate(coeffs)),
        trace_value=trace, op_norm=op_norm,
        closed_form=float(plan.gains @ roots), note=WITNESS_NOTE)


def range_checks(witness):
    """(name, value, limit) of the two checks of a range witness: the
    gap between trace_value and the closed form, relative to
    max(1, closed form), and how far op_norm exceeds 1."""
    return (
        ("range_trace_gap", abs(witness.trace_value - witness.closed_form)
         / max(1.0, witness.closed_form), 1e-8),
        ("range_op_norm_excess", max(0.0, witness.op_norm - 1.0), 1e-9),
    )


def extended_lower_bound(workload, p=None):
    """Error lower bound for range-marginal workloads, closed form.

    Every factorization that answers the prefix queries of these sets
    has weighted error at least this value.  The test matrix is checked
    at every size (see lower_bound_witness): its trace value must agree
    with the closed form and its operator norm be at most 1, or
    CertificateFailed is raised.
    """
    witness = lower_bound_witness(workload, p)
    failed = [f"{name} {value} exceeds {limit}"
              for name, value, limit in range_checks(witness)
              if not value <= limit]
    if failed:
        raise CertificateFailed(
            f"range witness check failed: {'; '.join(failed)}")
    return witness.closed_form
