"""Characters, aggregate frequency queries, and fast transforms.

Over a product domain with sizes (m_1, .., m_d) the character of a
frequency vector a evaluated at a point x is

    chi_a(x) = prod_j omega_j^(a_j x_j),    omega_j = exp(2 pi i / m_j),

and a dataset D is summarized by the aggregate queries
F_a(D) = sum_i conj(chi_a(x_i)).  F_0(D) is the dataset size, every F_a
has modulus at most the dataset size, and adding or removing one row
moves each F_a by a unit complex number, which is what makes these the
right quantities to privatize.

For a frequency supported on R = supp(a), F_a depends on the rows only
through their R-marginal histogram h_R: it is the entry a[R] of the
|R|-dimensional DFT of h_R.  fourier_queries therefore histograms the
rows once per distinct support instead of summing characters over the
rows once per frequency.  Supports whose grids have the same shape are
stacked: one bincount fills all their histograms and one fftn over the
trailing axes transforms them, so the numpy calls grow with the number
of grid shapes, not of supports.  The grid holds prod_{j in R} m_j
cells, which is never larger than the reconstruction table of any set
containing R.  Inputs too small to repay the histograms take one
vectorized character sum over all frequencies.

The inverse transform reconstructs per-target tables from coefficient
arrays, a whole stack of grids of one shape per call.  It runs through
an FFT whose mixed-radix decomposition handles arbitrary domain sizes,
and is validated against a direct double-sum reference.  Phases are
accumulated as rational multiples of 2 pi before a single complex
exponential, which keeps characters on the unit circle to near machine
precision.

All functions are pure; tables are immutable after construction.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import AssignmentOutOfRange, FourierMarginalsError


class ShapeMismatch(FourierMarginalsError):
    """Coefficient array shape does not match the requested domain."""


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Aggregate query values of the requested frequencies.

    indices is the (k, d) array of the requested frequency vectors and
    values holds F_a for each, in request order.  supports holds each
    distinct support once, as a boolean row in lexicographic order, and
    support_of[i] is the row that indices[i] lies on.  The arrays are
    read-only.  Only the requested frequencies are stored; reconstruction
    zero-fills the rest, so memory stays proportional to the released
    frequencies.
    """

    universe: object
    indices: np.ndarray
    values: np.ndarray
    supports: np.ndarray
    support_of: np.ndarray

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True, eq=False)
class PhiSpectrum:
    """Per-attribute factor coefficients phi_hat_j(0 .. m_j - 1).

    The table of every attribute outside scaled is exactly one
    everywhere, so a product over attributes need only read the scaled
    ones.  magnitudes maps each scaled attribute to its |phi_hat_j|,
    computed once.
    """

    tables: tuple
    scaled: tuple
    magnitudes: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "magnitudes", {
            j: np.abs(self.tables[j]) for j in self.scaled})


def _validate_index(universe, a):
    a = tuple(int(v) for v in a)
    if len(a) != universe.d:
        raise AssignmentOutOfRange(f"frequency vector length {len(a)} != {universe.d}")
    for v, m in zip(a, universe.domain_sizes):
        if not 0 <= v < m:
            raise AssignmentOutOfRange(f"frequency component {v} outside [0, {m})")
    return a


def character(universe, a, x):
    """chi_a(x), a unit-modulus complex number."""
    a = _validate_index(universe, a)
    x = _validate_index(universe, x)
    phase = 0.0
    for aj, xj, m in zip(a, x, universe.domain_sizes):
        phase += ((aj * xj) % m) / m
    return complex(np.exp(2j * np.pi * phase))


# Summing characters costs about 35 ns per (frequency, row, attribute)
# term; a histogram and its fftn cost about 30 us per support.  Below
# this many terms per support the direct sum is the cheaper of the two.
DIRECT_TERMS_PER_SUPPORT = 1000


def fourier_queries(dataset, indices):
    """Aggregate queries F_a(D) = sum_i conj(chi_a(x_i)) for each index.

    The indices are validated with one vectorized comparison and
    grouped by support R.  Supports are grouped again by the shape of
    their grids (prod_{j in R} m_j cells): per shape, one bincount
    fills the rows' R-marginal histogram of every support, one fftn
    transforms the stack, and F_a is read at a[R] with one fancy
    index.  Small inputs, where numpy call overhead dominates, instead
    sum characters over the rows for all indices at once.  An empty
    dataset gives 0j everywhere.  |F_a| <= n up to rounding, and
    F_0 = n exactly.  The values come back in the order of indices.
    """
    universe = dataset.universe
    a = _index_array(universe, indices)
    supports, support_of = _group_rows(a != 0)
    terms = dataset.n * len(a) * universe.d
    if dataset.n == 0 or not len(a):
        values = np.zeros(len(a), dtype=complex)
    elif terms <= DIRECT_TERMS_PER_SUPPORT * len(supports):
        values = _direct_sums(dataset, a)
    else:
        values = _histogram_sums(dataset, a, supports, support_of)
    for array in (a, values, supports, support_of):
        array.flags.writeable = False
    return FourierTable(universe=universe, indices=a, values=values,
                        supports=supports, support_of=support_of)


def _index_array(universe, indices):
    """indices as a (k, d) int64 array, checked against the domain.

    An ndarray is taken as it is, other input as a list.  Only input
    that fails the vectorized check is walked index by index, so that
    the error names the first offending index.  The array returned is
    never the caller's own object.
    """
    if not isinstance(indices, np.ndarray):
        indices = list(indices)
    shape = (len(indices), universe.d)
    try:
        a = np.asarray(indices, dtype=np.int64).view()
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and not len(indices):
        a = a.reshape(shape)
    if a is None or a.shape != shape or (a < 0).any() \
            or (a >= np.array(universe.domain_sizes)).any():
        a = np.array([_validate_index(universe, index) for index in indices],
                     dtype=np.int64).reshape(shape)
    return a


def _direct_sums(dataset, a):
    """F_a for every row of a, summing characters over the rows."""
    sizes = np.array(dataset.universe.domain_sizes, dtype=np.int64)
    phases = ((a[:, None, :] * dataset.rows) % sizes) / sizes
    return np.exp(-2j * np.pi * phases.sum(axis=2)).sum(axis=1)


# Number of (support, row) cells one bincount call takes; larger inputs
# are histogrammed in blocks of rows.  Small blocks bound the memory and
# stay in cache: on all pairs of 12 size-4 attributes, 1 << 14 was faster
# than 1 << 12 or 1 << 20 at both 2,000 and 10^6 rows.  A block never
# holds fewer rows than one grid has cells, since each block's bincount
# also costs one pass over every grid's cells.
HISTOGRAM_BLOCK_CELLS = 1 << 14


def _histogram_sums(dataset, a, supports, support_of):
    """F_a for every row of a, one bincount and fftn per grid shape."""
    sizes = np.array(dataset.universe.domain_sizes, dtype=np.int64)
    # a support's grid shape is the sizes of its attributes in order;
    # sorting them ahead of the 1s gives equal shapes equal rows
    shapes, shape_of = _group_rows(np.take_along_axis(
        np.where(supports, sizes, 1),
        np.argsort(~supports, axis=1, kind="stable"), axis=1))
    local = np.empty(len(supports), dtype=np.intp)
    values = np.empty(len(a), dtype=complex)
    for k, row in enumerate(shapes):
        group = np.flatnonzero(shape_of == k)
        freqs = np.flatnonzero(shape_of[support_of] == k)
        shape = tuple(int(m) for m in row if m > 1)
        if not shape:
            values[freqs] = dataset.n
            continue
        # each support's attributes, and the grid's row-major steps
        columns = supports[group].nonzero()[1].reshape(len(group),
                                                       len(shape))
        steps = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
        size = math.prod(shape)
        counts = _stacked_histograms(dataset.rows, columns, steps, size)
        spectrum = np.fft.fftn(counts.reshape((len(group),) + shape),
                               s=shape, axes=tuple(range(1, len(shape) + 1)))
        local[group] = np.arange(len(group))
        grid = local[support_of[freqs]]
        cell = np.take_along_axis(a[freqs], columns[grid], axis=1) @ steps
        values[freqs] = spectrum.reshape(len(group), size)[grid, cell]
    return values


def _stacked_histograms(rows, columns, steps, size):
    """Histograms of the rows over len(columns) grids of one shape.

    Grid g reads attributes columns[g] with row-major steps; the grids
    lie end to end, so one bincount per block of rows fills them all.
    A block takes at least size rows, so the blocks' bincounts pass over
    at most grids * (n + size) cells in all, as one bincount per grid.
    """
    grids = len(columns)
    counts = np.zeros(grids * size, dtype=np.int64)
    offsets = (np.arange(grids) * size)[:, None]
    block = max(HISTOGRAM_BLOCK_CELLS // grids, size)
    for start in range(0, len(rows), block):
        part = np.ascontiguousarray(rows[start:start + block].T)
        cells = offsets + part[columns[:, 0]] * steps[0]
        for p in range(1, len(steps)):
            cells += part[columns[:, p]] * steps[p]
        counts += np.bincount(cells.ravel(), minlength=grids * size)
    return counts


def _group_rows(x):
    """Distinct rows of a 2-D array (lexicographic) and each row's."""
    order = np.lexsort(x.T[::-1])
    ordered = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    labels = np.empty(len(x), dtype=np.intp)
    labels[order] = np.cumsum(first) - 1
    return ordered[first], labels


def phi_spectrum(phi):
    """Coefficients phi_hat_j(a) = sum_z phi_j(z) omega_j^(-a z).

    phi gives one real table of length m_j per attribute; each table is
    transformed by a length-m_j FFT.  The indicator of zero maps to the
    all-ones spectrum up to rounding; plain marginals take the exact
    unit_spectrum instead.  The tables are read-only.
    """
    tables = tuple(np.fft.fft(np.asarray(values, dtype=float))
                   for values in phi)
    for table in tables:
        table.flags.writeable = False
    return PhiSpectrum(tables=tables, scaled=tuple(
        j for j, table in enumerate(tables) if not (table == 1).all()))


def unit_spectrum(sizes):
    """The spectrum of plain marginals over the domain sizes: exact
    ones, where phi_spectrum of the indicator of zero can round away
    from 1 (first at m = 89).  Attributes of one size share one
    read-only table, a zero-stride view of a single one, so no domain
    size allocates memory."""
    ones = {m: np.broadcast_to(np.complex128(1), (m,)) for m in set(sizes)}
    return PhiSpectrum(tables=tuple(ones[m] for m in sizes), scaled=())


def inverse_table(coeffs, expected_shape=None):
    """Table T[t] = sum_a coeffs[a] * prod_j omega_j^(a_j t_j).

    coeffs must cover the full product domain (missing frequencies are
    the caller's zeros).  With expected_shape, coeffs may stack several
    grids of that shape along leading axes: the trailing axes must
    match it, and each grid is transformed on its own, in one call.
    Runs in O(N log N) through the inverse FFT, whose sign convention
    matches the character sum above.
    """
    c = np.asarray(coeffs, dtype=complex)
    shape = c.shape if expected_shape is None else tuple(expected_shape)
    if len(shape) > c.ndim or c.shape[c.ndim - len(shape):] != shape:
        raise ShapeMismatch(f"coefficient shape {c.shape} does not end "
                            f"with {shape}")
    if not shape:
        raise ShapeMismatch("coefficient array must have at least one axis")
    # s given with axes skips numpy's own shape lookup, a large share of
    # the call on small grids
    axes = tuple(range(c.ndim - len(shape), c.ndim))
    return np.fft.ifftn(c, s=shape, axes=axes) * math.prod(shape)
