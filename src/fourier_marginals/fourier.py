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
|R|-dimensional DFT of h_R.  fourier_queries therefore builds one
histogram per distinct support and transforms it with fftn, instead of
summing characters over the rows once per frequency.  The grid holds
prod_{j in R} m_j cells, which is never larger than the reconstruction
table of any set containing R.  Inputs too small to repay a histogram
per support take one vectorized character sum over all frequencies.

The inverse transform reconstructs per-target tables from coefficient
arrays; it runs through an FFT whose mixed-radix decomposition handles
arbitrary domain sizes, and is validated against a direct double-sum
reference.  Phases are accumulated as rational multiples of 2 pi before
a single complex exponential, which keeps characters on the unit circle
to near machine precision.

All functions are pure; tables are immutable after construction.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import AssignmentOutOfRange, FourierMarginalsError


class ShapeMismatch(FourierMarginalsError):
    """Coefficient array shape does not match the requested domain."""


@dataclass(frozen=True, eq=False)
class FourierTable:
    """Aggregate query values keyed by frequency vector.

    Only the frequencies that were actually requested are stored;
    reconstruction zero-fills the rest on demand, so memory stays
    proportional to the number of released frequencies.
    """

    universe: object
    entries: dict

    def value(self, a):
        return self.entries[tuple(a)]

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class PhiSpectrum:
    """Per-attribute factor coefficients phi_hat_j(0 .. m_j - 1)."""

    tables: tuple

    def magnitudes(self, j):
        return np.abs(self.tables[j])


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

    Indices are grouped by support R.  Per support, the rows' R-marginal
    histogram (prod_{j in R} m_j cells) is transformed by fftn, whose
    entry a[R] is F_a.  Small inputs, where numpy call overhead
    dominates, instead sum characters over the rows for all indices at
    once.  An empty dataset gives 0j everywhere.  |F_a| <= n up to
    rounding, and F_0 = n exactly.
    """
    universe = dataset.universe
    entries = {}
    by_support = {}
    for a in indices:
        a = _validate_index(universe, a)
        entries[a] = 0j
        support = tuple(j for j, v in enumerate(a) if v)
        by_support.setdefault(support, []).append(a)
    if dataset.n == 0:
        return FourierTable(universe=universe, entries=entries)
    terms = dataset.n * len(entries) * universe.d
    if terms <= DIRECT_TERMS_PER_SUPPORT * len(by_support):
        entries = _direct_sums(dataset, list(entries))
    else:
        entries.update(_histogram_sums(dataset, by_support))
    return FourierTable(universe=universe, entries=entries)


def _direct_sums(dataset, freqs):
    """F_a for every a in freqs, summing characters over the rows."""
    sizes = np.array(dataset.universe.domain_sizes, dtype=np.int64)
    a = np.array(freqs, dtype=np.int64).reshape(len(freqs), sizes.size)
    phases = ((a[:, None, :] * dataset.rows) % sizes) / sizes
    values = np.exp(-2j * np.pi * phases.sum(axis=2)).sum(axis=1)
    return dict(zip(freqs, values.tolist()))


def _histogram_sums(dataset, by_support):
    """F_a for every a in by_support's groups, one fftn per support."""
    sizes = dataset.universe.domain_sizes
    out = {}
    for support, group in by_support.items():
        if not support:
            out[group[0]] = complex(dataset.n)
            continue
        shape = tuple(sizes[j] for j in support)
        cells = np.ravel_multi_index(dataset.rows[:, support].T, shape)
        counts = np.bincount(cells, minlength=math.prod(shape))
        spectrum = np.fft.fftn(counts.reshape(shape))
        positions = np.array(group)[:, support]
        out.update(zip(group, spectrum[tuple(positions.T)].tolist()))
    return out


def phi_spectrum(phi):
    """Coefficients phi_hat_j(a) = sum_z phi_j(z) omega_j^(-a z).

    phi gives one real table of length m_j per attribute; each table is
    transformed by a length-m_j FFT.  The indicator of zero maps to the
    all-ones spectrum, which recovers plain marginals.
    """
    tables = []
    for values in phi:
        v = np.asarray(values, dtype=float)
        spectrum = np.fft.fft(v)
        spectrum.flags.writeable = False
        tables.append(spectrum)
    return PhiSpectrum(tables=tuple(tables))


def inverse_table(coeffs, expected_shape=None):
    """Table T[t] = sum_a coeffs[a] * prod_j omega_j^(a_j t_j).

    coeffs must cover the full product domain (missing frequencies are
    the caller's zeros).  Runs in O(N log N) through the inverse FFT,
    whose sign convention matches the character sum above.
    """
    c = np.asarray(coeffs, dtype=complex)
    if expected_shape is not None and c.shape != tuple(expected_shape):
        raise ShapeMismatch(f"coefficient shape {c.shape} != {tuple(expected_shape)}")
    if c.ndim == 0:
        raise ShapeMismatch("coefficient array must have at least one axis")
    return np.fft.ifftn(c) * c.size


def frequency_vectors(universe, members):
    """All frequency vectors supported exactly on the given attributes.

    Yields index tuples with a_j in {1, .., m_j - 1} for j in members and
    zero elsewhere, in row-major order of the nonzero coordinates.
    """
    members = tuple(members)
    d = universe.d
    if not members:
        yield (0,) * d
        return
    ranges = [range(1, universe.domain_sizes[j]) for j in members]
    for nonzero in itertools.product(*ranges):
        a = [0] * d
        for j, v in zip(members, nonzero):
            a[j] = v
        yield tuple(a)
