"""Character, transform, and spectrum tests.

The fast transform paths are judged against the brute-force reference
module; orthonormality and reconstruction identities are checked
exhaustively on small universes.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_marginals import core, fourier, oracle

from conftest import datasets, frequency_vectors, universes


def character_matrix(universe):
    # X[row a, column x] = chi_a(x), built from coordinate grids
    sizes = universe.domain_sizes
    points = list(itertools.product(*(range(m) for m in sizes)))
    X = np.empty((len(points), len(points)), dtype=complex)
    coords = np.array(points, dtype=float)
    for i, a in enumerate(points):
        phase = (coords * (np.array(a) / np.array(sizes))).sum(axis=1)
        X[i] = np.exp(2j * np.pi * phase)
    return X, points


def test_character_zero_frequency_is_one():
    u = core.build_universe([3, 4])
    for x in itertools.product(range(3), range(4)):
        assert fourier.character(u, (0, 0), x) == 1


def test_character_binary_is_sign():
    u = core.build_universe([2, 2, 2])
    for a in itertools.product(range(2), repeat=3):
        for x in itertools.product(range(2), repeat=3):
            expected = (-1) ** (np.dot(a, x))
            assert fourier.character(u, a, x) == pytest.approx(expected)


def test_character_quarter_turn():
    u = core.build_universe([4])
    assert fourier.character(u, (1,), (1,)) == pytest.approx(1j)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_character_unit_modulus(data):
    u = data.draw(universes(max_d=3, max_m=6))
    a = tuple(data.draw(st.integers(0, m - 1)) for m in u.domain_sizes)
    x = tuple(data.draw(st.integers(0, m - 1)) for m in u.domain_sizes)
    assert abs(abs(fourier.character(u, a, x)) - 1.0) < 1e-12


@pytest.mark.parametrize("sizes", [(2,), (2, 3, 4), (5, 7), (8, 8, 8), (512,)])
def test_characters_orthonormal(sizes):
    u = core.build_universe(sizes)
    X, _ = character_matrix(u)
    gram = (X @ X.conj().T) / u.size
    np.testing.assert_allclose(gram, np.eye(u.size), atol=1e-10)


def reference_fourier_queries(dataset, indices):
    """F_a(D) = sum_i conj(chi_a(x_i)), one pass over the rows per index."""
    sizes = np.array(dataset.universe.domain_sizes, dtype=np.int64)
    entries = {}
    for a in indices:
        if dataset.n == 0:
            entries[tuple(a)] = 0j
            continue
        avec = np.array(a, dtype=np.int64)
        phases = ((dataset.rows * avec) % sizes) / sizes
        entries[tuple(a)] = complex(
            np.exp(-2j * np.pi * phases.sum(axis=1)).sum())
    return entries


@st.composite
def frequency_cases(draw):
    # small attributes, optionally one of size 512, so every support's
    # histogram grid stays small while long axes are still exercised
    sizes = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = 512
    u = core.build_universe(sizes)
    n = draw(st.sampled_from([0, 1, 2, 17, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.column_stack([rng.integers(0, m, size=n) for m in sizes])
    data = core.Dataset(universe=u, rows=rows.reshape(n, u.d))
    indices = []
    for j, m in enumerate(sizes):
        a = [0] * u.d
        a[j] = draw(st.integers(1, m - 1))
        indices.append(tuple(a))
    indices.extend(draw(st.lists(
        st.tuples(*(st.one_of(st.just(0), st.integers(0, m - 1))
                    for m in sizes)), max_size=12)))
    return data, indices


@given(frequency_cases())
@settings(max_examples=80, deadline=None)
def test_fourier_queries_match_per_row_sum(case):
    data, indices = case
    slow = reference_fourier_queries(data, indices)
    bound = 1e-9 * max(1, data.n)
    # a limit of 0 forces the histogram path, inf the direct sum
    for limit in (0, math.inf, fourier.DIRECT_TERMS_PER_SUPPORT):
        with mock.patch.object(fourier, "DIRECT_TERMS_PER_SUPPORT", limit):
            fast = fourier.fourier_queries(data, indices)
        assert fast.indices.tolist() == [list(a) for a in indices]
        for a, value in zip(indices, fast.values):
            assert abs(value - slow[a]) <= bound


def test_fourier_queries_paths_by_size():
    # the tiny release takes the direct sum, which reproduces the
    # per-row reference bit for bit; a larger dataset takes the
    # histogram path and agrees to rounding
    rng = np.random.default_rng(4)
    u = core.build_universe([2, 2, 2, 2])
    indices = [a for a in itertools.product(range(2), repeat=4)
               if sum(a) <= 2]
    for n, histogram in ((30, False), (5000, True)):
        data = core.Dataset(universe=u, rows=rng.integers(0, 2, (n, 4)))
        with mock.patch.object(fourier, "_histogram_sums",
                               wraps=fourier._histogram_sums) as spy:
            table = fourier.fourier_queries(data, indices)
        fast = dict(zip(indices, table.values.tolist()))
        assert spy.called == histogram
        slow = reference_fourier_queries(data, indices)
        if histogram:
            assert max(abs(fast[a] - slow[a]) for a in slow) <= 1e-9 * n
        else:
            assert fast == slow


def per_support_sums(dataset, indices):
    """F_a by one histogram and one fftn per support, as separate calls."""
    sizes = dataset.universe.domain_sizes
    out = {}
    for a in indices:
        support = tuple(j for j, v in enumerate(a) if v)
        if not support:
            out[a] = complex(dataset.n)
            continue
        shape = tuple(sizes[j] for j in support)
        cells = np.ravel_multi_index(dataset.rows[:, support].T, shape)
        counts = np.bincount(cells, minlength=math.prod(shape))
        spectrum = np.fft.fftn(counts.reshape(shape))
        out[a] = complex(spectrum[tuple(a[j] for j in support)])
    return out


def test_histogram_blocks_pass_over_each_grid_once_per_size_rows():
    # all 3-way supports of 8 size-10 attributes: 56 grids of 1,000
    # cells, 56,000 stacked cells against HISTOGRAM_BLOCK_CELLS = 16,384.
    # Each block's bincount spans every grid, so the blocks together
    # must span no more cells than one bincount per grid would.
    grids, size, n = 56, 1000, 2000
    u = core.build_universe([10] * 8)
    data = core.Dataset(universe=u, rows=np.random.default_rng(5).integers(
        0, 10, (n, 8)))
    indices = [tuple(1 + j % 9 if j in s else 0 for j in range(8))
               for s in itertools.combinations(range(8), 3)]
    expected = per_support_sums(data, indices)
    spanned = []
    bincount = np.bincount

    def counting(x, weights=None, minlength=0):
        out = bincount(x, weights, minlength)
        spanned.append(len(out))
        return out

    with mock.patch.object(np, "bincount", counting):
        table = fourier.fourier_queries(data, indices)
    assert len(indices) == grids and set(spanned) == {grids * size}
    assert sum(spanned) <= grids * (n + size)
    assert table.values.tobytes() == np.array(
        [expected[a] for a in indices]).tobytes()


@st.composite
def shared_shape_cases(draw):
    # sizes from a short list, so several supports share a grid shape
    # (attributes 0 and 1 always have equal sizes) and others do not
    sizes = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=2,
                          max_size=5))
    sizes[1] = sizes[0]
    u = core.build_universe(sizes)
    n = draw(st.sampled_from([1, 40, 700]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.column_stack([rng.integers(0, m, size=n) for m in sizes])
    everything = list(itertools.product(*(range(m) for m in sizes)))
    picks = draw(st.lists(st.integers(0, len(everything) - 1), min_size=1,
                          max_size=60, unique=True))
    return core.Dataset(universe=u, rows=rows), [everything[i] for i in picks]


@given(shared_shape_cases(), st.sampled_from([1, 7, 1 << 20]))
@settings(max_examples=60, deadline=None)
def test_shape_batched_sums_equal_per_support_sums(case, block):
    data, indices = case
    with mock.patch.object(fourier, "DIRECT_TERMS_PER_SUPPORT", 0), \
            mock.patch.object(fourier, "HISTOGRAM_BLOCK_CELLS", block):
        table = fourier.fourier_queries(data, indices)
    expected = per_support_sums(data, indices)
    assert table.indices.tolist() == [list(a) for a in indices]
    # bit for bit: the same counts and the same per-grid transforms
    assert table.values.tobytes() == np.array(
        [expected[a] for a in indices]).tobytes()


def test_fourier_queries_empty_support_and_empty_dataset():
    u = core.build_universe([3, 512])
    data = core.Dataset(universe=u, rows=np.array([[0, 5], [2, 511]]))
    table = fourier.fourier_queries(data, [(0, 0), (1, 0), (0, 0)])
    first, _, last = table.values.tolist()
    assert first == last == 2 and isinstance(first, complex)
    empty = core.Dataset(universe=u, rows=np.empty((0, 2), dtype=np.int64))
    table = fourier.fourier_queries(empty, [(0, 0), (2, 7)])
    assert table.values.tolist() == [0j, 0j]


def test_fourier_queries_validates_every_index():
    u = core.build_universe([2, 3])
    data = core.Dataset(universe=u, rows=np.array([[0, 1]]))
    for bad in [(0, 3), (2, 0), (0,), (0, 0, 0)]:
        with pytest.raises(core.AssignmentOutOfRange):
            fourier.fourier_queries(data, [(0, 0), bad])


def test_fourier_queries_zero_index_counts_rows():
    u = core.build_universe([2, 3])
    d = core.Dataset(universe=u, rows=np.array([[0, 1], [1, 2], [1, 0]]))
    table = fourier.fourier_queries(d, [(0, 0)])
    assert table.values.tolist() == [3]


def test_fourier_queries_balanced_binary_column():
    u = core.build_universe([2])
    d = core.Dataset(universe=u, rows=np.array([[0], [1]]))
    table = fourier.fourier_queries(d, [(1,)])
    assert table.values[0] == pytest.approx(0.0, abs=1e-12)


def test_fourier_queries_single_row():
    u = core.build_universe([2, 2])
    d = core.Dataset(universe=u, rows=np.array([[0, 0]]))
    table = fourier.fourier_queries(d, [(1, 1)])
    assert table.values[0] == pytest.approx(1.0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_unit_sensitivity(data):
    u = data.draw(universes(max_d=3, max_m=5))
    d = data.draw(datasets(u, max_rows=6))
    extra = tuple(data.draw(st.integers(0, m - 1)) for m in u.domain_sizes)
    bigger = core.Dataset(universe=u,
                          rows=np.vstack([d.rows.reshape(-1, u.d),
                                          np.array([extra])]))
    indices = [tuple(data.draw(st.integers(0, m - 1))
                     for m in u.domain_sizes) for _ in range(3)]
    before = fourier.fourier_queries(d, indices)
    after = fourier.fourier_queries(bigger, indices)
    for change in after.values - before.values:
        assert abs(abs(change) - 1.0) < 1e-12


def test_phi_spectrum_indicator_is_flat():
    spectrum = fourier.phi_spectrum([[1.0, 0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(spectrum.tables[0], np.ones(3), atol=1e-15)
    np.testing.assert_allclose(spectrum.tables[1], np.ones(2), atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_phi_spectrum_prefix_on_doubled_domain(m):
    # indicator of {0..m-1} inside a domain of size 2m
    phi = [1.0] * m + [0.0] * m
    spectrum = fourier.phi_spectrum([phi])
    table = spectrum.tables[0]
    assert table[0] == pytest.approx(m)
    for a in range(1, 2 * m):
        expected = 1.0 / np.sin(np.pi * a / (2 * m)) ** 2 if a % 2 else 0.0
        assert abs(table[a]) ** 2 == pytest.approx(expected, abs=1e-9)


def test_phi_spectrum_zero_function():
    spectrum = fourier.phi_spectrum([[0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(spectrum.tables[0], 0)


def test_inverse_table_zeros():
    out = fourier.inverse_table(np.zeros((3, 2), dtype=complex))
    np.testing.assert_array_equal(out, 0)


def test_inverse_table_dc_constant():
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0] = 1.5 + 0.5j
    np.testing.assert_allclose(fourier.inverse_table(c), 1.5 + 0.5j)


def test_inverse_table_shape_check():
    with pytest.raises(fourier.ShapeMismatch):
        fourier.inverse_table(np.zeros((2, 2), dtype=complex),
                              expected_shape=(2, 3))
    # a stack is checked on its trailing axes
    for shape, expected in (((4, 2, 3), (2, 4)), ((4, 2, 3), (4, 3)),
                            ((3,), (2, 3)), ((5, 3), ())):
        with pytest.raises(fourier.ShapeMismatch):
            fourier.inverse_table(np.zeros(shape, dtype=complex),
                                  expected_shape=expected)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_inverse_table_stack_equals_separate_calls(data):
    # grids stacked on leading axes come out bit for bit as one
    # inverse_table call per grid
    shape = tuple(data.draw(st.integers(1, 6))
                  for _ in range(data.draw(st.integers(1, 3))))
    lead = tuple(data.draw(st.integers(1, 4))
                 for _ in range(data.draw(st.integers(1, 2))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    c = rng.normal(size=lead + shape) + 1j * rng.normal(size=lead + shape)
    stacked = fourier.inverse_table(c, expected_shape=shape)
    separate = [fourier.inverse_table(grid, expected_shape=shape)
                for grid in c.reshape((-1,) + shape)]
    assert stacked.shape == c.shape
    assert stacked.tobytes() == np.array(separate).tobytes()


@pytest.mark.parametrize("shape", [(2,), (17,), (5, 7, 9), (2, 3, 4, 5),
                                   (1024,), (3, 5, 49)])
def test_inverse_table_matches_direct_sum(shape):
    rng = np.random.default_rng(hash(shape) % 2 ** 32)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fast = fourier.inverse_table(c)
    slow = oracle.naive_inverse(c)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_inverse_table_matches_direct_sum_random_shapes(data):
    ndim = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(2, 6)) for _ in range(ndim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    np.testing.assert_allclose(fourier.inverse_table(c),
                               oracle.naive_inverse(c), atol=1e-10)


def reconstruct_marginal_table(dataset, members, phi=None):
    """Noiseless reconstruction of one set's table from F_a values."""
    u = dataset.universe
    sub_sizes = u.subdomain_sizes(members)
    indices = []
    for r in range(len(members) + 1):
        for sub in itertools.combinations(members, r):
            indices.extend(frequency_vectors(u, sub))
    table = fourier.fourier_queries(dataset, indices)
    coeffs = np.zeros(sub_sizes, dtype=complex)
    if phi is not None:
        spectrum = fourier.phi_spectrum(phi)
    for a, value in zip(indices, table.values):
        pos = tuple(a[j] for j in members)
        if phi is not None:
            for j in members:
                value *= spectrum.tables[j][a[j]]
        coeffs[pos] = value
    dense = fourier.inverse_table(coeffs, expected_shape=sub_sizes)
    size = u.subuniverse_size(members)
    return np.real(dense) / size


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_noiseless_reconstruction_equals_marginals(data):
    u = data.draw(universes(max_d=3, max_m=4))
    d = data.draw(datasets(u, max_rows=6))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(0, u.d - 1), min_size=1))))
    rebuilt = reconstruct_marginal_table(d, members)
    for t in itertools.product(*(range(u.domain_sizes[j]) for j in members)):
        assert rebuilt[t] == pytest.approx(
            core.marginal_eval(d, members, t), abs=1e-8)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_noiseless_reconstruction_equals_product_queries(data):
    u = data.draw(universes(max_d=2, max_m=4))
    d = data.draw(datasets(u, max_rows=5))
    members = tuple(range(u.d))
    phi = [[data.draw(st.integers(-2, 2)) * 0.5 for _ in range(m)]
           for m in u.domain_sizes]
    rebuilt = reconstruct_marginal_table(d, members, phi=phi)
    dw = oracle.dense_workload(u.domain_sizes, [members], [1.0],
                               kind="product", phi=phi,
                               data_rows=[tuple(r) for r in d.rows])
    expected = dw.W @ dw.h
    for (_, t), value in zip(dw.rows, expected):
        assert rebuilt[t] == pytest.approx(value, abs=1e-8)


def test_frequency_vectors_enumeration():
    u = core.build_universe([2, 3, 4])
    vecs = list(frequency_vectors(u, (0, 2)))
    assert len(vecs) == (2 - 1) * (4 - 1)
    for a in vecs:
        assert a[1] == 0 and a[0] != 0 and a[2] != 0
    assert list(frequency_vectors(u, ())) == [(0, 0, 0)]
