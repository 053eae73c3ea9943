"""Shared strategies and adapters for the test suite."""

import itertools

import numpy as np
from hypothesis import strategies as st

from fourier_marginals import budget, core, mechanism


def reference_canonical_sets(sets, d):
    """Workload's canonical sets as it built them with one generator per
    set, raising what it raised, in the same order."""
    canon = tuple(tuple(sorted(int(j) for j in s)) for s in sets)
    for s in canon:
        if s and (s[0] < 0 or s[-1] >= d):
            raise core.AssignmentOutOfRange(f"set {s} outside [0, {d})")
        if len(set(s)) != len(s):
            raise core.AssignmentOutOfRange(f"set {s} repeats an attribute")
    if len(set(canon)) != len(canon):
        raise core.AssignmentOutOfRange("duplicate sets in workload")
    return canon


@st.composite
def universes(draw, max_d=3, max_m=4, kinds=(core.CATEGORICAL,)):
    d = draw(st.integers(1, max_d))
    sizes = draw(st.lists(st.integers(2, max_m), min_size=d, max_size=d))
    kind_list = draw(st.lists(st.sampled_from(kinds), min_size=d, max_size=d))
    return core.build_universe(sizes, kind_list)


@st.composite
def set_families(draw, d, max_sets=3):
    subsets = []
    for r in range(1, d + 1):
        subsets.extend(_combinations(range(d), r))
    family = draw(st.lists(st.sampled_from(subsets), min_size=1,
                           max_size=min(max_sets, len(subsets)),
                           unique=True))
    return tuple(family)


def _combinations(pool, r):
    return list(itertools.combinations(pool, r))


@st.composite
def workloads(draw, max_d=3, max_m=4, max_sets=3, kind="marginal",
              positive=False):
    universe = draw(universes(max_d=max_d, max_m=max_m))
    sets = draw(set_families(universe.d, max_sets=max_sets))
    low = 0.1 if positive else 0.0
    weights = draw(st.lists(st.floats(low, 1.0, allow_nan=False),
                            min_size=len(sets), max_size=len(sets)))
    if sum(weights) == 0:
        weights[0] = 1.0
    return core.Workload(universe=universe, sets=sets,
                         weights=np.array(weights))


@st.composite
def datasets(draw, universe, max_rows=8):
    n = draw(st.integers(0, max_rows))
    rows = [[draw(st.integers(0, m - 1)) for m in universe.domain_sizes]
            for _ in range(n)]
    arr = np.array(rows, dtype=np.int64).reshape(n, universe.d)
    return core.Dataset(universe=universe, rows=arr)


RELEASES = {"marginal": mechanism.release_marginals,
            "product": mechanism.release_product,
            "extended": mechanism.release_extended}


@st.composite
def releases(draw):
    """(result, names): a seeded release of a small marginal, product or
    extended workload, sometimes with the empty set, and attribute
    labels for it."""
    kind = draw(st.sampled_from(sorted(RELEASES)))
    kinds = (core.CATEGORICAL, core.NUMERICAL) if kind == "extended" \
        else (core.CATEGORICAL,)
    universe = draw(universes(max_d=3, max_m=3, kinds=kinds))
    sets = draw(set_families(universe.d, max_sets=3))
    if draw(st.booleans()):
        sets = ((),) + sets
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(sets),
                            max_size=len(sets)))
    phi = None
    if kind == "product":
        phi = tuple(tuple(draw(st.lists(st.floats(0.1, 2.0), min_size=m,
                                        max_size=m)))
                    for m in universe.domain_sizes)
    workload = core.Workload(universe=universe, sets=sets,
                             weights=np.array(weights), kind=kind, phi=phi)
    dataset = draw(datasets(universe, max_rows=5))
    sampler = budget.SeededSampler(draw(st.integers(0, 2 ** 32 - 1)))
    result = RELEASES[kind](dataset, workload, mu=1.0, sampler=sampler)
    names = draw(st.lists(st.text(max_size=4), min_size=universe.d,
                          max_size=universe.d, unique=True))
    return result, names


def frequency_vectors(universe, members):
    """All frequency vectors supported exactly on the given attributes:
    a_j in 1 .. m_j - 1 for j in members and zero elsewhere, as tuples
    in row-major order of the nonzero coordinates.  The per-frequency
    enumerator the reference computations walk."""
    members = tuple(members)
    ranges = [range(1, universe.domain_sizes[j]) for j in members]
    for nonzero in itertools.product(*ranges):
        a = [0] * universe.d
        for j, v in zip(members, nonzero):
            a[j] = v
        yield tuple(a)


def workload_primitives(workload):
    """Plain-value view of a workload for the reference module."""
    return {
        "sizes": workload.universe.domain_sizes,
        "sets": workload.sets,
        "weights": np.asarray(workload.weights),
        "attr_kinds": workload.universe.attribute_kind,
    }
