"""A fixed reference computation, timed next to every operation.

The machine this benchmark runs on is shared, and its speed drifts by
20 to 45 percent over minutes.  Timing this computation just before
and just after each operation (each 0.25 s of operations, for short
ones) measures the machine's speed at that moment, so the ratio of the
operation's time to it (`op_time_ref`) is free of most of the drift;
the operation's own seconds are reported beside it.

The computation does what the package does, in the same libraries: a
phase sum over rows as in `fourier.fourier_queries`, an SVD through
LAPACK as in `factorization`, `json.dumps` as in the CLI, and a plain
Python loop.  Its inputs are fixed and independent of --seed, so the
same code does the same work on every run and every commit.
"""

import json
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20251221)
_ROWS = _RNG.integers(0, 4, (2000, 12))
_FREQS = _RNG.integers(0, 4, (40, 12))
_SIZES = np.full(12, 4)
_MATRIX = _RNG.random((300, 300))
_DOC = {"table": [[float(x) for x in row] for row in _RNG.random((150, 20))]}
_LOOP = 20_000


def compute():
    """The reference computation; returns a value so none of it is dead."""
    total = 0j
    for a in _FREQS:
        phases = ((_ROWS * a) % _SIZES) / _SIZES
        total += complex(np.exp(-2j * np.pi * phases.sum(axis=1)).sum())
    total += float(np.linalg.svd(_MATRIX, compute_uv=False)[0])
    total += len(json.dumps(_DOC))
    count = 0
    for i in range(_LOOP):
        count += i & 7
    return total + count


def seconds():
    """Wall time of one reference computation."""
    start = perf_counter()
    compute()
    return perf_counter() - start
