"""Answer prefix and suffix range queries on an ordered attribute.

Numerical attributes support range targets: how many rows have age at
most t, or at least s, optionally combined with equalities on the
categorical attributes.  Internally the attribute is embedded into a
domain of twice its size where one circular window function answers
every prefix and suffix at once, so the whole family costs a single
budget rather than one per threshold.

Negative targets select suffixes: estimate((1,), (-3,)) reads
"count of rows with attribute 1 at value 3 or above".
"""

import numpy as np

from fourier_marginals import budget, core, factorization, mechanism

rng = np.random.default_rng(11)

universe = core.build_universe((2, 8), ("categorical", "numerical"))
rows = np.column_stack([rng.integers(0, 2, size=400),
                        rng.binomial(7, 0.45, size=400)])
data = core.Dataset(universe=universe, rows=rows)

workload = core.Workload(universe=universe, sets=((0, 1), (1,)),
                         weights=np.array([0.5, 0.5]), kind="extended")

result = mechanism.release_extended(
    data, workload, mu=1.0, sampler=budget.SeededSampler(3))

print(f"{data.n} rows; attribute 1 ranges over 0..7; mu = 1\n")
print("prefix counts  P(x1 <= t):")
for t in range(8):
    est = result.estimate((1,), (t,))
    exact = int((rows[:, 1] <= t).sum())
    print(f"  t = {t}: released {est:8.1f}   exact {exact}")

print("\nsuffix counts  P(x1 >= s), negative targets:")
for s in (2, 5, 7):
    est = result.estimate((1,), (-s,))
    exact = int((rows[:, 1] >= s).sum())
    print(f"  s = {s}: released {est:8.1f}   exact {exact}")

est = result.estimate((0, 1), (1, -4))
exact = int(((rows[:, 0] == 1) & (rows[:, 1] >= 4)).sum())
print(f"\njoint query x0 = 1 and x1 >= 4: released {est:.1f}, exact {exact}")

# the achieved error sits between a certified floor and the prediction
lower = factorization.extended_lower_bound(workload)
upper = mechanism.predicted_error(workload)["weighted_rms"]
print(f"\nweighted RMS: certified floor {lower:.4f} <= "
      f"predicted {upper:.4f} (ratio {lower / upper:.3f})")
