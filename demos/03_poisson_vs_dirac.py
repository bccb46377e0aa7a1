"""Show why count data wants a probability mass around each deviation score.

A leaf that saw 4 events against a forecast of 5 may be a real drop or just
Poisson luck; its deviation score is a guess, not a fact.  Treating the
score as exact (a point mass) works fine when forecasts are tight, but in a
noisy regime sampling jitter smears slice scores apart and point mass
clustering shatters one cause into fragments.  Modeling each leaf as the
distribution of scores its count could plausibly produce keeps the
fragments together.

The first part plots one leaf's score distribution as text.  The second
plants the same faults on a noisy count base and localizes each twice,
once with the Poisson score model and once with point masses, to show the
accuracy gap.

Run with:  python3 demos/03_poisson_vs_dirac.py  (under a minute)
"""

import time

import numpy as np

from rootdrill import SimulationParams, evaluate_fault, f1_score, simulate_fault, synthetic_base
from rootdrill.cluster import bin_center, leaf_distributions

# -- one leaf, two score models -------------------------------------------

v, f = 4, 5.0
print(f"leaf with real={v}, forecast={f}")
for name, family in (("dirac", "none"), ("poisson", "poisson")):
    dist = leaf_distributions(np.array([v], float), np.array([f]), family)
    top = dist.mass.max()
    print(f"\n{name} score distribution ({dist.bins.size} bins):")
    for b, m in zip(dist.bins, dist.mass):
        if m < 0.01:
            continue
        bar = "#" * max(1, round(40 * m / top))
        print(f"  {bin_center(b):+6.2f} {m:6.3f} {bar}")

# The Poisson model spreads the same unit of evidence over every score this
# count could have come from; a genuinely deviating slice overlaps its
# siblings under that spread even when their sampled counts differ.

# -- the gap it buys on noisy counts --------------------------------------

SIGMA = 0.20
CELLS = ((1, 1), (2, 2), (3, 2))
FAULTS_PER_CELL = 6

base = synthetic_base(n_attrs=4, n_values=8, mean_rate=50.0, seed=21, family="poisson")
print(f"\nnoisy count base: {base.n_leaves} leaves, "
      f"forecast noise sigma={SIGMA}")

# This regime is genuinely hard: forecasts are off by 20 percent on average,
# so absolute F1 sits well below the quiet-data numbers of the benchmark
# demo for both models.  The comparison, not the level, is the point.
t0 = time.perf_counter()
pool_p, pool_d = [], []
for n_element, layer in CELLS:
    faults = []
    for i in range(FAULTS_PER_CELL):
        rng = np.random.default_rng(42000 + 97 * i + 10 * n_element + layer)
        params = SimulationParams(n_element, layer, base_noise_sigma=SIGMA,
                                  leaf_noise_sigma=SIGMA)
        faults.append(simulate_fault(base, params, rng))
    ep = [evaluate_fault(x) for x in faults]
    ed = [evaluate_fault(x, family_override="none") for x in faults]
    pool_p += ep
    pool_d += ed
    print(f"cell ({n_element} causes, depth {layer}): "
          f"poisson F1={f1_score(ep):.2f}  dirac F1={f1_score(ed):.2f}")
margin = f1_score(pool_p) - f1_score(pool_d)
print(f"overall: poisson F1={f1_score(pool_p):.3f}  dirac F1={f1_score(pool_d):.3f}  "
      f"margin={margin:+.3f}")
print(f"total time: {time.perf_counter() - t0:.1f}s")
