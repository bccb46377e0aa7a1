"""Abnormality detection and grouping of leaves by deviation score.

Three stages live here.  A knee threshold on absolute residuals separates
abnormal leaves from background noise.  Each abnormal leaf then gets a
distribution over deviation scores: a single spike when observed values are
taken at face value, or a spread of scores weighted by Poisson likelihood when
the measure is a count and sampling noise matters.  Finally the accumulated
score density is cut at its local minima, so leaves whose scores plausibly
agree end up in the same cluster and are explained together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .ripple import MeaninglessPairError, deviation_score

# score grid: 201 bins of width 0.01 covering [-1, 1]
N_BINS = 201
SCORE_STEP = 0.01

# a distribution term below this likelihood is noise, not signal
PMF_CUTOFF = 1e-6


def bin_of(score: float | np.ndarray) -> np.ndarray:
    """Grid bin index of a deviation score."""
    idx = np.round((np.asarray(score) + 1.0) / SCORE_STEP).astype(int)
    return np.clip(idx, 0, N_BINS - 1)


def bin_center(idx: int | np.ndarray) -> np.ndarray:
    return -1.0 + np.asarray(idx) * SCORE_STEP


# -- knee threshold --------------------------------------------------------


# the x axis of the residual CDF ends at this cumulative fraction
KNEE_WINSOR_Q = 0.995
# a gap this wide, as a share of the residual range, separates the tail
KNEE_GAP_FRAC = 0.1
# the nudge past the knee gives up after this much more of the leaf mass
KNEE_SNAP_MASS = 0.005


def knee_threshold(residuals: np.ndarray) -> float:
    """Residual value after which leaves count as abnormal.

    Works on the empirical CDF of absolute residuals.  The bulk of leaves
    carries small forecast error and the curve climbs steeply; genuinely
    deviating leaves sit on the long flat tail.  The threshold is the point of
    maximum gap between the normalized CDF and the diagonal (the knee), nudged
    forward to just before the first wide gap in the sorted values so that a
    cleanly separated tail is never split.

    The x axis is normalized by the value at cumulative fraction
    ``KNEE_WINSOR_Q`` rather than the maximum, so a single extreme outlier
    cannot flatten the whole curve.  A wide gap spans at least
    ``KNEE_GAP_FRAC`` of the full range, and the forward nudge gives up after
    ``KNEE_SNAP_MASS`` additional mass.  Degenerate inputs (under three
    distinct values) have no knee and fall back to the median.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("no residuals")
    vals, counts = np.unique(r, return_counts=True)
    n = r.size
    if vals.size < 3:
        return float(np.median(r))
    cum = np.cumsum(counts)
    frac = cum / n
    if frac[0] >= 0.5:
        # majority of leaves already sit at the smallest residual: everything
        # above it is tail
        return float(vals[0])
    hi = vals[min(int(np.searchsorted(frac, KNEE_WINSOR_Q, side="left")), vals.size - 1)]
    lo = vals[0]
    span = hi - lo
    if span <= 0:
        return float(vals[0])
    x = np.clip((vals - lo) / span, 0.0, 1.0)
    y = (frac - frac[0]) / (1.0 - frac[0]) if frac[0] > 0 else frac
    k = int(np.argmax(y - x))
    # the nudge: the first wide gap from the knee on, before the mass passes the limit
    stop = np.searchsorted(cum, cum[k] + KNEE_SNAP_MASS * n, side="right")
    wide = np.flatnonzero(np.diff(vals[k:stop + 1]) >= KNEE_GAP_FRAC * (vals[-1] - vals[0]))
    return float(vals[k + wide[0]] if wide.size else vals[k])


# -- score mass of the abnormal leaves -------------------------------------

# candidate-rate terms evaluated at once: bounds the temporaries of stage 2
BLOCK_TERMS = 1 << 16


@dataclass(frozen=True, eq=False)
class ScoreMass:
    """Deviation-score mass of a run of leaves over the grid.

    Terms are sorted by leaf, then by bin: leaf ``i`` owns
    ``bins[ptr[i]:ptr[i + 1]]`` and the matching ``mass``, which sums to 1.
    Iterating yields one-leaf slices of the same type.
    """

    ptr: np.ndarray
    bins: np.ndarray
    mass: np.ndarray

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __iter__(self):
        for lo, hi in zip(self.ptr[:-1], self.ptr[1:]):
            yield ScoreMass(np.array([0, hi - lo]), self.bins[lo:hi], self.mass[lo:hi])

    def histogram(self) -> np.ndarray:
        """Mass per grid bin, summed over the leaves."""
        return np.bincount(self.bins, weights=self.mass, minlength=N_BINS)


def leaf_distributions(v: np.ndarray, f: np.ndarray, family: str) -> ScoreMass:
    """Score mass of the leaves with real values ``v`` and forecasts ``f``.

    Under family "poisson" each observed count v is one draw from an unknown
    rate.  Each candidate integer rate a receives the likelihood of observing
    v under it, and contributes its own deviation score against the forecast.
    Terms below ``PMF_CUTOFF`` are dropped and the rest renormalized per leaf.
    A leaf with a zero forecast (every positive rate scores -1) or with no
    term left, and every leaf of another family, keeps all its mass at its
    observed score.
    """
    v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
    poisson = family == "poisson"
    if poisson and np.any((v < 0) | (np.abs(v - np.round(v)) > 1e-9)):
        raise ValueError("poisson treatment needs non-negative integer counts")
    if np.any(v + f <= 0.0):
        raise MeaninglessPairError("no observation and no forecast")
    observed = bin_of(deviation_score(v, f))
    if not poisson:
        return ScoreMass(np.arange(v.size + 1), observed, np.ones(v.size))

    spread = 10.0 * np.sqrt(v) + 30.0
    lo = np.maximum(0.0, np.floor(v - spread))
    n_rates = (np.ceil(v + spread) - lo + 1.0).astype(np.int64)
    ends = np.cumsum(n_rates)
    counts, bins, mass = [np.zeros(1, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    s = 0
    while s < v.size:
        # whole leaves within the term budget, and at least one leaf
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - n_rates[s] + BLOCK_TERMS, "right")))
        n = n_rates[s:e]
        leaf = np.repeat(np.arange(e - s), n)
        a = lo[s:e][leaf] + (np.arange(leaf.size) - np.repeat(np.cumsum(n) - n, n))
        w = np.exp(xlogy(v[s:e][leaf], a) - gammaln(v[s:e] + 1.0)[leaf] - a)
        keep = w >= PMF_CUTOFF
        leaf, a, w = leaf[keep], a[keep], w[keep]
        # each leaf's total in the pairwise order of ``ndarray.sum``, which
        # reduceat keeps when every leaf's run starts with a 0: rounding
        # here decides search ties between leaves of equal membership
        per_leaf = np.bincount(leaf, minlength=e - s) + 1
        padded = np.zeros(w.size + e - s)
        padded[np.arange(w.size) + leaf + 1] = w
        total = np.add.reduceat(padded, np.cumsum(per_leaf) - per_leaf)
        grid = np.bincount(
            leaf * N_BINS + bin_of(deviation_score(a, f[s:e][leaf])),
            weights=w / total[leaf],
            minlength=(e - s) * N_BINS,
        ).reshape(e - s, N_BINS)
        # a zero forecast scores every positive rate -1: its row holds only
        # the observed bin, which the spike sets to exactly 1
        spike = np.flatnonzero((f[s:e] == 0.0) | (total == 0.0))
        grid[spike, observed[s:e][spike]] = 1.0
        nz = np.flatnonzero(grid)
        counts.append(np.bincount(nz // N_BINS, minlength=e - s))
        bins.append(nz % N_BINS)
        mass.append(grid.ravel()[nz])
        s = e
    return ScoreMass(np.cumsum(np.concatenate(counts)), np.concatenate(bins), np.concatenate(mass))


# -- density clustering ----------------------------------------------------

# a run holding less than one leaf's worth of mass is not a cluster
MIN_CLUSTER_MASS = 1.0
# moving-average width that merges near-identical scores into one mode
SMOOTHING_WIDTH = 5
# at most this many occupied bins are exact spikes, left unsmoothed
SPARSE_BINS = 20


@dataclass
class ScoreCluster:
    """A contiguous run of score bins holding one mode of the density.

    ``bounds`` are the scores of the separating minima (grid endpoints play
    the role of minima at the edges), so adjacent clusters share a boundary
    value.  ``membership`` and ``mass`` count only the interior bins: mass
    landing exactly on a separating minimum belongs to neither side.
    """

    lo_bin: int
    hi_bin: int
    bounds: tuple[float, float]
    center: float
    mass: float
    membership: np.ndarray  # per abnormal leaf, mass falling inside the run


def _interior_minima(d: np.ndarray) -> list[int]:
    """Strict local minima of ``d``, plateaus collapsed to their midpoint.

    Runs touching either end of the grid never count: the boundary gives no
    evidence the density rises again beyond it.
    """
    runs: list[tuple[int, int, float]] = []
    s = 0
    for i in range(1, len(d) + 1):
        if i == len(d) or d[i] != d[s]:
            runs.append((s, i - 1, d[s]))
            s = i
    mins = []
    for j in range(1, len(runs) - 1):
        a, b, val = runs[j]
        if runs[j - 1][2] > val and runs[j + 1][2] > val:
            mins.append((a + b) // 2)
    return mins


def cluster_distributions(scores: ScoreMass) -> list[ScoreCluster]:
    """Cut the accumulated score density at its local minima.

    Smoothing widens each mode so that near-identical scores merge, but it is
    only applied when more than ``SPARSE_BINS`` bins are occupied: a handful
    of exact spikes must stay separable, and smearing them would fuse
    distinct faults.  Minimum bins belong to no cluster, so an exact spike is
    always wholly inside or wholly outside a cluster.  Runs holding less
    than ``MIN_CLUSTER_MASS`` leaf-equivalents of mass are discarded.
    """
    hist = scores.histogram()
    if hist.sum() == 0.0:
        return []
    density = hist
    if np.count_nonzero(hist) > SPARSE_BINS:
        kernel = np.ones(SMOOTHING_WIDTH) / SMOOTHING_WIDTH
        density = np.convolve(hist, kernel, mode="same")

    boundaries = [-1] + _interior_minima(density) + [N_BINS]
    cut = []  # (left, right) separating bins of each kept run
    run_of_bin = np.full(N_BINS, -1)
    for left, right in zip(boundaries[:-1], boundaries[1:]):
        if left + 1 < right and hist[left + 1:right].sum() >= MIN_CLUSTER_MASS:
            run_of_bin[left + 1:right] = len(cut)
            cut.append((left, right))
    n = len(scores)
    leaf = np.repeat(np.arange(n), np.diff(scores.ptr))
    run = run_of_bin[scores.bins]
    inside = run >= 0
    membership = np.bincount(
        run[inside] * n + leaf[inside],
        weights=scores.mass[inside],
        minlength=len(cut) * n,
    ).reshape(len(cut), n)

    clusters: list[ScoreCluster] = []
    for (left, right), member in zip(cut, membership):
        seg = density[left + 1:right]
        peak = np.flatnonzero(seg == seg.max())
        center = float(bin_center(left + 1 + (peak[0] + peak[-1]) // 2))
        bounds = (
            -1.0 if left < 0 else float(bin_center(left)),
            1.0 if right >= N_BINS else float(bin_center(right)),
        )
        mass = float(hist[left + 1:right].sum())
        clusters.append(ScoreCluster(left + 1, right - 1, bounds, center, mass, member))
    return clusters


# -- shared helper ---------------------------------------------------------


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Quantile of ``values`` under non-negative ``weights``.

    Smallest value v with cumulative weight fraction at or above ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    v = np.asarray(values, float)
    w = np.asarray(weights, float)
    if v.size == 0:
        raise ValueError("no values")
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    total = w.sum()
    if total <= 0:
        return float(v[-1])
    cum = np.cumsum(w) / total
    i = int(np.searchsorted(cum, q, side="left"))
    return float(v[min(i, v.size - 1)])
