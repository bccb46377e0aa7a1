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

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import poisson

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


def knee_threshold(
    residuals: np.ndarray,
    gap_frac: float = 0.1,
    winsor_q: float = 0.995,
    snap_mass: float = 0.005,
) -> float:
    """Residual value after which leaves count as abnormal.

    Works on the empirical CDF of absolute residuals.  The bulk of leaves
    carries small forecast error and the curve climbs steeply; genuinely
    deviating leaves sit on the long flat tail.  The threshold is the point of
    maximum gap between the normalized CDF and the diagonal (the knee), nudged
    forward to just before the first wide gap in the sorted values so that a
    cleanly separated tail is never split.

    The x axis is normalized by the value at cumulative fraction ``winsor_q``
    rather than the maximum, so a single extreme outlier cannot flatten the
    whole curve.  The forward nudge gives up after ``snap_mass`` additional
    mass.  Degenerate inputs (under three distinct values) fall back to the
    median with a warning.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("no residuals")
    vals, counts = np.unique(r, return_counts=True)
    n = r.size
    if vals.size < 3:
        warnings.warn(
            "fewer than 3 distinct residual values; knee undefined, using median",
            stacklevel=2,
        )
        return float(np.median(r))
    cum = np.cumsum(counts)
    frac = cum / n
    if frac[0] >= 0.5:
        # majority of leaves already sit at the smallest residual: everything
        # above it is tail
        return float(vals[0])
    hi = vals[min(int(np.searchsorted(frac, winsor_q, side="left")), vals.size - 1)]
    lo = vals[0]
    span = hi - lo
    if span <= 0:
        return float(vals[0])
    x = np.clip((vals - lo) / span, 0.0, 1.0)
    y = (frac - frac[0]) / (1.0 - frac[0]) if frac[0] > 0 else frac
    k = int(np.argmax(y - x))
    full_span = vals[-1] - vals[0]
    gaps = np.diff(vals)
    mass_limit = cum[k] + snap_mass * n
    best = k
    for i in range(k, vals.size - 1):
        if cum[i] > mass_limit:
            break
        if gaps[i] >= gap_frac * full_span:
            best = i
            break
    return float(vals[best])


# -- per-leaf score distributions ------------------------------------------


@dataclass(frozen=True)
class LeafDistribution:
    """Mass of one leaf's deviation score over the grid."""

    bins: np.ndarray
    mass: np.ndarray

    def total(self) -> float:
        return float(self.mass.sum())


def dirac_distribution(v: float, f: float) -> LeafDistribution:
    """All mass at the observed deviation score."""
    b = int(bin_of(deviation_score(v, f)))
    return LeafDistribution(np.array([b]), np.array([1.0]))


def poisson_distribution(v: float, f: float) -> LeafDistribution:
    """Score mass under Poisson sampling noise on the observed count.

    The observed count v is one draw from an unknown rate.  Each candidate
    integer rate a receives the likelihood of observing v under it, and
    contributes its own deviation score against the forecast.  Terms below
    ``PMF_CUTOFF`` are dropped and the remainder renormalized.
    """
    v = float(v)
    if v < 0 or abs(v - round(v)) > 1e-9:
        raise ValueError(f"poisson treatment needs a non-negative integer count, got {v}")
    if v + f <= 0.0:
        raise MeaninglessPairError("no observation and no forecast")
    if f == 0.0:
        # every positive candidate rate scores -1 against a zero forecast
        return LeafDistribution(np.array([int(bin_of(-1.0))]), np.array([1.0]))
    spread = 10.0 * np.sqrt(v) + 30.0
    a = np.arange(max(0.0, np.floor(v - spread)), np.ceil(v + spread) + 1.0)
    w = poisson.pmf(v, a)
    keep = w >= PMF_CUTOFF
    a, w = a[keep], w[keep]
    if a.size == 0:  # numerically impossible, but never return an empty law
        return dirac_distribution(v, f)
    w = w / w.sum()
    bins = bin_of(deviation_score(a, f))
    hist = np.bincount(bins, weights=w, minlength=N_BINS)
    nz = np.flatnonzero(hist)
    return LeafDistribution(nz, hist[nz])


def leaf_distributions(
    v: np.ndarray, f: np.ndarray, family: str
) -> list[LeafDistribution]:
    if family == "poisson":
        return [poisson_distribution(vi, fi) for vi, fi in zip(v, f)]
    return [dirac_distribution(vi, fi) for vi, fi in zip(v, f)]


def overall_distribution(dists: list[LeafDistribution]) -> np.ndarray:
    """Arithmetic mean of the leaf distributions over the grid."""
    if not dists:
        raise ValueError("no distributions to average")
    hist = np.zeros(N_BINS)
    for d in dists:
        hist[d.bins] += d.mass
    return hist / len(dists)


# -- density clustering ----------------------------------------------------


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


def _prominent_minima(d: np.ndarray, valley_ratio: float) -> list[int]:
    """Interior minima deep enough to justify a split.

    A ragged mode shows many shallow dips; cutting at each would shatter one
    population into fragments.  A minimum only separates clusters when the
    density there falls to at most ``valley_ratio`` of the smaller adjacent
    peak.  The shallowest offender is dropped first and neighbors re-merged,
    so prominence is always judged against the full merged segments.  At the
    default ratio of 1 every strict minimum qualifies and nothing is merged.
    """
    mins = _interior_minima(d)
    while mins:
        edges = [0] + mins + [len(d)]
        worst, worst_ratio = -1, valley_ratio
        for i, m in enumerate(mins):
            left = d[edges[i]:m].max()
            right = d[m + 1:edges[i + 2]].max()
            ref = min(left, right)
            ratio = d[m] / ref if ref > 0 else 1.0
            if ratio > worst_ratio:
                worst, worst_ratio = i, ratio
        if worst < 0:
            break
        del mins[worst]
    return mins


def cluster_distributions(
    dists: list[LeafDistribution],
    min_mass: float = 1.0,
    smoothing_width: int = 5,
    sparse_bins: int = 20,
    valley_ratio: float = 1.0,
) -> list[ScoreCluster]:
    """Cut the accumulated score density at its prominent local minima.

    Smoothing widens each mode so that near-identical scores merge, but it is
    only applied when more than ``sparse_bins`` bins are occupied: a handful of
    exact spikes must stay separable, and smearing them would fuse distinct
    faults.  Minimum bins belong to no cluster, so an exact spike is always
    wholly inside or wholly outside a cluster.  Runs holding less than
    ``min_mass`` leaf-equivalents of mass are discarded.
    """
    hist = np.zeros(N_BINS)
    for dist in dists:
        hist[dist.bins] += dist.mass
    if hist.sum() == 0.0:
        return []
    occupied = int(np.count_nonzero(hist))
    density = hist
    if occupied > sparse_bins and smoothing_width > 1:
        kernel = np.ones(smoothing_width) / smoothing_width
        density = np.convolve(hist, kernel, mode="same")
    mins = _prominent_minima(density, valley_ratio)

    boundaries = [-1] + mins + [N_BINS]
    clusters: list[ScoreCluster] = []
    for k in range(len(boundaries) - 1):
        lo = boundaries[k] + 1
        hi = boundaries[k + 1] - 1
        if lo > hi:
            continue
        mass = float(hist[lo:hi + 1].sum())
        if mass < min_mass:
            continue
        member = np.array(
            [float(d.mass[(d.bins >= lo) & (d.bins <= hi)].sum()) for d in dists]
        )
        seg = density[lo:hi + 1]
        peak = np.flatnonzero(seg == seg.max())
        center = float(bin_center(lo + (peak[0] + peak[-1]) // 2))
        left = -1.0 if boundaries[k] < 0 else float(bin_center(boundaries[k]))
        right = 1.0 if boundaries[k + 1] >= N_BINS else float(bin_center(boundaries[k + 1]))
        clusters.append(ScoreCluster(lo, hi, (left, right), center, mass, member))
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
