"""Abnormality detection and grouping of leaves by deviation score.

Three stages live here.  A knee threshold on absolute residuals separates
abnormal leaves from background noise.  Each abnormal leaf then gets a
distribution over deviation scores: a single spike when observed values are
taken at face value, or a spread of scores weighted by Poisson likelihood when
the measure is a count, read as a whole number, and sampling noise matters.
Finally the accumulated score density is cut at its local minima, so leaves
whose scores plausibly agree end up in the same cluster and are explained
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    # frac[0] < 0.5, so hi lies above lo
    hi = vals[min(int(np.searchsorted(frac, KNEE_WINSOR_Q, side="left")), vals.size - 1)]
    lo = vals[0]
    x = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    y = (frac - frac[0]) / (1.0 - frac[0])
    k = int(np.argmax(y - x))
    # the nudge: the first wide gap from the knee on, before the mass passes the limit
    stop = np.searchsorted(cum, cum[k] + KNEE_SNAP_MASS * n, side="right")
    wide = np.flatnonzero(np.diff(vals[k:stop + 1]) >= KNEE_GAP_FRAC * (vals[-1] - vals[0]))
    return float(vals[k + wide[0]] if wide.size else vals[k])


# -- score mass of the abnormal leaves -------------------------------------


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the runs ``[starts[i], starts[i] + lens[i])``, back to back."""
    ends = np.cumsum(lens)
    return np.arange(lens.sum()) + np.repeat(starts - (ends - lens), lens)


# a stage-2 block's likelihood terms plus its range of rate logs stay within this
BLOCK_TERMS = 1 << 16


def _blocks(cost: np.ndarray):
    """Ranges ``[s, e)`` of items whose costs sum to ``BLOCK_TERMS`` at most, or one item."""
    ends = np.cumsum(cost)
    s = 0
    while s < cost.size:
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - cost[s] + BLOCK_TERMS, "right")))
        yield s, e
        s = e


# Cephes ``lgam`` (scipy.special.gammaln): log sqrt(2 pi), the argument past
# which the log gamma overflows, and the Stirling series used below 1000
_LS2PI = 0.91893853320467274178
_MAXLGM = 2.556348e305
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(u: float) -> float:
    """log u! of a whole count, as Cephes ``lgam(u + 1)`` computes it.

    Below 12 Cephes multiplies the integers down to 2, exactly in doubles, and
    takes the log of the product, which is u!.  From 12 up every step is the C
    code's double operation in its order.  ``math.log`` is the C library's
    ``log`` it calls, so the result equals ``scipy.special.gammaln(u + 1)``
    bit for bit.  ``np.log`` would not: its SIMD loops differ from the C
    library in the last bit on some integers.
    """
    x = u + 1.0
    if x < 13.0:
        return math.log(math.factorial(int(u)))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _STIRLING[0]
    for c in _STIRLING[1:]:
        s = s * p + c
    return q + s / x


def _log_range(r0: int, r1: int) -> np.ndarray:
    """``math.log`` of each rate from ``r0`` to ``r1 - 1``, with ``-inf`` for rate 0."""
    logs = np.fromiter(map(math.log, range(max(r0, 1), r1)), float, r1 - max(r0, 1))
    return np.concatenate(([-math.inf], logs)) if r0 == 0 else logs


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

    @cached_property
    def histogram(self) -> np.ndarray:
        """Mass per grid bin, summed over the leaves, on first read only."""
        return np.bincount(self.bins, weights=self.mass, minlength=N_BINS)


def leaf_distributions(v: np.ndarray, f: np.ndarray, family: str) -> ScoreMass:
    """Score mass of the leaves with real values ``v`` and forecasts ``f``.

    Under family "poisson" each observed count v is one draw from an unknown
    rate, and a count within 1e-9 of an integer is that integer.  Each
    candidate integer rate a receives the likelihood of observing v under it,
    and contributes its own deviation score against the forecast.  Terms
    below ``PMF_CUTOFF`` are dropped and the rest renormalized per leaf.  A
    leaf with a zero forecast (every positive rate scores -1) or with no term
    left, such as every count past about 1.9e11, and every leaf of another
    family, keeps all its mass at its observed score, that of v as given.
    The likelihoods are evaluated once per distinct count and binned once per
    distinct (count, forecast) pair; each leaf then takes its pair's row, so
    leaves that repeat a pair get the same bits.  Both ends of a count's
    rate range grow with it, so a block of counts reads its terms from the
    logs of one range, its terms plus that range within ``BLOCK_TERMS``.
    """
    v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
    poisson, whole = family == "poisson", np.round(v)
    if poisson and np.any((v < 0) | (np.abs(v - whole) > 1e-9)):
        raise ValueError("poisson treatment needs non-negative integer counts")
    if np.any(v + f <= 0.0):
        raise MeaninglessPairError("no observation and no forecast")
    observed = bin_of(deviation_score(v, f))
    if not poisson:
        return ScoreMass(np.arange(v.size + 1), observed, np.ones(v.size))

    # a rate's likelihood depends on the whole count alone, and a leaf's
    # binned mass on its (count, forecast) pair: each is evaluated once
    u, count = np.unique(whole, return_inverse=True)
    _, fcode = np.unique(f, return_inverse=True)
    _, first, pair = np.unique(count * v.size + fcode, return_index=True, return_inverse=True)
    # no rate's likelihood reaches the cutoff past this count, since the best
    # one's is at most 1/sqrt(2 pi u) (here with a margin of 1.1): the counts
    # u[fit:] take no candidate rate
    fit = int(np.searchsorted(u, 1.21 / (2.0 * math.pi * PMF_CUTOFF**2), "right"))
    spread = 10.0 * np.sqrt(u[:fit]) + 30.0
    lo = np.maximum(0.0, np.floor(u[:fit] - spread))
    n_rates = (np.ceil(u[:fit] + spread) - lo + 1.0).astype(np.int64)

    # the kept rates of each distinct count and their normalized likelihoods
    log_fact = np.array([_log_factorial(x) for x in u[:fit].tolist()])
    kept = [np.zeros(0, np.int64)]
    rates, weights = [np.zeros(0)], [np.zeros(0)]
    for s, e in _blocks(n_rates + np.diff(lo + n_rates, prepend=lo[:1])):
        n = n_rates[s:e]
        c = np.repeat(np.arange(e - s), n)
        a = _runs(lo[s:e], n)
        # log w = u log a - log u! - a, subtracted in this order (the mass
        # bits depend on it), in place to hold one term array fewer at once;
        # u log a is scipy's xlogy: 0 where u = 0, also at a = 0
        w = _log_range(int(a[0]), int(a[-1]) + 1)[(a - a[0]).astype(np.int64)]
        with np.errstate(invalid="ignore"):
            w *= np.repeat(u[s:e], n)
        w[np.repeat(u[s:e] == 0.0, n)] = 0.0
        w -= log_fact[s:e][c]
        w -= a
        np.exp(w, out=w)
        keep = w >= PMF_CUTOFF
        c, a, w = c[keep], a[keep], w[keep]
        # each count's total in the pairwise order of ``ndarray.sum``, which
        # reduceat keeps when every count's run starts with a 0: rounding
        # here decides search ties between leaves of equal membership
        per_count = np.bincount(c, minlength=e - s) + 1
        padded = np.zeros(w.size + e - s)
        padded[np.arange(w.size) + c + 1] = w
        t = np.add.reduceat(padded, np.cumsum(per_count) - per_count)
        kept.append(per_count - 1)
        rates.append(a)
        weights.append(w / t[c])
    kept.append(np.zeros(u.size - fit, np.int64))
    kept, rates, weights = map(np.concatenate, (kept, rates, weights))
    start = np.cumsum(kept) - kept

    # each distinct pair's row of the grid, its nonzero bins in order; a pair
    # without rates still costs its row
    pc, pf = count[first], f[first]
    cost = np.append(n_rates, np.full(u.size - fit, N_BINS))
    counts, bins, mass = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for s, e in _blocks(cost[pc]):
        c = pc[s:e]
        p = np.repeat(np.arange(e - s), kept[c])
        t = _runs(start[c], kept[c])
        grid = np.bincount(
            p * N_BINS + bin_of(deviation_score(rates[t], pf[s:e][p])),
            weights=weights[t],
            minlength=(e - s) * N_BINS,
        ).reshape(e - s, N_BINS)
        # a zero forecast scores every positive rate -1, and a count with no
        # kept rate has an empty row: either row holds only the observed bin,
        # which the spike sets to exactly 1.  All leaves of a pair share that
        # bin: a zero forecast scores -1 whatever the count, and a count that
        # keeps no rate is past 2^37, where no other double is within 1e-9
        spike = np.flatnonzero((pf[s:e] == 0.0) | (kept[c] == 0))
        grid[spike, observed[first[s:e]][spike]] = 1.0
        nz = np.flatnonzero(grid)
        counts.append(np.bincount(nz // N_BINS, minlength=e - s))
        bins.append(nz % N_BINS)
        mass.append(grid.ravel()[nz])
    counts, bins, mass = map(np.concatenate, (counts, bins, mass))

    # each leaf takes its pair's row
    lens = counts[pair]
    rows = _runs((np.cumsum(counts) - counts)[pair], lens)
    return ScoreMass(np.cumsum(np.concatenate(([0], lens))), bins[rows], mass[rows])


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
    on a separating minimum, like that of a run too light to keep, belongs to
    no cluster and lands in a spare row of the one count behind every membership.
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
    starts = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
    ends = np.append(starts[1:], d.size) - 1
    val = d[starts]
    j = 1 + np.flatnonzero((val[:-2] > val[1:-1]) & (val[2:] > val[1:-1]))
    return ((starts[j] + ends[j]) // 2).tolist()


def _smoothed(hist: np.ndarray) -> np.ndarray:
    """Moving average of ``SMOOTHING_WIDTH`` bins, the same length as ``hist``."""
    return np.convolve(hist, np.ones(SMOOTHING_WIDTH) / SMOOTHING_WIDTH, mode="same")


def cluster_distributions(scores: ScoreMass) -> list[ScoreCluster]:
    """Cut the accumulated score density at its local minima.

    Smoothing widens each mode so that near-identical scores merge, but it is
    only applied when more than ``SPARSE_BINS`` bins are occupied: a handful
    of exact spikes must stay separable, and smearing them would fuse
    distinct faults.  Minimum bins belong to no cluster, so an exact spike is
    always wholly inside or wholly outside a cluster.  Runs holding less
    than ``MIN_CLUSTER_MASS`` leaf-equivalents of mass are discarded.  One
    count over the score terms gives every membership; a term on a minimum
    or in a discarded run lands in a spare last row, which no cluster reads.
    """
    hist = scores.histogram
    density = _smoothed(hist) if np.count_nonzero(hist) > SPARSE_BINS else hist

    # minima are interior and at least two bins apart: every run holds a bin
    boundaries = [-1] + _interior_minima(density) + [N_BINS]
    cut = [  # (left, right) separating bins and mass of each kept run
        (left, right, mass) for left, right in zip(boundaries, boundaries[1:])
        if (mass := hist[left + 1:right].sum()) >= MIN_CLUSTER_MASS
    ]
    run_of_bin = np.full(N_BINS, len(cut))
    for k, (left, right, _) in enumerate(cut):
        run_of_bin[left + 1:right] = k
    n = len(scores)
    leaf = np.repeat(np.arange(n), np.diff(scores.ptr))
    membership = np.bincount(
        run_of_bin[scores.bins] * n + leaf, weights=scores.mass, minlength=(len(cut) + 1) * n
    ).reshape(len(cut) + 1, n)

    clusters: list[ScoreCluster] = []
    for (left, right, mass), member in zip(cut, membership):
        seg = density[left + 1:right]
        peak = np.flatnonzero(seg == seg.max())
        center = float(bin_center(left + 1 + (peak[0] + peak[-1]) // 2))
        bounds = (
            -1.0 if left < 0 else float(bin_center(left)),
            1.0 if right >= N_BINS else float(bin_center(right)),
        )
        clusters.append(ScoreCluster(left + 1, right - 1, bounds, center, float(mass), member))
    return clusters


# -- shared helper ---------------------------------------------------------


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Quantile of ``values`` under non-negative ``weights``.

    Smallest value v with cumulative weight fraction at or above ``q``, for
    ``q`` in [0, 1] and at least one value.  The n values are counted into
    √n buckets of equal width over their range; one ``np.bincount`` of the
    weights finds the bucket where the cumulative share crosses ``q``, and
    only that bucket is sorted.  Buckets keep the value order, so any bucket
    count gives the same value: the one a stable sort of every value gives
    whenever the weight sums are exact (integer weights, as leaf counts
    are).  Otherwise the two can differ only where a share lands within
    rounding of ``q``.
    """
    v = np.asarray(values, float)
    w = np.asarray(weights, float)
    lo, hi = v.min(), v.max()
    n_buckets = math.isqrt(v.size)
    bucket = np.zeros(v.size, dtype=np.intp)
    if 0 < hi - lo < np.inf:
        # (v - lo) / (hi - lo) is at most 1 and never falls as v rises
        scaled = (v - lo) / (hi - lo) * n_buckets
        np.minimum(scaled, n_buckets - 1, out=bucket, casting="unsafe")
    cum = np.cumsum(np.bincount(bucket, weights=w, minlength=n_buckets))
    total = cum[-1]
    if total <= 0:
        return float(hi)
    k = int(np.searchsorted(cum / total, q, side="left"))  # the last share is 1
    inside = np.flatnonzero(bucket == k)
    inside = inside[np.argsort(v[inside], kind="stable")]
    share = np.cumsum(np.append(cum[k - 1] if k else 0.0, w[inside]))[1:] / total
    i = int(np.searchsorted(share, q, side="left"))
    return float(v[inside[min(i, inside.size - 1)]])
