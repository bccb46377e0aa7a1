"""Root cause search: per-cluster drill-down and report assembly.

Given clustered abnormal leaves, each cluster is explained independently.
Cuboids are visited shallow to deep; inside a cuboid, combinations are ranked
by how exclusively their leaves belong to the cluster, and growing prefixes of
that ranking are scored.  The score rewards candidates whose leaves deviate in
lockstep (the ripple pattern an upstream cause produces) and whose complement
looks undisturbed.  Across cuboids, a tradeoff weight balances that score
against the verbosity of the candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from math import isqrt, log
from operator import attrgetter
from typing import Sequence

import numpy as np

from .cluster import (
    BLOCK_TERMS,
    N_BINS,
    _interior_minima,
    cluster_distributions,
    knee_threshold,
    leaf_distributions,
    weighted_quantile,
)
from .data import AttributeCombination, Cuboid, Snapshot, _CuboidIndex, cuboids_by_layer
from .ripple import deviation_score, measure_values


@dataclass
class LocalizeConfig:
    """Tunables of the localization pipeline.

    delta
        early-stop score: once a layer produces a candidate this good,
        deeper (less interpretable) layers are not searched.
    delta_exrc
        flag the fault as externally caused when the weakest cluster
        explanation scores below this.
    """

    delta: float = 0.9
    delta_exrc: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not 0.0 < self.delta_exrc <= 1.0:
            raise ValueError("delta_exrc must lie in (0, 1]")


@dataclass(frozen=True)
class RootCauseCandidate:
    combinations: tuple[AttributeCombination, ...]
    gps: float
    cuboid: Cuboid


@dataclass
class ClusterResult:
    bounds: tuple[float, float]
    candidate: RootCauseCandidate | None


@dataclass
class LocalizationReport:
    """Verdict on one snapshot.

    ``score_density`` is the abnormal leaves' mean score mass over the grid
    (all zeros when no leaf is abnormal).
    """

    root_causes: list[tuple[AttributeCombination, ...]]
    per_cluster: list[ClusterResult]
    min_gps: float | None
    external_root_cause: bool
    elapsed: float
    note: str | None = None
    score_density: np.ndarray = field(default_factory=lambda: np.zeros(N_BINS))


# -- scoring primitives ----------------------------------------------------


def tradeoff_weight(num_cluster: int, num_attr: int, coverage: float) -> float:
    """Weight of the explanation score against candidate complexity.

    Larger when there are few clusters, many attributes, or the cluster spans
    a small share of the data: in each of those situations a sharp explanation
    matters more than a short one.  ``coverage`` is clamped below 1 so the
    weight stays positive.
    """
    if num_cluster < 1 or num_attr < 1:
        raise ValueError("counts must be at least 1")
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must lie in (0, 1]")
    coverage = min(coverage, 1.0 - 1e-9)
    return (log(num_cluster + 1) / num_cluster) * (num_attr / log(num_attr + 1)) * (-log(coverage))


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the runs ``[starts[i], starts[i] + lens[i])``, back to back."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)


class _SnapshotArrays:
    """Per-leaf arrays of the explanation score, built once per snapshot.

    For f ≠ 0, |v − r·f| = a·|q − r| with q = v/f and a = |f|; b = a·q is
    sign(f)·v.  A leaf with f = 0 misfits by |v| whatever r is: it takes
    a = 0, b = |v| and q = +∞, so it always ranks above r.  Leaves are
    ranked on q once, here.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        v, f = snapshot.leaf_values()
        self.absres = np.abs(v - f)
        m = snapshot.measure
        self.op_real = [snapshot.real[c] for c in m.operands]
        self.op_fcst = [snapshot.forecast[c] for c in m.operands]
        flat = f == 0.0
        self.a = np.abs(f)
        self.b = np.where(flat, np.abs(v), np.sign(f) * v)
        q = np.divide(v, f, out=np.full(v.size, np.inf), where=~flat)
        self.by_rank = np.argsort(q)
        self.q_sorted = q[self.by_rank]
        self.rank = np.empty(v.size, dtype=np.intp)
        self.rank[self.by_rank] = np.arange(v.size)

    def misfits(self, seq: np.ndarray, cuts: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Σ |v − r_k·f| over the leaves ``seq[:cuts[k]]``, for ascending ``cuts``.

        Over a prefix, Σ a·|q − r| = (B − 2·B≤) − r·(A − 2·A≤): A and B sum a
        and b, A≤ and B≤ sum them over the leaves with q ≤ r.  The f = 0
        leaves, above every r, bring their |v| into B.

        A table of (position block × rank block) cells, cumulated both ways,
        gives these sums over whole blocks.  Position blocks end at cuts, one
        at or past each multiple of ``side``; rank blocks hold ``side``
        ranks.  The rest is gathered leaf by leaf, in chunks of at most
        ``BLOCK_TERMS`` leaves: the prefix's positions past its last block
        end, and the leaves of r's partial rank block that lie before that
        end.  ``side`` balances the table's N·L/side² cells (N positions, L
        leaves) against the K·side leaves that K cuts gather, and keeps the
        table within ``BLOCK_TERMS`` cells.
        """
        seq = seq[: cuts[-1]]
        n_leaves = self.rank.size
        span = seq.size * n_leaves
        side = max(1, round((span / cuts.size) ** (1 / 3)), isqrt(span // BLOCK_TERMS))
        n_rank = -(-n_leaves // side)
        at_side = cuts[np.searchsorted(cuts, np.arange(0, seq.size, side))]
        ends = np.unique(np.concatenate(([0], at_side, [seq.size])))
        n_pos = ends.size - 1
        cell = np.repeat(np.arange(n_pos) * n_rank, np.diff(ends)) + self.rank[seq] // side
        table = np.zeros((2, n_pos + 1, n_rank + 1))
        for i, w in enumerate((self.a, self.b)):
            per_cell = np.bincount(cell, weights=w[seq], minlength=n_pos * n_rank)
            table[i, 1:, 1:] = per_cell.reshape(n_pos, n_rank)
        np.cumsum(table, axis=1, out=table)
        np.cumsum(table, axis=2, out=table)

        # leaves with q ≤ r are exactly those ranked below t
        t = np.searchsorted(self.q_sorted, r, "right")
        row = np.searchsorted(ends, cuts, "right") - 1
        col = t // side
        # signed sums, + above r and − at or below it: A − 2·A≤ and B − 2·B≤
        sa, sb = table[:, row, n_rank] - 2.0 * table[:, row, col]

        end = ends[row]
        pos = np.full(n_leaves, seq.size)  # past every prefix when absent
        pos[seq] = np.arange(seq.size)
        tail = cuts - end  # positions [end, cut), any rank
        head = t - col * side  # ranks [col·side, t), at positions before end
        gathered = tail + head
        terms = np.cumsum(gathered)
        lo = 0
        while lo < cuts.size:
            # whole cuts within the term budget, and at least one cut
            budget = terms[lo] - gathered[lo] + BLOCK_TERMS
            hi = max(lo + 1, int(np.searchsorted(terms, budget, "right")))
            k = np.arange(hi - lo)
            kt = np.repeat(k, tail[lo:hi])
            leaf = seq[_runs(end[lo:hi], tail[lo:hi])]
            coef = np.where(self.rank[leaf] < t[lo:hi][kt], -1.0, 1.0)
            sa[lo:hi] += np.bincount(kt, weights=coef * self.a[leaf], minlength=k.size)
            sb[lo:hi] += np.bincount(kt, weights=coef * self.b[leaf], minlength=k.size)
            kh = np.repeat(k, head[lo:hi])
            leaf = self.by_rank[_runs(col[lo:hi] * side, head[lo:hi])]
            coef = np.where(pos[leaf] < end[lo:hi][kh], -2.0, 0.0)
            sa[lo:hi] += np.bincount(kh, weights=coef * self.a[leaf], minlength=k.size)
            sb[lo:hi] += np.bincount(kh, weights=coef * self.b[leaf], minlength=k.size)
            lo = hi
        return sb - r * sa


class _PrefixScorer:
    """Explanation scores of leaf-sequence prefixes, on per-snapshot arrays.

    ``exclude`` marks leaves claimed by other clusters: they never count in
    the complement pool a candidate is compared against.
    """

    def __init__(self, arrays: _SnapshotArrays, exclude: np.ndarray) -> None:
        self.arrays = arrays
        self.snapshot = arrays.snapshot
        self.pool = ~exclude
        self.pool_res = float(arrays.absres[self.pool].sum())
        self.pool_n = int(np.count_nonzero(self.pool))

    def prefix_scores(self, seq: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """:func:`explanation_score` of candidate ``seq[:cut]`` for each of ``cuts``.

        ``d_va`` compares the candidate's leaves against the values the ripple
        pattern implies for them, ``d_vf`` against their forecasts, and
        ``d_pf`` compares every other pooled leaf against its forecast.
        ``d_va`` is the mean of |v − r·f| over the prefix, r being its ripple
        ratio v_s/f_s.  For f ≠ 0, |v − r·f| = |f|·|q − r| with q = v/f, so the
        prefix's sum is B − 2·B≤ − r·(A − 2·A≤) + Z: A and B sum |f| and
        |f|·q over the prefix, A≤ and B≤ over its leaves with q ≤ r, and Z
        sums |v| over its leaves with f = 0.  :meth:`_SnapshotArrays.misfits`
        takes these sums for every cut at once from one ranking of q.
        """
        arr = self.arrays
        seq = seq[: cuts[-1]]
        starts = cuts - np.diff(cuts, prepend=0)

        def upto(x):  # x summed over seq[:cut], for each cut
            return np.add.reduceat(x, starts).cumsum()

        absres = arr.absres[seq]
        d_vf = upto(absres) / cuts
        in_pool = self.pool[seq]
        pool_res = self.pool_res - upto(absres * in_pool)
        pool_n = self.pool_n - upto(in_pool)
        d_pf = np.divide(pool_res, pool_n, out=np.zeros(cuts.size), where=pool_n > 0)

        kind = self.snapshot.measure.kind
        v_s = measure_values(kind, [upto(c[seq]) for c in arr.op_real])
        f_s = measure_values(kind, [upto(c[seq]) for c in arr.op_fcst])
        # without forecast mass the ripple ratio is undefined: the slice is
        # taken as-is.  A zero real denominator needs no case of its own,
        # since every leaf rate under it is 0 as well.
        d_va = np.zeros(cuts.size)
        fit = np.flatnonzero(f_s > 0.0)
        if fit.size:
            d_va[fit] = arr.misfits(seq, cuts[fit], v_s[fit] / f_s[fit]) / cuts[fit]

        denom = d_vf + d_pf
        gps = 1.0 - (d_va + d_pf) / np.where(denom > 0.0, denom, 1.0)
        return np.where(denom > 0.0, gps, 0.0)


def explanation_score(
    snapshot: Snapshot,
    combinations: Sequence[AttributeCombination],
    exclude: np.ndarray | None = None,
) -> float:
    """Score how well ``combinations`` explain the anomaly (at most 1).

    The candidate's leaves are compared against the values the ripple pattern
    would imply for them; every other leaf (minus ``exclude``, leaves claimed
    by other clusters) is compared against its forecast.  1 means the
    candidate's slice deviates exactly in proportion and the rest of the data
    is quiet.
    """
    seq = np.flatnonzero(snapshot.leaf_mask(*combinations))
    if not seq.size:
        raise ValueError("empty candidate, or one with no descended leaves")
    if exclude is None:
        exclude = np.zeros(snapshot.n_leaves, dtype=bool)
    scorer = _PrefixScorer(_SnapshotArrays(snapshot), exclude)
    return float(scorer.prefix_scores(seq, np.array([seq.size]))[0])


# -- per-cluster search ----------------------------------------------------


def _best_prefix(
    scorer: _PrefixScorer, idx: _CuboidIndex, leaves: np.ndarray, membership: np.ndarray
) -> tuple[float, np.ndarray]:
    """Score and group ids of the best prefix of one cuboid's ranked groups.

    ``leaves`` is not empty and ``membership`` is nonzero on each of them.
    The groups holding them rank by the share of their leaves the cluster
    holds, then by its mass on them, then by id, which is the order of their
    value names.  The ids come ascending, the sorted order of their combinations.
    """
    of = idx.group_of[leaves]
    member = np.bincount(of, weights=membership, minlength=idx.n_groups)
    inside = np.bincount(of, minlength=idx.n_groups)
    held = np.flatnonzero(inside)
    member, inside = member[held], inside[held]
    sizes = np.diff(idx.starts)
    ratio = member / (member + (sizes[held] - inside))
    # stable, and the held ids ascend: ties fall to the group id
    order = held[np.lexsort((-member, -ratio))]

    # the ranked groups' runs of ``idx.order``, back to back
    run = sizes[order]
    gps = scorer.prefix_scores(idx.order[_runs(idx.starts[order], run)], np.cumsum(run))
    best = int(np.argmax(gps))
    return float(gps[best]), np.sort(order[: best + 1])


def _rank_key(gps: float, complexity: int, weight: float) -> tuple[float, float, int]:
    # at the verdict's precision, so that exact ties in the last bit fall
    # through to the names
    return (-round(gps * weight - complexity, 9), -round(gps, 9), complexity)


def localize_cluster(
    arrays: _SnapshotArrays,
    leaves: np.ndarray,
    membership: np.ndarray,
    exclude: np.ndarray,
    weight: float,
    cfg: LocalizeConfig,
) -> RootCauseCandidate | None:
    """Layered search over cuboids; argmax of score·weight − complexity.

    ``membership`` is the cluster's mass on each of ``leaves`` (ascending); other leaves hold none.
    ``arrays`` are the snapshot's, shared by every cluster of one verdict.
    Cuboid winners are ranked on their numbers alone; only the winners tied
    at the top are decoded into combinations, whose names break the tie.
    """
    held = membership != 0.0
    if not held.any():
        return None
    leaves, membership = leaves[held], membership[held]
    scorer = _PrefixScorer(arrays, exclude)
    snapshot = arrays.snapshot
    found = []  # (rank key, cuboid, its index, gps, ascending group ids)
    for layer, cuboids in groupby(cuboids_by_layer(snapshot.schema), attrgetter("layer")):
        stop = False
        for cuboid in cuboids:
            idx = snapshot.cuboid_index(cuboid)
            gps, groups = _best_prefix(scorer, idx, leaves, membership)
            # complexity sums each combination's squared size, so that two
            # 2-attribute combinations (8) read as worse than one plus context (4 + 1)
            key = _rank_key(gps, groups.size * layer**2, weight)
            found.append((key, cuboid, idx, gps, groups))
            stop |= gps >= cfg.delta
        if stop:
            break
    top = min(f[0] for f in found)
    tied = [
        RootCauseCandidate(tuple(idx.combination(g) for g in groups), gps, cuboid)
        for key, cuboid, idx, gps, groups in found
        if key == top
    ]
    return min(tied, key=lambda c: tuple(e.items for e in c.combinations))


# -- full pipeline ---------------------------------------------------------

# a quiet verdict needs the total within this many knee-sized noise units of
# the forecast: below-knee residuals summed over n leaves wander by about
# knee * sqrt(n) when they are honest noise
_TOTAL_SHIFT_FACTOR = 3.0

# clusters centered inside this weighted quantile of the normal leaves' own
# absolute scores carry no signal
NOISE_BAND_QUANTILE = 0.999


def _no_cluster_report(
    v: np.ndarray, f: np.ndarray, threshold: float, density: np.ndarray, t0: float
) -> LocalizationReport:
    """Verdict when nothing localizes: quiet, unless the total still moved.

    An attribute missing from the data dilutes its fault across every leaf,
    so no slice stands out yet the aggregate is visibly off its forecast.
    That is an external root cause, not a healthy snapshot.
    """
    shift = abs(float((v - f).sum()))
    external = bool(shift > _TOTAL_SHIFT_FACTOR * threshold * np.sqrt(v.size))
    note = "unexplained total shift" if external else "no anomaly"
    return LocalizationReport(
        [], [], None, external, time.perf_counter() - t0, note=note, score_density=density
    )


def localize(snapshot: Snapshot, cfg: LocalizeConfig | None = None) -> LocalizationReport:
    """Run the full pipeline on one snapshot."""
    cfg = cfg or LocalizeConfig()
    t0 = time.perf_counter()
    v, f = snapshot.leaf_values()
    resid = np.abs(v - f)
    threshold = knee_threshold(resid)
    abnormal = np.flatnonzero(resid > threshold)
    if abnormal.size == 0:
        return _no_cluster_report(v, f, threshold, np.zeros(N_BINS), t0)

    scores = leaf_distributions(v[abnormal], f[abnormal], snapshot.measure.distribution_family)
    density = scores.histogram() / len(scores)
    clusters = cluster_distributions(scores)

    # clusters whose score is within the normal leaves' own deviation range
    # carry no signal; their leaves stay in the complement pool
    normal = resid <= threshold
    if normal.any():
        normal_scores = np.abs(deviation_score(v[normal], f[normal]))
        wts = snapshot.leaf_weights()[normal]
        band = weighted_quantile(normal_scores, wts, NOISE_BAND_QUANTILE)
        clusters = [c for c in clusters if abs(c.center) > band]

    if not clusters:
        return _no_cluster_report(v, f, threshold, density, t0)

    n = snapshot.n_leaves
    num_cluster = len(clusters)
    num_attr = snapshot.schema.n_attributes
    arrays = _SnapshotArrays(snapshot)
    results: list[ClusterResult] = []
    total_membership = np.sum([c.membership for c in clusters], axis=0)
    for c in clusters:
        # a leaf mostly explained by the other clusters combined leaves the
        # complement pool, even when no single cluster claims it outright
        exclude = np.zeros(n, dtype=bool)
        exclude[abnormal] = total_membership - c.membership > 0.5
        weight = tradeoff_weight(num_cluster, num_attr, min(c.mass / n, 1.0))
        cand = localize_cluster(arrays, abnormal, c.membership, exclude, weight, cfg)
        results.append(ClusterResult(c.bounds, cand))

    found = [r.candidate.gps for r in results if r.candidate is not None]
    min_gps = min(found) if found else None
    external = min_gps is not None and min_gps < cfg.delta_exrc
    # a cluster whose best candidate scores below delta_exrc is judged not
    # explainable by any combination; it raises the external flag instead of
    # contributing a poorly supported prediction
    root_causes = [
        r.candidate.combinations
        for r in results
        if r.candidate is not None and r.candidate.gps >= cfg.delta_exrc
    ]
    return LocalizationReport(
        root_causes, results, min_gps, external, time.perf_counter() - t0,
        score_density=density,
    )


# -- external-root-cause threshold from history ----------------------------

_EXRC_BINS = 101  # [0, 1] at the same 0.01 step as the score grid


def select_exrc_threshold(history: Sequence[float]) -> float:
    """Data-driven flagging threshold from historical minimum scores.

    Healthy incidents produce high minimum explanation scores, externally
    caused ones low; with enough history the two form separate modes.  The
    values are binned on [0, 1], smoothed, and cut at density minima; the
    returned threshold is the lower edge of the highest mode.  Above the
    highest value the smoothed density only falls, so no minimum lies there
    and the highest mode starts at the last minimum.  Under five observations
    the ``LocalizeConfig.delta_exrc`` default is returned.  A NaN or infinite
    value raises ``ValueError``.
    """
    vals = np.asarray(list(history), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("history values must be finite")
    if vals.size < 5:
        return LocalizeConfig.delta_exrc
    bins = np.clip(np.round(np.clip(vals, 0.0, 1.0) / 0.01).astype(int), 0, _EXRC_BINS - 1)
    hist = np.bincount(bins, minlength=_EXRC_BINS).astype(float)
    density = np.convolve(hist, np.ones(5) / 5.0, mode="same")
    mins = _interior_minima(density)
    return mins[-1] * 0.01 if mins else 0.0
