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
import warnings
from dataclasses import dataclass
from math import log
from typing import Sequence

import numpy as np

from .cluster import (
    N_BINS,
    _interior_minima,
    cluster_distributions,
    knee_threshold,
    leaf_distributions,
    overall_distribution,
    weighted_quantile,
)
from .data import AttributeCombination, Cuboid, Snapshot, cuboids_by_layer
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
    max_layer
        cap on searched cuboid layers (None = all).
    min_cluster_mass, smoothing_width, sparse_bins, valley_ratio,
    noise_band_quantile
        clustering knobs, see the cluster module.
    """

    delta: float = 0.9
    delta_exrc: float = 0.8
    max_layer: int | None = None
    min_cluster_mass: float = 1.0
    smoothing_width: int = 5
    sparse_bins: int = 20
    valley_ratio: float = 1.0
    noise_band_quantile: float = 0.999

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not 0.0 < self.delta_exrc <= 1.0:
            raise ValueError("delta_exrc must lie in (0, 1]")
        if self.max_layer is not None and self.max_layer < 1:
            raise ValueError("max_layer must be positive")
        if not 0.0 < self.valley_ratio <= 1.0:
            raise ValueError("valley_ratio must lie in (0, 1]")


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
    root_causes: list[tuple[AttributeCombination, ...]]
    per_cluster: list[ClusterResult]
    min_gps: float | None
    external_root_cause: bool
    elapsed: float
    note: str | None = None


# -- scoring primitives ----------------------------------------------------


def candidate_complexity(combinations: Sequence[AttributeCombination]) -> int:
    """Verbosity cost of a candidate: squared size of each combination, summed.

    Quadratic so that two 2-attribute combinations (cost 8) read as worse than
    one 2-attribute combination plus context (cost 4 + 1).
    """
    return sum(len(e) ** 2 for e in combinations)


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


def _member_ratio(member, nonmember) -> np.ndarray:
    """Member mass against member mass plus outsider count (0 without members)."""
    member = np.asarray(member, dtype=float)
    return np.divide(member, member + nonmember, out=np.zeros_like(member), where=member > 0.0)


def descended_ratio(
    snapshot: Snapshot, e: AttributeCombination, membership: np.ndarray
) -> float:
    """How exclusively ``e``'s leaves belong to the cluster.

    ``membership`` holds every leaf's probability of cluster membership (0 for
    leaves never deemed abnormal).  Member leaves contribute their probability,
    non-members count 1 against the candidate.
    """
    p = membership[snapshot.leaf_mask(e)]
    return float(_member_ratio(p.sum(), np.count_nonzero(p == 0.0)))


class _PrefixScorer:
    """Explanation scores of leaf-sequence prefixes, on per-snapshot arrays.

    ``exclude`` marks leaves claimed by other clusters: they never count in
    the complement pool a candidate is compared against.
    """

    def __init__(self, snapshot: Snapshot, exclude: np.ndarray) -> None:
        self.snapshot = snapshot
        self.v, self.f = snapshot.leaf_values()
        self.absres = np.abs(self.v - self.f)
        self.pool = ~exclude
        self.pool_res = float(self.absres[self.pool].sum())
        self.pool_n = int(np.count_nonzero(self.pool))
        m = snapshot.measure
        self.op_real = [snapshot.real[c] for c in m.operands]
        self.op_fcst = [snapshot.forecast[c] for c in m.operands]

    def prefix_scores(self, seq: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """:func:`explanation_score` of candidate ``seq[:cut]`` for each of ``cuts``.

        ``d_va`` compares the candidate's leaves against the values the ripple
        pattern implies for them, ``d_vf`` against their forecasts, and
        ``d_pf`` compares every other pooled leaf against its forecast.
        """
        last = cuts - 1
        absres = self.absres[seq]
        d_vf = np.cumsum(absres)[last] / cuts
        in_pool = self.pool[seq]
        pool_res = self.pool_res - np.cumsum(absres * in_pool)[last]
        pool_n = self.pool_n - np.cumsum(in_pool)[last]
        d_pf = np.divide(pool_res, pool_n, out=np.zeros(cuts.size), where=pool_n > 0)

        kind = self.snapshot.measure.kind
        v_s = measure_values(kind, [np.cumsum(c[seq])[last] for c in self.op_real])
        f_s = measure_values(kind, [np.cumsum(c[seq])[last] for c in self.op_fcst])
        # without forecast mass the ripple ratio is undefined: the slice is
        # taken as-is.  A zero real denominator needs no case of its own,
        # since every leaf rate under it is 0 as well.
        v, f = self.v[seq], self.f[seq]
        d_va = np.zeros(cuts.size)
        for k in np.flatnonzero(f_s > 0.0):
            n = cuts[k]
            d_va[k] = np.abs(v[:n] - f[:n] * (v_s[k] / f_s[k])).mean()

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
    combos = list(combinations)
    if not combos:
        raise ValueError("empty candidate")
    le = np.zeros(snapshot.n_leaves, dtype=bool)
    for c in combos:
        le |= snapshot.leaf_mask(c)
    seq = np.flatnonzero(le)
    if not seq.size:
        raise ValueError("candidate has no descended leaves")
    if exclude is None:
        exclude = np.zeros(snapshot.n_leaves, dtype=bool)
    return float(_PrefixScorer(snapshot, exclude).prefix_scores(seq, np.array([seq.size]))[0])


# -- per-cluster search ----------------------------------------------------


class _ClusterSearch(_PrefixScorer):
    """Candidate search within one cluster, sharing per-snapshot arrays.

    All hot-path work happens on the cuboid group tables.  Combination objects
    are only materialized for the winning prefix.
    """

    def __init__(
        self,
        snapshot: Snapshot,
        membership: np.ndarray,
        exclude: np.ndarray,
    ) -> None:
        super().__init__(snapshot, exclude)
        self.membership = membership
        self.outsider = (membership == 0.0).astype(float)

    def search(self, cuboid: Cuboid) -> RootCauseCandidate | None:
        snap = self.snapshot
        idx = snap.cuboid_index(cuboid)
        g = idx.n_groups
        member = np.bincount(idx.group_of, weights=self.membership, minlength=g)
        nonmember = np.bincount(idx.group_of, weights=self.outsider, minlength=g)
        ratio = _member_ratio(member, nonmember)
        n_pos = int(np.count_nonzero(ratio > 0.0))
        if n_pos == 0:
            return None

        # rank: ratio desc, membership mass desc, then the combination's values
        keys = [idx.group_codes[:, j] for j in range(idx.group_codes.shape[1] - 1, -1, -1)]
        order = np.lexsort(keys + [-member, -ratio])[:n_pos]

        leaf_runs = [idx.leaves_of(gi) for gi in order]
        cuts = np.cumsum([r.size for r in leaf_runs])
        gps = self.prefix_scores(np.concatenate(leaf_runs), cuts)
        best_k = int(np.argmax(gps))
        combos = tuple(
            snap.combination_of_group(cuboid, int(gi)) for gi in order[: best_k + 1]
        )
        return RootCauseCandidate(tuple(sorted(combos)), float(gps[best_k]), cuboid)


def _candidate_sort_key(c: RootCauseCandidate, weight: float):
    score = c.gps * weight - candidate_complexity(c.combinations)
    lex = tuple(e.items for e in c.combinations)
    return (-score, -c.gps, candidate_complexity(c.combinations), lex)


def localize_cluster(
    snapshot: Snapshot,
    membership: np.ndarray,
    exclude: np.ndarray,
    weight: float,
    cfg: LocalizeConfig,
) -> RootCauseCandidate | None:
    """Layered search over cuboids; argmax of score·weight − complexity."""
    searcher = _ClusterSearch(snapshot, membership, exclude)
    top = snapshot.schema.n_attributes
    if cfg.max_layer is not None:
        top = min(top, cfg.max_layer)
    cuboids = cuboids_by_layer(snapshot.schema, top)
    candidates: list[RootCauseCandidate] = []
    for layer in range(1, top + 1):
        layer_cands = [
            c
            for cuboid in cuboids
            if cuboid.layer == layer
            for c in [searcher.search(cuboid)]
            if c is not None
        ]
        candidates.extend(layer_cands)
        if any(c.gps >= cfg.delta for c in layer_cands):
            break
    if not candidates:
        return None
    return min(candidates, key=lambda c: _candidate_sort_key(c, weight))


# -- full pipeline ---------------------------------------------------------

# a quiet verdict needs the total within this many knee-sized noise units of
# the forecast: below-knee residuals summed over n leaves wander by about
# knee * sqrt(n) when they are honest noise
_TOTAL_SHIFT_FACTOR = 3.0


def _abnormal_leaves(snapshot: Snapshot):
    """Stages 1 and 2 of the pipeline.

    Returns the residuals, the knee threshold, the abnormal leaves above it
    and their score distributions (none when no leaf is abnormal).
    """
    v, f = snapshot.leaf_values()
    resid = np.abs(v - f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        threshold = knee_threshold(resid)
    abnormal = np.flatnonzero(resid > threshold)
    dists = []
    if abnormal.size:
        dists = leaf_distributions(v[abnormal], f[abnormal], snapshot.measure.distribution_family)
    return resid, threshold, abnormal, dists


def _no_cluster_report(
    v: np.ndarray, f: np.ndarray, threshold: float, t0: float
) -> LocalizationReport:
    """Verdict when nothing localizes: quiet, unless the total still moved.

    An attribute missing from the data dilutes its fault across every leaf,
    so no slice stands out yet the aggregate is visibly off its forecast.
    That is an external root cause, not a healthy snapshot.
    """
    shift = abs(float((v - f).sum()))
    bar = _TOTAL_SHIFT_FACTOR * threshold * np.sqrt(v.size)
    if shift > bar:
        return LocalizationReport(
            [], [], None, True, time.perf_counter() - t0,
            note="unexplained total shift",
        )
    return LocalizationReport(
        [], [], None, False, time.perf_counter() - t0, note="no anomaly"
    )


def localize(snapshot: Snapshot, cfg: LocalizeConfig | None = None) -> LocalizationReport:
    """Run the full pipeline on one snapshot."""
    cfg = cfg or LocalizeConfig()
    t0 = time.perf_counter()
    v, f = snapshot.leaf_values()
    resid, threshold, abnormal, dists = _abnormal_leaves(snapshot)
    if abnormal.size == 0:
        return _no_cluster_report(v, f, threshold, t0)

    clusters = cluster_distributions(
        dists,
        min_mass=cfg.min_cluster_mass,
        smoothing_width=cfg.smoothing_width,
        sparse_bins=cfg.sparse_bins,
        valley_ratio=cfg.valley_ratio,
    )

    # clusters whose score is within the normal leaves' own deviation range
    # carry no signal; their leaves stay in the complement pool
    normal = resid <= threshold
    if normal.any():
        scores = np.abs(deviation_score(v[normal], f[normal]))
        wts = snapshot.leaf_weights()[normal]
        band = weighted_quantile(scores, wts, cfg.noise_band_quantile)
        clusters = [c for c in clusters if abs(c.center) > band]

    if not clusters:
        return _no_cluster_report(v, f, threshold, t0)

    n = snapshot.n_leaves
    memberships = []
    for c in clusters:
        p = np.zeros(n)
        p[abnormal] = c.membership
        memberships.append(p)

    num_cluster = len(clusters)
    num_attr = snapshot.schema.n_attributes
    results: list[ClusterResult] = []
    min_gps: float | None = None
    total_membership = np.sum(memberships, axis=0)
    for i, c in enumerate(clusters):
        # a leaf mostly explained by the other clusters combined leaves the
        # complement pool, even when no single cluster claims it outright
        other = total_membership - memberships[i]
        exclude = other > 0.5
        weight = tradeoff_weight(num_cluster, num_attr, min(c.mass / n, 1.0))
        cand = localize_cluster(snapshot, memberships[i], exclude, weight, cfg)
        results.append(ClusterResult(c.bounds, cand))
        if cand is not None:
            min_gps = cand.gps if min_gps is None else min(min_gps, cand.gps)

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
        root_causes, results, min_gps, external, time.perf_counter() - t0
    )


def score_histogram(snapshot: Snapshot) -> np.ndarray:
    """Mean deviation-score distribution of the abnormal leaves (for plotting)."""
    dists = _abnormal_leaves(snapshot)[3]
    return overall_distribution(dists) if dists else np.zeros(N_BINS)


# -- external-root-cause threshold from history ----------------------------

_EXRC_BINS = 101  # [0, 1] at the same 0.01 step as the score grid


def select_exrc_threshold(history: Sequence[float], default: float = 0.8) -> float:
    """Data-driven flagging threshold from historical minimum scores.

    Healthy incidents produce high minimum explanation scores, externally
    caused ones low; with enough history the two form separate modes.  The
    values are binned on [0, 1], smoothed, and cut at density minima; the
    returned threshold is the lower edge of the highest mode.  Under five
    observations the default is returned unchanged.
    """
    vals = np.asarray(list(history), dtype=float)
    if vals.size < 5:
        return default
    bins = np.clip(np.round(np.clip(vals, 0.0, 1.0) / 0.01).astype(int), 0, _EXRC_BINS - 1)
    hist = np.bincount(bins, minlength=_EXRC_BINS).astype(float)
    density = np.convolve(hist, np.ones(5) / 5.0, mode="same")
    mins = _interior_minima(density)
    boundaries = [-1] + mins + [_EXRC_BINS]
    best_center = -1
    best_lower = 0.0
    for k in range(len(boundaries) - 1):
        lo = boundaries[k] + 1
        hi = boundaries[k + 1] - 1
        if lo > hi or hist[lo:hi + 1].sum() == 0.0:
            continue
        seg = density[lo:hi + 1]
        peak = np.flatnonzero(seg == seg.max())
        center = lo + (peak[0] + peak[-1]) // 2
        if center > best_center:
            best_center = center
            best_lower = 0.0 if boundaries[k] < 0 else boundaries[k] * 0.01
    return float(best_lower)
