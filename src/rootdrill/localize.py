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

from . import cluster
from .cluster import (
    N_BINS,
    SCORE_STEP,
    _blocks,
    _interior_minima,
    _runs,
    _smoothed,
    cluster_distributions,
    knee_threshold,
    leaf_distributions,
    weighted_quantile,
)
from .data import (
    AttributeCombination,
    Cuboid,
    Snapshot,
    _CuboidIndex,
    _group_rows,
    cuboids_by_layer,
)
from .ripple import deviation_score, measure_values


@dataclass
class LocalizeConfig:
    """Tunables of the localization pipeline.

    delta_exrc
        flag the fault as externally caused when the weakest cluster
        explanation scores below this.
    """

    delta_exrc: float = 0.8

    def __post_init__(self) -> None:
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
    candidate: RootCauseCandidate


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
    coverage = min(coverage, 1.0 - 1e-9)
    return (log(num_cluster + 1) / num_cluster) * (num_attr / log(num_attr + 1)) * (-log(coverage))


class _SnapshotArrays:
    """Per-leaf arrays of the explanation score, built once per verdict, and
    the per-cuboid group tallies that every cluster of the verdict shares.

    Values are non-negative (``Snapshot`` rejects negative ones).  For
    f > 0, |v − r·f| = f·|q − r| with q = v/f.  A leaf with f = 0 misfits
    by v whatever r is: it takes q = +∞, so it always ranks above r.
    Leaves are ranked on q once, here.

    Over the leaves of a prefix of ranked groups, Σ |v − r·f| =
    (V − 2·V≤) − r·(F − 2·F≤): V and F sum v and f over those leaves, V≤
    and F≤ over the ones with q ≤ r.  The f = 0 leaves, above every r,
    bring their v into V.  :class:`_GroupTallies` holds these sums per
    group of one cuboid; they live as long as this object, never on the
    ``Snapshot``.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        v, f = snapshot.leaf_values()
        self.absres = np.abs(v - f)
        m = snapshot.measure
        self.op_real = [snapshot.real[c] for c in m.operands]
        self.op_fcst = [snapshot.forecast[c] for c in m.operands]
        self.v, self.f = v, f
        q = np.divide(v, f, out=np.full(v.size, np.inf), where=f > 0.0)
        self.by_rank = np.argsort(q)
        self.q_sorted = q[self.by_rank]
        self.rank = np.empty(v.size, dtype=np.intp)
        self.rank[self.by_rank] = np.arange(v.size)
        self._tallies: dict[tuple[str, ...], _GroupTallies] = {}

    def tallies(self, idx: _CuboidIndex) -> _GroupTallies:
        """The group tallies of ``idx``'s cuboid, built on first use."""
        found = self._tallies.get(idx.attrs)
        if found is None:
            found = self._tallies[idx.attrs] = _GroupTallies(self, idx)
        return found

    def misfits(
        self, idx: _CuboidIndex, order: np.ndarray, k: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Σ |v − r_j·f| over the leaves of ``idx``'s groups ``order[:k[j] + 1]``,
        for ascending ``k``.

        A :meth:`_rank_table` over ranked blocks of groups, cumulated over
        the blocks, sums v and f over each prefix's whole blocks.  A coarse
        cuboid's blocks are its groups (:class:`_GroupTallies`).  A fine
        cuboid's are built on each call and end at prefix ends, one at or
        past each multiple of ``side`` leaves; ``side`` balances the table's
        N·L/side² cells (N leaves ranked, L in all) against the K·side
        leaves that K prefixes gather, and keeps the table within
        ``cluster.BLOCK_TERMS`` cells.  The rest is gathered leaf by leaf, in
        chunks of at most that many leaves: the leaves of r's partial rank
        block before the prefix's last block end, and for a fine cuboid the
        prefix's groups past that end.
        """
        tl = self.tallies(idx)
        order = order[: k[-1] + 1]
        position = np.full(idx.n_groups, order.size)  # past every prefix when not ranked
        position[order] = np.arange(order.size)
        # leaves with q ≤ r are exactly those ranked below t
        t = np.searchsorted(self.q_sorted, r, "right")
        fine = tl.rows is None
        if not fine:
            table, side, blocks, last, before = tl.rows, tl.side, order, k, k + 1
        else:
            run = idx.starts[order + 1] - idx.starts[order]
            seq = idx.order[_runs(idx.starts[order], run)]
            bounds = np.concatenate(([0], np.cumsum(run)))  # leaves of the first m groups
            cuts = bounds[k + 1]
            span = seq.size * self.rank.size
            side = max(1, round((span / k.size) ** (1 / 3)), isqrt(span // cluster.BLOCK_TERMS))
            # groups before each block end; the first end is k[0] + 1, so
            # every prefix holds a block
            at_side = k[np.searchsorted(cuts, np.arange(0, seq.size, side))] + 1
            stops = np.unique(np.append(at_side, order.size))
            blocks = np.arange(stops.size)
            of_leaf = np.repeat(blocks, np.diff(bounds[np.append(0, stops)]))
            table = self._rank_table(of_leaf, stops.size, side, seq)
            last = np.searchsorted(stops, k + 1, "right") - 1
            before = stops[last]
            end = bounds[before]
            tail = cuts - end  # positions [end, cut), any rank
        col = t // side
        # the rank blocks below each r's, and every rank, summed over the ranked blocks
        need = np.zeros(table.shape[2], dtype=bool)
        need[col] = need[-1] = True
        at = np.cumsum(need)[col] - 1
        upto = np.cumsum(table[:, blocks[:, None], np.flatnonzero(need)], axis=1)
        # signed sums, + above r and − at or below it: V − 2·V≤ and F − 2·F≤
        sv, sf = upto[:, last, -1] - 2.0 * upto[:, last, at]
        head = t - col * side  # ranks [col·side, t), in the groups before the last block end
        for lo, hi in _blocks(head + tail if fine else head):
            j = np.arange(hi - lo)
            jh = np.repeat(j, head[lo:hi])
            leaf = self.by_rank[_runs(col[lo:hi] * side, head[lo:hi])]
            coef = np.where(position[idx.group_of[leaf]] < before[lo:hi][jh], -2.0, 0.0)
            parts = [(jh, leaf, coef)]
            if fine:
                jt = np.repeat(j, tail[lo:hi])
                leaf = seq[_runs(end[lo:hi], tail[lo:hi])]
                parts.append((jt, leaf, np.where(self.rank[leaf] < t[lo:hi][jt], -1.0, 1.0)))
            for jj, leaf, coef in parts:
                sv[lo:hi] += np.bincount(jj, weights=coef * self.v[leaf], minlength=j.size)
                sf[lo:hi] += np.bincount(jj, weights=coef * self.f[leaf], minlength=j.size)
        return sv - r * sf

    def _rank_table(self, block, n_blocks: int, side: int, leaves=slice(None)) -> np.ndarray:
        """Sums of v and f over ``leaves`` (all by default) in ``block``, per
        block and rank block of ``side`` ranks, cumulated along ranks: cell
        ``[:, i, c]`` sums block i's leaves ranked below c·side."""
        n_rank = -(-self.rank.size // side)
        cell = block * n_rank + self.rank[leaves] // side
        table = np.zeros((2, n_blocks, n_rank + 1))
        for i, w in enumerate((self.v, self.f)):
            per_cell = np.bincount(cell, weights=w[leaves], minlength=n_blocks * n_rank)
            table[i, :, 1:] = per_cell.reshape(n_blocks, n_rank)
        return np.cumsum(table, axis=2, out=table)


class _GroupTallies:
    """One cuboid's per-group sums, shared by every cluster of a verdict.

    ``size`` counts each group's leaves; ``absres``, ``op_real`` and
    ``op_fcst`` sum |v − f| and each real and forecast operand column over
    the group's run of ``idx.order``, so that a cumulative sum over ranked
    groups equals the sum over their leaves taken run by run.

    When the groups average at least √L leaves (G² ≤ L, L leaves), ``rows``
    is their :meth:`_SnapshotArrays._rank_table`, one block per group and
    ``side`` ≈ √L ranks per rank block: at most about 2·L cells.  Deeper
    cuboids have ``rows = None``; ``misfits`` builds theirs on each call.
    """

    def __init__(self, arrays: _SnapshotArrays, idx: _CuboidIndex) -> None:
        self.size = np.diff(idx.starts)
        heads = idx.starts[:-1]

        def per_group(x):
            return np.add.reduceat(x[idx.order], heads)

        self.absres = per_group(arrays.absres)
        self.op_real = [per_group(c) for c in arrays.op_real]
        self.op_fcst = [per_group(c) for c in arrays.op_fcst]
        n_leaves, n_groups = arrays.rank.size, idx.n_groups
        self.rows = None
        if n_groups * n_groups <= n_leaves:
            self.side = isqrt(n_leaves)
            self.rows = arrays._rank_table(idx.group_of, n_groups, self.side)


class _PrefixScorer:
    """Explanation scores of prefixes of ranked groups, for one cluster.

    ``exclude`` marks leaves claimed by other clusters: they never count in
    the complement pool a candidate is compared against.  They are taken
    once here, and each cuboid tallies them per group with one pass over
    them alone.
    """

    def __init__(self, arrays: _SnapshotArrays, exclude: np.ndarray) -> None:
        self.arrays = arrays
        self.excluded = np.flatnonzero(exclude)
        self.excluded_res = arrays.absres[self.excluded]
        self.pool_res = float(arrays.absres[~exclude].sum())
        self.pool_n = exclude.size - self.excluded.size

    def scores(self, idx: _CuboidIndex, order: np.ndarray) -> np.ndarray:
        """:func:`explanation_score` of the groups ``order[:k]`` of ``idx``, for k = 1 .. K.

        ``d_va`` compares the candidate's leaves against the values the ripple
        pattern implies for them, ``d_vf`` against their forecasts, and
        ``d_pf`` compares every other pooled leaf against its forecast.
        ``d_va`` is the mean of |v − r·f| over the candidate's leaves, r being
        its ripple ratio v_s/f_s.  With f ≥ 0, a leaf's term is v − r·f when
        q = v/f lies above r (always when f = 0) and r·f − v otherwise, so
        the candidate's sum is (V − 2·V≤) − r·(F − 2·F≤): V and F sum v and
        f over its leaves, V≤ and F≤ over the ones with q ≤ r.  Every other
        sum is a cumulative sum of the cuboid's group tallies;
        :meth:`_SnapshotArrays.misfits` takes the misfit sums for every prefix
        at once from one ranking of q.
        """
        tl = self.arrays.tallies(idx)
        size = tl.size[order]
        cuts = np.cumsum(size)
        absres = tl.absres[order]
        d_vf = np.cumsum(absres) / cuts
        of = idx.group_of[self.excluded]
        out_res = np.bincount(of, weights=self.excluded_res, minlength=idx.n_groups)[order]
        out_n = np.bincount(of, minlength=idx.n_groups)[order]
        pool_res = self.pool_res - np.cumsum(absres - out_res)
        pool_n = self.pool_n - np.cumsum(size - out_n)
        d_pf = np.divide(pool_res, pool_n, out=np.zeros(cuts.size), where=pool_n > 0)

        kind = self.arrays.snapshot.measure.kind
        v_s = measure_values(kind, [np.cumsum(c[order]) for c in tl.op_real])
        f_s = measure_values(kind, [np.cumsum(c[order]) for c in tl.op_fcst])
        # without forecast mass the ripple ratio is undefined: the slice is
        # taken as-is.  A zero real denominator needs no case of its own,
        # since every leaf rate under it is 0 as well.
        d_va = np.zeros(cuts.size)
        fit = np.flatnonzero(f_s > 0.0)
        if fit.size:
            d_va[fit] = self.arrays.misfits(idx, order, fit, v_s[fit] / f_s[fit]) / cuts[fit]

        denom = d_vf + d_pf
        gps = 1.0 - (d_va + d_pf) / np.where(denom > 0.0, denom, 1.0)
        # a misfit sum that rounds below 0 would lift gps past 1, where the
        # search's layer bound no longer holds
        return np.where(denom > 0.0, np.minimum(gps, 1.0), 0.0)


def explanation_score(snapshot: Snapshot, combinations: Sequence[AttributeCombination]) -> float:
    """Score how well ``combinations`` explain the anomaly (at most 1).

    The candidate's leaves are compared against the values the ripple pattern
    would imply for them; every other leaf is compared against its forecast.
    1 means the candidate's slice deviates exactly in proportion and the rest
    of the data is quiet.  The candidate is scored as group 0 of a two-group
    partition: its leaves against all other leaves.
    """
    outside = ~snapshot.leaf_mask(*combinations)
    if outside.all():
        raise ValueError("empty candidate, or one with no descended leaves")
    idx = _CuboidIndex((), (), *_group_rows(outside[:, None], [2]))
    scorer = _PrefixScorer(_SnapshotArrays(snapshot), np.zeros(snapshot.n_leaves, dtype=bool))
    return float(scorer.scores(idx, np.array([0]))[0])


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
    sizes = scorer.arrays.tallies(idx).size
    ratio = member / (member + (sizes[held] - inside))
    # stable, and the held ids ascend: ties fall to the group id
    order = held[np.lexsort((-member, -ratio))]

    gps = scorer.scores(idx, order)
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
) -> RootCauseCandidate:
    """Layered search over cuboids; argmax of score·weight − complexity.

    ``membership`` is the cluster's mass on each of ``leaves`` (ascending); other leaves hold none.
    It is nonzero on at least one leaf, so every cuboid has a winner.
    ``arrays`` are the snapshot's, shared by every cluster of one verdict.
    Cuboid winners are ranked on their numbers alone; only the winners tied
    at the top are decoded into combinations, whose names break the tie.

    Layers are searched shallow to deep, and the search stops before layer ℓ
    once the best key ranks strictly above ``weight − ℓ²``.  That bound is
    exact: gps ≤ 1, ``weight`` > 0 and a layer-ℓ candidate costs at least ℓ²,
    so no candidate there or deeper can reach it.  A tie with the ceiling is
    still searched, so the result is the argmax over every cuboid of every layer.
    """
    held = membership != 0.0
    leaves, membership = leaves[held], membership[held]
    scorer = _PrefixScorer(arrays, exclude)
    snapshot = arrays.snapshot
    found = []  # (rank key, cuboid, its index, gps, ascending group ids)
    for layer, cuboids in groupby(cuboids_by_layer(snapshot.schema), attrgetter("layer")):
        if found and min(f[0][0] for f in found) < -round(weight - layer**2, 9):
            break
        for cuboid in cuboids:
            idx = snapshot.cuboid_index(cuboid)
            gps, groups = _best_prefix(scorer, idx, leaves, membership)
            # complexity sums each combination's squared size, so that two
            # 2-attribute combinations (8) read as worse than one plus context (4 + 1)
            key = _rank_key(gps, groups.size * layer**2, weight)
            found.append((key, cuboid, idx, gps, groups))
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
    # carry no signal; their leaves stay in the complement pool.  The knee
    # is never below the smallest residual, so some leaf is normal.
    normal = resid <= threshold
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
    # a kept cluster holds at least MIN_CLUSTER_MASS, so some leaf has member
    # mass and the search always finds a candidate
    for c in clusters:
        # a leaf mostly explained by the other clusters combined leaves the
        # complement pool, even when no single cluster claims it outright
        exclude = np.zeros(n, dtype=bool)
        exclude[abnormal] = total_membership - c.membership > 0.5
        weight = tradeoff_weight(num_cluster, num_attr, c.mass / n)
        cand = localize_cluster(arrays, abnormal, c.membership, exclude, weight)
        results.append(ClusterResult(c.bounds, cand))

    min_gps = min(r.candidate.gps for r in results)
    external = min_gps < cfg.delta_exrc
    # a cluster whose best candidate scores below delta_exrc is judged not
    # explainable by any combination; it raises the external flag instead of
    # contributing a poorly supported prediction
    root_causes = [r.candidate.combinations for r in results if r.candidate.gps >= cfg.delta_exrc]
    return LocalizationReport(
        root_causes, results, min_gps, external, time.perf_counter() - t0,
        score_density=density,
    )


# -- external-root-cause threshold from history ----------------------------

_EXRC_BINS = N_BINS // 2 + 1  # [0, 1]: the upper half of the score grid


def select_exrc_threshold(history: Sequence[float]) -> float:
    """Data-driven flagging threshold from historical minimum scores.

    Healthy incidents produce high minimum explanation scores, externally
    caused ones low; with enough history the two form separate modes.  The
    values are binned on [0, 1], smoothed, and cut at density minima; the
    returned threshold is the lower edge of the highest mode.  Above the
    highest value the smoothed density only falls, so no minimum lies there
    and the highest mode starts at the last minimum.  Under five observations
    the ``LocalizeConfig.delta_exrc`` default is returned.  A NaN or infinite
    value, or an integer beyond the float range, raises ``ValueError``.
    """
    try:
        vals = np.asarray(list(history), dtype=float)
    except OverflowError:  # an integer beyond the float range counts as infinite
        vals = np.array([np.inf])
    if not np.all(np.isfinite(vals)):
        raise ValueError("history values must be finite")
    if vals.size < 5:
        return LocalizeConfig.delta_exrc
    bins = np.round(np.clip(vals, 0.0, 1.0) / SCORE_STEP).astype(int)  # 0 .. _EXRC_BINS - 1
    hist = np.bincount(bins, minlength=_EXRC_BINS).astype(float)
    mins = _interior_minima(_smoothed(hist))
    return mins[-1] * SCORE_STEP if mins else 0.0
