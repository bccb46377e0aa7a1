"""Root cause search: per-cluster drill-down and report assembly.

Given clustered abnormal leaves, each cluster is explained independently,
though all of them are searched in one pass per layer.  Cuboids are visited
shallow to deep; inside a cuboid, combinations are ranked by how
exclusively their leaves belong to the cluster, and growing prefixes of that
ranking are scored.  The score rewards candidates whose leaves deviate in
lockstep (the ripple pattern an upstream cause produces) and whose
complement looks undisturbed.  Across cuboids, a tradeoff weight balances
that score against the verbosity of the candidate.
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
    _count_keys,
    _group_rows,
    cuboids_by_layer,
)
from .ripple import deviation_score, measure_values


@dataclass(frozen=True)
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
    """Per-leaf arrays of the explanation score, built once per verdict.

    Values are non-negative (``Snapshot`` rejects negative ones).  For
    f > 0, |v − r·f| = f·|q − r| with q = v/f.  A leaf with f = 0 misfits
    by v whatever r is: it takes q = +∞, so it always ranks above r.
    Leaves are ranked on q once, here.

    Over the leaves of a prefix of ranked groups, Σ |v − r·f| =
    (V − 2·V≤) − r·(F − 2·F≤): V and F sum v and f over those leaves, V≤
    and F≤ over the ones with q ≤ r.  The f = 0 leaves, above every r,
    bring their v into V.
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


class _Cluster:
    """One cluster as the search sees it: the leaves it holds member mass on,
    and the complement pool its candidates are compared against.

    ``exclude`` marks leaves claimed by other clusters: they never count in
    the pool.  They are taken once here, and each row tallies them per group.
    """

    def __init__(
        self, arrays: _SnapshotArrays, leaves: np.ndarray, membership: np.ndarray,
        exclude: np.ndarray,
    ) -> None:
        held = membership != 0.0
        self.leaves, self.mass = leaves[held], membership[held]
        self.excluded = np.flatnonzero(exclude)
        self.excluded_res = arrays.absres[self.excluded]
        self.pool_res = float(arrays.absres[~exclude].sum())
        self.pool_n = exclude.size - self.excluded.size


class _Layer:
    """The cuboids of one layer and their per-group sums, which every cluster
    of a verdict shares; built once per verdict and layer.

    Cuboid i's groups take rows ``offset[i]:offset[i + 1]`` of the tallies.
    ``size`` counts each group's leaves; ``absres``, ``op_real`` and
    ``op_fcst`` sum |v − f| and each real and forecast operand column over
    the group's run of ``idx.order``, so that a cumulative sum over ranked
    groups equals the sum over their leaves taken run by run.  The misfit
    sums need each leaf's rank as well, so :class:`_Misfits` tables them
    per chunk of rows, over the groups those rows rank.
    """

    def __init__(self, arrays: _SnapshotArrays, idxs: list[_CuboidIndex]) -> None:
        self.arrays, self.idxs = arrays, idxs
        self.n_groups = np.array([idx.n_groups for idx in idxs])
        self.offset = np.cumsum(self.n_groups) - self.n_groups

        def per_group(x):
            return np.concatenate([np.add.reduceat(x[idx.order], idx.starts[:-1]) for idx in idxs])

        self.size = np.concatenate([np.diff(idx.starts) for idx in idxs])
        self.absres = per_group(arrays.absres)
        self.op_real = [per_group(c) for c in arrays.op_real]
        self.op_fcst = [per_group(c) for c in arrays.op_fcst]

    def rank(self, clusters: list[_Cluster], cub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The groups that hold member mass, ranked, row after row, and their
        count per row.  Row i is ``clusters[i]`` on cuboid ``cub[i]``.

        Groups rank by the share of their leaves the cluster holds, then by
        its mass on them, then by id, which is the order of their value
        names.  ``bincount`` tallies every (row, group) at once and one
        ``lexsort`` ranks them, the row first, in chunks whose tallies and
        keys stay within ``cluster.BLOCK_TERMS`` cells.
        """
        ranked, counts = [], []
        n_groups = self.n_groups[cub]
        for s, e in _blocks(n_groups + [c.leaves.size for c in clusters]):
            off = np.cumsum(n_groups[s:e]) - n_groups[s:e]
            keys = np.concatenate(
                [self.idxs[i].group_of[c.leaves] + o for c, i, o in zip(clusters[s:e], cub[s:e], off)]
            )
            mass = np.concatenate([c.mass for c in clusters[s:e]])
            n_bins = off[-1] + n_groups[e - 1]
            member = np.bincount(keys, weights=mass, minlength=n_bins)
            inside = np.bincount(keys, minlength=n_bins)
            held = np.flatnonzero(inside)
            row = np.searchsorted(off, held, "right") - 1
            group = held - off[row]
            member, inside = member[held], inside[held]
            ratio = member / (member + (self.size[self.offset[cub[s:e]][row] + group] - inside))
            # stable, and each row's groups ascend: ties fall to the group id
            ranked.append(group[np.lexsort((-member, -ratio, row))])
            counts.append(np.bincount(row, minlength=e - s))
        return np.concatenate(ranked), np.concatenate(counts)

    def best_prefixes(
        self, clusters: list[_Cluster], cub: np.ndarray
    ) -> list[tuple[float, np.ndarray]]:
        """Each row's best prefix of its ranked groups (:meth:`rank`): its
        gps and its groups, in rank order.

        Rows are scored by falling group count, in chunks whose (row × rank)
        arrays and (row × group) tallies each stay within
        ``cluster.BLOCK_TERMS`` cells, so a chunk carries little padding.  A
        row that ranks K > √L groups (L leaves) also counts the misfit table
        it reads alone, at most L + 2·K cells (:class:`_Misfits`); rows that
        rank fewer share one per cuboid.
        """
        ranked, counts = self.rank(clusters, cub)
        start = np.cumsum(counts) - counts
        by = np.argsort(-counts, kind="stable")
        n_leaves, n_ranked = self.arrays.rank.size, counts[by]
        alone = np.where(n_ranked > isqrt(n_leaves), n_leaves + 2 * n_ranked, 0)
        cost = self.n_groups[cub[by]] + alone
        ends = np.cumsum(cost)
        out: list = [None] * len(clusters)
        budget = cluster.BLOCK_TERMS
        s = 0
        while s < by.size:
            e = int(np.searchsorted(ends, ends[s] - cost[s] + budget, "right"))
            e = max(s + 1, min(e, s + budget // counts[by[s]]))
            rows = by[s:e]
            k = counts[rows]
            order = ranked[start[rows][:, None] + np.minimum(np.arange(k[0]), k[:, None] - 1)]
            best, gps = _Rows(self, [clusters[r] for r in rows], cub[rows], order, k).best()
            for r, o, b, g in zip(rows.tolist(), order, best.tolist(), gps.tolist()):
                out[r] = (g, o[: b + 1])
            s = e
        return out


class _Rows:
    """Explanation scores of the prefixes of a chunk of rows, each one
    cluster's ranked groups in one cuboid of a layer.

    Row i ranks the groups ``order[i, :K[i]]`` of ``layer.idxs[cub[i]]``;
    past ``K[i]`` it is padding.  ``d_va`` compares a candidate's leaves
    against the values the ripple pattern implies for them, ``d_vf`` against
    their forecasts, and ``d_pf`` compares every other pooled leaf against
    its forecast.  ``d_va`` is the mean of |v − r·f| over the candidate's
    leaves, r being its ripple ratio v_s/f_s, and :class:`_Misfits` bounds
    and sums it; every other sum is a cumulative sum of the layer's group
    tallies along the row.  Each sum runs along its row alone, so a score is
    the same to the bit whichever rows share the chunk.
    """

    def __init__(
        self, layer: _Layer, clusters: list[_Cluster], cub: np.ndarray, order: np.ndarray,
        K: np.ndarray,
    ) -> None:
        self.valid = np.arange(order.shape[1]) < K[:, None]
        at = layer.offset[cub][:, None] + order
        size = layer.size[at]
        self.cuts = np.cumsum(size, axis=1)
        absres = layer.absres[at]
        self.d_vf = np.cumsum(absres, axis=1) / self.cuts
        # the leaves other clusters claim, tallied per (row, group)
        n_groups = layer.n_groups[cub]
        off = np.cumsum(n_groups) - n_groups
        of = np.concatenate(
            [layer.idxs[i].group_of[c.excluded] + o for c, i, o in zip(clusters, cub, off)]
        )
        res = np.concatenate([c.excluded_res for c in clusters])
        ranked = off[:, None] + order
        out_res = np.bincount(of, weights=res, minlength=n_groups.sum())[ranked]
        out_n = np.bincount(of, minlength=n_groups.sum())[ranked]
        pool_res = np.array([[c.pool_res] for c in clusters]) - np.cumsum(absres - out_res, axis=1)
        pool_n = np.array([[c.pool_n] for c in clusters]) - np.cumsum(size - out_n, axis=1)
        self.d_pf = np.divide(pool_res, pool_n, out=np.zeros(pool_res.shape), where=pool_n > 0)

        kind = layer.arrays.snapshot.measure.kind
        v_s = measure_values(kind, [np.cumsum(c[at], axis=1) for c in layer.op_real])
        f_s = measure_values(kind, [np.cumsum(c[at], axis=1) for c in layer.op_fcst])
        # without forecast mass the ripple ratio is undefined: the slice is
        # taken as-is (d_va = 0).  A zero real denominator needs no case of
        # its own, since every leaf rate under it is 0 as well.
        self.fit = (f_s > 0.0) & self.valid
        self.ratio = np.divide(v_s, f_s, out=np.zeros(f_s.shape), where=self.fit)
        self.bounds = _Misfits(layer, cub, order, K, *np.nonzero(self.fit), self.ratio[self.fit])

    def gps(self, misfit: np.ndarray) -> np.ndarray:
        """:func:`explanation_score` of every prefix, from its Σ |v − r·f|
        (0 where it has no fit)."""
        denom = self.d_vf + self.d_pf
        gps = 1.0 - (misfit / self.cuts + self.d_pf) / np.where(denom > 0.0, denom, 1.0)
        # a misfit sum that rounds below 0 would lift gps past 1, where the
        # search's layer bound no longer holds
        return np.where(denom > 0.0, np.minimum(gps, 1.0), 0.0)

    def exact(self, want: np.ndarray) -> np.ndarray:
        """Σ |v − r·f| of the fit prefixes ``want``, 0 elsewhere."""
        misfit = np.zeros(want.shape)
        b = self.bounds
        sel = np.flatnonzero(want[b.row, b.j])
        misfit[b.row[sel], b.j[sel]] = b.exact(sel)
        return misfit

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's first best prefix and its gps.

        Each fit prefix takes a gps ceiling from its misfit floor
        (:class:`_Misfits`).  The prefix with the row's highest ceiling is
        summed first, then every prefix whose ceiling reaches the best gps
        summed so far.  A prefix left out scores strictly below that best,
        so the argmax and its first-index tie rule are those over every
        prefix.
        """
        b = self.bounds
        misfit = np.zeros(self.valid.shape)
        lower = misfit.copy()
        lower[b.row, b.j] = b.floor
        ceiling = np.where(self.valid, self.gps(lower), -np.inf)
        done = self.valid & ~self.fit
        rows = np.arange(ceiling.shape[0])
        want = np.zeros(done.shape, dtype=bool)
        want[rows, np.argmax(ceiling, axis=1)] = True
        for _ in range(2):
            want &= ~done
            misfit = np.where(want, self.exact(want), misfit)
            done |= want
            gps = np.where(done, self.gps(misfit), -np.inf)
            # then every prefix whose ceiling reaches the best summed so far:
            # ≥, and a NaN best leaves nothing out
            want = self.valid & ~(ceiling < gps.max(axis=1, keepdims=True))
        best = np.argmax(gps, axis=1)
        return best, gps[rows, best]


class _Misfits:
    """Σ |v − r·f| over prefixes of ranked groups, for a chunk of rows.

    Prefix p holds the groups ``order[row[p], :j[p] + 1]`` of cuboid
    ``layer.idxs[cub[row[p]]]`` and has ripple ratio ``r[p]``; ``row``
    ascends.  Its leaves with q ≤ r are those ranked below t.

    ``table`` sums v and f per ranked group and block of ranks, cumulated
    along ranks.  Row i's blocks hold ``side[i]`` = max(√L, K[i]) ranks (L
    leaves), so its K[i] groups take at most L + 2·K[i] cells, while each
    prefix summed exactly gathers at most ``side[i]`` leaves.  The rows of
    one cuboid and side share a table over the groups any of them ranks,
    built with one ``bincount`` of v and one of f over the cuboid's leaves;
    the leaves of the other groups fall into one last row, which no prefix
    reads.  A side set by its row alone keeps each sum the same to the bit
    whichever rows share the chunk.  Lanes, one per (row, table column) that
    some prefix reads, cumulate the table over the row's ranked groups, in
    chunks of at most ``cluster.BLOCK_TERMS`` cells.

    ``floor`` bounds each sum from below from the table alone.  With col =
    ⌊t / side⌋, the leaves ranked below col·side all sit at or below r and
    bring r·F − V exactly, the leaves ranked from (col + 1)·side on all sit
    above it and bring V − r·F exactly, and r's own rank block brings at
    least |V − r·F|.  :meth:`exact` adds the leaves of r's block ranked
    below t, gathered one by one, to the table's V − 2·V≤ and F − 2·F≤.
    """

    def __init__(
        self, layer: _Layer, cub: np.ndarray, order: np.ndarray, K: np.ndarray,
        row: np.ndarray, j: np.ndarray, r: np.ndarray,
    ) -> None:
        arrays = layer.arrays
        n_leaves = arrays.rank.size
        self.layer, self.cub, self.row, self.j, self.r = layer, cub, row, j, r
        self.side = np.maximum(isqrt(n_leaves), K)
        n_rank = -(-n_leaves // self.side)
        valid = np.arange(order.shape[1]) < K[:, None]
        # one table per (cuboid, side): the groups its rows rank, in group
        # order, take its first rows, and the others share its last row
        span = layer.n_groups.size * (n_leaves + 1)  # above every key
        keys, tab_of, _ = _count_keys(cub * (n_leaves + 1) + self.side, span)
        tab_cub, tab_side = np.divmod(keys, n_leaves + 1)
        tab_groups = layer.n_groups[tab_cub]
        group_at = np.cumsum(tab_groups) - tab_groups
        ranked = np.zeros(tab_groups.sum(), dtype=bool)
        ranked[(group_at[tab_of][:, None] + order)[valid]] = True
        ranked = np.flatnonzero(ranked)
        tab = np.searchsorted(group_at, ranked, "right") - 1
        n = np.bincount(tab, minlength=keys.size)
        group_row = np.repeat(n, tab_groups)
        group_row[ranked] = np.arange(ranked.size) - (np.cumsum(n) - n)[tab]
        heights, cols = n + 1, -(-n_leaves // tab_side)
        size = heights * (cols + 1)
        tab_at = np.cumsum(size) - size
        self.table = np.zeros((2, size.sum()))
        rank_block = {side: arrays.rank // side for side in set(tab_side.tolist())}
        for t, (u, side) in enumerate(zip(tab_cub.tolist(), tab_side.tolist())):
            h, c = heights[t], cols[t]
            cell = group_row[group_at[t]:group_at[t] + tab_groups[t]][layer.idxs[u].group_of]
            cell *= c
            cell += rank_block[side]
            for i, w in enumerate((arrays.v, arrays.f)):
                table = self.table[i, tab_at[t]:tab_at[t] + size[t]].reshape(h, c + 1)
                table[:, 1:] = np.bincount(cell, weights=w, minlength=h * c).reshape(h, c)
                np.cumsum(table, axis=1, out=table)
        # the first cell of each ranked group's table row, by row and rank
        width = n_rank + 1
        at_row = group_row[group_at[tab_of][:, None] + order]
        cells = tab_at[tab_of][:, None] + at_row * width[:, None]
        self.t = np.searchsorted(arrays.q_sorted, r, "right")
        self.col = self.t // self.side[row]
        last, lane_width = n_rank[row], width.max()
        reads = np.stack([self.col, np.minimum(self.col + 1, last), last])
        lanes, lane_of, _ = _count_keys((reads + row * lane_width).ravel(), cub.size * lane_width)
        lane_of = lane_of.reshape(reads.shape)
        lane_row, lane_col = np.divmod(lanes, lane_width)
        n_lanes = np.bincount(lane_row, minlength=cub.size)
        lane_at = np.cumsum(n_lanes) - n_lanes
        p_at = np.searchsorted(row, np.arange(cub.size + 1))
        sums = np.empty((2, 3, r.size))
        for s, e in _blocks(2 * order.shape[1] * n_lanes):
            l0, l1 = lane_at[s], lane_at[e - 1] + n_lanes[e - 1]
            p0, p1 = p_at[s], p_at[e]
            upto = self.table[:, cells[lane_row[l0:l1]] + lane_col[l0:l1, None]]
            np.cumsum(upto, axis=2, out=upto)
            sums[:, :, p0:p1] = upto[:, lane_of[:, p0:p1] - l0, j[p0:p1]]
        (vl, vh, v), (fl, fh, f) = sums
        # signed sums, + above r and − at or below it, but for r's rank
        # block: V − 2·V≤ and F − 2·F≤ once :meth:`exact` adds that block
        self.sv, self.sf = v - 2.0 * vl, f - 2.0 * fl
        # Every table sum adds at most L non-negative leaf values (L leaves),
        # so it is off by at most L·eps/2 of the prefix's V (or F).  The floor
        # reads five such sums, the exact sum three plus r's block of at most
        # side ≤ L gathered leaves, and each takes a few more roundings of
        # size at most 3·eps·(V + r·F): together less than (5·L + 30)·eps·
        # (V + r·F), so with this slack a floor never passes its exact sum.
        slack = 16.0 * (n_leaves + 2) * np.finfo(float).eps * (v + r * f)
        self.floor = (r * fl - vl) + ((v - vh) - r * (f - fh)) + np.abs((vh - vl) - r * (fh - fl))
        self.floor -= slack
        # each row's ranked groups by position, for the gather
        n_groups = layer.n_groups[cub]
        self.group_at = np.cumsum(n_groups) - n_groups
        self.position = np.full(n_groups.sum(), order.shape[1])  # past every prefix when not ranked
        self.position[(self.group_at[:, None] + order)[valid]] = np.nonzero(valid)[1]

    def exact(self, sel: np.ndarray) -> np.ndarray:
        """The sums of the prefixes ``sel``.  Each gathers r's rank block
        ranked below t, in chunks of at most ``cluster.BLOCK_TERMS`` leaves,
        and counts the leaves of its own groups."""
        layer, arrays = self.layer, self.layer.arrays
        row, j = self.row[sel], self.j[sel]
        start = self.col[sel] * self.side[row]
        head = self.t[sel] - start  # ranks [col·side, t)
        sv, sf = self.sv[sel], self.sf[sel]
        for lo, hi in _blocks(head):
            jh = np.repeat(np.arange(hi - lo), head[lo:hi])
            leaf = arrays.by_rank[_runs(start[lo:hi], head[lo:hi])]
            at = row[lo:hi][jh]
            cub = self.cub[at]
            group = np.empty_like(leaf)
            for u in np.unique(self.cub[row[lo:hi]]).tolist():
                group[cub == u] = layer.idxs[u].group_of[leaf[cub == u]]
            coef = np.where(self.position[self.group_at[at] + group] <= j[lo:hi][jh], -2.0, 0.0)
            sv[lo:hi] += np.bincount(jh, weights=coef * arrays.v[leaf], minlength=hi - lo)
            sf[lo:hi] += np.bincount(jh, weights=coef * arrays.f[leaf], minlength=hi - lo)
        return sv - self.r[sel] * sf


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
    arrays = _SnapshotArrays(snapshot)
    pool = _Cluster(arrays, np.empty(0, dtype=np.intp), np.empty(0), np.zeros(outside.size, bool))
    zero = np.zeros(1, dtype=np.intp)
    _, gps = _Rows(_Layer(arrays, [idx]), [pool], zero, zero[:, None], zero + 1).best()
    return float(gps[0])


# -- the search ------------------------------------------------------------


def _rank_key(gps: float, complexity: int, weight: float) -> tuple[float, float, int]:
    # at the verdict's precision, so that exact ties in the last bit fall
    # through to the names
    return (-round(gps * weight - complexity, 9), -round(gps, 9), complexity)


def localize_cluster(
    arrays: _SnapshotArrays,
    leaves: np.ndarray,
    memberships: np.ndarray,
    excludes: np.ndarray,
    weights: Sequence[float],
) -> list[RootCauseCandidate]:
    """Layered search over cuboids for every kept cluster of a verdict: per
    cluster, the argmax of score·weight − complexity.

    Cluster c has mass ``memberships[c]`` on each of ``leaves`` (ascending)
    and none on other leaves.  It must be nonzero on some leaf, so that every
    cuboid has a winner.  ``excludes[c]`` marks the leaves that other
    clusters claim, which leave c's complement pool, and ``weights[c]`` is
    c's tradeoff weight.  ``arrays`` are the snapshot's.  One candidate
    comes back per cluster, in order.

    Layers are searched shallow to deep, one pass per layer: each cluster
    still searching is paired with each cuboid of the layer, and each pair is
    a row of :meth:`_Layer.best_prefixes`.  A cluster stops before layer ℓ
    once its best key ranks strictly above ``weight − ℓ²``.  That bound is
    exact: gps ≤ 1, ``weight`` > 0 and a layer-ℓ candidate costs at least
    ℓ², so no candidate there or deeper can reach it.  A tie with the ceiling
    is still searched, so each result is the argmax over every cuboid of
    every layer.  Within a cuboid, a prefix goes unsummed only when a floor
    on its misfit sum caps its gps strictly below the best one summed
    (:meth:`_Rows.best`), so that pruning is exact as well.  Cuboid winners
    are ranked on their numbers alone; only the winners tied at the top are
    decoded into combinations, whose names break the tie.
    """
    snapshot = arrays.snapshot
    clusters = [_Cluster(arrays, leaves, m, e) for m, e in zip(memberships, excludes)]
    found: list[list] = [[] for _ in clusters]  # (rank key, cuboid, its index, gps, groups)
    for layer, cuboids in groupby(cuboids_by_layer(snapshot.schema), attrgetter("layer")):
        searching = [
            c for c, f in enumerate(found)
            if not (f and min(k[0][0] for k in f) < _rank_key(1.0, layer**2, weights[c])[0])
        ]
        if not searching:
            break
        cuboids = list(cuboids)
        tallies = _Layer(arrays, [snapshot.cuboid_index(cuboid) for cuboid in cuboids])
        rows = [(c, i) for i in range(len(cuboids)) for c in searching]
        best = tallies.best_prefixes([clusters[c] for c, _ in rows], np.array([i for _, i in rows]))
        for (c, i), (gps, groups) in zip(rows, best):
            # complexity sums each combination's squared size, so that two
            # 2-attribute combinations (8) read as worse than one plus context (4 + 1)
            key = _rank_key(gps, groups.size * layer**2, weights[c])
            found[c].append((key, cuboids[i], tallies.idxs[i], gps, groups))
    return [_decode_winner(f) for f in found]


def _decode_winner(found: list) -> RootCauseCandidate:
    top = min(f[0] for f in found)
    tied = [
        RootCauseCandidate(tuple(idx.combination(g) for g in np.sort(groups)), gps, cuboid)
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


def _abnormal(snapshot: Snapshot) -> tuple[float, np.ndarray, cluster.ScoreMass | None]:
    """Stages 1 and 2: the knee of |v − f|, the leaves above it (ascending)
    and their score mass in the measure's family, ``None`` if there are none."""
    v, f = snapshot.leaf_values()
    resid = np.abs(v - f)
    threshold = knee_threshold(resid)
    abnormal = np.flatnonzero(resid > threshold)
    if abnormal.size == 0:
        return threshold, abnormal, None
    family = snapshot.measure.distribution_family
    return threshold, abnormal, leaf_distributions(v[abnormal], f[abnormal], family)


def _kept(snapshot: Snapshot, abnormal: np.ndarray, clusters: list) -> list:
    """The clusters outside the noise band (``NOISE_BAND_QUANTILE``) of the leaves the knee left
    normal (all but ``abnormal``, one at least); the others' leaves stay in the complement pool."""
    v, f = snapshot.leaf_values()
    normal = np.delete(np.arange(v.size), abnormal)
    scores = np.abs(deviation_score(v[normal], f[normal]))
    band = weighted_quantile(scores, snapshot.leaf_weights()[normal], NOISE_BAND_QUANTILE)
    return [c for c in clusters if abs(c.center) > band]


def _search_inputs(snapshot: Snapshot, abnormal: np.ndarray, clusters: list):
    """The memberships, exclusion masks and tradeoff weights of ``clusters``."""
    n = snapshot.n_leaves
    memberships = np.array([c.membership for c in clusters])
    # a leaf mostly explained by the other clusters combined leaves the
    # complement pool, even when no single cluster claims it outright
    excludes = np.zeros((len(clusters), n), dtype=bool)
    excludes[:, abnormal] = memberships.sum(axis=0) - memberships > 0.5
    num_attr = snapshot.schema.n_attributes
    weights = [tradeoff_weight(len(clusters), num_attr, c.mass / n) for c in clusters]
    return memberships, excludes, weights


def localize(snapshot: Snapshot, cfg: LocalizeConfig | None = None) -> LocalizationReport:
    """Run the full pipeline on one snapshot."""
    cfg = cfg or LocalizeConfig()
    t0 = time.perf_counter()
    threshold, abnormal, scores = _abnormal(snapshot)
    density = np.zeros(N_BINS) if scores is None else scores.histogram / len(scores)
    clusters = [] if scores is None else _kept(snapshot, abnormal, cluster_distributions(scores))
    if not clusters:
        return _no_cluster_report(*snapshot.leaf_values(), threshold, density, t0)

    # a kept cluster holds at least MIN_CLUSTER_MASS, so some leaf has member
    # mass and the search always finds a candidate
    arrays = _SnapshotArrays(snapshot)
    candidates = localize_cluster(arrays, abnormal, *_search_inputs(snapshot, abnormal, clusters))
    results = [ClusterResult(c.bounds, cand) for c, cand in zip(clusters, candidates)]

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
