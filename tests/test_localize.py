import dataclasses
import importlib
import itertools
import sys
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

localize_mod = importlib.import_module("rootdrill.localize")
cluster_mod = importlib.import_module("rootdrill.cluster")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from rootdrill import (
    AttributeCombination,
    LocalizeConfig,
    MeasureSpec,
    SimulationParams,
    aggregate,
    explanation_score,
    knee_threshold,
    localize,
    parse_snapshot,
    select_exrc_threshold,
    simulate_fault,
    snapshot_from_rows,
    synthetic_base,
)
from rootdrill.cluster import (
    _interior_minima,
    bin_of,
    cluster_distributions,
    leaf_distributions,
    weighted_quantile,
)
from rootdrill.data import (
    Cuboid,
    Snapshot,
    _CuboidIndex,
    _group_rows,
    cuboids_by_layer,
    drop_attributes,
)
from rootdrill.forecast import render_table
from rootdrill.ripple import UndefinedValueError, deviation_score, measure_values
from rootdrill.localize import (
    RootCauseCandidate,
    _abnormal,
    _Cluster,
    _kept,
    _Layer,
    _Misfits,
    _rank_key,
    _Rows,
    _search_inputs,
    _SnapshotArrays,
    localize_cluster,
    tradeoff_weight,
)
from summary import report_signature  # noqa: E402
from test_verdict_pin import PINS, planted, verdict  # noqa: E402


def combo(**bindings):
    return AttributeCombination.from_bindings(bindings)


def planted_snapshot(n_values=3, d=0.5, quiet_noise=0.0, seed=0):
    """2-attribute grid with {A=a0} deviating by score ``d`` exactly."""
    rng = np.random.default_rng(seed)
    rows = [(f"a{i}", f"b{j}") for i in range(n_values) for j in range(n_values)]
    f = rng.uniform(50, 150, len(rows))
    v = f * (1.0 + quiet_noise * rng.standard_normal(len(rows)))
    a0 = np.array([r[0] == "a0" for r in rows])
    v[a0] = f[a0] * (1.0 - d) / (1.0 + d)
    return snapshot_from_rows(
        ("A", "B"), rows, {"value": v}, {"value": f}, MeasureSpec()
    )


class TestTradeoffWeight:
    def test_known_values(self):
        from math import e

        assert tradeoff_weight(1, 2, 1 / e) == pytest.approx(1.2618595071429146)
        assert tradeoff_weight(3, 4, 0.5) == pytest.approx(0.7960593118982239)

    def test_full_coverage_clamped_positive(self):
        w = tradeoff_weight(1, 2, 1.0)
        assert 0.0 < w < 1e-6

    def test_monotone_in_coverage(self):
        assert tradeoff_weight(1, 4, 0.01) > tradeoff_weight(1, 4, 0.5)


# -- the search's rules, written out for the references below ----------------


def candidate_complexity(combinations):
    """Verbosity cost of a candidate: squared size of each combination, summed."""
    return sum(len(e) ** 2 for e in combinations)


def member_ratio(member, nonmember):
    """Member mass against member mass plus outsider count (0 without members)."""
    return np.divide(member, member + nonmember, out=np.zeros(member.shape), where=member > 0.0)


def candidate_sort_key(c, weight):
    """Score·weight − complexity, then gps, both at 9 digits, then complexity
    and the combinations' names."""
    complexity = candidate_complexity(c.combinations)
    return (
        -round(c.gps * weight - complexity, 9),
        -round(c.gps, 9),
        complexity,
        tuple(e.items for e in c.combinations),
    )


class TestCandidateComplexity:
    def test_values(self):
        assert candidate_complexity([]) == 0
        assert candidate_complexity([combo(a="1")]) == 1
        assert candidate_complexity([combo(a="1", b="2"), combo(a="3", b="4")]) == 8
        # the search's size·layer² on candidates of one cuboid
        for layer in (1, 2, 3):
            for size in (1, 2, 5):
                combos = [combo(**{f"a{j}": str(i) for j in range(layer)}) for i in range(size)]
                assert candidate_complexity(combos) == size * layer**2
        # quadratic: at equal gps, two 1-attribute combinations (2) rank
        # above one 2-attribute combination (4)
        assert _rank_key(0.9, 2 * 1**2, 10.0) < _rank_key(0.9, 1 * 2**2, 10.0)


@pytest.mark.parametrize(
    "cuboid, target, members, want",
    [
        pytest.param(("Province",), combo(Province="Beijing"), {0: 1.0, 1: 1.0}, 1.0, id="full"),
        pytest.param(("Province",), combo(Province="Beijing"), {}, 0.0, id="zero"),
        # China Mobile rows are 0, 3, 8: two half-members and one outsider
        pytest.param(("ISP",), combo(ISP="China Mobile"), {0: 0.5, 3: 0.5}, 0.5, id="partial"),
    ],
)
def test_member_ratio(province_snapshot, cuboid, target, members, want):
    membership = np.zeros(9)
    membership[list(members)] = list(members.values())
    idx = province_snapshot.cuboid_index(Cuboid(cuboid))
    member = np.bincount(idx.group_of, weights=membership, minlength=idx.n_groups)
    outsider = np.bincount(idx.group_of, weights=membership == 0.0, minlength=idx.n_groups)
    ratio = member_ratio(member, outsider)
    g = [idx.combination(g) for g in range(idx.n_groups)].index(target)
    assert ratio[g] == want
    # the search ranks the held groups alone, the target first here
    if members:
        leaves = np.array(sorted(members))
        arrays = _SnapshotArrays(province_snapshot)
        cluster = _Cluster(arrays, leaves, membership[leaves], np.zeros(9, dtype=bool))
        order, counts = _Layer(arrays, [idx]).rank([cluster], ONE_ROW)
        assert order.tolist() == [g] and counts.tolist() == [1]


class TestExplanationScore:
    def test_worked_example(self, province_snapshot):
        gps = explanation_score(province_snapshot, [combo(Province="Beijing")])
        assert gps == pytest.approx(0.7425742574257426, abs=1e-12)

    def test_exclude_shrinks_pool(self, province_snapshot):
        excl = province_snapshot.leaf_mask(
            combo(Province="Guangdong", ISP="China Unicom")
        )
        idx = province_snapshot.cuboid_index(Cuboid(("Province",)))
        beijing = [idx.combination(g) for g in range(idx.n_groups)].index(
            combo(Province="Beijing")
        )
        rows = scored_rows(_SnapshotArrays(province_snapshot), idx, [beijing], excl)
        ((gps,),) = all_prefix_scores(rows)
        assert rows.best()[1].tolist() == [gps]
        # pool residuals drop from 18.2/7 to 8.2/6
        assert gps == pytest.approx(1.0 - (8.2 / 6) / (7.5 + 8.2 / 6), abs=1e-12)

    def test_perfect_candidate(self):
        snap = planted_snapshot(quiet_noise=0.0)
        assert explanation_score(snap, [combo(A="a0")]) == pytest.approx(1.0)

    def test_empty_candidate(self, province_snapshot):
        with pytest.raises(ValueError):
            explanation_score(province_snapshot, [])

    def test_unobserved_candidate(self, province_snapshot):
        with pytest.raises(ValueError):
            explanation_score(
                province_snapshot, [combo(Province="Zhejiang", ISP="China Mobile")]
            )

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(7)
        rows = [(a, b) for a in "xyz" for b in "uvw"]
        for _ in range(50):
            v = rng.uniform(0, 100, 9)
            f = rng.uniform(0, 100, 9)
            snap = snapshot_from_rows(
                ("A", "B"), rows, {"value": v}, {"value": f}, MeasureSpec()
            )
            gps = explanation_score(snap, [combo(A="x")])
            assert gps <= 1.0 + 1e-12

    def test_scale_invariant(self):
        snap = planted_snapshot(quiet_noise=0.02, seed=3)
        scaled = snapshot_from_rows(
            ("A", "B"),
            [tuple(snap.binding_of(i).bindings[a] for a in ("A", "B")) for i in range(9)],
            {"value": snap.real["value"] * 37.0},
            {"value": snap.forecast["value"] * 37.0},
            MeasureSpec(),
        )
        a = explanation_score(snap, [combo(A="a0")])
        b = explanation_score(scaled, [combo(A="a0")])
        assert b == pytest.approx(a, rel=1e-9)


def naive_explanation_score(snapshot, combinations, exclude=None):
    """Reference explanation score, written straight from its definition."""
    le = np.zeros(snapshot.n_leaves, dtype=bool)
    for c in combinations:
        le |= snapshot.leaf_mask(c)
    pool = ~le
    if exclude is not None:
        pool &= ~exclude

    v, f = snapshot.leaf_values()
    try:
        v_s, f_s = aggregate(snapshot, combinations)
    except UndefinedValueError:
        v_s = f_s = 0.0
    if f_s <= 0.0:
        # no forecast mass: the ripple ratio is undefined, take the slice as-is
        a = v[le]
    else:
        a = f[le] * (v_s / f_s)
    d_va = float(np.mean(np.abs(v[le] - a)))
    d_vf = float(np.mean(np.abs(v[le] - f[le])))
    d_pf = float(np.mean(np.abs(v[pool] - f[pool]))) if pool.any() else 0.0
    denom = d_vf + d_pf
    if denom == 0.0:
        return 0.0
    return 1.0 - (d_va + d_pf) / denom


@st.composite
def scored_candidates(draw):
    """A small snapshot of any measure kind, a ranked run of combinations from
    one cuboid, and an optional mask of leaves claimed elsewhere."""
    kind = draw(st.sampled_from(["fundamental", "product", "quotient"]))
    n_a, n_b = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rows = [(f"a{i}", f"b{j}") for i in range(n_a) for j in range(n_b)]
    n = len(rows)
    # small integers, zeros included: quotients meet zero denominators
    column = st.lists(st.integers(0, 20), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=float)
    )
    operands = ("x",) if kind == "fundamental" else ("x", "y")
    real = {c: draw(column) for c in operands}
    forecast = {c: draw(column) for c in operands}
    snap = snapshot_from_rows(("A", "B"), rows, real, forecast, MeasureSpec(kind, operands))
    cuboid = draw(st.sampled_from(cuboids_by_layer(snap.schema)))
    order = draw(st.permutations(range(snap.cuboid_index(cuboid).n_groups)))
    groups = order[: draw(st.integers(1, len(order)))]
    exclude = None
    if draw(st.booleans()):
        exclude = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return snap, cuboid, groups, exclude


class _LeafValues:
    """Stand-in for a fundamental-measure snapshot with the given leaf values.

    Unlike a ``Snapshot`` it takes any leaf count and skips validation; the
    values must still be non-negative, the GPS kernel's domain.
    """

    def __init__(self, v, f):
        self.real, self.forecast = {"value": v}, {"value": f}
        self.measure = MeasureSpec()

    def leaf_values(self):
        return self.real["value"], self.forecast["value"]


# the search's rows, one at a time: row 0 on cuboid 0 of a one-cuboid layer
ONE_ROW = np.zeros(1, dtype=np.intp)


def scored_rows(arrays, idx, order, exclude):
    """A one-row ``_Rows``: the ranked groups ``order`` of ``idx``, against
    the pool of leaves outside ``exclude``."""
    pool = _Cluster(arrays, np.empty(0, dtype=np.intp), np.empty(0), exclude)
    order = np.asarray(order, dtype=np.intp)
    return _Rows(_Layer(arrays, [idx]), [pool], ONE_ROW, order[None, :], np.array([order.size]))


def all_prefix_scores(rows):
    """Every prefix's gps, each misfit summed exactly: no prefix is pruned."""
    return rows.gps(rows.exact(rows.fit))


def misfit_sums(arrays, idx, order, k, r):
    """Σ |v − r_j·f| over the groups ``order[:k[j] + 1]`` of ``idx``, and the
    floors the search reads from its table."""
    layer = _Layer(arrays, [idx])
    rows = ONE_ROW.repeat(k.size)
    bounds = _Misfits(layer, ONE_ROW, order[None, :], np.array([order.size]), rows, k, r)
    return bounds.exact(np.arange(k.size)), bounds.floor


def per_cut_prefix_scores(arr, exclude, seq, cuts):
    """Explanation scores of the candidates ``seq[:cut]``, one pass over the
    prefix per cut for d_va; ``exclude`` leaves stay out of the pool."""
    last = cuts - 1
    absres = arr.absres[seq]
    d_vf = np.cumsum(absres)[last] / cuts
    in_pool = ~exclude[seq]
    pool_res = float(arr.absres[~exclude].sum()) - np.cumsum(absres * in_pool)[last]
    pool_n = np.count_nonzero(~exclude) - np.cumsum(in_pool)[last]
    d_pf = np.divide(pool_res, pool_n, out=np.zeros(cuts.size), where=pool_n > 0)
    kind = arr.snapshot.measure.kind
    v_s = measure_values(kind, [np.cumsum(c[seq])[last] for c in arr.op_real])
    f_s = measure_values(kind, [np.cumsum(c[seq])[last] for c in arr.op_fcst])
    v, f = (x[seq] for x in arr.snapshot.leaf_values())
    d_va = np.zeros(cuts.size)
    for k in np.flatnonzero(f_s > 0.0):
        n = cuts[k]
        d_va[k] = np.abs(v[:n] - f[:n] * (v_s[k] / f_s[k])).mean()
    denom = d_vf + d_pf
    gps = 1.0 - (d_va + d_pf) / np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, gps, 0.0)


@st.composite
def group_cases(draw):
    """Non-negative leaf values with zero forecasts and repeated ratios v/f,
    the leaves split into at most √L groups (G² ≤ L) or more, a ranked
    subset of the groups, whose rank blocks widen past √L ranks once more
    than √L groups are ranked, ascending prefix indices (a first prefix of
    one group included), a non-negative ripple ratio per prefix that may
    equal a leaf's v/f, lie above every one, or lie below every one when
    none is 0, a mask of leaves claimed elsewhere and a term budget down to
    one leaf, for the table and the gather."""
    n = draw(st.integers(1, 40))
    value = st.integers(0, 8).map(float)
    v = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    f = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    few = isqrt(n)  # up to this many groups ranked read blocks of √L ranks
    if n > 1 and draw(st.booleans()):
        n_groups = draw(st.integers(few + 1, n))
    else:
        n_groups = draw(st.integers(1, few))
    labels = draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n))
    idx = group_index(labels)
    perm = draw(st.permutations(range(idx.n_groups)))
    order = np.array(perm[: draw(st.integers(1, idx.n_groups))], dtype=np.intp)
    k = np.array(sorted(draw(st.sets(st.integers(0, order.size - 1), min_size=1))))
    q = v[f != 0.0] / f[f != 0.0]
    ratio = st.floats(0.0, 10.0)
    if q.size:
        ratio |= st.sampled_from(sorted(set(q))) | st.sampled_from([q.min() / 2, q.max() + 1.0])
    r = np.array(draw(st.lists(ratio, min_size=k.size, max_size=k.size)))
    exclude = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    budget = draw(st.sampled_from([1, 7, cluster_mod.BLOCK_TERMS]))
    return _LeafValues(v, f), idx, order, k, r, exclude, budget


def group_index(labels):
    """A one-attribute cuboid index grouping leaf i under ``labels[i]``."""
    codes = np.array(labels)[:, None]
    size = int(codes.max()) + 1
    names = tuple(str(c) for c in range(size))
    return _CuboidIndex(("g",), (names,), *_group_rows(codes, [size]))


def ranked_sequence(idx, order):
    """The leaves of the groups ``order``, run after run, and each prefix's end."""
    runs = [idx.order[idx.starts[g]:idx.starts[g + 1]] for g in order]
    return np.concatenate(runs), np.cumsum([r.size for r in runs])


def group_case(v, f, labels, order, k, r, exclude, budget):
    """A ``group_cases`` draw written out."""
    values = _LeafValues(np.array(v, dtype=float), np.array(f, dtype=float))
    return (
        values, group_index(labels), np.array(order), np.array(k), np.array(r, dtype=float),
        np.array(exclude, dtype=bool), budget,
    )


# nine leaves, in blocks of three ranks with three groups ranked and of four
# with four of five groups ranked (4 > √9).  Each prefix's ratio equals the
# v/f of some leaf, the first group has no forecast mass (f_s = 0), and the
# excluded leaves sit in ranked groups
_V9 = [0, 3, 2, 4, 6, 1, 8, 2, 5]
_F9 = [0, 0, 1, 2, 3, 1, 4, 2, 5]
_EXCLUDE9 = [True, False, False, True, False, False, True, False, False]
_GROUP_EXAMPLES = [
    group_case(_V9, _F9, [0, 0, 1, 1, 1, 2, 2, 2, 2], [0, 2, 1], [0, 1, 2],
               [2.0, 2.0, 1.0], _EXCLUDE9, budget)
    for budget in (1, cluster_mod.BLOCK_TERMS)
] + [
    group_case(_V9, _F9, [0, 0, 1, 1, 2, 3, 3, 4, 4], [0, 3, 1, 4], [0, 1, 2, 3],
               [2.0, 1.0, 2.0, 1.0], _EXCLUDE9, budget)
    for budget in (1, cluster_mod.BLOCK_TERMS)
]
# sixteen leaves in four ranked groups, in blocks of four ranks; each
# ratio ends inside a rank block, so every prefix gathers leaves, and a
# budget of three leaves splits the gather into chunks of two, one and one
_CHUNKED_ROWS = group_case(
    [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 8, 7, 2, 4, 6, 0], list(range(1, 9)) * 2, [0, 1, 2, 3] * 4,
    [2, 0, 3, 1], [0, 1, 2, 3], [0.5, 1.2, 0.8, 2.6], [False] * 16, 3,
)

# every leaf at 1.1 times its forecast, so each misfit |v − r·f| is 0 up to
# rounding, and their signed sum (V − 2·V≤) − r·(F − 2·F≤) rounds to −1.8e-15:
# one group holding every leaf would score 1 + 1.8e-15 without the clamp
_V_AT_RATIO = [7 * 1.1, 3 * 1.1]
_F_AT_RATIO = [7.0, 3.0]
_BELOW_ZERO = group_case(
    _V_AT_RATIO, _F_AT_RATIO, [0, 0], [0], [0], [sum(_V_AT_RATIO) / 10.0], [False] * 2,
    cluster_mod.BLOCK_TERMS,
)


class TestGpsKernel:
    @settings(max_examples=300, deadline=None)
    @given(scored_candidates())
    def test_prefix_scores_match_naive_reference(self, case):
        snap, cuboid, groups, exclude = case
        idx = snap.cuboid_index(cuboid)
        combos = [idx.combination(g) for g in groups]
        rows = scored_rows(
            _SnapshotArrays(snap), idx, groups,
            np.zeros(snap.n_leaves, dtype=bool) if exclude is None else exclude,
        )
        (got,) = all_prefix_scores(rows)
        for k in range(len(combos)):
            want = naive_explanation_score(snap, combos[: k + 1], exclude)
            assert got[k] == pytest.approx(want, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(group_cases())
    @example(_GROUP_EXAMPLES[0])
    @example(_GROUP_EXAMPLES[1])
    @example(_GROUP_EXAMPLES[2])
    @example(_GROUP_EXAMPLES[3])
    @example(_CHUNKED_ROWS)
    def test_misfits_match_the_per_cut_sum(self, case):
        values, idx, order, prefixes, r, _, budget = case
        v, f = values.leaf_values()
        with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
            got, floor = misfit_sums(_SnapshotArrays(values), idx, order, prefixes, r)
        seq, cuts = ranked_sequence(idx, order)
        for k, (n, rk) in enumerate(zip(cuts[prefixes], r)):
            terms = np.abs(v[seq[:n]] - f[seq[:n]] * rk)
            scale = float(np.sum(np.abs(v[seq[:n]]) + np.abs(f[seq[:n]] * rk)))
            assert abs(got[k] - terms.sum()) <= 1e-12 * scale
            # the floor, read from the table alone
            assert floor[k] <= terms.sum()

    @settings(max_examples=500, deadline=None)
    @given(group_cases())
    @example(_GROUP_EXAMPLES[0])
    @example(_GROUP_EXAMPLES[1])
    @example(_GROUP_EXAMPLES[2])
    @example(_GROUP_EXAMPLES[3])
    def test_prefix_scores_match_the_per_cut_loop(self, case):
        values, idx, order, _, _, exclude, budget = case
        arrays = _SnapshotArrays(values)
        with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
            (got,) = all_prefix_scores(scored_rows(arrays, idx, order, exclude))
        want = per_cut_prefix_scores(arrays, exclude, *ranked_sequence(idx, order))
        # cuts without forecast mass take the slice as-is in both
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(group_cases())
    @example(_BELOW_ZERO)
    @example(_CHUNKED_ROWS)
    def test_no_prefix_scores_above_one(self, case):
        values, idx, order, _, _, exclude, budget = case
        with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
            rows = scored_rows(_SnapshotArrays(values), idx, order, exclude)
            gps = all_prefix_scores(rows)
            _, best = rows.best()
        assert np.all(gps <= 1.0) and np.all(best <= 1.0)

    def test_a_misfit_sum_below_zero_scores_one(self):
        values, idx, order, k, r, exclude, _ = _BELOW_ZERO
        arrays = _SnapshotArrays(values)
        assert misfit_sums(arrays, idx, order, k, r)[0][0] < 0.0
        assert all_prefix_scores(scored_rows(arrays, idx, order, exclude)).tolist() == [[1.0]]
        snap = snapshot_from_rows(
            ("A", "B"), [("a0", "b0"), ("a0", "b1")],
            {"value": _V_AT_RATIO}, {"value": _F_AT_RATIO}, MeasureSpec(),
        )
        assert explanation_score(snap, [combo(A="a0")]) == 1.0


def reference_search(snapshot, membership, exclude, cuboid):
    """One cuboid's search on a dense per-leaf membership, one slice per group.

    Returns the ranked groups, the scores of their prefixes and the
    candidate.  Some leaf holds member mass.
    """
    idx = snapshot.cuboid_index(cuboid)
    g = idx.n_groups
    member = np.bincount(idx.group_of, weights=membership, minlength=g)
    outsider = (membership == 0.0).astype(float)
    nonmember = np.bincount(idx.group_of, weights=outsider, minlength=g)
    ratio = member_ratio(member, nonmember)
    # held means member mass, as in the search: a subnormal mass can have ratio 0
    n_pos = int(np.count_nonzero(member > 0.0))
    keys = [idx.group_codes[:, j] for j in range(idx.group_codes.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys + [-member, -ratio])[:n_pos]
    (gps,) = all_prefix_scores(scored_rows(_SnapshotArrays(snapshot), idx, order, exclude))
    best = int(np.argmax(gps))
    combos = tuple(sorted(idx.combination(gi) for gi in order[: best + 1]))
    return order, gps, RootCauseCandidate(combos, float(gps[best]), cuboid)


def reference_localize_cluster(snapshot, leaves, membership, exclude, weight):
    """The selection that decodes and sorts the winner of every cuboid of
    every layer, then takes the least by ``candidate_sort_key``."""
    dense = np.zeros(snapshot.n_leaves)
    dense[leaves] = membership
    candidates = [
        reference_search(snapshot, dense, exclude, cuboid)[2]
        for cuboid in cuboids_by_layer(snapshot.schema)
    ]
    return min(candidates, key=lambda c: candidate_sort_key(c, weight))


@st.composite
def cluster_cases(draw):
    """A small snapshot, a cluster's membership on an ascending subset of its
    leaves (exact zeros included, but positive on at least one, as on every
    cluster ``localize`` keeps) and a mask of leaves claimed elsewhere.
    Leaves are a subset of the A x B grid, so groups differ in size, and in
    the A x B cuboid every group is a single leaf."""
    grid = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
    rows = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
    n = len(rows)
    column = st.lists(st.integers(0, 20), min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=float)
    )
    snap = snapshot_from_rows(
        ("A", "B"), rows, {"value": draw(column)}, {"value": draw(column)}, MeasureSpec()
    )
    leaves = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
    mass = st.just(0.0) | st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5, 1.0])
    membership = np.array(draw(st.lists(mass, min_size=leaves.size, max_size=leaves.size)))
    held = draw(st.integers(0, leaves.size - 1))
    membership[held] = draw(st.floats(0.0, 1.0, exclude_min=True))
    exclude = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return snap, leaves, membership, exclude


@st.composite
def twin_cluster_cases(draw):
    """Like ``cluster_cases``, plus a twin of A: an attribute named to sort
    before, between or after A and B, whose values name A's in reverse order.
    The twin's cuboids group the leaves exactly as A's do, so their winners
    can tie with A's to the last bit and leave the names to decide."""
    snap, leaves, membership, exclude = draw(cluster_cases())
    twin = draw(st.sampled_from(["0", "AB", "Z"]))
    a, b = snap.schema.attributes
    rows = [
        (snap.schema.domains[a][i], snap.schema.domains[b][j], f"t{3 - int(i)}")
        for i, j in snap.codes
    ]
    v, f = snap.real["value"], snap.forecast["value"]
    snap = snapshot_from_rows(("A", "B", twin), rows, {"value": v}, {"value": f}, MeasureSpec())
    # at 4 and 9 the ceiling weight − layer² of layer 2 or 3 sits at 0
    weight = draw(st.sampled_from([0.5, 1.0, 3.0, 4.0, 9.0, 10.0]))
    return snap, leaves, membership, exclude, weight


@st.composite
def verdict_cases(draw):
    """A ``twin_cluster_cases`` snapshot with one to five clusters on its
    leaves, as ``localize`` hands them to the search in one call.  Each
    further cluster holds mass on leaves of its own, disjoint from the
    clusters before it while any leaf is free, or on any leaves, and has its
    own exclusion mask and weight.  A block budget down to one cell splits
    every chunk of the search."""
    snap, leaves, first, exclude, weight = draw(twin_cluster_cases())
    mass = st.just(0.0) | st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5, 1.0])
    memberships, excludes, weights = [first], [exclude], [weight]
    for _ in range(draw(st.integers(0, 4))):
        free = np.flatnonzero(~np.any(np.array(memberships) != 0.0, axis=0))
        pick = free if free.size and draw(st.booleans()) else np.arange(leaves.size)
        held = draw(st.lists(st.sampled_from(pick.tolist()), min_size=1, unique=True))
        membership = np.zeros(leaves.size)
        membership[held] = draw(st.lists(mass, min_size=len(held), max_size=len(held)))
        membership[held[0]] = draw(st.floats(0.0, 1.0, exclude_min=True))
        memberships.append(membership)
        n = snap.n_leaves
        excludes.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        weights.append(draw(st.sampled_from([0.5, 1.0, 3.0, 4.0, 9.0, 10.0])))
    budget = draw(st.sampled_from([1, 64, cluster_mod.BLOCK_TERMS]))
    return snap, leaves, np.array(memberships), np.array(excludes), weights, budget


def example_cluster_case(attrs, rows, v, f, leaves, membership, exclude):
    """A ``cluster_cases`` draw written out."""
    values = ({"value": np.array(x, dtype=float)} for x in (v, f))
    snap = snapshot_from_rows(attrs, rows, *values, MeasureSpec())
    return snap, np.array(leaves), np.array(membership), np.array(exclude, dtype=bool)


_GRID_3X3 = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]


class TestSearch:
    @settings(max_examples=300, deadline=None)
    @given(cluster_cases())
    # single-leaf groups tied at ratio 1 with equal mass, the criterion-6
    # shape: only the group ids order them
    @example(
        example_cluster_case(
            ("A", "B"), _GRID_3X3, [5, 10, 10, 10, 5, 10, 10, 10, 5], [10] * 9,
            [0, 4, 8], [1.0, 1.0, 1.0], [False] * 9,
        )
    )
    # schema columns out of name order: the (A, B) cuboid's codes are the
    # schema's columns swapped
    @example(
        example_cluster_case(
            ("B", "A"), [("b1", "a0"), ("b0", "a1"), ("b0", "a0"), ("b1", "a1"), ("b2", "a0")],
            [3, 12, 4, 4, 9], [6, 10, 8, 8, 9],
            [0, 2, 3, 4], [0.5, 1.0, 0.0, 0.25], [False, True, False, False, False],
        )
    )
    def test_sparse_tallies_match_the_dense_reference(self, case):
        snap, leaves, membership, exclude = case
        dense = np.zeros(snap.n_leaves)
        dense[leaves] = membership
        arrays = _SnapshotArrays(snap)
        cluster = _Cluster(arrays, leaves, membership, exclude)
        for cuboid in cuboids_by_layer(snap.schema):
            order, gps, cand = reference_search(snap, dense, exclude, cuboid)
            idx = snap.cuboid_index(cuboid)
            layer = _Layer(arrays, [idx])
            got_order, counts = layer.rank([cluster], ONE_ROW)
            assert np.array_equal(got_order, order) and counts.tolist() == [order.size]
            # the winner, its misfits bounded first and summed only where the
            # bounds cannot decide, is the argmax over every prefix
            ((best_gps, groups),) = layer.best_prefixes([cluster], ONE_ROW)
            assert np.array_equal(groups, order[: groups.size])
            assert groups.size - 1 == int(np.argmax(gps))
            decoded = tuple(idx.combination(g) for g in np.sort(groups))
            assert RootCauseCandidate(decoded, best_gps, cuboid) == cand

    @settings(max_examples=300, deadline=None)
    @given(twin_cluster_cases())
    # a member mass whose ratio underflows to 0 (5e-324 / 2): the groups
    # holding it are still searched
    @example(
        (
            *example_cluster_case(
                ("A", "B", "0"), [("a0", "b0", "t3"), ("a0", "b1", "t3"), ("a0", "b2", "t3")],
                [0, 0, 0], [0, 0, 0], [0], [5e-324], [False] * 3,
            ),
            0.5,
        )
    )
    def test_search_matches_the_decode_everything_selection(self, case):
        snap, leaves, membership, exclude, weight = case
        got = localize_cluster(
            _SnapshotArrays(snap), leaves, membership[None], exclude[None], [weight]
        )
        assert got == [reference_localize_cluster(snap, leaves, membership, exclude, weight)]

    @settings(max_examples=200, deadline=None)
    @given(verdict_cases())
    def test_one_call_matches_the_per_cluster_references(self, case):
        snap, leaves, memberships, excludes, weights, budget = case
        with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
            got = localize_cluster(_SnapshotArrays(snap), leaves, memberships, excludes, weights)
        want = [
            reference_localize_cluster(snap, leaves, m, e, w)
            for m, e, w in zip(memberships, excludes, weights)
        ]
        assert got == want
        assert [c.gps.hex() for c in got] == [c.gps.hex() for c in want]

    @settings(max_examples=300, deadline=None)
    @given(cluster_cases())
    # one group holds every leaf, each at 1.1 times its forecast
    @example(
        example_cluster_case(
            ("A", "B"), [("a0", "b0"), ("a0", "b1")], _V_AT_RATIO, _F_AT_RATIO,
            [0, 1], [1.0, 1.0], [False] * 2,
        )
    )
    def test_no_scored_prefix_above_one(self, case):
        snap, leaves, membership, exclude = case
        arrays = _SnapshotArrays(snap)
        cluster = _Cluster(arrays, leaves, membership, exclude)
        for cuboid in cuboids_by_layer(snap.schema):
            layer = _Layer(arrays, [snap.cuboid_index(cuboid)])
            order, counts = layer.rank([cluster], ONE_ROW)
            rows = _Rows(layer, [cluster], ONE_ROW, order[None, :], counts)
            assert np.all(all_prefix_scores(rows)[rows.valid] <= 1.0)
            assert np.all(rows.best()[1] <= 1.0)

    def test_only_the_winner_is_decoded(self, monkeypatch):
        snap = planted_snapshot(n_values=4, d=0.5, quiet_noise=0.01, seed=4)
        _, abnormal, _ = _abnormal(snap)
        membership = np.ones(abnormal.size)
        exclude = np.zeros(snap.n_leaves, dtype=bool)
        arrays = _SnapshotArrays(snap)
        # layer 1's best, gps 0.988, stays below layer 2's ceiling of 996 at
        # this weight, so every layer is searched
        weight = 1000.0
        want = reference_localize_cluster(snap, abnormal, membership, exclude, weight)
        assert want.combinations == (combo(A="a0"),)

        decoded = []
        orig = _CuboidIndex.combination

        def spy(self, g):
            decoded.append(g)
            return orig(self, g)

        monkeypatch.setattr(_CuboidIndex, "combination", spy)
        got = localize_cluster(arrays, abnormal, membership[None], exclude[None], [weight])
        assert got == [want]
        assert len(decoded) == 1

    def test_prefix_search_matches_exhaustive(self):
        snap = planted_snapshot(n_values=3, d=0.5, quiet_noise=0.002, seed=1)
        _, abnormal, scores = _abnormal(snap)
        clusters = cluster_distributions(scores)
        assert len(clusters) == 1
        memberships, excludes, (weight,) = _search_inputs(snap, abnormal, clusters)
        assert not excludes.any()

        (got,) = localize_cluster(_SnapshotArrays(snap), abnormal, memberships, excludes, [weight])

        best_score, best = -np.inf, None
        for cuboid in cuboids_by_layer(snap.schema):
            idx = snap.cuboid_index(cuboid)
            combos = [idx.combination(g) for g in range(idx.n_groups)]
            for r in range(1, len(combos) + 1):
                for subset in itertools.combinations(combos, r):
                    gps = explanation_score(snap, subset)
                    score = gps * weight - candidate_complexity(subset)
                    if score > best_score:
                        best_score, best = score, tuple(subset)
        assert set(got.combinations) == set(best)
        assert got.gps * weight - candidate_complexity(got.combinations) == pytest.approx(
            best_score
        )

    def test_two_sibling_faults_need_both_combos(self):
        rng = np.random.default_rng(2)
        rows = [(f"a{i}", f"b{j}") for i in range(6) for j in range(6)]
        f = rng.uniform(50, 150, 36)
        v = f.copy()
        for name in ("a0", "a1"):
            m = np.array([r[0] == name for r in rows])
            v[m] = f[m] * (1 - 0.5) / (1 + 0.5)
        snap = snapshot_from_rows(("A", "B"), rows, {"value": v}, {"value": f}, MeasureSpec())
        rep = localize(snap, LocalizeConfig())
        assert len(rep.root_causes) == 1
        assert set(rep.root_causes[0]) == {combo(A="a0"), combo(A="a1")}

    def test_sort_key_prefers_score_then_simplicity(self):
        # one 1-attribute combination (1) before one 2-attribute one (4)
        assert _rank_key(0.9, 1, 10.0) < _rank_key(0.9, 4, 10.0)
        # score·weight − complexity first: 0.95·100 − 4 beats 0.9·100 − 1
        assert _rank_key(0.95, 4, 100.0) < _rank_key(0.9, 1, 100.0)
        # then gps, when score·weight − complexity ties
        assert _rank_key(0.9, 1, 10.0) < _rank_key(0.8, 0, 10.0)

    def test_sort_key_ties_below_the_verdict_precision_fall_to_the_names(self):
        # equal keys leave the choice to the combinations' names
        assert 0.9 + 1e-15 > 0.9
        assert _rank_key(0.9, 1, 10.0) == _rank_key(0.9 + 1e-15, 1, 10.0)


class TestLayerBound:
    """No candidate at layer ℓ or deeper scores above weight − ℓ², so the
    search stops before the first layer whose ceiling the best key beats."""

    @staticmethod
    def search(monkeypatch, weights, gps_of_layer):
        """Per cluster, the layers searched and the layer of the candidate
        chosen when each cuboid of layer ℓ wins with one group at gps
        ``gps_of_layer[ℓ]``.  Cluster c holds mass c + 1 on leaf 0."""
        snap = synthetic_base(n_attrs=3, n_values=2, seed=0, family="none")
        seen = {}

        def fake(self, clusters, cub):
            layer = len(self.idxs[0].attrs)
            for c in clusters:
                seen.setdefault(int(c.mass[0]) - 1, set()).add(layer)
            return [(gps_of_layer[layer], np.array([0])) for _ in clusters]

        monkeypatch.setattr(localize_mod._Layer, "best_prefixes", fake)
        n = len(weights)
        excludes = np.zeros((n, snap.n_leaves), dtype=bool)
        memberships = np.arange(1.0, n + 1.0)[:, None]
        got = localize_cluster(_SnapshotArrays(snap), np.array([0]), memberships, excludes, weights)
        return [sorted(seen[c]) for c in range(n)], [g.cuboid.layer for g in got]

    @pytest.mark.parametrize(
        "weights, gps_of_layer, searched, chosen",
        [
            # 0.75·6 − 1 = 3.5 beats layer 2's ceiling of 2 and layer 3's of −3
            pytest.param([6.0], {1: 0.75, 2: 1.0, 3: 1.0}, [[1]], [1], id="above-the-ceiling"),
            # 0.5·6 − 1 = 2 only ties layer 2's ceiling, which its gps-1
            # candidate reaches and wins on gps; layer 3's (−3) stays below
            pytest.param([6.0], {1: 0.5, 2: 1.0, 3: 1.0}, [[1, 2]], [2], id="at-the-ceiling"),
            # 4 lies below layer 2's ceiling of 6 but above layer 3's of 1
            pytest.param([10.0], {1: 0.5, 2: 0.5, 3: 1.0}, [[1, 2]], [1], id="stops-at-layer-3"),
            # weights in (0, 1]: −0.75 beats −3.5, but −4 does not beat −3
            pytest.param([0.5], {1: 0.5, 2: 1.0, 3: 1.0}, [[1]], [1], id="small-weight"),
            pytest.param([1.0], {1: -3.0, 2: -3.0, 3: 1.0}, [[1, 2]], [1], id="unit-weight"),
            # in one pass, each cluster keeps its own bound: at weight 20,
            # 0.75·20 − 1 = 14 lies below layer 2's ceiling of 16, while the
            # weight-6 cluster stops after layer 1 as above
            pytest.param(
                [6.0, 20.0, 6.0], {1: 0.75, 2: 1.0, 3: 1.0}, [[1], [1, 2], [1]], [1, 2, 1],
                id="per-cluster",
            ),
        ],
    )
    def test_layers_that_cannot_win_are_skipped(
        self, monkeypatch, weights, gps_of_layer, searched, chosen
    ):
        assert self.search(monkeypatch, weights, gps_of_layer) == (searched, chosen)

    @staticmethod
    def wide_clusters(cause):
        """A 6-attribute x 2-value snapshot (64 leaves, 63 cuboids) with
        ``cause`` planted under 5% noise on every leaf, and per cluster of its
        abnormal leaves the leaves, membership, exclusion mask and weight
        ``_search_inputs`` gives it.  Every cluster is kept: ``localize``'s
        noise band reads 0.5 on the layer-1 and layer-2 causes, exactly the
        planted score, and keeps none of theirs."""
        base = synthetic_base(n_attrs=6, n_values=2, seed=0, family="none")
        rng = np.random.default_rng(0)
        f = base.forecast["value"].astype(float)
        v = f * (1 + 0.05 * rng.standard_normal(f.size))
        mask = base.leaf_mask(combo(**cause))
        v[mask] = f[mask] * (1 - 0.5) / (1 + 0.5)
        snap = Snapshot(base.schema, base.codes, {"value": v}, {"value": f}, base.measure)
        _, abnormal, scores = _abnormal(snap)
        inputs = _search_inputs(snap, abnormal, cluster_distributions(scores))
        return snap, [((abnormal, m, e), w) for m, e, w in zip(*inputs)]

    @pytest.mark.parametrize(
        "cause",
        [{"A": "a00"}, {"A": "a00", "C": "c01"}, {"A": "a01", "B": "b00", "D": "d01"}],
        ids=["layer-1", "layer-2", "layer-3"],
    )
    def test_the_bound_is_exact_on_a_wide_schema(self, cause):
        snap, cases = self.wide_clusters(cause)
        want = []
        for args, weight in cases:
            for w in (weight, 50.0):
                want.append(reference_localize_cluster(snap, *args, w))
        # every cluster at both weights in one pass
        leaves = cases[0][0][0]
        memberships = [args[1] for args, _ in cases for _ in range(2)]
        excludes = [args[2] for args, _ in cases for _ in range(2)]
        weights = [w for _, weight in cases for w in (weight, 50.0)]
        got = localize_cluster(_SnapshotArrays(snap), leaves, memberships, excludes, weights)
        assert got == want

    def test_a_good_layer_one_winner_below_the_ceiling_goes_on(self, monkeypatch):
        # at weight 50 the layer-1 winner, gps 0.913, keys 0.913·50 − 1 =
        # 44.7, below layer 2's ceiling of 46: the search goes on to layer 2,
        # where a stop at gps ≥ 0.9 would have ended it
        snap, [((leaves, membership, exclude), _)] = self.wide_clusters({"A": "a00"})
        seen = []
        orig = localize_mod._Layer.best_prefixes

        def spy(self, clusters, cub):
            seen.extend(len(self.idxs[i].attrs) for i in cub)
            return orig(self, clusters, cub)

        monkeypatch.setattr(localize_mod._Layer, "best_prefixes", spy)
        (got,) = localize_cluster(
            _SnapshotArrays(snap), leaves, membership[None], exclude[None], [50.0]
        )
        assert got.combinations == (combo(A="a00"),)
        assert 0.9 <= got.gps < 0.94
        assert set(seen) == {1, 2}

    def test_a_rate_pin_builds_no_index_past_layer_two(self, monkeypatch):
        # every cluster's best key beats layer 3's ceiling, so no index of
        # layer 3 is built for this snapshot
        fault = ("rate", 1, 1, 1, ())
        snap = planted(*fault)
        layers = []
        cuboid_index = Snapshot.cuboid_index

        def spy(self, cuboid):
            layers.append(cuboid.layer)
            return cuboid_index(self, cuboid)

        monkeypatch.setattr(Snapshot, "cuboid_index", spy)
        report = localize(snap)
        assert verdict(report) == PINS[fault]
        assert snap.schema.n_attributes == 3 and max(layers) == 2


class TestSharedTallies:
    def test_each_cuboid_is_tallied_once_per_verdict(self, monkeypatch):
        snap = TestRowOrder.count_fault().snapshot
        built, looked_up = [], []

        class SpyLayer(localize_mod._Layer):
            def __init__(self, arrays, idxs):
                built.extend(idx.attrs for idx in idxs)
                super().__init__(arrays, idxs)

        cuboid_index = Snapshot.cuboid_index

        def spy_index(self, cuboid):
            looked_up.append(cuboid.attrs)
            return cuboid_index(self, cuboid)

        monkeypatch.setattr(localize_mod, "_Layer", SpyLayer)
        monkeypatch.setattr(Snapshot, "cuboid_index", spy_index)
        reports, tallied = [], []
        for _ in range(2):
            built.clear()
            looked_up.clear()
            reports.append(localize(snap))
            # every cluster searches each cuboid, yet each is looked up and
            # tallied exactly once per verdict
            assert len(reports[-1].per_cluster) > 1
            assert len(looked_up) == len(set(looked_up))
            assert built == looked_up
            tallied.append(list(built))
        # the second verdict on the snapshot starts cold again
        assert tallied[1] == tallied[0]
        assert report_signature(reports[1]) == report_signature(reports[0])


@st.composite
def bound_cases(draw):
    """A snapshot of any measure kind on a subset of the A x B grid, with
    small integer operands, zeros included (so f = 0 and tied q = v/f are
    common), as they are or lifted or scaled to about 1e15, and a seed that
    ranks each cuboid's groups."""
    kind = draw(st.sampled_from(["fundamental", "product", "quotient"]))
    grid = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
    rows = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
    n = len(rows)
    scale, lift = draw(st.sampled_from([(1.0, 0.0), (1e15, 0.0), (1.0, 1e15)]))
    column = st.lists(st.integers(0, 20), min_size=n, max_size=n).map(
        lambda xs: scale * np.array(xs, dtype=float) + lift
    )
    operands = ("x",) if kind == "fundamental" else ("x", "y")
    real = {c: draw(column) for c in operands}
    forecast = {c: draw(column) for c in operands}
    snap = snapshot_from_rows(("A", "B"), rows, real, forecast, MeasureSpec(kind, operands))
    return snap, draw(st.integers(0, 2**32 - 1))


def wide_bound_case(seed):
    """The full A x B grid of quotient operands in tenths, so that sums
    round, and a ``bound_cases`` seed.  Every A x B group is one leaf
    (G² > L), and seeds 5 and 10 rank 15 and 16 of them, past √L = 4."""
    rows = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
    rng = np.random.default_rng(3)
    real, forecast = ({c: rng.integers(0, 21, 16) / 10.0 for c in ("x", "y")} for _ in range(2))
    snap = snapshot_from_rows(("A", "B"), rows, real, forecast, MeasureSpec("quotient", ("x", "y")))
    return snap, seed


def ranked_runs(snap, seed):
    """Each cuboid's index with a ranked run of its groups drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for cuboid in cuboids_by_layer(snap.schema):
        idx = snap.cuboid_index(cuboid)
        yield idx, rng.permutation(idx.n_groups)[: rng.integers(1, idx.n_groups + 1)]


class TestMisfitBounds:
    """Floors never pass the misfit sums, and the prefixes they prune never
    change a winner."""

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    @example(wide_bound_case(5))
    @example(wide_bound_case(10))
    def test_floors_never_pass_the_naive_sum(self, case):
        snap, seed = case
        arrays = _SnapshotArrays(snap)
        v, f = snap.leaf_values()
        exclude = np.zeros(snap.n_leaves, dtype=bool)
        for idx, order in ranked_runs(snap, seed):
            rows = scored_rows(arrays, idx, order, exclude)
            # blocks of √L ranks, or of K ranks once K > √L groups are ranked
            assert rows.bounds.side.tolist() == [max(isqrt(snap.n_leaves), order.size)]
            seq, cuts = ranked_sequence(idx, order)
            # every fit prefix of the row is bounded
            assert rows.bounds.j.tolist() == np.flatnonzero(rows.fit[0]).tolist()
            for floor, j, r in zip(rows.bounds.floor, rows.bounds.j, rows.bounds.r):
                n = cuts[j]
                assert floor <= np.abs(v[seq[:n]] - f[seq[:n]] * r).sum()

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    @example(wide_bound_case(5))
    @example(wide_bound_case(10))
    def test_the_pruned_winner_is_the_argmax_over_every_prefix(self, case):
        snap, seed = case
        arrays = _SnapshotArrays(snap)
        exclude = np.zeros(snap.n_leaves, dtype=bool)
        for idx, order in ranked_runs(snap, seed):
            rows = scored_rows(arrays, idx, order, exclude)
            (every,) = all_prefix_scores(rows)
            (best,), (gps,) = rows.best()
            assert best == np.argmax(every)
            assert gps.hex() == every[best].hex()
            # floors anywhere up to the sums: each at its sum or unbounded
            exact = rows.exact(rows.fit)[0][rows.bounds.j]
            for tight in (0, 1):
                rows.bounds.floor = np.where(np.arange(exact.size) % 2 == tight, exact, -np.inf)
                assert rows.best()[0].tolist() == [best]

    def test_exact_sums_do_not_depend_on_the_order_of_the_prefixes(self):
        # every cluster of a Poisson fault's abnormal leaves on every layer-1
        # cuboid: one chunk whose prefixes gather leaves in several cuboids
        snap = TestRowOrder.count_fault().snapshot
        arrays = _SnapshotArrays(snap)
        _, abnormal, scores = _abnormal(snap)
        memberships, excludes, _ = _search_inputs(snap, abnormal, cluster_distributions(scores))
        clusters = [_Cluster(arrays, abnormal, m, e) for m, e in zip(memberships, excludes)]
        idxs = [snap.cuboid_index(c) for c in cuboids_by_layer(snap.schema) if c.layer == 1]
        layer = _Layer(arrays, idxs)
        rows, cub = clusters * len(idxs), np.repeat(np.arange(len(idxs)), len(clusters))
        ranked, K = layer.rank(rows, cub)
        start = np.cumsum(K) - K
        order = ranked[start[:, None] + np.minimum(np.arange(K.max()), K[:, None] - 1)]
        b = _Rows(layer, rows, cub, order, K).bounds
        gathers = b.t > b.col * b.side[b.row]
        assert np.unique(b.cub[b.row[gathers]]).size > 1
        sel = np.arange(b.r.size)
        perm = np.random.default_rng(0).permutation(sel.size)
        sums = []
        for budget in (1, cluster_mod.BLOCK_TERMS):
            with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
                want, got = b.exact(sel), b.exact(sel[perm])
            assert got.tobytes() == want[perm].tobytes()
            sums.append(want.tobytes())
        assert sums[0] == sums[1]

    def test_a_leaf_level_cuboid_takes_about_one_cell_per_leaf(self):
        # every A x B group is one leaf, and two clusters rank them all.  A
        # table of √L-rank blocks over every group would take G·(√L + 1) =
        # 27,900 cells; with blocks of K = L ranks the rows share one table
        # of a row per group, one for no group, and two columns
        snap = synthetic_base(2, 30, seed=0, family="none")
        n = snap.n_leaves
        idx = snap.cuboid_index(Cuboid(("A", "B")))
        assert idx.n_groups == n == 900
        arrays = _SnapshotArrays(snap)
        everything = [_Cluster(arrays, np.arange(n), np.ones(n), np.zeros(n, dtype=bool))] * 2
        layer = _Layer(arrays, [idx])
        cub = ONE_ROW.repeat(2)
        order, K = layer.rank(everything, cub)
        rows = _Rows(layer, everything, cub, order.reshape(2, n), K)
        assert rows.bounds.side.tolist() == K.tolist() == [n, n]
        assert rows.bounds.table.shape == (2, 2 * (n + 1))

    def test_an_exact_tie_falls_to_the_first_prefix(self):
        # four groups of four leaves: a0 deviates unevenly, a1 holds only
        # zeros, a2 and a3 are quiet.  The pool stays quiet, so gps = 1 −
        # Σ|v − r·f| / Σ|v − f|, and a1 doubles both means' leaf count
        # exactly: prefixes 0 and 1 tie to the bit at 0.4
        rows = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        v = [3, 6, 3, 6] + [0] * 4 + [5] * 8
        f = [2] * 4 + [0] * 4 + [5] * 8
        snap = snapshot_from_rows(
            ("A", "B"), rows, {"value": np.array(v, float)}, {"value": np.array(f, float)},
            MeasureSpec(),
        )
        idx = snap.cuboid_index(Cuboid(("A",)))
        scored = scored_rows(_SnapshotArrays(snap), idx, [0, 1, 2, 3], np.zeros(16, dtype=bool))
        (every,) = all_prefix_scores(scored)
        assert every[0] == every[1] == 0.4 and every[2:].max() < 0.4
        (best,), (gps,) = scored.best()
        assert (best, gps) == (0, 0.4)
        # any floors up to the sums give the same winner: with prefix 0's
        # floor at its sum and prefix 1's unbounded, prefix 1 is summed first,
        # and prefix 0, whose ceiling only reaches that best, still wins
        exact = scored.exact(scored.fit)[0]
        scored.bounds.floor = np.array([exact[0], -np.inf, exact[2], exact[3]])
        (best,), (gps,) = scored.best()
        assert (best, gps) == (0, 0.4)


class TestChunks:
    """The search's chunks bound its memory, not its results."""

    @staticmethod
    def many_clusters():
        base = synthetic_base(4, 12, mean_rate=50.0, seed=7, family="poisson")
        params = SimulationParams(3, 1, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
        return simulate_fault(base, params, np.random.default_rng(8)).snapshot

    @pytest.mark.parametrize("make", ["many_clusters", "rate_fault"])
    def test_the_block_budget_does_not_change_the_report(self, make):
        if make == "many_clusters":
            snap = self.many_clusters()
        else:
            snap = TestRowOrder.rate_fault().snapshot
        want = localize(snap)
        assert len(want.per_cluster) >= (8 if make == "many_clusters" else 1)
        for budget in (1, 64, 2**40):
            with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
                got = localize(snap)
            assert report_signature(got) == report_signature(want)


class TestLocalizeReport:
    def test_worked_example_report(self, province_snapshot):
        rep = localize(province_snapshot, LocalizeConfig())
        # 0.74 falls below the default 0.8: flagged external, and the weakly
        # supported candidate stays out of the headline list
        assert rep.root_causes == []
        assert rep.external_root_cause
        assert rep.min_gps == pytest.approx(0.7425742574257426)
        assert rep.per_cluster[0].candidate.combinations == (combo(Province="Beijing"),)
        assert rep.elapsed > 0.0
        assert rep.note is None

    def test_external_flag_threshold(self, province_snapshot):
        rep = localize(province_snapshot, LocalizeConfig(delta_exrc=0.7))
        assert not rep.external_root_cause
        assert rep.root_causes == [(combo(Province="Beijing"),)]

    def test_quiet_snapshot(self):
        rows = [("x",), ("y",), ("z",)]
        snap = snapshot_from_rows(
            ("A",), rows, {"value": [1.0, 2.0, 3.0]}, {"value": [1.0, 2.0, 3.0]},
            MeasureSpec(),
        )
        rep = localize(snap)
        assert rep.root_causes == []
        assert rep.min_gps is None
        assert not rep.external_root_cause
        assert rep.note == "no anomaly"

    def test_eliminated_attribute_flags_external(self):
        # fault on A, then A is not logged: what remains of the drop is spread
        # so thin that no combination explains it well
        base = synthetic_base(n_attrs=3, n_values=4, seed=11, family="none")
        v = base.real["value"].astype(float).copy()
        f = base.forecast["value"].astype(float)
        mask = base.leaf_mask(combo(A="a00"))
        v[mask] = f[mask] * (1 - 0.5) / (1 + 0.5)
        snap = Snapshot(base.schema, base.codes, {"value": v}, {"value": f}, base.measure)
        rep = localize(drop_attributes(snap, ("A",)))
        assert rep.external_root_cause
        assert rep.root_causes == []

    def test_uniform_dilution_flags_total_shift(self):
        # perfectly even dilution leaves no abnormal leaf at all; only the
        # aggregate shows the fault
        rows = [(f"a{i}", f"b{j}") for i in range(5) for j in range(5)]
        f = np.full(len(rows), 100.0)
        snap = snapshot_from_rows(
            ("A", "B"), rows, {"value": f * 0.8}, {"value": f}, MeasureSpec()
        )
        rep = localize(snap)
        assert rep.external_root_cause
        assert rep.root_causes == []
        assert rep.min_gps is None
        assert rep.note == "unexplained total shift"

    def test_background_jitter_yields_no_root_cause(self):
        # an alert on healthy data must not produce an internal prediction
        rng = np.random.default_rng(12)
        rows = [(f"a{i}", f"b{j}") for i in range(8) for j in range(8)]
        f = rng.uniform(80, 120, len(rows))
        v = f + rng.normal(0.0, 1.0, len(rows))
        snap = snapshot_from_rows(("A", "B"), rows, {"value": v}, {"value": f}, MeasureSpec())
        rep = localize(snap)
        assert rep.root_causes == []
        assert rep.min_gps is None or rep.min_gps < 0.8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LocalizeConfig(delta_exrc=1.5)

    def test_config_range_check_cannot_be_bypassed(self):
        cfg = LocalizeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.delta_exrc = 1.5
        assert cfg.delta_exrc == 0.8

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["poisson", "none", "rate"]),
        st.integers(2, 3),
        st.integers(3, 5),
        st.integers(1, 2),
        st.integers(1, 2),
        st.sampled_from([0.0, 0.05, 0.2]),
        st.integers(0, 2**32 - 1),
    )
    def test_every_kept_cluster_has_a_candidate(
        self, base_kind, n_attrs, n_values, n_element, layer, sigma, seed
    ):
        rate = base_kind == "rate"
        base = synthetic_base(n_attrs, n_values, seed=seed, family="none" if rate else base_kind)
        kind = "fundamental"
        if rate:
            total = base.real["value"]
            succ = np.round(total * np.random.default_rng(seed).uniform(0.9, 0.99, total.size))
            ops = {"succ": succ, "total": total}
            measure = MeasureSpec("quotient", ("succ", "total"))
            base = Snapshot(base.schema, base.codes, ops, dict(ops), measure)
            kind = "success_rate"
        params = SimulationParams(n_element, layer, sigma, sigma, measure_kind=kind)
        snap = simulate_fault(base, params, np.random.default_rng(seed)).snapshot
        cfg = LocalizeConfig()
        rep = localize(snap, cfg)
        assert all(isinstance(r.candidate, RootCauseCandidate) for r in rep.per_cluster)
        gps = [r.candidate.gps for r in rep.per_cluster]
        assert rep.min_gps == (min(gps) if gps else None)
        assert rep.root_causes == [
            r.candidate.combinations for r in rep.per_cluster if r.candidate.gps >= cfg.delta_exrc
        ]


class TestScoreHistogram:
    def test_worked_example_histogram(self, province_snapshot):
        hist = localize(province_snapshot).score_density
        assert hist.shape == (201,)
        assert hist.sum() == pytest.approx(1.0)
        assert hist[int(bin_of(1 / 3))] == pytest.approx(2 / 3)
        assert hist[int(bin_of(10 / 410))] == pytest.approx(1 / 3)

    def test_quiet_snapshot_empty(self):
        rows = [("x",), ("y",), ("z",)]
        snap = snapshot_from_rows(
            ("A",), rows, {"value": [1.0, 2.0, 3.0]}, {"value": [1.0, 2.0, 3.0]},
            MeasureSpec(),
        )
        hist = localize(snap).score_density
        assert hist.shape == (201,)
        assert not hist.any()


def loop_interior_minima(d):
    """Strict local minima of ``d`` found run by run, plateaus collapsed to
    their midpoint; runs touching either end never count."""
    runs = []
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


# short integer densities repeat values, so runs of equal bins (plateaus,
# and runs at either end) are common
_densities = st.lists(st.integers(0, 3), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=float)
)


@settings(max_examples=500, deadline=None)
@given(_densities)
@example(np.array([2.0, 2.0, 1.0, 1.0, 1.0, 3.0, 0.0, 0.0]))
def test_interior_minima_match_the_run_loop(d):
    got = _interior_minima(d)
    assert got == loop_interior_minima(d)
    assert all(type(i) is int for i in got)


def reference_exrc_threshold(history, default=0.8):
    """The threshold as the lower edge of the mode with the highest peak centre."""
    vals = np.asarray(list(history), dtype=float)
    if vals.size < 5:
        return default
    bins = np.clip(np.round(np.clip(vals, 0.0, 1.0) / 0.01).astype(int), 0, 100)
    hist = np.bincount(bins, minlength=101).astype(float)
    density = np.convolve(hist, np.ones(5) / 5.0, mode="same")
    boundaries = [-1] + loop_interior_minima(density) + [101]
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


# scores on and off the 0.01 grid; drawing from a small pool repeats values
_exrc_scores = st.floats(0.0, 1.0) | st.integers(0, 100).map(lambda k: k / 100)
_exrc_histories = st.lists(_exrc_scores, min_size=1, max_size=10).flatmap(
    lambda pool: st.lists(st.sampled_from(pool) | _exrc_scores, max_size=60)
)


class TestSelectExrcThreshold:
    @settings(max_examples=500, deadline=None)
    @given(_exrc_histories)
    def test_matches_the_peak_centre_reference(self, history):
        assert select_exrc_threshold(history) == reference_exrc_threshold(history)

    def test_two_modes(self):
        assert select_exrc_threshold([0.97, 0.98, 0.99, 0.55, 0.60]) == pytest.approx(0.78)

    def test_short_history_uses_default(self):
        assert select_exrc_threshold([0.9, 0.1]) == 0.8
        assert select_exrc_threshold([]) == 0.8

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="integer-beyond-float-range")]
    )
    def test_non_finite_values_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            select_exrc_threshold([0.9] * 5 + [bad])

    def test_single_mode_never_flags(self):
        assert select_exrc_threshold([0.9] * 10) == 0.0

    def test_threshold_separates_the_modes(self):
        rng = np.random.default_rng(8)
        healthy = rng.uniform(0.9, 0.99, 40)
        external = rng.uniform(0.2, 0.4, 10)
        t = select_exrc_threshold(np.concatenate([healthy, external]))
        assert external.max() < t <= healthy.min()


class TestRowOrder:
    """Reordering the CSV rows, or renaming in order, must not change the verdict."""

    @staticmethod
    def count_fault(family="poisson"):
        base = synthetic_base(n_attrs=3, n_values=6, seed=42, family=family)
        params = SimulationParams(2, 1, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
        return simulate_fault(base, params, np.random.default_rng(103))

    @staticmethod
    def rate_fault():
        rng = np.random.default_rng(9)
        rows = [(f"a{i}", f"b{j}", f"c{k}") for i in range(6) for j in range(6) for k in range(4)]
        total = rng.integers(200, 500, len(rows)).astype(float)
        succ = np.round(total * rng.uniform(0.9, 0.99, len(rows)))
        base = snapshot_from_rows(
            ("A", "B", "C"), rows,
            {"succ": succ, "total": total},
            {"succ": succ.copy(), "total": total.copy()},
            MeasureSpec("quotient", ("succ", "total")),
        )
        params = SimulationParams(
            2, 1, base_noise_sigma=0.02, leaf_noise_sigma=0.05, measure_kind="success_rate"
        )
        return simulate_fault(base, params, np.random.default_rng(103))

    @pytest.mark.parametrize("make", ["count_fault", "rate_fault"])
    def test_row_permutation_keeps_the_verdict(self, make):
        snap = getattr(self, make)().snapshot
        header, *rows = render_table(snap).splitlines()
        ref = localize(parse_snapshot("\n".join([header, *rows]), snap.measure))
        assert ref.per_cluster
        rng = np.random.default_rng(103)
        for _ in range(3):
            rng.shuffle(rows)
            got = localize(parse_snapshot("\n".join([header, *rows]), snap.measure))
            assert got.root_causes == ref.root_causes
            assert got.external_root_cause == ref.external_root_cause
            assert [r.bounds for r in got.per_cluster] == [r.bounds for r in ref.per_cluster]
            for a, b in zip(got.per_cluster, ref.per_cluster):
                assert a.candidate.gps == pytest.approx(b.candidate.gps, abs=1e-9)

    @pytest.mark.parametrize("make", ["count_fault", "rate_fault"])
    def test_order_preserving_rename_keeps_the_verdict(self, make):
        # one prefix on every attribute name and value keeps every sorted
        # order, so even tie-breaks between equal candidates must not move
        snap = getattr(self, make)().snapshot
        prefix = "zz_"
        attrs = snap.schema.attributes
        rows = [
            tuple(prefix + snap.schema.domains[a][c] for a, c in zip(attrs, row))
            for row in snap.codes
        ]
        renamed = snapshot_from_rows(
            [prefix + a for a in attrs], rows, snap.real, snap.forecast, snap.measure
        )

        def rename(combos):
            return tuple(
                AttributeCombination(tuple((prefix + a, prefix + v) for a, v in c.items))
                for c in combos
            )

        ref = localize(snap)
        got = localize(renamed)
        assert ref.per_cluster
        assert got.root_causes == [rename(g) for g in ref.root_causes]
        assert got.external_root_cause == ref.external_root_cause
        assert got.min_gps == ref.min_gps
        assert [r.bounds for r in got.per_cluster] == [r.bounds for r in ref.per_cluster]
        for a, b in zip(got.per_cluster, ref.per_cluster):
            assert a.candidate.combinations == rename(b.candidate.combinations)
            assert a.candidate.gps == b.candidate.gps


class TestStages:
    """``localize`` runs ``_abnormal``, ``cluster_distributions``, ``_kept``
    and ``_search_inputs`` in turn: stage 1 keeps its rule, and the report
    is the stages' output."""

    def test_abnormal_leaves_lie_above_the_knee_of_their_residuals(self):
        snap = TestRowOrder.count_fault().snapshot
        v, f = snap.leaf_values()
        r = np.abs(v - f)
        threshold, abnormal, scores = _abnormal(snap)
        assert threshold == knee_threshold(r)
        assert np.array_equal(abnormal, np.flatnonzero(r > knee_threshold(r)))
        assert 0 < abnormal.size < snap.n_leaves
        want = leaf_distributions(v[abnormal], f[abnormal], "poisson")
        for a in ("ptr", "bins", "mass"):
            assert np.array_equal(getattr(scores, a), getattr(want, a))

    def test_a_quiet_table_has_no_score_mass(self, monkeypatch):
        snap = parse_snapshot("a,real,predict\nx,5,5\ny,7,7\nz,9,9\n")

        def unreachable(*args):
            raise AssertionError("stage 2 ran without an abnormal leaf")

        monkeypatch.setattr(localize_mod, "leaf_distributions", unreachable)
        _, abnormal, scores = _abnormal(snap)
        assert abnormal.size == 0 and scores is None
        assert localize(snap).note == "no anomaly"

    # the band drops some of count_fault's clusters and none of rate_fault's
    @pytest.mark.parametrize("make, dropped", [("count_fault", True), ("rate_fault", False)])
    def test_the_report_is_the_stages_output(self, make, dropped):
        snap = getattr(TestRowOrder, make)().snapshot
        report = localize(snap)
        _, abnormal, scores = _abnormal(snap)
        clusters = cluster_distributions(scores)
        kept = _kept(snap, abnormal, clusters)
        assert kept and (len(kept) < len(clusters)) == dropped
        assert report.score_density.tobytes() == (scores.histogram / len(scores)).tobytes()
        assert [r.bounds for r in report.per_cluster] == [c.bounds for c in kept]

    def test_the_band_is_taken_over_the_leaves_stage_1_left_normal(self, monkeypatch):
        snap = TestRowOrder.count_fault().snapshot
        v, f = snap.leaf_values()
        threshold, abnormal, scores = _abnormal(snap)
        # a set the knee rule would not pick: its first abnormal leaf swapped
        # for its first normal one
        normal = np.setdiff1d(np.arange(snap.n_leaves), abnormal)
        other = np.sort(np.append(abnormal[1:], normal[0]))
        assert not np.array_equal(other, np.flatnonzero(np.abs(v - f) > threshold))
        seen = []

        def spy(values, weights, q):
            seen.append((values, weights))
            return weighted_quantile(values, weights, q)

        monkeypatch.setattr(localize_mod, "weighted_quantile", spy)
        _kept(snap, other, cluster_distributions(scores))
        ((values, weights),) = seen
        rest = np.setdiff1d(np.arange(snap.n_leaves), other)
        assert values.tobytes() == np.abs(deviation_score(v[rest], f[rest])).tobytes()
        assert weights.tobytes() == snap.leaf_weights()[rest].tobytes()


class TestScaling:
    """Scaling every operand column by one positive constant keeps the verdict."""

    @staticmethod
    def scaled(snap, k):
        def times(table):
            return {c: table[c] * k for c in snap.measure.operands}

        return Snapshot(snap.schema, snap.codes, times(snap.real), times(snap.forecast), snap.measure)

    @staticmethod
    def fault(make):
        if make == "count_fault":
            return TestRowOrder.count_fault("none").snapshot
        return TestRowOrder.rate_fault().snapshot

    @pytest.mark.parametrize("k", [0.125, 4.0, 1024.0])
    @pytest.mark.parametrize("make", ["count_fault", "rate_fault"])
    def test_power_of_two_gives_the_same_report(self, make, k):
        snap = self.fault(make)
        ref = localize(snap)
        got = localize(self.scaled(snap, k))
        assert ref.per_cluster
        for field in ("root_causes", "per_cluster", "min_gps", "external_root_cause", "note"):
            assert getattr(got, field) == getattr(ref, field)
        assert np.array_equal(got.score_density, ref.score_density)

    @pytest.mark.parametrize("k", [37.0, 0.3, 1e-3, 1e4])
    @pytest.mark.parametrize("make", ["count_fault", "rate_fault"])
    def test_other_scales_keep_the_verdict(self, make, k):
        snap = self.fault(make)
        ref = localize(snap)
        got = localize(self.scaled(snap, k))
        assert ref.per_cluster
        assert got.root_causes == ref.root_causes
        assert got.external_root_cause == ref.external_root_cause
        assert [r.bounds for r in got.per_cluster] == [r.bounds for r in ref.per_cluster]
        for a, b in zip(got.per_cluster, ref.per_cluster):
            assert a.candidate.combinations == b.candidate.combinations
            assert a.candidate.gps == pytest.approx(b.candidate.gps, abs=1e-12)
