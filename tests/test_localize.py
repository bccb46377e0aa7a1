import importlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

localize_mod = importlib.import_module("rootdrill.localize")

from rootdrill import (
    AttributeCombination,
    LocalizeConfig,
    MeasureSpec,
    SimulationParams,
    explanation_score,
    knee_threshold,
    localize,
    parse_snapshot,
    select_exrc_threshold,
    simulate_fault,
    snapshot_from_rows,
    synthetic_base,
)
from rootdrill.cluster import _interior_minima, bin_of, cluster_distributions, leaf_distributions
from rootdrill.data import Cuboid, Snapshot, _CuboidIndex, cuboids_by_layer, drop_attributes
from rootdrill.forecast import render_table
from rootdrill.ripple import UndefinedValueError, derived_value, measure_values
from rootdrill.localize import (
    RootCauseCandidate,
    _best_prefix,
    _PrefixScorer,
    _rank_key,
    _SnapshotArrays,
    localize_cluster,
    tradeoff_weight,
)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            tradeoff_weight(0, 2, 0.5)
        with pytest.raises(ValueError):
            tradeoff_weight(1, 0, 0.5)
        with pytest.raises(ValueError):
            tradeoff_weight(1, 2, 0.0)
        with pytest.raises(ValueError):
            tradeoff_weight(1, 2, 1.1)


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
        scorer = _RecordingScorer(_SnapshotArrays(province_snapshot), np.zeros(9, dtype=bool))
        _best_prefix(scorer, idx, leaves, membership[leaves])
        seq, cuts, _ = scorer.seen
        assert idx.group_of[seq[0]] == g and cuts.size == 1


class TestExplanationScore:
    def test_worked_example(self, province_snapshot):
        gps = explanation_score(province_snapshot, [combo(Province="Beijing")])
        assert gps == pytest.approx(0.7425742574257426, abs=1e-12)

    def test_exclude_shrinks_pool(self, province_snapshot):
        excl = province_snapshot.leaf_mask(
            combo(Province="Guangdong", ISP="China Unicom")
        )
        gps = explanation_score(province_snapshot, [combo(Province="Beijing")], excl)
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
    m = snapshot.measure
    try:
        v_s = derived_value(m, [float(snapshot.real[c][le].sum()) for c in m.operands])
        f_s = derived_value(m, [float(snapshot.forecast[c][le].sum()) for c in m.operands])
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


def per_cut_prefix_scores(scorer, seq, cuts):
    """``prefix_scores`` with d_va taken by one pass over the prefix per cut."""
    arr = scorer.arrays
    last = cuts - 1
    absres = arr.absres[seq]
    d_vf = np.cumsum(absres)[last] / cuts
    in_pool = scorer.pool[seq]
    pool_res = scorer.pool_res - np.cumsum(absres * in_pool)[last]
    pool_n = scorer.pool_n - np.cumsum(in_pool)[last]
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
def prefix_cases(draw):
    """Non-negative leaf values with zero forecasts and repeated ratios v/f, a
    reordered subset of the leaves as the sequence, ascending cuts (single-leaf
    runs and a first cut of 1 included), a non-negative ripple ratio per cut
    that may equal a leaf's v/f, lie above every one, or lie below every one
    when none is 0, a mask of leaves claimed elsewhere and a gather budget
    down to one leaf."""
    n = draw(st.integers(1, 40))
    value = st.integers(0, 8).map(float)
    v = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    f = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    seq = np.array(perm[: draw(st.integers(1, n))], dtype=np.intp)
    cuts = np.array(sorted(draw(st.sets(st.integers(1, seq.size), min_size=1))))
    q = v[f != 0.0] / f[f != 0.0]
    ratio = st.floats(0.0, 10.0)
    if q.size:
        ratio |= st.sampled_from(sorted(set(q))) | st.sampled_from([q.min() / 2, q.max() + 1.0])
    r = np.array(draw(st.lists(ratio, min_size=cuts.size, max_size=cuts.size)))
    exclude = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    budget = draw(st.sampled_from([1, 7, localize_mod.BLOCK_TERMS]))
    return _LeafValues(v, f), seq, cuts, r, exclude, budget


class TestGpsKernel:
    @settings(max_examples=300, deadline=None)
    @given(scored_candidates())
    def test_prefix_scores_match_naive_reference(self, case):
        snap, cuboid, groups, exclude = case
        idx = snap.cuboid_index(cuboid)
        combos = [idx.combination(g) for g in groups]
        runs = [idx.order[idx.starts[g]:idx.starts[g + 1]] for g in groups]
        scorer = _PrefixScorer(
            _SnapshotArrays(snap),
            np.zeros(snap.n_leaves, dtype=bool) if exclude is None else exclude,
        )
        got = scorer.prefix_scores(np.concatenate(runs), np.cumsum([r.size for r in runs]))
        for k in range(len(combos)):
            want = naive_explanation_score(snap, combos[: k + 1], exclude)
            assert got[k] == pytest.approx(want, abs=1e-12)
            assert explanation_score(snap, combos[: k + 1], exclude) == pytest.approx(
                want, abs=1e-12
            )

    @settings(max_examples=500, deadline=None)
    @given(prefix_cases())
    def test_misfits_match_the_per_cut_sum(self, case):
        values, seq, cuts, r, _, budget = case
        v, f = values.leaf_values()
        with mock.patch.object(localize_mod, "BLOCK_TERMS", budget):
            got = _SnapshotArrays(values).misfits(seq, cuts, r)
        for k, (n, rk) in enumerate(zip(cuts, r)):
            terms = np.abs(v[seq[:n]] - f[seq[:n]] * rk)
            scale = float(np.sum(np.abs(v[seq[:n]]) + np.abs(f[seq[:n]] * rk)))
            assert abs(got[k] - terms.sum()) <= 1e-12 * scale

    @settings(max_examples=500, deadline=None)
    @given(prefix_cases())
    def test_prefix_scores_match_the_per_cut_loop(self, case):
        values, seq, cuts, _, exclude, budget = case
        scorer = _PrefixScorer(_SnapshotArrays(values), exclude)
        with mock.patch.object(localize_mod, "BLOCK_TERMS", budget):
            got = scorer.prefix_scores(seq, cuts)
        want = per_cut_prefix_scores(scorer, seq, cuts)
        # cuts without forecast mass take the slice as-is in both
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def reference_search(snapshot, membership, exclude, cuboid):
    """One cuboid's search on a dense per-leaf membership, one slice per group.

    Returns the ranked groups, the leaf sequence, the prefix cuts, their
    scores and the candidate, or None when no group holds member mass.
    """
    idx = snapshot.cuboid_index(cuboid)
    g = idx.n_groups
    member = np.bincount(idx.group_of, weights=membership, minlength=g)
    outsider = (membership == 0.0).astype(float)
    nonmember = np.bincount(idx.group_of, weights=outsider, minlength=g)
    ratio = member_ratio(member, nonmember)
    # held means member mass, as in the search: a subnormal mass can have ratio 0
    n_pos = int(np.count_nonzero(member > 0.0))
    if n_pos == 0:
        return None
    keys = [idx.group_codes[:, j] for j in range(idx.group_codes.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys + [-member, -ratio])[:n_pos]
    runs = [idx.order[idx.starts[gi]:idx.starts[gi + 1]] for gi in order]
    cuts = np.cumsum([r.size for r in runs])
    seq = np.concatenate(runs)
    gps = _PrefixScorer(_SnapshotArrays(snapshot), exclude).prefix_scores(seq, cuts)
    best = int(np.argmax(gps))
    combos = tuple(sorted(idx.combination(gi) for gi in order[: best + 1]))
    return order, seq, cuts, gps, RootCauseCandidate(combos, float(gps[best]), cuboid)


class _RecordingScorer(_PrefixScorer):
    """The scorer, keeping the last leaf sequence, cuts and scores it ranked."""

    def prefix_scores(self, seq, cuts):
        self.seen = (seq, cuts, super().prefix_scores(seq, cuts))
        return self.seen[2]


def reference_localize_cluster(snapshot, leaves, membership, exclude, weight, cfg):
    """The selection that decodes and sorts every cuboid's winner, then takes
    the least by ``candidate_sort_key``; layers stop as in the search."""
    dense = np.zeros(snapshot.n_leaves)
    dense[leaves] = membership
    candidates = []
    for layer in range(1, snapshot.schema.n_attributes + 1):
        found = [
            res[4]
            for cuboid in cuboids_by_layer(snapshot.schema)
            if cuboid.layer == layer
            for res in [reference_search(snapshot, dense, exclude, cuboid)]
            if res is not None
        ]
        candidates += found
        if any(c.gps >= cfg.delta for c in found):
            break
    if not candidates:
        return None
    return min(candidates, key=lambda c: candidate_sort_key(c, weight))


@st.composite
def cluster_cases(draw):
    """A small snapshot, a cluster's membership on an ascending subset of its
    leaves (exact zeros included) and a mask of leaves claimed elsewhere.
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
    leaves = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    mass = st.just(0.0) | st.floats(0.0, 1.0) | st.sampled_from([0.25, 0.5, 1.0])
    membership = np.array(draw(st.lists(mass, min_size=leaves.size, max_size=leaves.size)))
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
    weight = draw(st.sampled_from([0.5, 1.0, 3.0, 10.0]))
    delta = draw(st.sampled_from([0.5, 0.9, 1.0]))
    return snap, leaves, membership, exclude, weight, LocalizeConfig(delta=delta)


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
        for cuboid in cuboids_by_layer(snap.schema):
            want = reference_search(snap, dense, exclude, cuboid)
            idx = snap.cuboid_index(cuboid)
            scorer = _RecordingScorer(_SnapshotArrays(snap), exclude)
            # as ``localize_cluster`` passes them: the leaves with member mass,
            # and only when there are some
            held = membership != 0.0
            if want is None:
                assert not held.any()
                continue
            got = _best_prefix(scorer, idx, leaves[held], membership[held])
            order, seq, cuts, gps, cand = want
            got_seq, got_cuts, got_gps = scorer.seen
            heads = got_seq[got_cuts - np.diff(got_cuts, prepend=0)]
            assert np.array_equal(idx.group_of[heads], order)
            assert np.array_equal(got_seq, seq)
            assert np.array_equal(got_cuts, cuts)
            assert np.array_equal(got_gps, gps)
            best_gps, groups = got
            decoded = tuple(idx.combination(g) for g in groups)
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
            LocalizeConfig(delta=0.5),
        )
    )
    def test_search_matches_the_decode_everything_selection(self, case):
        snap, leaves, membership, exclude, weight, cfg = case
        args = (leaves, membership, exclude, weight, cfg)
        got = localize_cluster(_SnapshotArrays(snap), *args)
        assert got == reference_localize_cluster(snap, *args)

    def test_only_the_winner_is_decoded(self, monkeypatch):
        snap = planted_snapshot(n_values=4, d=0.5, quiet_noise=0.01, seed=4)
        v, f = snap.leaf_values()
        abnormal = np.flatnonzero(np.abs(v - f) > knee_threshold(np.abs(v - f)))
        membership = np.ones(abnormal.size)
        exclude = np.zeros(snap.n_leaves, dtype=bool)
        arrays = _SnapshotArrays(snap)
        cfg = LocalizeConfig(delta=1.0)  # every layer is searched
        want = reference_localize_cluster(snap, abnormal, membership, exclude, 5.0, cfg)
        assert want.combinations == (combo(A="a0"),)

        decoded = []
        orig = _CuboidIndex.combination

        def spy(self, g):
            decoded.append(g)
            return orig(self, g)

        monkeypatch.setattr(_CuboidIndex, "combination", spy)
        got = localize_cluster(arrays, abnormal, membership, exclude, 5.0, cfg)
        assert got == want
        assert len(decoded) == 1

    def test_prefix_search_matches_exhaustive(self):
        snap = planted_snapshot(n_values=3, d=0.5, quiet_noise=0.002, seed=1)
        v, f = snap.leaf_values()
        resid = np.abs(v - f)
        t = knee_threshold(resid)
        abnormal = np.flatnonzero(resid > t)
        dists = leaf_distributions(v[abnormal], f[abnormal], "none")
        clusters = cluster_distributions(dists)
        assert len(clusters) == 1
        weight = tradeoff_weight(1, 2, min(clusters[0].mass / snap.n_leaves, 1.0))
        exclude = np.zeros(snap.n_leaves, dtype=bool)

        got = localize_cluster(
            _SnapshotArrays(snap),
            abnormal,
            clusters[0].membership,
            exclude,
            weight,
            LocalizeConfig(delta=1.0),
        )

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

    def test_search_cuboid_none_when_cluster_untouched(self):
        snap = planted_snapshot()
        leaves = np.arange(snap.n_leaves)
        membership = np.zeros(snap.n_leaves)
        exclude = np.zeros(snap.n_leaves, dtype=bool)
        # no cuboid holds a member leaf, so no layer yields a candidate
        arrays = _SnapshotArrays(snap)
        assert localize_cluster(arrays, leaves, membership, exclude, 1.0, LocalizeConfig()) is None

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

    def test_early_stop_skips_deep_layers(self, monkeypatch):
        snap = planted_snapshot(n_values=4, d=0.5, quiet_noise=0.01, seed=4)
        seen = []
        orig = localize_mod._best_prefix

        def spy(scorer, idx, leaves, membership):
            seen.append(len(idx.attrs))
            return orig(scorer, idx, leaves, membership)

        monkeypatch.setattr(localize_mod, "_best_prefix", spy)
        localize(snap, LocalizeConfig(delta=0.9))
        stopped = list(seen)
        seen.clear()
        localize(snap, LocalizeConfig(delta=1.0))
        exhaustive = list(seen)
        # the planted fault is explainable at layer 1 above 0.9 but below 1.0
        assert set(stopped) == {1}
        assert 2 in exhaustive

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
            LocalizeConfig(delta=0.0)
        with pytest.raises(ValueError):
            LocalizeConfig(delta_exrc=1.5)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
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
                assert (a.candidate is None) == (b.candidate is None)
                if a.candidate is not None:
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
            assert (a.candidate is None) == (b.candidate is None)
            if a.candidate is not None:
                assert a.candidate.combinations == rename(b.candidate.combinations)
                assert a.candidate.gps == b.candidate.gps


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
            assert (a.candidate is None) == (b.candidate is None)
            if a.candidate is not None:
                assert a.candidate.combinations == b.candidate.combinations
                assert a.candidate.gps == pytest.approx(b.candidate.gps, abs=1e-12)
