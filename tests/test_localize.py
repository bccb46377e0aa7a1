import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

localize_mod = importlib.import_module("rootdrill.localize")

from rootdrill import (
    AttributeCombination,
    LocalizeConfig,
    MeasureSpec,
    explanation_score,
    knee_threshold,
    localize,
    select_exrc_threshold,
    snapshot_from_rows,
    synthetic_base,
)
from rootdrill.cluster import bin_of, cluster_distributions, leaf_distributions
from rootdrill.data import Snapshot, cuboids_by_layer, drop_attributes
from rootdrill.ripple import UndefinedValueError, derived_value
from rootdrill.localize import (
    _candidate_sort_key,
    _PrefixScorer,
    candidate_complexity,
    descended_ratio,
    localize_cluster,
    score_histogram,
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


class TestCandidateComplexity:
    def test_values(self):
        assert candidate_complexity([]) == 0
        assert candidate_complexity([combo(a="1")]) == 1
        assert candidate_complexity([combo(a="1", b="2"), combo(a="3", b="4")]) == 8
        # quadratic: a second deep combination costs more than a shallow one
        assert candidate_complexity(
            [combo(a="1", b="2"), combo(a="3", b="4")]
        ) > candidate_complexity([combo(a="1", b="2"), combo(a="3")])


class TestDescendedRatio:
    def test_full_membership(self, province_snapshot):
        p = np.ones(9)
        assert descended_ratio(province_snapshot, combo(Province="Beijing"), p) == 1.0

    def test_zero_membership(self, province_snapshot):
        p = np.zeros(9)
        assert descended_ratio(province_snapshot, combo(Province="Beijing"), p) == 0.0

    def test_partial_membership(self, province_snapshot):
        # China Mobile rows are 0, 3, 8: two half-members and one outsider
        p = np.zeros(9)
        p[0] = p[3] = 0.5
        assert descended_ratio(province_snapshot, combo(ISP="China Mobile"), p) == 0.5


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


class TestGpsKernel:
    @settings(max_examples=300, deadline=None)
    @given(scored_candidates())
    def test_prefix_scores_match_naive_reference(self, case):
        snap, cuboid, groups, exclude = case
        idx = snap.cuboid_index(cuboid)
        combos = [snap.combination_of_group(cuboid, g) for g in groups]
        runs = [idx.leaves_of(g) for g in groups]
        scorer = _PrefixScorer(
            snap, np.zeros(snap.n_leaves, dtype=bool) if exclude is None else exclude
        )
        got = scorer.prefix_scores(np.concatenate(runs), np.cumsum([r.size for r in runs]))
        for k in range(len(combos)):
            want = naive_explanation_score(snap, combos[: k + 1], exclude)
            assert got[k] == pytest.approx(want, abs=1e-12)
            assert explanation_score(snap, combos[: k + 1], exclude) == pytest.approx(
                want, abs=1e-12
            )


class TestSearch:
    def test_prefix_search_matches_exhaustive(self):
        snap = planted_snapshot(n_values=3, d=0.5, quiet_noise=0.002, seed=1)
        v, f = snap.leaf_values()
        resid = np.abs(v - f)
        t = knee_threshold(resid)
        abnormal = np.flatnonzero(resid > t)
        dists = leaf_distributions(v[abnormal], f[abnormal], "none")
        clusters = cluster_distributions(dists)
        assert len(clusters) == 1
        membership = np.zeros(snap.n_leaves)
        membership[abnormal] = clusters[0].membership
        weight = tradeoff_weight(1, 2, min(clusters[0].mass / snap.n_leaves, 1.0))
        exclude = np.zeros(snap.n_leaves, dtype=bool)

        got = localize_cluster(snap, membership, exclude, weight, LocalizeConfig(delta=1.0))

        best_score, best = -np.inf, None
        for cuboid in cuboids_by_layer(snap.schema):
            idx = snap.cuboid_index(cuboid)
            combos = [snap.combination_of_group(cuboid, g) for g in range(idx.n_groups)]
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
        membership = np.zeros(snap.n_leaves)
        exclude = np.zeros(snap.n_leaves, dtype=bool)
        # no cuboid holds a member leaf, so no layer yields a candidate
        assert localize_cluster(snap, membership, exclude, 1.0, LocalizeConfig()) is None

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
        orig = localize_mod._ClusterSearch.search

        def spy(self, cuboid):
            seen.append(cuboid.layer)
            return orig(self, cuboid)

        monkeypatch.setattr(localize_mod._ClusterSearch, "search", spy)
        localize(snap, LocalizeConfig(delta=0.9))
        stopped = list(seen)
        seen.clear()
        localize(snap, LocalizeConfig(delta=1.0))
        exhaustive = list(seen)
        # the planted fault is explainable at layer 1 above 0.9 but below 1.0
        assert set(stopped) == {1}
        assert 2 in exhaustive

    def test_sort_key_prefers_score_then_simplicity(self):
        from rootdrill import Cuboid
        from rootdrill.localize import RootCauseCandidate

        a = RootCauseCandidate((combo(x="1"),), gps=0.9, cuboid=Cuboid(("x",)))
        b = RootCauseCandidate((combo(x="1", y="2"),), gps=0.9, cuboid=Cuboid(("x", "y")))
        assert _candidate_sort_key(a, 10.0) < _candidate_sort_key(b, 10.0)
        c = RootCauseCandidate((combo(x="2"),), gps=0.9, cuboid=Cuboid(("x",)))
        assert _candidate_sort_key(a, 10.0) < _candidate_sort_key(c, 10.0)  # lexicographic


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
        with pytest.raises(ValueError):
            LocalizeConfig(max_layer=0)
        with pytest.raises(ValueError):
            LocalizeConfig(valley_ratio=0.0)

    def test_max_layer_caps_search(self):
        base = synthetic_base(n_attrs=3, n_values=4, seed=6, family="none")
        v = base.real["value"].astype(float).copy()
        f = base.forecast["value"].astype(float)
        target = combo(A="a00", B="b00")
        mask = base.leaf_mask(target)
        v[mask] = f[mask] * 0.2
        snap = Snapshot(base.schema, base.codes, {"value": v}, {"value": f}, base.measure)
        deep = localize(snap, LocalizeConfig())
        shallow = localize(snap, LocalizeConfig(max_layer=1))
        assert set(deep.root_causes[0]) == {target}
        # capped search only sees single-attribute wrappers, which explain the
        # fault poorly: kept per cluster, too weak for the headline list
        best = shallow.per_cluster[0].candidate
        assert all(len(c) == 1 for c in best.combinations)
        assert best.gps < 0.8
        assert shallow.root_causes == []


class TestScoreHistogram:
    def test_worked_example_histogram(self, province_snapshot):
        hist = score_histogram(province_snapshot)
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
        assert score_histogram(snap).sum() == 0.0


class TestSelectExrcThreshold:
    def test_two_modes(self):
        assert select_exrc_threshold([0.97, 0.98, 0.99, 0.55, 0.60]) == pytest.approx(0.78)

    def test_short_history_uses_default(self):
        assert select_exrc_threshold([0.9, 0.1]) == 0.8
        assert select_exrc_threshold([0.9, 0.1], default=0.6) == 0.6
        assert select_exrc_threshold([]) == 0.8

    def test_single_mode_never_flags(self):
        assert select_exrc_threshold([0.9] * 10) == 0.0

    def test_threshold_separates_the_modes(self):
        rng = np.random.default_rng(8)
        healthy = rng.uniform(0.9, 0.99, 40)
        external = rng.uniform(0.2, 0.4, 10)
        t = select_exrc_threshold(np.concatenate([healthy, external]))
        assert external.max() < t <= healthy.min()
