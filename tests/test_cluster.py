import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import rootdrill.cluster as cluster_mod
from rootdrill import knee_threshold
from rootdrill.cluster import (
    BLOCK_TERMS,
    N_BINS,
    PMF_CUTOFF,
    ScoreMass,
    bin_center,
    bin_of,
    cluster_distributions,
    leaf_distributions,
    weighted_quantile,
)
from rootdrill.ripple import MeaninglessPairError, deviation_score


class TestGrid:
    def test_bin_of_endpoints(self):
        assert bin_of(-1.0) == 0
        assert bin_of(0.0) == 100
        assert bin_of(1.0) == 200

    def test_bin_of_rounds(self):
        assert bin_of(0.013) == 101
        assert bin_of(-0.013) == 99

    def test_bin_center_inverts(self):
        for b in (0, 57, 100, 200):
            assert bin_of(float(bin_center(b))) == b


def reference_knee_threshold(residuals):
    """The knee threshold with its forward nudge as a step-by-step loop."""
    r = np.asarray(residuals, dtype=float)
    vals, counts = np.unique(r, return_counts=True)
    n = r.size
    if vals.size < 3:
        return float(np.median(r))
    cum = np.cumsum(counts)
    frac = cum / n
    if frac[0] >= 0.5:
        return float(vals[0])
    top = int(np.searchsorted(frac, cluster_mod.KNEE_WINSOR_Q, side="left"))
    hi = vals[min(top, vals.size - 1)]
    lo = vals[0]
    span = hi - lo
    if span <= 0:
        return float(vals[0])
    x = np.clip((vals - lo) / span, 0.0, 1.0)
    y = (frac - frac[0]) / (1.0 - frac[0]) if frac[0] > 0 else frac
    k = int(np.argmax(y - x))
    full_span = vals[-1] - vals[0]
    gaps = np.diff(vals)
    mass_limit = cum[k] + cluster_mod.KNEE_SNAP_MASS * n
    best = k
    for i in range(k, vals.size - 1):
        if cum[i] > mass_limit:
            break
        if gaps[i] >= cluster_mod.KNEE_GAP_FRAC * full_span:
            best = i
            break
    return float(vals[best])


# a bulk of small residuals, values off and on a coarse grid, and a few far ones
_knee_residuals = st.tuples(
    st.lists(st.floats(0.0, 1.0) | st.integers(0, 20).map(lambda k: k / 20), max_size=800),
    st.lists(st.floats(1.0, 50.0), max_size=4),
).map(lambda parts: np.array(parts[0] + parts[1], dtype=float))


class TestKneeThreshold:
    @settings(max_examples=300, deadline=None)
    @given(_knee_residuals.filter(len))
    # the knee two steps before a wide gap at the last index, where the
    # 400 leaves' mass limit (2 leaves past the knee) is reached exactly
    @example(np.concatenate([np.linspace(0.0, 0.01, 397), [0.5, 0.51, 20.0]]))
    # the nudge runs out of mass in the 0.5-0.6 run, before the gap to 20
    @example(np.concatenate([np.linspace(0.0, 0.01, 397), np.linspace(0.5, 0.6, 10), [20.0]]))
    def test_matches_the_nudge_loop(self, residuals):
        assert knee_threshold(residuals) == reference_knee_threshold(residuals)

    def test_nudge_examples(self):
        bulk = np.linspace(0.0, 0.01, 397)
        assert knee_threshold(np.concatenate([bulk, [0.5, 0.51, 20.0]])) == 0.51
        assert knee_threshold(np.concatenate([bulk, np.linspace(0.5, 0.6, 10), [20.0]])) == 0.01

    def test_separates_two_populations(self):
        rng = np.random.default_rng(0)
        background = rng.uniform(0.0, 0.1, size=400)
        tail = rng.uniform(5.0, 8.0, size=12)
        r = np.concatenate([background, tail])
        t = knee_threshold(r)
        assert background.max() <= t < tail.min()

    def test_degenerate_uses_median_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert knee_threshold(np.full(10, 2.0)) == 2.0
            assert knee_threshold(np.array([1.0, 3.0, 3.0])) == 3.0

    def test_majority_at_smallest_value(self):
        r = np.concatenate([np.zeros(60), np.arange(1, 41, dtype=float)])
        assert knee_threshold(r) == 0.0

    def test_outlier_does_not_flatten_curve(self):
        rng = np.random.default_rng(1)
        background = rng.uniform(0.0, 0.1, size=500)
        r = np.concatenate([background, [1e6]])
        t = knee_threshold(r)
        assert t <= background.max()

    def test_empty(self):
        with pytest.raises(ValueError):
            knee_threshold(np.array([]))

    def test_threshold_is_an_observed_value(self):
        rng = np.random.default_rng(2)
        r = rng.exponential(1.0, size=300)
        assert knee_threshold(r) in r


def one_leaf(v, f, family):
    """Stage 2 on a single leaf."""
    return leaf_distributions(np.array([v], float), np.array([f], float), family)


def spikes(bins, mass=None):
    """One leaf per entry of ``bins``, all its mass at that bin."""
    n = len(bins)
    mass = np.ones(n) if mass is None else np.asarray(mass, float)
    return ScoreMass(np.arange(n + 1), np.asarray(bins, dtype=np.int64), mass)


def reference_poisson(v, f):
    """Per-leaf Poisson score mass, written out with scipy.stats.

    The batched stage 2 must reproduce it: same bins, same mass.
    """
    if f == 0.0:
        return np.array([int(bin_of(-1.0))]), np.array([1.0])
    spread = 10.0 * np.sqrt(v) + 30.0
    a = np.arange(max(0.0, np.floor(v - spread)), np.ceil(v + spread) + 1.0)
    w = poisson.pmf(v, a)
    keep = w >= PMF_CUTOFF
    a, w = a[keep], w[keep]
    if a.size == 0:
        return np.array([int(bin_of(deviation_score(v, f)))]), np.array([1.0])
    w = w / w.sum()
    hist = np.bincount(bin_of(deviation_score(a, f)), weights=w, minlength=N_BINS)
    nz = np.flatnonzero(hist)
    return nz, hist[nz]


class TestDirac:
    def test_single_spike(self):
        d = one_leaf(5, 10, "none")
        assert len(d) == 1
        assert list(d.bins) == [int(bin_of(1 / 3))]
        assert list(d.mass) == [1.0]

    def test_empty_pair_raises(self):
        with pytest.raises(MeaninglessPairError):
            one_leaf(0, 0, "none")


class TestPoisson:
    def test_normalized(self):
        for v, f in [(0, 3), (5, 5), (5, 10), (100, 80), (1000, 900)]:
            d = one_leaf(v, f, "poisson")
            assert d.mass.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mode_at_observed_count(self):
        # the most likely rate is the observed count itself
        d = one_leaf(5, 10, "poisson")
        top = d.bins[np.argmax(d.mass)]
        lo, hi = bin_of(1 / 3) - 1, bin_of(1 / 3) + 1
        assert lo <= top <= hi

    def test_spread_grows_with_uncertainty(self):
        small = one_leaf(4, 8, "poisson")
        large = one_leaf(400, 800, "poisson")
        def spread(d):
            centers = bin_center(d.bins)
            m = (centers * d.mass).sum()
            return float(np.sqrt(((centers - m) ** 2 * d.mass).sum()))
        assert spread(small) > spread(large)

    def test_matches_pmf_weights(self):
        # likelihood of the observed count under its own rate, scipy oracle
        assert poisson.pmf(5, 5) == pytest.approx(0.17546736976785068, rel=1e-12)
        d = one_leaf(5, 1000, "poisson")
        # with a huge forecast all plausible rates score near +1
        assert (bin_center(d.bins) > 0.9).all()

    def test_zero_forecast_is_certain_increase(self):
        d = one_leaf(7, 0, "poisson")
        assert list(d.bins) == [0]  # score -1
        assert list(d.mass) == [1.0]

    def test_zero_observation_keeps_mass(self):
        d = one_leaf(0, 6, "poisson")
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert int(d.bins[np.argmax(d.mass)]) == 200  # rate 0 is likeliest

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            one_leaf(1.5, 3, "poisson")

    def test_rejects_empty_pair(self):
        with pytest.raises(MeaninglessPairError):
            one_leaf(0, 0, "poisson")

    @given(
        v=st.integers(min_value=0, max_value=500),
        f=st.floats(min_value=0.1, max_value=500),
    )
    def test_normalization_property(self, v, f):
        assert one_leaf(v, f, "poisson").mass.sum() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        leaves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5000),
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=6000.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        budget=st.sampled_from([64, 700, BLOCK_TERMS]),
    )
    @example(leaves=[(5000, 4000.0), (0, 3.0), (7, 0.0)], budget=64)
    def test_batch_matches_per_leaf_formula(self, leaves, budget):
        # every leaf has at least 31 candidate rates, so a budget of 64 terms
        # holds at most two leaves; a count of 5000 has 1,477, more than 700
        leaves = [(v, f) for v, f in leaves if v + f > 0.0]
        assume(leaves)
        v = np.array([v for v, _ in leaves], float)
        f = np.array([f for _, f in leaves])
        with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
            got = leaf_distributions(v, f, "poisson")
        assert len(got) == len(leaves)
        for d, (vi, fi) in zip(got, leaves):
            bins, mass = reference_poisson(float(vi), fi)
            assert np.array_equal(d.bins, bins)
            assert np.abs(d.mass - mass).max() <= 1e-12
            assert d.mass.sum() == pytest.approx(1.0, abs=1e-6)


def test_leaf_distributions_family_switch():
    v = np.array([5.0, 3.0])
    f = np.array([10.0, 3.0])
    exact = leaf_distributions(v, f, "none")
    assert len(exact) == 2
    assert all(len(d.bins) == 1 for d in exact)
    fuzzy = leaf_distributions(v, f, "poisson")
    assert all(len(d.bins) > 1 for d in fuzzy)
    assert fuzzy.ptr[-1] == fuzzy.bins.size == fuzzy.mass.size


def test_overall_distribution_mean():
    scores = leaf_distributions(np.array([5.0, 10.0]), np.array([10.0, 5.0]), "none")
    hist = scores.histogram() / len(scores)
    assert hist.shape == (N_BINS,)
    assert hist[int(bin_of(1 / 3))] == 0.5
    assert hist[int(bin_of(-1 / 3))] == 0.5
    assert hist.sum() == pytest.approx(1.0)


class TestClustering:
    def test_two_spikes_split_at_midpoint(self):
        scores = spikes([int(bin_of(-0.5))] * 30 + [int(bin_of(0.5))] * 30)
        clusters = cluster_distributions(scores)
        assert len(clusters) == 2
        a, b = clusters
        assert a.bounds == (-1.0, 0.0)
        assert b.bounds == (0.0, 1.0)
        assert a.bounds[1] == b.bounds[0]  # adjacent clusters share a boundary
        assert a.center == pytest.approx(-0.5)
        assert b.center == pytest.approx(0.5)
        assert a.mass == b.mass == 30.0

    def test_membership_is_indicator_for_spikes(self):
        v = np.array([3.0] * 30 + [1.0] * 30)
        clusters = cluster_distributions(leaf_distributions(v, 4.0 - v, "none"))
        for c in clusters:
            assert set(np.unique(c.membership)) <= {0.0, 1.0}
        stacked = np.vstack([c.membership for c in clusters])
        assert (stacked.sum(axis=0) <= 1.0 + 1e-12).all()

    def test_membership_sums_each_leafs_mass_inside(self):
        v = np.array([40.0, 42.0, 5.0, 200.0, 7.0])
        f = np.array([20.0, 21.0, 6.0, 100.0, 0.0])
        scores = leaf_distributions(v, f, "poisson")
        clusters = cluster_distributions(scores)
        assert clusters
        for c in clusters:
            for i, d in enumerate(scores):
                inside = (d.bins >= c.lo_bin) & (d.bins <= c.hi_bin)
                assert c.membership[i] == pytest.approx(d.mass[inside].sum(), abs=1e-12)

    def test_wide_modes_merge_under_smoothing(self):
        rng = np.random.default_rng(3)
        scores = np.concatenate(
            [rng.normal(-0.5, 0.03, 300), rng.normal(0.5, 0.03, 300)]
        )
        scores = np.clip(scores, -1.0, 1.0)
        clusters = cluster_distributions(spikes(bin_of(scores)))
        assert len(clusters) == 2
        centers = sorted(c.center for c in clusters)
        assert centers[0] == pytest.approx(-0.5, abs=0.05)
        assert centers[1] == pytest.approx(0.5, abs=0.05)

    def test_sparse_spikes_stay_separate(self):
        # three spikes two bins apart: smoothing would fuse them, sparseness
        # keeps it off
        clusters = cluster_distributions(spikes([100] * 5 + [104] * 5 + [108] * 5))
        assert len(clusters) == 3

    def test_min_mass_discards(self):
        # the lone leaf at +0.5 holds under one leaf's worth of mass there
        clusters = cluster_distributions(
            spikes([int(bin_of(-0.5))] * 30 + [int(bin_of(0.5))], [1.0] * 30 + [0.9])
        )
        assert len(clusters) == 1
        assert clusters[0].center == pytest.approx(-0.5)

    def test_every_strict_minimum_cuts(self):
        # contiguous bump with one shallow dip: 6 between peaks 10 and 8
        heights = {95: 4, 96: 10, 97: 7, 98: 6, 99: 8, 100: 3}
        clusters = cluster_distributions(spikes([b for b, h in heights.items() for _ in range(h)]))
        assert [(c.lo_bin, c.hi_bin) for c in clusters] == [(0, 97), (99, 200)]

    def test_flat_density_single_cluster(self):
        clusters = cluster_distributions(spikes(np.arange(N_BINS)))
        assert len(clusters) == 1
        assert clusters[0].bounds == (-1.0, 1.0)

    def test_empty_input(self):
        assert cluster_distributions(spikes([])) == []

    def test_bounds_disjoint_interiors(self):
        rng = np.random.default_rng(4)
        scores = np.clip(rng.normal(0.0, 0.4, 500), -1.0, 1.0)
        clusters = cluster_distributions(spikes(bin_of(scores)))
        spans = sorted((c.lo_bin, c.hi_bin) for c in clusters)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi < lo


class TestWeightedQuantile:
    def test_uniform_weights(self):
        v = np.array([1.0, 2.0, 3.0])
        w = np.ones(3)
        assert weighted_quantile(v, w, 0.5) == 2.0
        assert weighted_quantile(v, w, 0.999) == 3.0

    def test_weights_shift_quantile(self):
        v = np.array([1.0, 2.0, 3.0])
        assert weighted_quantile(v, np.array([10.0, 0.0, 0.1]), 0.5) == 1.0

    def test_all_zero_weights(self):
        v = np.array([1.0, 5.0])
        assert weighted_quantile(v, np.zeros(2), 0.9) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0]), np.array([1.0]), 1.5)
        with pytest.raises(ValueError):
            weighted_quantile(np.array([]), np.array([]), 0.5)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30), st.floats(0.0, 1.0))
    def test_result_is_observed(self, values, q):
        v = np.asarray(values)
        assert weighted_quantile(v, np.ones_like(v), q) in v
