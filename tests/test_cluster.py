import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import poisson

from rootdrill import dirac_distribution, knee_threshold, poisson_distribution
from rootdrill.cluster import (
    N_BINS,
    LeafDistribution,
    bin_center,
    bin_of,
    cluster_distributions,
    leaf_distributions,
    overall_distribution,
    weighted_quantile,
)
from rootdrill.ripple import MeaninglessPairError


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


class TestKneeThreshold:
    def test_separates_two_populations(self):
        rng = np.random.default_rng(0)
        background = rng.uniform(0.0, 0.1, size=400)
        tail = rng.uniform(5.0, 8.0, size=12)
        r = np.concatenate([background, tail])
        t = knee_threshold(r)
        assert background.max() <= t < tail.min()

    def test_degenerate_warns_and_uses_median(self):
        with pytest.warns(UserWarning):
            t = knee_threshold(np.full(10, 2.0))
        assert t == 2.0
        with pytest.warns(UserWarning):
            t = knee_threshold(np.array([1.0, 3.0, 3.0]))
        assert t == 3.0

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


class TestDirac:
    def test_single_spike(self):
        d = dirac_distribution(5, 10)
        assert list(d.bins) == [int(bin_of(1 / 3))]
        assert list(d.mass) == [1.0]
        assert d.total() == 1.0

    def test_empty_pair_raises(self):
        with pytest.raises(MeaninglessPairError):
            dirac_distribution(0, 0)


class TestPoisson:
    def test_normalized(self):
        for v, f in [(0, 3), (5, 5), (5, 10), (100, 80), (1000, 900)]:
            d = poisson_distribution(v, f)
            assert d.total() == pytest.approx(1.0, abs=1e-9)

    def test_mode_at_observed_count(self):
        # the most likely rate is the observed count itself
        d = poisson_distribution(5, 10)
        top = d.bins[np.argmax(d.mass)]
        lo, hi = bin_of(1 / 3) - 1, bin_of(1 / 3) + 1
        assert lo <= top <= hi

    def test_spread_grows_with_uncertainty(self):
        small = poisson_distribution(4, 8)
        large = poisson_distribution(400, 800)
        def spread(d):
            centers = bin_center(d.bins)
            m = (centers * d.mass).sum()
            return float(np.sqrt(((centers - m) ** 2 * d.mass).sum()))
        assert spread(small) > spread(large)

    def test_matches_pmf_weights(self):
        # likelihood of the observed count under its own rate, scipy oracle
        assert poisson.pmf(5, 5) == pytest.approx(0.17546736976785068, rel=1e-12)
        d = poisson_distribution(5, 1000)
        # with a huge forecast all plausible rates score near +1
        assert (bin_center(d.bins) > 0.9).all()

    def test_zero_forecast_is_certain_increase(self):
        d = poisson_distribution(7, 0)
        assert list(d.bins) == [0]  # score -1
        assert list(d.mass) == [1.0]

    def test_zero_observation_keeps_mass(self):
        d = poisson_distribution(0, 6)
        assert d.total() == pytest.approx(1.0, abs=1e-9)
        assert int(d.bins[np.argmax(d.mass)]) == 200  # rate 0 is likeliest

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            poisson_distribution(1.5, 3)

    def test_rejects_empty_pair(self):
        with pytest.raises(MeaninglessPairError):
            poisson_distribution(0, 0)

    @given(
        v=st.integers(min_value=0, max_value=500),
        f=st.floats(min_value=0.1, max_value=500),
    )
    def test_normalization_property(self, v, f):
        assert poisson_distribution(v, f).total() == pytest.approx(1.0, abs=1e-6)


def test_leaf_distributions_family_switch():
    v = np.array([5.0, 3.0])
    f = np.array([10.0, 3.0])
    exact = leaf_distributions(v, f, "none")
    assert all(len(d.bins) == 1 for d in exact)
    fuzzy = leaf_distributions(v, f, "poisson")
    assert all(len(d.bins) > 1 for d in fuzzy)


def test_overall_distribution_mean():
    dists = [dirac_distribution(5, 10), dirac_distribution(10, 5)]
    hist = overall_distribution(dists)
    assert hist.shape == (N_BINS,)
    assert hist[int(bin_of(1 / 3))] == 0.5
    assert hist[int(bin_of(-1 / 3))] == 0.5
    assert hist.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        overall_distribution([])


class TestClustering:
    def test_two_spikes_split_at_midpoint(self):
        dists = [dirac_distribution(3, 1) for _ in range(30)] + [
            dirac_distribution(1, 3) for _ in range(30)
        ]
        clusters = cluster_distributions(dists)
        assert len(clusters) == 2
        a, b = clusters
        assert a.bounds == (-1.0, 0.0)
        assert b.bounds == (0.0, 1.0)
        assert a.bounds[1] == b.bounds[0]  # adjacent clusters share a boundary
        assert a.center == pytest.approx(-0.5)
        assert b.center == pytest.approx(0.5)
        assert a.mass == b.mass == 30.0

    def test_membership_is_indicator_for_spikes(self):
        dists = [dirac_distribution(3, 1) for _ in range(30)] + [
            dirac_distribution(1, 3) for _ in range(30)
        ]
        clusters = cluster_distributions(dists)
        for c in clusters:
            assert set(np.unique(c.membership)) <= {0.0, 1.0}
        stacked = np.vstack([c.membership for c in clusters])
        assert (stacked.sum(axis=0) <= 1.0 + 1e-12).all()

    def test_wide_modes_merge_under_smoothing(self):
        rng = np.random.default_rng(3)
        scores = np.concatenate(
            [rng.normal(-0.5, 0.03, 300), rng.normal(0.5, 0.03, 300)]
        )
        scores = np.clip(scores, -1.0, 1.0)
        dists = [
            LeafDistribution(np.array([int(bin_of(s))]), np.array([1.0]))
            for s in scores
        ]
        clusters = cluster_distributions(dists)
        assert len(clusters) == 2
        centers = sorted(c.center for c in clusters)
        assert centers[0] == pytest.approx(-0.5, abs=0.05)
        assert centers[1] == pytest.approx(0.5, abs=0.05)

    def test_sparse_spikes_stay_separate(self):
        # three spikes two bins apart: smoothing would fuse them, sparseness
        # keeps it off
        mk = lambda b: LeafDistribution(np.array([b]), np.array([1.0]))
        dists = [mk(100)] * 5 + [mk(104)] * 5 + [mk(108)] * 5
        clusters = cluster_distributions(dists)
        assert len(clusters) == 3

    def test_min_mass_discards(self):
        dists = [dirac_distribution(3, 1)] * 30 + [dirac_distribution(1, 3)]
        clusters = cluster_distributions(dists, min_mass=2.0)
        assert len(clusters) == 1
        assert clusters[0].center == pytest.approx(-0.5)

    def test_shallow_dip_merges_at_lower_valley_ratio(self):
        # contiguous bump with one dip: 6 between peaks 10 and 8, depth 0.75
        mk = lambda b: LeafDistribution(np.array([b]), np.array([1.0]))
        heights = {95: 4, 96: 10, 97: 7, 98: 6, 99: 8, 100: 3}
        dists = [mk(b) for b, h in heights.items() for _ in range(h)]
        assert len(cluster_distributions(dists)) == 2
        merged = cluster_distributions(dists, valley_ratio=0.7)
        assert len(merged) == 1
        assert merged[0].mass == sum(heights.values())

    def test_valley_prominence_rejudged_after_merge(self):
        # dips at 6 (ratio 6/7) and 5 (ratio 5/7); dropping the first widens
        # the second's left segment, whose peak 10 keeps the 5 a real valley
        mk = lambda b: LeafDistribution(np.array([b]), np.array([1.0]))
        heights = {95: 10, 96: 6, 97: 7, 98: 5, 99: 9}
        dists = [mk(b) for b, h in heights.items() for _ in range(h)]
        clusters = cluster_distributions(dists, valley_ratio=0.8)
        # the single surviving cut sits at bin 98
        assert [(c.lo_bin, c.hi_bin) for c in clusters] == [(0, 97), (99, 200)]
        assert [c.mass for c in clusters] == [23.0, 9.0]

    def test_flat_density_single_cluster(self):
        dists = [
            LeafDistribution(np.array([b]), np.array([1.0])) for b in range(N_BINS)
        ]
        clusters = cluster_distributions(dists, sparse_bins=N_BINS + 1)
        assert len(clusters) == 1
        assert clusters[0].bounds == (-1.0, 1.0)

    def test_empty_input(self):
        assert cluster_distributions([]) == []

    def test_bounds_disjoint_interiors(self):
        rng = np.random.default_rng(4)
        scores = np.clip(rng.normal(0.0, 0.4, 500), -1.0, 1.0)
        dists = [
            LeafDistribution(np.array([int(bin_of(s))]), np.array([1.0]))
            for s in scores
        ]
        clusters = cluster_distributions(dists)
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
