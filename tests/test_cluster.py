import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, xlogy
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


def masses(leaves):
    """One leaf per ``{bin: mass}`` entry of ``leaves``."""
    lens = [len(m) for m in leaves]
    bins = [b for m in leaves for b in sorted(m)]
    mass = [m[b] for m in leaves for b in sorted(m)]
    return ScoreMass(np.cumsum([0] + lens), np.array(bins, dtype=np.int64), np.array(mass))


def sequential_sum(terms):
    """The terms added left to right, as ``np.bincount`` adds its weights
    (Python's ``sum`` compensates float rounding from 3.12 on)."""
    total = 0.0
    for t in terms.tolist():
        total += t
    return total


def assert_membership_is_mass_inside(scores, clusters):
    """Each membership is its leaf's mass inside the cluster, summed as
    ``np.bincount`` sums it; mass on a separating minimum or in a light run
    is in no membership."""
    covered = np.zeros(N_BINS, bool)
    for c in clusters:
        assert c.membership.shape == (len(scores),)
        covered[c.lo_bin:c.hi_bin + 1] = True
        for i, d in enumerate(scores):
            inside = (d.bins >= c.lo_bin) & (d.bins <= c.hi_bin)
            assert c.membership[i] == sequential_sum(d.mass[inside])
    held = sum((c.membership for c in clusters), np.zeros(len(scores)))
    for i, d in enumerate(scores):
        assert held[i] == pytest.approx(d.mass[covered[d.bins]].sum(), abs=1e-12)


@st.composite
def clustered_masses(draw):
    """Leaves whose few terms crowd a narrow window of the grid, so the
    density has several modes, mass on the minima between them and runs
    under ``MIN_CLUSTER_MASS``; the mass of a leaf sums to about 1."""
    lo = draw(st.integers(0, N_BINS - 30))
    leaves = []
    for _ in range(draw(st.integers(1, 12))):
        bins = draw(st.lists(st.integers(lo, lo + 29), min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(bins), max_size=len(bins)))
        leaves.append({b: w / sum(weights) for b, w in zip(bins, weights)})
    return masses(leaves)


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


def reference_leaf_distributions(v, f):
    """Poisson stage 2 as one pass over the leaves, blocked by ``BLOCK_TERMS``.

    Every leaf evaluates its own candidate rates and bins its own terms, so
    no count or (count, forecast) pair is shared between leaves.  The
    likelihoods come from scipy's ``gammaln`` and ``xlogy``, which stage 2
    itself no longer imports, and take each count as the whole number it
    stands for; the observed score takes it as given.
    """
    v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
    observed = bin_of(deviation_score(v, f))
    u = np.round(v)
    spread = 10.0 * np.sqrt(u) + 30.0
    lo = np.maximum(0.0, np.floor(u - spread))
    n_rates = (np.ceil(u + spread) - lo + 1.0).astype(np.int64)
    ends = np.cumsum(n_rates)
    counts, bins, mass = [np.zeros(1, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    s = 0
    while s < v.size:
        budget = ends[s] - n_rates[s] + cluster_mod.BLOCK_TERMS
        e = max(s + 1, int(np.searchsorted(ends, budget, "right")))
        n = n_rates[s:e]
        leaf = np.repeat(np.arange(e - s), n)
        a = cluster_mod._runs(lo[s:e], n)
        w = np.exp(xlogy(u[s:e][leaf], a) - gammaln(u[s:e] + 1.0)[leaf] - a)
        keep = w >= PMF_CUTOFF
        leaf, a, w = leaf[keep], a[keep], w[keep]
        per_leaf = np.bincount(leaf, minlength=e - s) + 1
        padded = np.zeros(w.size + e - s)
        padded[np.arange(w.size) + leaf + 1] = w
        total = np.add.reduceat(padded, np.cumsum(per_leaf) - per_leaf)
        grid = np.bincount(
            leaf * N_BINS + bin_of(deviation_score(a, f[s:e][leaf])),
            weights=w / total[leaf],
            minlength=(e - s) * N_BINS,
        ).reshape(e - s, N_BINS)
        spike = np.flatnonzero((f[s:e] == 0.0) | (total == 0.0))
        grid[spike, observed[s:e][spike]] = 1.0
        nz = np.flatnonzero(grid)
        counts.append(np.bincount(nz // N_BINS, minlength=e - s))
        bins.append(nz % N_BINS)
        mass.append(grid.ravel()[nz])
        s = e
    return ScoreMass(np.cumsum(np.concatenate(counts)), np.concatenate(bins), np.concatenate(mass))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_score_mass(got, want):
    return all(
        same_bytes(getattr(got, k), getattr(want, k)) for k in ("ptr", "bins", "mass")
    )


@st.composite
def repeating_batches(draw):
    """Leaves drawn from a few counts and forecasts, so both repeat in a batch.

    Counts above 1,024 have more than 700 candidate rates; 0.0 and -0.0
    forecasts share their counts with positive ones.
    """
    count = st.sampled_from([0, 1, 7, 60, 2500]) | st.integers(0, 5000)
    counts = draw(st.lists(count, min_size=1, max_size=4))
    forecast = st.sampled_from([0.0, -0.0]) | st.floats(0.5, 6000.0)
    forecasts = draw(st.lists(forecast, min_size=1, max_size=4))
    leaves = draw(
        st.lists(
            st.tuples(st.sampled_from(counts), st.sampled_from(forecasts)), min_size=1, max_size=40
        )
    )
    leaves = [(v, f) for v, f in leaves if v + f > 0.0]
    assume(leaves)
    return np.array([v for v, _ in leaves], float), np.array([f for _, f in leaves])


# count 0, and one count under forecasts 0.0, -0.0 and positive ones, in turn
_REPEATS = (
    np.array([0, 7, 7, 7, 0, 7, 2500, 7, 2500, 0], float),
    np.array([3.0, 0.0, -0.0, 3.0, 3.0, 2.5, 2000.0, 0.0, 2000.0, 2.5]),
)


def stage2_peak(v, f):
    """``tracemalloc`` peak of Poisson stage 2 over counts ``v``, in bytes."""
    tracemalloc.start()
    try:
        leaf_distributions(np.array(v), np.array(f), "poisson")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRepeatedLeaves:
    @settings(max_examples=200, deadline=None)
    @given(batch=repeating_batches(), budget=st.sampled_from([64, 700, BLOCK_TERMS]))
    @example(batch=_REPEATS, budget=64)
    @example(batch=_REPEATS, budget=700)
    @example(batch=_REPEATS, budget=BLOCK_TERMS)
    def test_matches_the_per_leaf_loop_bit_for_bit(self, batch, budget):
        v, f = batch
        with mock.patch.object(cluster_mod, "BLOCK_TERMS", budget):
            got = leaf_distributions(v, f, "poisson")
            want = reference_leaf_distributions(v, f)
        assert same_score_mass(got, want)

    @settings(max_examples=100, deadline=None)
    @given(batch=repeating_batches(), data=st.data())
    @example(batch=_REPEATS, data=None)
    def test_shuffled_or_duplicated_leaves_permute_the_rows(self, batch, data):
        v, f = batch
        n = v.size
        if data is None:
            idx = np.array([9, 3, 3, 0, 8, 1, 2, 2, 6, 7, 5, 4, 0])
        else:
            perm = data.draw(st.permutations(range(n)))
            extra = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
            idx = np.array(perm + extra, dtype=np.int64)
        rows = leaf_distributions(v, f, "poisson")
        moved = leaf_distributions(v[idx], f[idx], "poisson")
        assert len(moved) == idx.size
        for d, i in zip(moved, idx):
            lo, hi = rows.ptr[i], rows.ptr[i + 1]
            assert same_bytes(d.bins, rows.bins[lo:hi])
            assert same_bytes(d.mass, rows.mass[lo:hi])

    def test_empty_batch(self):
        got = leaf_distributions(np.zeros(0), np.zeros(0), "poisson")
        assert same_score_mass(got, reference_leaf_distributions(np.zeros(0), np.zeros(0)))

    @pytest.mark.parametrize("count", [1e8, 1e10])
    def test_a_huge_count_matches_the_per_leaf_loop(self, count):
        # 2e5 and 2e6 candidate rates, beside a small count
        v, f = np.array([3.0, count]), np.array([2.0, 0.7 * count])
        got = leaf_distributions(v, f, "poisson")
        assert same_score_mass(got, reference_leaf_distributions(v, f))

    def test_near_integer_counts_match_the_per_leaf_loop(self):
        # counts within 1e-9 of an integer pass validation and are scored as
        # that integer; only a spike keeps the count as given
        v = np.array([2.9999999999999996, 3.0 + 1e-10, 1e-10, 0.5e-9, 12.0 - 5e-10, 7.0, 12.0 + 1e-10])
        f = np.array([2.0, 2.0, 1.0, 0.0, 9.0, 6.0, 12.0])
        got = leaf_distributions(v, f, "poisson")
        assert same_score_mass(got, reference_leaf_distributions(v, f))

    @pytest.mark.parametrize("shift", [1e-10, -1e-10])
    def test_counts_off_by_a_hair_give_the_same_bytes(self, shift):
        # zero forecasts among positive ones, and counts below 12 and on both
        # Stirling series of the log factorial (past 1e8 no double lies
        # within 1e-9 of an integer but the integer itself)
        v = np.array([1, 2, 3, 7, 11, 12, 13, 500, 999, 5000, 3, 12, 500], float)
        f = np.array([2, 1, 3, 9, 11, 15, 10, 400, 900, 4000, 0, 0, 0])
        want = leaf_distributions(v, f, "poisson")
        got = leaf_distributions(v + shift, f, "poisson")
        assert same_score_mass(got, want)

    @pytest.mark.parametrize("count", [1e12, 1e40, 1e300])
    def test_a_count_past_the_cutoff_keeps_its_spike(self, count):
        v, f = np.array([3.0, count]), np.array([2.0, 0.5 * count])
        got = leaf_distributions(v, f, "poisson")
        three = leaf_distributions(v[:1], f[:1], "poisson")
        assert same_score_mass(next(iter(got)), three)
        assert got.ptr[2] - got.ptr[1] == 1
        assert got.bins[-1] == bin_of(deviation_score(count, 0.5 * count))
        assert got.mass[-1] == 1.0

    def test_a_count_past_the_cutoff_costs_no_memory(self):
        assert stage2_peak([3.0, 1e12], [2.0, 7e11]) < 16 * 2**20

    def test_a_block_holds_the_logs_of_its_own_rates_only(self):
        # the two counts fit one block by terms (63,341 rates), but the 1e7
        # rates between them would take 80 MB of logs
        assert stage2_peak([3.0, 1e7], [2.0, 7e6]) < 16 * 2**20


class TestScipyKernels:
    """Stage 2's log factorial and u log a equal scipy's, bit for bit."""

    def test_log_factorial_of_every_count_to_a_million(self):
        u = np.arange(10**6 + 1, dtype=float)
        got = np.array([cluster_mod._log_factorial(x) for x in u.tolist()])
        assert same_bytes(got, gammaln(u + 1.0))

    def test_log_factorial_of_log_spaced_counts(self):
        u = np.unique(np.floor(np.logspace(0, 308, 10**4)))
        # every branch of Cephes lgam: the product below 13, the long series
        # below 1000, the short one to 1e8, none above, and overflow
        branch = np.searchsorted([13.0, 1000.0, 1e8, cluster_mod._MAXLGM], u + 1.0, "right")
        assert np.all(np.bincount(branch, minlength=5) > 0)
        got = np.array([cluster_mod._log_factorial(x) for x in u.tolist()])
        assert same_bytes(got, gammaln(u + 1.0))

    def test_u_log_a_of_every_rate_to_a_million(self):
        # stage 2 multiplies a block's logs by u and zeroes the terms of u = 0
        a = np.arange(10**6 + 1, dtype=float)
        logs = cluster_mod._log_range(0, a.size)
        for u in (0.0, 1.0, 3.0, 1234.0):
            with np.errstate(invalid="ignore"):
                got = logs * u
            if u == 0.0:
                got[:] = 0.0
            assert same_bytes(got, xlogy(u, a))


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
    hist = scores.histogram / len(scores)
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

    @settings(max_examples=200, deadline=None)
    @given(clustered_masses())
    def test_membership_sums_each_leafs_mass_inside(self, scores):
        # a drawn input may keep no cluster; the fixed inputs below must
        assert_membership_is_mass_inside(scores, cluster_distributions(scores))

    @pytest.mark.parametrize(
        "scores, spans",
        [
            (
                leaf_distributions(
                    np.array([40.0, 42.0, 5.0, 200.0, 7.0]),
                    np.array([20.0, 21.0, 6.0, 100.0, 0.0]),
                    "poisson",
                ),
                [(0, 18), (20, 82)],
            ),
            # density 2.7, 0.3, 3, 0, 0.4, 0, 0.6, 0, 2 over bins 50-58: bin
            # 51 is a separating minimum holding 0.1 of each of the first
            # three leaves, and the runs at bins 54 and 56 are too light to
            # keep
            (
                masses([{50: 0.9, 51: 0.1}] * 3 + [{52: 1.0}] * 3
                       + [{54: 0.4, 56: 0.6}] + [{58: 1.0}] * 2),
                [(0, 50), (52, 52), (58, 200)],
            ),
        ],
        ids=["poisson", "light-runs"],
    )
    def test_membership_of_fixed_inputs(self, scores, spans):
        clusters = cluster_distributions(scores)
        assert [(c.lo_bin, c.hi_bin) for c in clusters] == spans
        assert_membership_is_mass_inside(scores, clusters)

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


def reference_weighted_quantile(values, weights, q):
    """The noise band's quantile over one stable sort of every value."""
    v = np.asarray(values, float)
    w = np.asarray(weights, float)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    total = w.sum()
    if total <= 0:
        return float(v[-1])
    cum = np.cumsum(w) / total
    i = int(np.searchsorted(cum, q, side="left"))
    return float(v[min(i, v.size - 1)])


@st.composite
def weighted_columns(draw):
    """Values with ties (drawn from a small pool, or one constant), and
    weights with zeros whose sums are exact: multiples of 1/4 up to 64."""
    n = draw(st.integers(1, 60))
    value = st.floats(-1e6, 1e6, allow_subnormal=False)
    if draw(st.booleans()):
        value = st.sampled_from(draw(st.lists(value, min_size=1, max_size=5)))
    values = draw(st.lists(value, min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 256).map(lambda k: k / 4), min_size=n, max_size=n))
    return np.array(values), np.array(weights)


class TestWeightedQuantile:
    @settings(max_examples=300, deadline=None)
    @given(weighted_columns(), st.sampled_from([0.5, 0.9, 0.999]))
    @example((np.array([3.0]), np.array([2.0])), 0.5)  # a single value
    @example((np.full(5, 0.25), np.array([0.0, 1.0, 0.0, 2.0, 1.0])), 0.9)  # constant
    @example((np.array([0.0, 1.0, 0.5, 0.5]), np.zeros(4)), 0.999)  # no weight at all
    # the share crosses 0.5 exactly at the end of a bucket, before zero weights
    @example((np.array([0.0, 0.2, 0.4, 0.6, 0.8]), np.array([1.0, 1.0, 0.0, 0.0, 2.0])), 0.5)
    def test_matches_the_stable_sort(self, column, q):
        values, weights = column
        want = reference_weighted_quantile(values, weights, q)
        assert weighted_quantile(values, weights, q) == want


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

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30), st.floats(0.0, 1.0))
    def test_result_is_observed(self, values, q):
        v = np.asarray(values)
        assert weighted_quantile(v, np.ones_like(v), q) in v
