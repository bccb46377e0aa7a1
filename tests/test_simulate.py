import hashlib
import json

import numpy as np
import pytest

from rootdrill import (
    AttributeCombination,
    MeasureSpec,
    SimulationParams,
    deviation_score,
    eliminate_attributes,
    simulate_fault,
    snapshot_from_rows,
    synthetic_base,
)
from rootdrill.data import Snapshot, parse_snapshot
from rootdrill.evaluate import run_benchmark
from rootdrill.forecast import render_table
from rootdrill.simulate import (
    MIN_SCORE_SEPARATION,
    SimulatedFault,
    generate_dataset,
    read_fault,
    validity_check,
    write_fault,
)


def combo(**bindings):
    return AttributeCombination.from_bindings(bindings)


@pytest.fixture(scope="module")
def base():
    return synthetic_base(n_attrs=3, n_values=6, seed=42, family="none")


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_element=0, cuboid_layer=1),
            dict(n_element=1, cuboid_layer=0),
            dict(n_element=1, cuboid_layer=1, base_noise_sigma=-0.1),
            dict(n_element=1, cuboid_layer=1, magnitude_range=(0.0, 0.5)),
            dict(n_element=1, cuboid_layer=1, magnitude_range=(0.8, 0.2)),
            dict(n_element=1, cuboid_layer=1, magnitude_range=(0.5, 1.2)),
            dict(n_element=1, cuboid_layer=1, measure_kind="latency"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimulationParams(**kwargs)

    @pytest.mark.parametrize("name", ["base_noise_sigma", "leaf_noise_sigma"])
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_is_named(self, name, sigma):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            SimulationParams(n_element=1, cuboid_layer=1, **{name: sigma})


class TestSimulateFault:
    def test_truth_size_and_layer(self, base):
        params = SimulationParams(n_element=3, cuboid_layer=2, seed=1)
        fault = simulate_fault(base, params, np.random.default_rng(1))
        combos = fault.truth_combinations()
        assert len(combos) == 3
        assert all(len(c) == 2 for c in combos)

    def test_forecast_is_the_unperturbed_truth(self, base):
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=2)
        fault = simulate_fault(base, params, np.random.default_rng(2))
        assert np.array_equal(fault.snapshot.forecast["value"], base.real["value"])

    def test_exact_scores_without_leaf_noise(self, base):
        params = SimulationParams(
            n_element=2, cuboid_layer=1, leaf_noise_sigma=0.0, seed=3
        )
        fault = simulate_fault(base, params, np.random.default_rng(3))
        v, f = fault.snapshot.leaf_values()
        for c, mag in fault.magnitudes.items():
            for leaf in np.flatnonzero(fault.snapshot.leaf_mask(c)):
                assert deviation_score(v[leaf], f[leaf]) == pytest.approx(
                    mag, rel=1e-9
                )

    def test_magnitudes_that_cannot_sit_apart_raise(self):
        # three causes 0.05 apart need a range 0.1 wide
        params = SimulationParams(3, 1, magnitude_range=(0.2, 0.25))
        with pytest.raises(ValueError, match="could not draw 3 magnitudes 0.05 apart"):
            simulate_fault(synthetic_base(4, 10), params, np.random.default_rng(0))

    def test_magnitudes_in_range_and_separated(self, base):
        params = SimulationParams(n_element=3, cuboid_layer=1, seed=4)
        fault = simulate_fault(base, params, np.random.default_rng(4))
        mags = sorted(fault.magnitudes.values())
        lo, hi = params.magnitude_range
        assert all(lo <= m <= hi for m in mags)
        assert min(b - a for a, b in zip(mags, mags[1:])) >= MIN_SCORE_SEPARATION

    def test_planted_combinations_do_not_overlap(self, base):
        params = SimulationParams(n_element=3, cuboid_layer=2, seed=5)
        fault = simulate_fault(base, params, np.random.default_rng(5))
        masks = [fault.snapshot.leaf_mask(c) for c in fault.truth_combinations()]
        assert (np.sum(masks, axis=0) <= 1).all()

    def test_poisson_family_rounds_to_counts(self):
        b = synthetic_base(n_attrs=3, n_values=5, seed=6, family="poisson")
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=6)
        fault = simulate_fault(b, params, np.random.default_rng(6))
        v = fault.snapshot.real["value"]
        assert np.array_equal(v, np.rint(v))
        assert (v >= 0).all()

    def test_impossible_layer(self, base):
        params = SimulationParams(n_element=1, cuboid_layer=9, seed=7)
        with pytest.raises(ValueError):
            simulate_fault(base, params, np.random.default_rng(7))

    def test_magnitudes_follow_the_truth(self, base):
        # read_fault looks each magnitude up by its truth combination
        params = SimulationParams(n_element=3, cuboid_layer=1, seed=8)
        fault = simulate_fault(base, params, np.random.default_rng(8))
        assert len(fault.ground_truth) == 3
        assert tuple(fault.magnitudes) == fault.ground_truth
        for dropped in base.schema.attributes:
            reduced = eliminate_attributes(fault, [dropped])
            assert tuple(reduced.magnitudes) == reduced.ground_truth
            assert reduced.external == (len(reduced.ground_truth) < 3)


@pytest.fixture(scope="module")
def rate_base():
    rng = np.random.default_rng(9)
    rows = [(f"a{i}", f"b{j}") for i in range(5) for j in range(5)]
    total = rng.integers(200, 500, len(rows)).astype(float)
    succ = np.round(total * rng.uniform(0.7, 0.99, len(rows)))
    m = MeasureSpec("quotient", ("succ", "total"))
    return snapshot_from_rows(
        ("A", "B"), rows,
        {"succ": succ, "total": total},
        {"succ": succ.copy(), "total": total.copy()},
        m,
    )


class TestSuccessRate:
    def test_needs_quotient_base(self, base):
        params = SimulationParams(
            n_element=1, cuboid_layer=1, measure_kind="success_rate", seed=10
        )
        with pytest.raises(ValueError):
            simulate_fault(base, params, np.random.default_rng(10))

    def test_successes_above_totals_are_named_before_any_draw(self, rate_base):
        real = dict(rate_base.real)
        real["succ"] = real["total"] * 1.2
        base = Snapshot(rate_base.schema, rate_base.codes, real, real, rate_base.measure)
        rng = np.random.default_rng(13)
        before = rng.bit_generator.state
        params = SimulationParams(1, 1, measure_kind="success_rate")
        with pytest.raises(ValueError, match="successes 'succ' exceed totals 'total' on 25 leaves"):
            simulate_fault(base, params, rng)
        assert rng.bit_generator.state == before

    def test_rate_drops_on_planted_slice(self, rate_base):
        params = SimulationParams(
            n_element=1, cuboid_layer=1, measure_kind="success_rate",
            leaf_noise_sigma=0.0, seed=11,
        )
        fault = simulate_fault(rate_base, params, np.random.default_rng(11))
        v, f = fault.snapshot.leaf_values()
        (c,) = fault.truth_combinations()
        mask = fault.snapshot.leaf_mask(c)
        mag = fault.magnitudes[c]
        # redrawn counts add binomial noise, so only check the direction and scale
        expected = f[mask] * (1 - mag) / (1 + mag)
        assert np.mean(v[mask]) == pytest.approx(np.mean(expected), rel=0.25)
        assert np.mean(v[mask]) < np.mean(f[mask])

    def test_counts_are_integers(self, rate_base):
        params = SimulationParams(
            n_element=1, cuboid_layer=1, measure_kind="success_rate", seed=12
        )
        fault = simulate_fault(rate_base, params, np.random.default_rng(12))
        for col in ("succ", "total"):
            x = fault.snapshot.real[col]
            assert np.array_equal(x, np.rint(x))


class TestGoldenDigests:
    """Fixed-seed faults must keep planting the same snapshot, byte for byte.

    The digests were taken before the fundamental and success-rate planting
    paths were merged; a change here changes every generated benchmark
    workload, so it has to be deliberate.
    """

    @staticmethod
    def digest(fault):
        return hashlib.sha256(render_table(fault.snapshot).encode()).hexdigest()

    def test_poisson_count_fault(self):
        base = synthetic_base(n_attrs=3, n_values=6, seed=42, family="poisson")
        params = SimulationParams(2, 1, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
        fault = simulate_fault(base, params, np.random.default_rng(101))
        assert self.digest(fault) == (
            "bd7eea94f55d2100b05d1e4d332747769dce36cbf100f82788fd21b239e3b301"
        )

    def test_success_rate_fault(self):
        rng = np.random.default_rng(9)
        rows = [(f"a{i}", f"b{j}") for i in range(5) for j in range(5)]
        total = rng.integers(200, 500, len(rows)).astype(float)
        succ = np.round(total * rng.uniform(0.7, 0.99, len(rows)))
        total[3] = succ[3] = 0.0  # an empty leaf: its rate is 0
        base = snapshot_from_rows(
            ("A", "B"), rows,
            {"succ": succ, "total": total},
            {"succ": succ.copy(), "total": total.copy()},
            MeasureSpec("quotient", ("succ", "total")),
        )
        params = SimulationParams(
            2, 1, base_noise_sigma=0.02, leaf_noise_sigma=0.05, measure_kind="success_rate"
        )
        fault = simulate_fault(base, params, np.random.default_rng(102))
        assert self.digest(fault) == (
            "62ad2506fa810376543c0002c28c12a319258524339f3abbed1495ce089b2efe"
        )


class TestValidity:
    def test_clean_fault_is_valid(self, base):
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=13)
        fault = simulate_fault(base, params, np.random.default_rng(13))
        assert validity_check(fault)

    def test_coextensive_combination_invalidates(self):
        # a0 and b0 single out the same leaf: the ground truth is ambiguous
        rows = [("a0", "b0"), ("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        f = np.array([100.0, 100.0, 100.0, 100.0])
        v = f.copy()
        v[0] = f[0] / 3  # score 0.5 on the a0 leaf
        snap = snapshot_from_rows(
            ("A", "B"), rows, {"value": v}, {"value": f}, MeasureSpec()
        )
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=0)
        fault = SimulatedFault(snap, params, {combo(A="a0"): 0.5})
        assert not validity_check(fault)

    def test_background_shift_invalidates(self, base):
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=14)
        fault = simulate_fault(base, params, np.random.default_rng(14))
        v = fault.snapshot.real["value"].astype(float).copy()
        truth_mask = fault.snapshot.leaf_mask(next(iter(fault.truth_combinations())))
        v[~truth_mask] *= 1.5  # systematic drift outside the fault
        shifted = SimulatedFault(
            snapshot=type(fault.snapshot)(
                fault.snapshot.schema,
                fault.snapshot.codes,
                {"value": v},
                fault.snapshot.forecast,
                fault.snapshot.measure,
            ),
            params=fault.params,
            magnitudes=fault.magnitudes,
        )
        assert not validity_check(shifted)


class TestGenerateDataset:
    def test_deterministic(self, base):
        params = SimulationParams(n_element=2, cuboid_layer=1, seed=15)
        a = generate_dataset(base, params, 3)
        b = generate_dataset(base, params, 3)
        for fa, fb in zip(a, b):
            assert fa.ground_truth == fb.ground_truth
            assert np.array_equal(
                fa.snapshot.real["value"], fb.snapshot.real["value"]
            )

    def test_all_valid(self, base):
        params = SimulationParams(n_element=1, cuboid_layer=2, seed=16)
        for fault in generate_dataset(base, params, 3):
            assert validity_check(fault)

    def test_per_cell_validation(self, base):
        with pytest.raises(ValueError):
            generate_dataset(base, SimulationParams(n_element=1, cuboid_layer=1, seed=15), 0)

    def test_a_cell_of_invalid_faults_aborts(self):
        # each A value singles out the leaves of one B value, so every
        # planted layer-1 combination has a coextensive twin
        rows = [(f"a{i}", f"b{i}") for i in range(4)]
        f = np.full(4, 100.0)
        diagonal = snapshot_from_rows(("A", "B"), rows, {"value": f}, {"value": f}, MeasureSpec())
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=19)
        with pytest.raises(ValueError, match="acceptance below 1%"):
            generate_dataset(diagonal, params, 1)

    def test_impossible_cell_aborts(self):
        tiny = synthetic_base(n_attrs=1, n_values=3, seed=17, family="none")
        params = SimulationParams(n_element=1, cuboid_layer=2, seed=17)
        with pytest.raises(ValueError):
            generate_dataset(tiny, params, 1)


class TestSyntheticBase:
    def test_shape(self):
        b = synthetic_base(n_attrs=4, n_values=10, seed=18)
        assert b.n_leaves == 10_000
        assert b.schema.attributes == ("A", "B", "C", "D")

    def test_family_none_is_noise_free(self):
        b = synthetic_base(n_attrs=2, n_values=4, seed=19, family="none")
        assert np.array_equal(b.real["value"], b.forecast["value"])

    def test_poisson_counts_at_least_one(self):
        b = synthetic_base(n_attrs=2, n_values=4, seed=20)
        v = b.real["value"]
        assert np.array_equal(v, np.rint(v))
        assert v.min() >= 1

    def test_deterministic(self):
        a = synthetic_base(n_attrs=2, n_values=5, seed=21)
        b = synthetic_base(n_attrs=2, n_values=5, seed=21)
        assert np.array_equal(a.real["value"], b.real["value"])

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_mean_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="mean_rate"):
            synthetic_base(n_attrs=2, n_values=3, mean_rate=rate, seed=23)

    def test_names_sort_like_codes_past_100_values(self):
        b = synthetic_base(n_attrs=2, n_values=101, seed=22, family="none")
        back = parse_snapshot(render_table(b), b.measure)
        assert back.schema.domains == b.schema.domains
        assert np.array_equal(back.codes, b.codes)
        assert b.schema.domains["A"][-2:] == ("a099", "a100")

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_base(n_attrs=0)
        with pytest.raises(ValueError):
            synthetic_base(n_values=1)


class TestEliminateAttributes:
    def _fault(self, base, seed=22):
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=seed)
        return simulate_fault(base, params, np.random.default_rng(seed))

    def test_unrelated_attribute_keeps_truth(self, base):
        fault = self._fault(base)
        (c,) = fault.truth_combinations()
        victim = next(a for a in base.schema.attributes if a not in c.attributes)
        reduced = eliminate_attributes(fault, [victim])
        assert not reduced.external
        assert reduced.truth_combinations() == {c}
        assert victim not in reduced.snapshot.schema.attributes
        assert reduced.dropped_attributes == (victim,)

    def test_dropping_truth_attribute_goes_external(self, base):
        fault = self._fault(base)
        (c,) = fault.truth_combinations()
        reduced = eliminate_attributes(fault, [c.attributes[0]])
        assert reduced.external
        assert reduced.truth_combinations() == set()

    def test_measure_totals_preserved(self, base):
        fault = self._fault(base)
        reduced = eliminate_attributes(fault, [base.schema.attributes[-1]])
        assert reduced.snapshot.real["value"].sum() == pytest.approx(
            fault.snapshot.real["value"].sum()
        )


class TestRoundTrip:
    def test_write_read(self, base, tmp_path):
        params = SimulationParams(n_element=2, cuboid_layer=2, seed=23)
        fault = simulate_fault(base, params, np.random.default_rng(23))
        write_fault(fault, tmp_path / "f0")
        back = read_fault(tmp_path / "f0")
        assert back.ground_truth == fault.ground_truth
        assert back.params == fault.params
        assert back.magnitudes == fault.magnitudes
        assert back.external == fault.external
        v1, f1 = back.snapshot.leaf_values()
        v2, f2 = fault.snapshot.leaf_values()
        assert sorted(v1) == pytest.approx(sorted(v2))
        assert sorted(f1) == pytest.approx(sorted(f2))

    def test_values_holding_the_separator(self, tmp_path):
        rows = [(f"x&{i}", f"y&{j}") for i in range(4) for j in range(4)]
        f = np.full(len(rows), 100.0)
        snap = snapshot_from_rows(("A", "B"), rows, {"value": f}, {"value": f}, MeasureSpec())
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=25)
        fault = simulate_fault(snap, params, np.random.default_rng(25))
        write_fault(fault, tmp_path / "n1_l1" / "0000")
        back = read_fault(tmp_path / "n1_l1" / "0000")
        assert back.ground_truth == fault.ground_truth
        assert back.magnitudes == fault.magnitudes
        assert "&" in str(back.ground_truth[0])
        report = run_benchmark(tmp_path)
        assert (report.n_cases, report.skipped) == (1, 0)

    def test_version_1_groups_read_flat(self, base, tmp_path):
        params = SimulationParams(n_element=2, cuboid_layer=1, seed=26)
        fault = simulate_fault(base, params, np.random.default_rng(26))
        write_fault(fault, tmp_path)
        # version 1 lets one group hold several combinations
        joint = [[c.bindings for c in fault.ground_truth]]
        (tmp_path / "truth.json").write_text(json.dumps(joint))
        back = read_fault(tmp_path)
        assert back.ground_truth == fault.ground_truth
        assert back.magnitudes == fault.magnitudes

    def test_a_dataset_holding_the_old_separation_key_still_reads(self, base, tmp_path):
        # files written while the separation was a SimulationParams field hold it
        params = SimulationParams(n_element=2, cuboid_layer=1, seed=27)
        fault = simulate_fault(base, params, np.random.default_rng(27))
        write_fault(fault, tmp_path / "n2_l1" / "0000")
        path = tmp_path / "n2_l1" / "0000" / "params.json"
        old = json.loads(path.read_text())
        old["min_score_separation"] = 0.05
        path.write_text(json.dumps(old, sort_keys=True, indent=1) + "\n")
        back = read_fault(path.parent)
        assert back.params == fault.params
        assert back.magnitudes == fault.magnitudes
        assert back.ground_truth == fault.ground_truth
        assert (back.external, back.dropped_attributes) == (False, ())
        assert back.snapshot.measure == fault.snapshot.measure
        assert render_table(back.snapshot) == render_table(fault.snapshot)
        report = run_benchmark(tmp_path)
        assert (report.n_cases, report.skipped) == (1, 0)

    def test_written_bytes_deterministic(self, base, tmp_path):
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=24)
        for run in ("a", "b"):
            fault = generate_dataset(base, params, 1)[0]
            write_fault(fault, tmp_path / run)
        for name in ("snapshot.csv", "truth.json", "params.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_written_bytes_pinned(self, tmp_path):
        """The version-1 layout, byte for byte, of a planted fault and of its
        external projection (every truth combination binds ``A``)."""
        base = synthetic_base(n_attrs=3, n_values=6, seed=42, family="poisson")
        params = SimulationParams(3, 2, base_noise_sigma=0.05, leaf_noise_sigma=0.05, seed=7)
        fault = simulate_fault(base, params, np.random.default_rng(2024))
        pinned = {
            "planted": {
                "snapshot.csv": "dc9337f991d9b027b95cf9de77ad3798b1908975d1a761ae22f586e604881c96",
                "truth.json": "58472e1abacf1f01d1d395d6e40911abbbffdef5d3d68862b9a53561024f702e",
                "params.json": "805bc84830936823e7242500667af251769d16189662ab33f9b320a35ae7e4a6",
            },
            "external": {
                "snapshot.csv": "0d1656e9b28e22cafd91c44cb7ad40c0d1b1b3ec7f72941af40cc5e0113d16ee",
                "truth.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                "params.json": "99f3d0c0a3f7a5a89db74adbe616d7f918a35b9f9efdeb6fdc72538eaf810aed",
            },
        }
        for name, f in (("planted", fault), ("external", eliminate_attributes(fault, ["A"]))):
            write_fault(f, tmp_path / name)
            digests = {
                n: hashlib.sha256((tmp_path / name / n).read_bytes()).hexdigest()
                for n in pinned[name]
            }
            assert digests == pinned[name]
