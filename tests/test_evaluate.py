import numpy as np
import pytest

import rootdrill.evaluate as evaluate_mod
from rootdrill import (
    AttributeCombination,
    LocalizeConfig,
    SimulationParams,
    evaluate_fault,
    f1_score,
    synthetic_base,
)
from rootdrill.evaluate import EvalCase, anomaly_magnitude, exrc_f1, run_benchmark
from rootdrill.simulate import generate_dataset, write_fault


def combo(**bindings):
    return AttributeCombination.from_bindings(bindings)


def case(pred, truth, pe=False, te=False):
    return EvalCase(set(pred), set(truth), pe, te, elapsed=0.0)


A, B, C = combo(x="a"), combo(x="b"), combo(x="c")


class TestF1:
    def test_exact_match(self):
        assert f1_score([case({A, B}, {A, B})]) == 1.0

    def test_partial(self):
        # tp=1, fn=1: precision 1, recall 1/2
        assert f1_score([case({A}, {A, B})]) == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert f1_score([case({A}, {B})]) == 0.0

    def test_micro_average_pools_counts(self):
        cases = [case({A}, {A, B}), case({C}, {C})]
        # tp=2, fn=1 pooled across cases
        assert f1_score(cases) == pytest.approx(0.8)

    def test_empty_against_empty(self):
        assert f1_score([case(set(), set())]) == 1.0

    def test_symmetry(self):
        fwd = f1_score([case({A}, {A, B})])
        rev = f1_score([case({A, B}, {A})])
        assert fwd == rev


class TestExrcF1:
    def test_perfect(self):
        cases = [case(set(), set(), pe, te) for pe, te in [(True, True), (False, False)]]
        assert exrc_f1(cases) == 1.0

    def test_missed_external(self):
        flags = [(True, True), (False, True)]
        cases = [case(set(), set(), pe, te) for pe, te in flags]
        # precision 1, recall 1/2
        assert exrc_f1(cases) == pytest.approx(2 / 3)

    def test_no_flags_anywhere(self):
        assert exrc_f1([case(set(), set(), False, False)]) == 0.0


def test_anomaly_magnitude(province_snapshot):
    assert anomaly_magnitude(province_snapshot) == pytest.approx(32.8 / 550.8)


def test_anomaly_magnitude_zero_forecast():
    from rootdrill import MeasureSpec, snapshot_from_rows

    snap = snapshot_from_rows(
        ("a",), [("x",)], {"value": [1.0]}, {"value": [0.0]}, MeasureSpec()
    )
    with pytest.raises(ValueError):
        anomaly_magnitude(snap)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    base = synthetic_base(n_attrs=3, n_values=5, seed=30, family="none")
    for n, layer in [(1, 1), (2, 1)]:
        params = SimulationParams(n_element=n, cuboid_layer=layer, seed=30 + n)
        for i, fault in enumerate(generate_dataset(base, [params], 2)):
            write_fault(fault, root / f"n{n}_l{layer}" / f"{i:04d}")
    return root


class TestEvaluateFault:
    def test_clean_fault_scores_one(self):
        base = synthetic_base(n_attrs=3, n_values=5, seed=31, family="none")
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=31)
        fault = generate_dataset(base, [params], 1)[0]
        c = evaluate_fault(fault)
        assert f1_score([c]) == 1.0
        assert not c.truth_external
        assert c.elapsed > 0.0

    def test_family_override_changes_distributions(self):
        base = synthetic_base(n_attrs=3, n_values=5, seed=32, family="poisson")
        params = SimulationParams(n_element=1, cuboid_layer=1, seed=32)
        fault = generate_dataset(base, [params], 1)[0]
        a = evaluate_fault(fault, LocalizeConfig())
        b = evaluate_fault(fault, LocalizeConfig(), family_override="none")
        assert a.truth == b.truth  # same ground truth either way


class TestRunBenchmark:
    def test_aggregates(self, small_dataset):
        report = run_benchmark(small_dataset, LocalizeConfig())
        assert report.n_cases == 4
        assert report.skipped == 0
        assert set(report.per_setting) == {(1, 1), (2, 1)}
        assert report.overall_f1 == 1.0
        assert report.macro_f1 == 1.0
        assert report.mean_elapsed > 0.0

    def test_parallel_matches_serial(self, small_dataset):
        serial = run_benchmark(small_dataset, LocalizeConfig(), workers=1)
        parallel = run_benchmark(small_dataset, LocalizeConfig(), workers=2)
        assert parallel.per_setting == serial.per_setting
        assert parallel.overall_f1 == serial.overall_f1

    def test_empty_dataset(self, tmp_path):
        report = run_benchmark(tmp_path, LocalizeConfig())
        assert report.n_cases == 0
        assert report.overall_f1 is None

    def test_corrupt_case_skipped(self, small_dataset, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(small_dataset, root)
        bad = root / "n1_l1" / "0000" / "snapshot.csv"
        bad.write_text("broken\n")
        with pytest.warns(UserWarning, match="unreadable.*ParseError"):
            report = run_benchmark(root, LocalizeConfig())
        assert report.skipped == 1
        assert report.n_cases == 3

    def test_localize_error_propagates(self, small_dataset, monkeypatch):
        # a crash inside the pipeline is a bug, not a malformed directory
        def boom(snapshot, cfg=None):
            raise RuntimeError("pipeline bug")

        monkeypatch.setattr(evaluate_mod, "localize", boom)
        with pytest.raises(RuntimeError, match="pipeline bug"):
            run_benchmark(small_dataset, LocalizeConfig())
