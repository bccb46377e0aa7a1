"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rootdrill import AttributeCombination, Cuboid, MeasureSpec, snapshot_from_rows  # noqa: E402
from rootdrill.localize import (  # noqa: E402
    ClusterResult,
    LocalizationReport,
    RootCauseCandidate,
)

import hostspeed  # noqa: E402
from spans import Span, Tracer, ancestor_named, self_times  # noqa: E402
from summary import (  # noqa: E402
    cause_repeat_ratio,
    combination_f1,
    flag_f1,
    percentile,
    repeat_cause_frac,
    report_problems,
    samples_beyond,
    tail_percentile,
)


def combo(**bindings):
    return AttributeCombination.from_bindings(bindings)


def report(*cluster_combos, gps=0.95, external=False, note=None):
    per_cluster = [
        ClusterResult((0.1 * i, 0.1 * i + 0.1), RootCauseCandidate(tuple(cs), gps, Cuboid(("A",))))
        for i, cs in enumerate(cluster_combos)
    ]
    root_causes = [r.candidate.combinations for r in per_cluster if gps >= 0.8]
    return LocalizationReport(root_causes, per_cluster, gps if per_cluster else None, external, 0.0, note)


# -- spans -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("root", 0.0, 10.0),
        Span("x", 2.0, 6.0, parent=0),
        Span("y", 4.0, 12.0, parent=0),  # overlaps x, runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_nests_spans_and_self_times_add_up_to_the_root():
    tr = Tracer()
    tr.case = (0, 3)
    with tr.span("verdict"):
        with tr.span("localize.search"):
            with tr.span("data.cuboid_index"):
                sum(range(1000))
        with tr.span("data.parse"):
            sum(range(1000))
    root, search, index, parse = tr.spans
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert all(s.case == (0, 3) for s in tr.spans)
    assert ancestor_named(tr.spans, 2, "localize.search") == 1
    assert ancestor_named(tr.spans, 3, "localize.search") == -1
    assert sum(self_times(tr.spans)) == pytest.approx(root.duration)


def test_installed_wrappers_are_removed_again():
    import importlib

    mod = importlib.import_module("rootdrill.localize")
    snapshot_cls = importlib.import_module("rootdrill.data").Snapshot
    before = (mod.localize_cluster, mod.leaf_distributions, snapshot_cls.cuboid_index)
    with Tracer().installed():
        assert mod.localize_cluster is not before[0]
        assert snapshot_cls.cuboid_index is not before[2]
    assert (mod.localize_cluster, mod.leaf_distributions, snapshot_cls.cuboid_index) == before


# -- tail percentile -------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(20, 50), (30, 66), (40, 75), (100, 90), (1000, 99), (5000, 99)])
def test_tail_percentile_examples(n, pct):
    assert tail_percentile(n) == pct


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_no_tail_percentile_without_ten_samples_beyond_the_median(n):
    assert tail_percentile(n) is None


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for n in range(20, 400):
        pct = tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > percentile(values, pct) for v in values)
        assert beyond == samples_beyond(n, pct) >= 10
        if pct < 99:
            assert samples_beyond(n, pct + 1) < 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 80) == 4.0
    assert percentile(values, 81) == 5.0
    assert percentile(values, 0) == 1.0


# -- accuracy and repeats --------------------------------------------------


def test_repeat_cause_frac_sees_a_combination_named_by_two_clusters():
    dup = report([combo(A="a1")], [combo(A="a1")], [combo(B="b2")])
    clean = report([combo(A="a1")], [combo(B="b2")])
    assert repeat_cause_frac([dup, clean]) == 0.5
    assert cause_repeat_ratio([dup, clean]) == pytest.approx(5 / 4)
    assert repeat_cause_frac([clean]) == 0.0
    assert cause_repeat_ratio([clean]) == 1.0


def test_repeat_metrics_ignore_clusters_without_candidate():
    rep = report([combo(A="a1")])
    rep.per_cluster.append(ClusterResult((0.5, 0.6), None))
    assert repeat_cause_frac([rep]) == 0.0


def test_combination_f1_counts_each_combination_once_per_case():
    a, b, c = combo(A="a1"), combo(A="a2"), combo(B="b1")
    assert combination_f1([({a, b}, {a, c})]) == pytest.approx(0.5)
    assert combination_f1([(set(), set())]) == 1.0


def test_flag_f1_is_undefined_without_a_true_flag():
    assert flag_f1([(True, False), (False, False)]) is None
    assert flag_f1([(True, True), (True, False), (False, True)]) == pytest.approx(0.5)


# -- report checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    rows = [("a1", "b1"), ("a1", "b2"), ("a2", "b1")]
    vals = {"value": [10.0, 20.0, 30.0]}
    return snapshot_from_rows(("A", "B"), rows, vals, vals, MeasureSpec())


def test_a_consistent_report_has_no_problems(tiny):
    assert report_problems(report([combo(A="a1")]), tiny, 0.8) == []
    low = report([combo(A="a1")], gps=0.5, external=True)
    assert report_problems(low, tiny, 0.8) == []


def test_unknown_or_empty_combinations_are_problems(tiny):
    unknown = report([combo(A="a9")])
    empty = report([combo(A="a2", B="b2")])  # both values exist, no leaf has both
    assert "not in the snapshot's schema" in report_problems(unknown, tiny, 0.8)[0]
    assert "covers no leaf" in report_problems(empty, tiny, 0.8)[0]


def test_gps_above_one_is_a_problem(tiny):
    assert "above 1" in report_problems(report([combo(A="a1")], gps=1.5), tiny, 0.8)[0]


def test_external_flag_must_follow_min_gps_unless_noted(tiny):
    unflagged = report([combo(A="a1")], gps=0.5, external=False)
    assert "disagrees" in report_problems(unflagged, tiny, 0.8)[0]
    shift = LocalizationReport([], [], None, True, 0.0, note="unexplained total shift")
    assert report_problems(shift, tiny, 0.8) == []


def test_scaler_divides_by_the_median_kernel_time_around_each_call(monkeypatch):
    # kernel runs: warm-up, burst before call 1, burst after it (= before call 2), burst after call 2
    ticks = iter([0.0, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.005, 0.005, 0.005])
    monkeypatch.setattr(hostspeed, "kernel_time", lambda: next(ticks))
    scaler = hostspeed.Scaler()
    # the host ran at half the nominal speed around the first call
    assert scaler.scale(1.0) == pytest.approx(0.5)
    # around the second call the median of 0.02 x3 and 0.005 x3 is 0.0125
    assert scaler.scale(1.0) == pytest.approx(hostspeed.NOMINAL_S / 0.0125)


def test_scaler_passes_a_failed_call_through_but_still_moves_on(monkeypatch):
    monkeypatch.setattr(hostspeed, "kernel_time", lambda: hostspeed.NOMINAL_S)
    scaler = hostspeed.Scaler()
    assert scaler.scale(None) is None
    assert scaler.scale(0.3) == pytest.approx(0.3)
    assert len(scaler.kernel_times) == 3 * hostspeed.BURST
