"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the whole file takes a few minutes because criteria 3 to 6 run simulated
benchmarks at desk scale.  Every data set is generated in-process from fixed
seeds, so the outcomes are reproducible bit for bit.
"""

import statistics
import time

import numpy as np

from rootdrill import (
    AttributeCombination,
    MeasureSpec,
    SimulationParams,
    aggregate,
    deviation_score,
    eliminate_attributes,
    evaluate_fault,
    explanation_score,
    f1_score,
    localize,
    simulate_fault,
    snapshot_from_rows,
    synthetic_base,
)
from rootdrill.cluster import cluster_distributions, leaf_distributions
from rootdrill.evaluate import EvalCase, exrc_f1
from rootdrill.ripple import expected_abnormal_value, measure_values


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def _simulate(base, n_element, cuboid_layer, sigma, rng):
    params = SimulationParams(
        n_element=n_element,
        cuboid_layer=cuboid_layer,
        base_noise_sigma=sigma,
        leaf_noise_sigma=0.05 if sigma > 0 else 0.0,
    )
    return simulate_fault(base, params, rng)


def _background_residual(fault) -> float:
    """Relative residual of the leaves the fault left untouched."""
    v, f = fault.snapshot.leaf_values()
    affected = np.zeros(fault.snapshot.n_leaves, dtype=bool)
    for c in fault.ground_truth:
        affected |= fault.snapshot.leaf_mask(c)
    quiet = ~affected
    return float(np.abs(v[quiet] - f[quiet]).sum() / f[quiet].sum())


def test_criterion_1_worked_example(province_snapshot):
    beijing = AttributeCombination.from_bindings({"Province": "Beijing"})
    gps = explanation_score(province_snapshot, [beijing])
    v_s, f_s = aggregate(province_snapshot, [beijing])
    agg_dev = (f_s - v_s) / f_s
    best = min(
        _timed(explanation_score, province_snapshot, [beijing]) for _ in range(30)
    )
    ok = abs(gps - 0.743) <= 0.001 and agg_dev == 0.5 and best < 1e-3
    verdict(
        1,
        ok,
        f"gps={gps:.6f} (target 0.743±0.001), aggregate deviation={agg_dev} "
        f"(target 0.5 exact), best runtime={best * 1e6:.0f}us (<1ms)",
    )
    assert abs(gps - 0.743) <= 0.001
    assert agg_dev == 0.5
    assert best < 1e-3


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_2_closure_suite():
    rng = np.random.default_rng(20260823)
    n = 10_000
    f1_total = rng.uniform(1e-3, 1e6, n)
    f2_total = rng.uniform(1e-3, 1e6, n)
    r1 = rng.uniform(1e-3, 3.0, n)
    r2 = rng.uniform(1e-3, 3.0, n)
    share = rng.uniform(1e-3, 1.0, n)
    kinds = rng.integers(0, 2, n)
    measures = (MeasureSpec("quotient", ("m1", "m2")), MeasureSpec("product", ("m1", "m2")))

    t0 = time.perf_counter()
    worst = 0.0
    for i in range(n):
        m = measures[kinds[i]]
        f1l, f2l = share[i] * f1_total[i], share[i] * f2_total[i]
        v_total = float(measure_values(m.kind, [r1[i] * f1_total[i], r2[i] * f2_total[i]]))
        f_total = float(measure_values(m.kind, [f1_total[i], f2_total[i]]))
        v_leaf = float(measure_values(m.kind, [r1[i] * f1l, r2[i] * f2l]))
        f_leaf = float(measure_values(m.kind, [f1l, f2l]))
        d = deviation_score(v_total, f_total)
        d_leaf = deviation_score(v_leaf, f_leaf)
        worst = max(worst, abs(d_leaf - d) / max(abs(d), 1e-12))
        if d > -1.0:
            a = expected_abnormal_value(f_leaf, d)
            worst = max(worst, abs(a - v_leaf) / max(abs(v_leaf), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(
        2,
        ok,
        f"{n} quotient/product instances, worst relative error={worst:.2e} "
        f"(<=1e-9), elapsed={elapsed:.2f}s (<1s)",
    )
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_noise_free_oracle():
    base = synthetic_base(4, 10, mean_rate=50.0, seed=77, family="none")
    t0 = time.perf_counter()
    per_cell = {}
    for n_el in (1, 2, 3):
        for layer in (1, 2, 3):
            perfect = 0
            for i in range(100):
                rng = np.random.default_rng(5_000 + 31 * i + 7 * n_el + layer)
                fault = _simulate(base, n_el, layer, 0.0, rng)
                perfect += f1_score([evaluate_fault(fault)]) == 1.0
            per_cell[(n_el, layer)] = perfect / 100
    elapsed = time.perf_counter() - t0
    worst_cell = min(per_cell, key=per_cell.get)
    ok = all(frac >= 0.95 for frac in per_cell.values()) and elapsed < 300.0
    verdict(
        3,
        ok,
        f"perfect-F1 fraction per cell >= {per_cell[worst_cell]:.2f} "
        f"(worst cell {worst_cell}, need >=0.95), elapsed={elapsed:.0f}s (<300s)",
    )
    assert all(frac >= 0.95 for frac in per_cell.values()), per_cell
    assert elapsed < 300.0


def test_criterion_4_noisy_benchmark():
    base = synthetic_base(4, 10, mean_rate=50.0, seed=1234, family="poisson")
    residuals = []
    per_cell = {}
    for n_el in (1, 2, 3):
        for layer in (1, 2, 3):
            cases = []
            for i in range(20):
                rng = np.random.default_rng(900_000 + 97 * i + 13 * n_el + layer)
                fault = _simulate(base, n_el, layer, 0.05, rng)
                if i < 3:
                    residuals.append(_background_residual(fault))
                cases.append(evaluate_fault(fault))
            per_cell[(n_el, layer)] = f1_score(cases)
    regime = statistics.mean(residuals)
    f1_11 = per_cell[(1, 1)]
    avg = statistics.mean(per_cell.values())
    ok = 0.03 <= regime <= 0.05 and f1_11 >= 0.90 and avg >= 0.70
    verdict(
        4,
        ok,
        f"background residual={regime:.3f} (~0.04), F1(1,1)={f1_11:.2f} "
        f"(>=0.90), 9-cell average={avg:.3f} (>=0.70)",
    )
    assert 0.03 <= regime <= 0.05
    assert f1_11 >= 0.90
    assert avg >= 0.70, per_cell


def test_criterion_5_poisson_beats_dirac():
    base = synthetic_base(4, 10, mean_rate=50.0, seed=1234, family="poisson")
    faults = []
    residuals = []
    for n_el in (1, 2, 3):
        for layer in (1, 2, 3):
            for i in range(8):
                rng = np.random.default_rng(700_000 + 97 * i + 13 * n_el + layer)
                fault = _simulate(base, n_el, layer, 0.20, rng)
                faults.append(fault)
                if i == 0:
                    residuals.append(_background_residual(fault))
    regime = statistics.mean(residuals)
    poisson_f1 = f1_score([evaluate_fault(f) for f in faults])
    dirac_f1 = f1_score([evaluate_fault(f, family_override="none") for f in faults])
    margin = poisson_f1 - dirac_f1
    ok = 0.13 <= regime <= 0.19 and margin > 0.0
    verdict(
        5,
        ok,
        f"background residual={regime:.3f} (~0.16), poisson F1={poisson_f1:.3f} "
        f"vs dirac F1={dirac_f1:.3f}, margin={margin:+.3f} (>0)",
    )
    assert 0.13 <= regime <= 0.19
    assert margin > 0.0


def test_criterion_6_external_root_cause():
    base = synthetic_base(4, 10, mean_rate=50.0, seed=1234, family="poisson")
    all_attrs = ("A", "B", "C", "D")
    settings = []
    for k in (1, 2, 3):
        for n_el, layer in ((1, 1), (1, 2), (2, 1), (2, 2)):
            cases = []
            for i in range(8):
                rng = np.random.default_rng(
                    300_000 + 101 * i + 17 * n_el + 3 * layer + k
                )
                fault = _simulate(base, n_el, layer, 0.05, rng)
                truth_attrs = {a for c in fault.ground_truth for a in c.attributes}
                others = [a for a in all_attrs if a not in truth_attrs]
                if i % 2 == 0 and len(others) >= k:
                    victims = list(rng.choice(others, size=k, replace=False))
                else:
                    hit = sorted(truth_attrs)[int(rng.integers(len(truth_attrs)))]
                    rest = [a for a in all_attrs if a != hit]
                    victims = [hit] + list(rng.choice(rest, size=k - 1, replace=False))
                cases.append(evaluate_fault(eliminate_attributes(fault, victims)))
            settings.append(exrc_f1(cases))
    passed = sum(s >= 0.80 for s in settings)
    ok = passed >= 9  # 75% of the 12 settings
    verdict(
        6,
        ok,
        f"{passed}/12 settings reach ExRC_F1>=0.80 (need >=9), "
        f"scores={[round(s, 2) for s in settings]}",
    )
    assert passed >= 9


def test_criterion_7_efficiency():
    base = synthetic_base(4, 12, mean_rate=50.0, seed=99, family="poisson")
    assert base.n_leaves == 20736
    times = []
    for i in range(5):
        params = SimulationParams(
            n_element=(i % 3) + 1,
            cuboid_layer=(i % 2) + 1,
            base_noise_sigma=0.05,
            leaf_noise_sigma=0.05,
        )
        rng = np.random.default_rng(40_000 + i)
        fault = simulate_fault(base, params, rng)
        times.append(localize(fault.snapshot).elapsed)
    med = statistics.median(times)
    ok = med <= 10.0
    verdict(
        7,
        ok,
        f"median localization={med:.2f}s over 5 runs on {base.n_leaves} leaves "
        f"(<=10s, default config)",
    )
    assert med <= 10.0


def test_criterion_8_invariants():
    rng = np.random.default_rng(4242)
    checks = {}

    # PMF normalization within 1e-6
    worst = 0.0
    for _ in range(200):
        v = int(rng.integers(0, 500))
        f = float(rng.uniform(0.1, 500.0))
        mass = leaf_distributions(np.array([v], float), np.array([f]), "poisson").mass
        worst = max(worst, abs(mass.sum() - 1.0))
    checks["pmf"] = bool(worst <= 1e-6)

    # cluster bound interiors never overlap
    disjoint = True
    for _ in range(30):
        scores = np.clip(rng.normal(0.0, 0.4, 300), -1.0, 1.0)
        # real 1 - s against forecast 1 + s scores s
        spikes = leaf_distributions(1.0 - scores, 1.0 + scores, "none")
        spans = sorted(
            (c.lo_bin, c.hi_bin) for c in cluster_distributions(spikes)
        )
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            disjoint &= hi < lo
    checks["bounds"] = disjoint

    # explanation score never exceeds 1 and ignores measurement scale
    capped = True
    scale_ok = True
    for _ in range(50):
        rows = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        f = rng.uniform(10.0, 200.0, 16)
        v = np.abs(f + rng.normal(0.0, 20.0, 16))
        snap = snapshot_from_rows(
            ("A", "B"), rows, {"value": v}, {"value": f}, MeasureSpec()
        )
        scaled = snapshot_from_rows(
            ("A", "B"), rows, {"value": 37.0 * v}, {"value": 37.0 * f}, MeasureSpec()
        )
        cand = [AttributeCombination.from_bindings({"A": f"a{rng.integers(4)}"})]
        s1 = explanation_score(snap, cand)
        s2 = explanation_score(scaled, cand)
        capped &= s1 <= 1.0
        scale_ok &= abs(s1 - s2) <= 1e-9 * max(1.0, abs(s1))
    checks["gps_cap"] = capped
    checks["gps_scale"] = scale_ok

    # F1 treats prediction and truth symmetrically
    c1 = AttributeCombination.from_bindings({"A": "a"})
    c2 = AttributeCombination.from_bindings({"B": "b"})
    c3 = AttributeCombination.from_bindings({"C": "c"})
    fwd = f1_score([EvalCase({c1, c2}, {c1, c3}, False, False, 0.0)])
    rev = f1_score([EvalCase({c1, c3}, {c1, c2}, False, False, 0.0)])
    checks["f1_sym"] = fwd == rev

    # identical seeds reproduce the simulation bit for bit
    base = synthetic_base(3, 5, seed=5, family="poisson")
    params = SimulationParams(n_element=2, cuboid_layer=1, base_noise_sigma=0.05)
    a = simulate_fault(base, params, np.random.default_rng(123))
    b = simulate_fault(base, params, np.random.default_rng(123))
    same = (
        np.array_equal(a.snapshot.real["value"], b.snapshot.real["value"])
        and a.ground_truth == b.ground_truth
    )
    checks["determinism"] = same

    ok = all(checks.values())
    verdict(
        8,
        ok,
        "pmf normalization, bound disjointness, gps cap, gps scale invariance, "
        f"f1 symmetry, simulator determinism -> {checks}",
    )
    assert all(checks.values()), checks
