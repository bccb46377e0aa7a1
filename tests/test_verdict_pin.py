"""Verdicts of sixteen fixed faults, pinned so that a refactor which moves one fails here.

Each fault is planted from a fixed seed on a Poisson count base or on a
success-rate base (layers 1-3), or on the count base with one or two
attributes dropped afterwards.  Every pinned report stays the same when stage 2 sums
each leaf's score mass in another order, so the pins do not rest on
last-bit ties between candidates.  Bounds and gps are compared rounded to
1e-9.
"""

import numpy as np
import pytest

from rootdrill import (
    MeasureSpec,
    SimulationParams,
    eliminate_attributes,
    localize,
    simulate_fault,
    snapshot_from_rows,
    synthetic_base,
)


def count_base():
    return synthetic_base(4, 6, mean_rate=50.0, seed=7, family="poisson")


def rate_base():
    rng = np.random.default_rng(9)
    rows = [(f"a{i}", f"b{j}", f"c{k}") for i in range(6) for j in range(6) for k in range(4)]
    total = rng.integers(200, 500, len(rows)).astype(float)
    succ = np.round(total * rng.uniform(0.9, 0.99, len(rows)))
    return snapshot_from_rows(
        ("A", "B", "C"), rows,
        {"succ": succ, "total": total},
        {"succ": succ.copy(), "total": total.copy()},
        MeasureSpec("quotient", ("succ", "total")),
    )


def planted(kind, n_element, layer, seed, dropped):
    """The snapshot of one pinned fault."""
    if kind == "rate":
        params = SimulationParams(
            n_element, layer, base_noise_sigma=0.02, leaf_noise_sigma=0.05,
            measure_kind="success_rate",
        )
        return simulate_fault(rate_base(), params, np.random.default_rng(seed)).snapshot
    params = SimulationParams(n_element, layer, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
    fault = simulate_fault(count_base(), params, np.random.default_rng(seed))
    return eliminate_attributes(fault, dropped).snapshot if dropped else fault.snapshot


def verdict(report):
    """(bounds, combinations, cuboid, gps) per cluster, the external flag and the note."""
    clusters = [
        (
            tuple(round(b, 9) for b in r.bounds),
            tuple(map(str, r.candidate.combinations)),
            str(r.candidate.cuboid),
            round(r.candidate.gps, 9),
        )
        for r in report.per_cluster
    ]
    return clusters, report.external_root_cause, report.note


# (kind, n_element, layer, seed, dropped attributes) -> verdict
PINS = {
    ("count", 1, 1, 0, ()): (
        [
            ((0.06, 0.09), ("D=d00",), "D", 0.877189848),
            ((0.09, 0.3), ("D=d00",), "D", 0.876552325),
            ((0.3, 1.0), ("D=d00",), "D", 0.877620466),
        ],
        False,
        None,
    ),
    ("count", 1, 1, 36, ()): (
        [
            ((0.09, 0.77), ("D=d00",), "D", 0.889183459),
        ],
        False,
        None,
    ),
    ("count", 2, 2, 16, ()): (
        [
            ((0.16, 0.19), ("A=a01&D=d01",), "AxD", 0.909110308),
            ((0.19, 0.33), ("B=b00",), "B", -0.01823787),
            ((0.33, 0.36), ("A=a01&D=d01",), "AxD", 0.909110308),
            ((0.36, 0.41), ("A=a01&D=d01",), "AxD", 0.908914098),
            ((0.41, 0.47), ("A=a01&D=d01",), "AxD", 0.908914098),
            ((0.47, 0.57), ("A=a01&D=d01",), "AxD", 0.909110308),
            ((0.57, 0.68), ("A=a01&D=d01",), "AxD", 0.909110308),
        ],
        True,
        None,
    ),
    # layer-3 winners, on cuboids of more groups than a group has leaves
    # (G² > L); in seed 8 one cluster ranks more groups than √L
    ("count", 1, 3, 1, ()): (
        [
            ((0.52, 0.61), ("A=a03&C=c05&D=d04",), "AxCxD", 0.949073737),
        ],
        False,
        None,
    ),
    ("count", 2, 3, 8, ()): (
        [
            ((0.25, 0.34), ("C=c00", "C=c03"), "C", -0.008177571),
            ((0.34, 0.41), ("A=a00&B=b01&D=d01",), "AxBxD", 0.934502274),
            ((0.43, 0.63), ("A=a00&B=b01&D=d01",), "AxBxD", 0.934502274),
        ],
        True,
        None,
    ),
    ("count", 3, 1, 8, ()): (
        [],
        True,
        "unexplained total shift",
    ),
    ("rate", 1, 1, 13, ()): (
        [
            ((-1.0, 0.94), ("C=c3",), "C", 0.972551534),
            ((0.94, 1.0), ("C=c3",), "C", 0.972551534),
        ],
        False,
        None,
    ),
    ("rate", 1, 1, 1, ()): (
        [
            ((-1.0, 0.0), ("A=a5",), "A", 0.008326713),
            ((0.0, 0.2), ("A=a1",), "A", 0.013411211),
            ((0.2, 0.43), ("A=a4",), "A", 0.937315822),
            ((0.43, 1.0), ("A=a4",), "A", 0.937315822),
        ],
        True,
        None,
    ),
    # a layer-3 winner on the leaf-level cuboid
    ("rate", 1, 3, 8, ()): (
        [
            ((-1.0, 1.0), ("A=a3&B=b0&C=c0",), "AxBxC", 0.976585877),
        ],
        False,
        None,
    ),
    ("rate", 2, 2, 17, ()): (
        [
            ((0.18, 0.35), ("A=a0",), "A", -0.064719616),
            ((0.35, 0.39), ("A=a1",), "A", -0.097552838),
            ((0.39, 0.42), ("A=a2&B=b4",), "AxB", 0.904940568),
            ((0.42, 0.44), ("A=a2&B=b4",), "AxB", 0.904940568),
            ((0.44, 0.5), ("A=a2&B=b4",), "AxB", 0.904940568),
            ((0.5, 1.0), ("A=a2&B=b4",), "AxB", 0.904940568),
        ],
        True,
        None,
    ),
    ("count", 2, 2, 10, ("B",)): (
        [
            ((-1.0, 1.0), ("C=c01",), "C", 0.576589734),
        ],
        True,
        None,
    ),
    ("count", 1, 1, 18, ("D",)): (
        [
            ((-1.0, 1.0), ("B=b03",), "B", 0.976709097),
        ],
        False,
        None,
    ),
    ("count", 3, 1, 2, ("D",)): (
        [],
        True,
        "unexplained total shift",
    ),
    ("count", 1, 2, 3, ("A", "D")): (
        [
            ((-1.0, 1.0), ("C=c04",), "C", 0.686488891),
        ],
        True,
        None,
    ),
    ("count", 1, 2, 15, ("A", "B")): (
        [
            ((0.0, 1.0), ("D=d00",), "D", 0.845454124),
        ],
        False,
        None,
    ),
    ("count", 3, 2, 23, ("A", "B")): (
        [
            ((-1.0, 0.79), ("C=c01&D=d00",), "CxD", 0.954586883),
            ((0.79, 1.0), ("C=c04&D=d02",), "CxD", 0.966451991),
        ],
        False,
        None,
    ),
}


def _name(fault):
    kind, n_element, layer, seed, dropped = fault
    return f"{kind}-{n_element}x{layer}-seed{seed}" + "".join(f"-no{a}" for a in dropped)


@pytest.mark.parametrize("fault", list(PINS), ids=_name)
def test_verdict_is_pinned(fault):
    assert verdict(localize(planted(*fault))) == PINS[fault]
