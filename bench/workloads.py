"""Planted-fault snapshot generators, one per benchmark workload.

Every workload turns a seed into a fixed list of cases.  A case holds the
snapshot as CSV text, the measure spec a caller passes to ``parse_snapshot``
and the planted truth; the program under test only ever sees the text.
Fault cells (number of causes, cuboid layer, strength) rotate in a fixed
order rather than being drawn at random, so every seed gets the same mix of
cells and the run-to-run spread comes from the faults themselves, not from
the mix.  A fault's strength is its smallest magnitude.  Strata of strength
are equally likely ranges of the smallest of that many magnitudes drawn from
the cell's range, so the mix over strata is the mix of unstratified draws.
Weak faults take longest to verdict; left to chance, their share moved every
time metric by a fifth from seed to seed.

Faults are not filtered with ``validity_check``.  On these complete grids its
ambiguity test cannot fire (no other combination shares 95% of a planted
slice's leaves), and its background-noise test would reject about a fifth of
the count-20k faults while building every cuboid of every snapshot, which
costs more than the verdicts the run could time instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from rootdrill import (
    AttributeCombination,
    MeasureSpec,
    SimulationParams,
    eliminate_attributes,
    simulate_fault,
    snapshot_from_rows,
    synthetic_base,
)
from rootdrill.forecast import render_table


@dataclass(frozen=True)
class Case:
    csv: str
    measure: MeasureSpec
    truth: frozenset[AttributeCombination]
    external: bool
    planted: int  # combinations planted, before any attribute was dropped
    n_leaves: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed_salt: int  # mixed into the run seed, so workloads draw apart
    n_cases: int  # distinct snapshots generated per seed, one pass of the loop
    generate: Callable[[np.random.Generator, int], list[Case]]


def _case(fault, planted: int) -> Case:
    snap = fault.snapshot
    return Case(
        render_table(snap),
        snap.measure,
        frozenset(fault.truth_combinations()),
        fault.external,
        planted,
        snap.n_leaves,
    )


# count-20k verdict times follow fault strength closely, so its faults are
# spread over six strata of strength, one fault per cell of a 36-snapshot pass
COUNT_STRATA = 6


def _fault(base, params: SimulationParams, stratum: int, strata: int, rng: np.random.Generator):
    """A fault drawn from ``params`` whose smallest magnitude falls in the
    ``stratum``-th, from the weakest, of ``strata`` equally likely ranges."""
    lo, hi = params.magnitude_range
    k = params.n_element

    def quantile(p: float) -> float:
        # of the smallest of k magnitudes drawn uniformly from (lo, hi)
        return hi - (hi - lo) * (1.0 - p) ** (1.0 / k)

    a, b = quantile(stratum / strata), quantile((stratum + 1) / strata)
    # all magnitudes at least a is the same as drawing them from (a, hi);
    # then redraw until the smallest is below b (one magnitude: draw below b)
    narrowed = replace(params, magnitude_range=(a, b if k == 1 else hi))
    while True:
        fault = simulate_fault(base, narrowed, rng)
        if min(fault.magnitudes.values()) < b:
            return fault


def _count_20k(rng: np.random.Generator, n: int) -> list[Case]:
    base = synthetic_base(4, 12, mean_rate=50, family="poisson", seed=int(rng.integers(2**31)))
    cells = [
        (k, layer, stratum)
        for stratum in range(COUNT_STRATA)
        for layer in (1, 2)
        for k in (1, 2, 3)
    ]
    cases = []
    for i in range(n):
        k, layer, stratum = cells[i % len(cells)]
        params = SimulationParams(k, layer, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
        cases.append(_case(_fault(base, params, stratum, COUNT_STRATA, rng), k))
    return cases


def _rate_base(rng: np.random.Generator):
    totals = synthetic_base(5, 10, mean_rate=200, family="none", seed=int(rng.integers(2**31)))
    schema = totals.schema
    total = totals.real["value"]
    succ = rng.binomial(total.astype(np.int64), 0.97).astype(float)
    rows = [
        tuple(schema.domains[a][c] for a, c in zip(schema.attributes, codes))
        for codes in totals.codes.tolist()
    ]
    values = {"succ": succ, "total": total}
    return snapshot_from_rows(
        schema.attributes,
        rows,
        values,
        {c: v.copy() for c, v in values.items()},
        MeasureSpec("quotient", ("succ", "total")),
    )


def _rate_external(rng: np.random.Generator, n: int) -> list[Case]:
    base = _rate_base(rng)
    attrs = base.schema.attributes
    cells = [(k, layer) for layer in (1, 2) for k in (1, 2)]
    cases = []
    for i in range(n):
        # cases come in groups of three of one cell and strength, weak and
        # strong groups alternating.  The first of each group drops an
        # attribute the truth leaves free (internal), the other two one it
        # binds (external).  External verdicts, and internal ones that are
        # flagged external, search every cuboid and take about twice as long
        # as the rest.  How many internal faults get flagged moves from seed
        # to seed; with two externals in three both the median and the tail
        # percentile lie well inside the slow mode, while at one in three
        # the median sat at its edge and jumped by a fifth between seeds
        group = i // 3
        k, layer = cells[(group // 2) % len(cells)]
        params = SimulationParams(
            k, layer, magnitude_range=(0.05, 0.5), measure_kind="success_rate"
        )
        fault = _fault(base, params, group % 2, 2, rng)
        bound = sorted({a for c in fault.truth_combinations() for a in c.attributes})
        pick_from = [a for a in attrs if a not in bound] if i % 3 == 0 else bound
        dropped = pick_from[int(rng.integers(len(pick_from)))]
        cases.append(_case(eliminate_attributes(fault, [dropped]), k))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("count-20k", 1, 36, _count_20k),
        Workload("rate-external", 2, 30, _rate_external),
    )
}
