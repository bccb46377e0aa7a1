"""Fault injection with known ground truth.

Faults are planted onto a base snapshot by scaling the leaves under randomly
chosen attribute combinations so that each combination deviates by a randomly
drawn magnitude, exactly the pattern an upstream root cause produces.  The
pre-perturbation values serve as the forecast, so forecast error is fully
controlled by the injected noise.  Invalid faults (ambiguous ground truth, or
background noise so large the untouched remainder looks anomalous itself) are
detected and discarded.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cluster import knee_threshold
from .data import (
    AttributeCombination,
    AttributeSchema,
    Cuboid,
    MeasureSpec,
    Snapshot,
    cuboids_by_layer,
    drop_attributes,
    parse_snapshot,
)
from .forecast import render_table
from .ripple import expected_abnormal_value, measure_values

_MEASURE_KINDS = ("fundamental", "success_rate")

# combinations sharing at least this Jaccard overlap of leaves are
# interchangeable as explanations, making the planted truth ambiguous
JACCARD_CUTOFF = 0.95


@dataclass(frozen=True)
class SimulationParams:
    """Knobs of one fault cell.

    n_element combinations are planted, each in a (possibly repeated) cuboid
    of layer ``cuboid_layer``.  Each gets its own deviation magnitude from
    ``magnitude_range``; magnitudes are kept at least ``min_score_separation``
    apart so distinct causes stay distinguishable on the score axis.
    """

    n_element: int
    cuboid_layer: int
    base_noise_sigma: float = 0.0
    leaf_noise_sigma: float = 0.05
    magnitude_range: tuple[float, float] = (0.2, 1.0)
    min_score_separation: float = 0.05
    seed: int | None = None
    measure_kind: str = "fundamental"

    def __post_init__(self) -> None:
        if self.n_element < 1:
            raise ValueError("n_element must be at least 1")
        if self.cuboid_layer < 1:
            raise ValueError("cuboid_layer must be at least 1")
        if self.base_noise_sigma < 0 or self.leaf_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        lo, hi = self.magnitude_range
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("magnitude_range must lie inside (0, 1]")
        if self.measure_kind not in _MEASURE_KINDS:
            raise ValueError(f"unknown measure_kind: {self.measure_kind!r}")


@dataclass
class SimulatedFault:
    """A planted fault and its ground truth.

    ``ground_truth`` lists the localizable root-cause combinations in planting
    order, and ``magnitudes`` maps exactly those combinations, in the same
    order, to the deviation score each was planted with.
    """

    snapshot: Snapshot
    ground_truth: tuple[AttributeCombination, ...]
    params: SimulationParams
    magnitudes: dict[AttributeCombination, float] = field(default_factory=dict)
    external: bool = False
    dropped_attributes: tuple[str, ...] = ()

    def truth_combinations(self) -> set[AttributeCombination]:
        return set(self.ground_truth)


# -- fault construction ----------------------------------------------------


def _draw_magnitudes(params: SimulationParams, rng: np.random.Generator) -> np.ndarray:
    lo, hi = params.magnitude_range
    for _ in range(1000):
        m = rng.uniform(lo, hi, size=params.n_element)
        if params.n_element == 1:
            return m
        gaps = np.diff(np.sort(m))
        if gaps.min() >= params.min_score_separation:
            return m
    raise ValueError(
        f"could not draw {params.n_element} magnitudes {params.min_score_separation} "
        f"apart within {params.magnitude_range}"
    )


def _pick_combinations(
    base: Snapshot, params: SimulationParams, rng: np.random.Generator
) -> list[tuple[Cuboid, int, np.ndarray]]:
    layer_cuboids = [
        c for c in cuboids_by_layer(base.schema) if c.layer == params.cuboid_layer
    ]
    if not layer_cuboids:
        raise ValueError(
            f"no layer-{params.cuboid_layer} cuboid on {base.schema.n_attributes} attributes"
        )
    picks: list[tuple[Cuboid, int, np.ndarray]] = []
    affected = np.zeros(base.n_leaves, dtype=bool)
    for _ in range(params.n_element):
        for _attempt in range(100):
            cuboid = layer_cuboids[rng.integers(len(layer_cuboids))]
            idx = base.cuboid_index(cuboid)
            g = int(rng.integers(idx.n_groups))
            leaves = idx.order[idx.starts[g]:idx.starts[g + 1]]
            if affected[leaves].any():
                continue  # overlapping causes would blur each other's ripple
            affected[leaves] = True
            picks.append((cuboid, g, leaves))
            break
        else:
            raise ValueError(
                "could not place non-overlapping root causes after 100 attempts"
            )
    return picks


def simulate_fault(
    base: Snapshot, params: SimulationParams, rng: np.random.Generator
) -> SimulatedFault:
    """Plant one fault onto ``base``; the base's real values act as the truth.

    A fundamental fault perturbs the leaf values themselves.  A success-rate
    fault perturbs each leaf's rate, then re-draws the counts around the
    truth (Poisson totals, binomial successes), so the rates stay the
    driving signal.
    """
    rate = params.measure_kind == "success_rate"
    if base.measure.kind != ("quotient" if rate else "fundamental"):
        raise ValueError(f"cannot simulate {params.measure_kind} on a {base.measure.kind} measure")
    m = base.measure
    truth = measure_values(m.kind, [base.real[c] for c in m.operands])
    top = 1.0 if rate else None

    v = truth * (1.0 + params.base_noise_sigma * rng.standard_normal(truth.size))
    np.clip(v, 0.0, top, out=v)
    picks = _pick_combinations(base, params, rng)
    mags = _draw_magnitudes(params, rng)
    for (cuboid, g, leaves), d in zip(picks, mags):
        # the whole slice deviates by exactly d, replacing the base noise
        v[leaves] = expected_abnormal_value(truth[leaves], d)
    affected = np.concatenate([leaves for _, _, leaves in picks])
    if params.leaf_noise_sigma > 0:
        v[affected] *= 1.0 + params.leaf_noise_sigma * rng.standard_normal(affected.size)
        np.clip(v, 0.0, top, out=v)

    if rate:
        succ_col, total_col = m.operands
        total_v = rng.poisson(base.real[total_col]).astype(float)
        succ_v = rng.binomial(total_v.astype(np.int64), v).astype(float)
        real = {succ_col: succ_v, total_col: total_v}
    else:
        if m.distribution_family == "poisson":
            v = np.clip(np.rint(v), 0.0, None)
        real = {m.operands[0]: v}
    forecast = {c: base.real[c].astype(float) for c in m.operands}
    snapshot = Snapshot(base.schema, base.codes, real, forecast, m)
    combos = tuple(base.cuboid_index(c).combination(g) for c, g, _ in picks)
    return SimulatedFault(snapshot, combos, params, dict(zip(combos, map(float, mags))))


# -- validity --------------------------------------------------------------


def validity_check(fault: SimulatedFault) -> bool:
    """Reject ambiguous or drowned-out faults.

    A fault is invalid when (a) some other observed combination covers nearly
    the same leaves as a planted one, so the ground truth is not the unique
    right answer, or (b) the noise on the untouched leaves adds up to an
    abnormal total, so the fault is not cleanly separable from background.
    """
    snap = fault.snapshot
    for c in fault.ground_truth:
        t_idx = np.flatnonzero(snap.leaf_mask(c))
        for cuboid in cuboids_by_layer(snap.schema):
            idx = snap.cuboid_index(cuboid)
            sizes = np.diff(idx.starts)
            inter = np.bincount(idx.group_of[t_idx], minlength=idx.n_groups)
            union = sizes + t_idx.size - inter
            jac = inter / union
            if cuboid.attrs == c.attributes:
                own = idx.group_of[t_idx[0]]
                jac[own] = 0.0
            if np.any(jac >= JACCARD_CUTOFF):
                return False

    unaffected = ~snap.leaf_mask(*fault.ground_truth)
    if not unaffected.any():
        return True
    v, f = snap.leaf_values()
    resid = np.abs(v - f)[unaffected]
    t = knee_threshold(resid)
    total_dev = abs(float((v - f)[unaffected].sum()))
    return total_dev <= t * np.sqrt(unaffected.sum())


# -- dataset generation ----------------------------------------------------

# log-sd of the synthetic base's leaf sizes
RATE_SPREAD = 0.5


def generate_dataset(
    base: Snapshot, grid: Sequence[SimulationParams], per_cell: int
) -> list[SimulatedFault]:
    """Valid faults for every cell, ``per_cell`` each, deterministic per seed."""
    if per_cell < 1:
        raise ValueError("per_cell must be at least 1")
    out: list[SimulatedFault] = []
    for params in grid:
        ss = np.random.SeedSequence(params.seed)
        accepted = 0
        attempts = 0
        while accepted < per_cell:
            attempts += 1
            if attempts > 200 and accepted / attempts < 0.01:
                raise ValueError(
                    f"cell (n_element={params.n_element}, layer={params.cuboid_layer}): "
                    f"{accepted}/{attempts} faults valid, acceptance below 1%"
                )
            rng = np.random.default_rng(ss.spawn(1)[0])
            fault = simulate_fault(base, params, rng)
            if validity_check(fault):
                out.append(fault)
                accepted += 1
    return out


def synthetic_base(
    n_attrs: int = 4,
    n_values: int = 10,
    mean_rate: float = 50.0,
    seed: int | None = None,
    family: str = "poisson",
) -> Snapshot:
    """Dense synthetic base: every value combination observed once.

    Leaf sizes follow a lognormal law (median ``mean_rate``, log-sd
    ``RATE_SPREAD``), so slices differ in how much evidence they carry, as
    real traffic does.  Real and forecast both hold the drawn truth.  Value
    names carry zero-padded indices (at least two digits), so they sort like
    their codes and a rendered table parses back to the same snapshot.
    """
    if n_attrs < 1 or n_values < 2:
        raise ValueError("need at least 1 attribute with 2 values")
    rng = np.random.default_rng(seed)
    attrs = tuple(chr(ord("A") + i) for i in range(n_attrs))
    width = max(2, len(str(n_values - 1)))
    domains = {a: tuple(f"{a.lower()}{j:0{width}d}" for j in range(n_values)) for a in attrs}
    n = n_values**n_attrs
    lam = rng.lognormal(np.log(mean_rate), RATE_SPREAD, size=n)
    counts = np.maximum(rng.poisson(lam), 1).astype(float)
    # leaf i's codes are the base-n_values digits of i
    codes = np.indices((n_values,) * n_attrs, dtype=np.int32).reshape(n_attrs, n).T
    schema = AttributeSchema(attrs, domains)
    measure = MeasureSpec("fundamental", ("value",), family)
    return Snapshot(schema, codes, {"value": counts}, {"value": counts.copy()}, measure)


def eliminate_attributes(fault: SimulatedFault, attrs: Iterable[str]) -> SimulatedFault:
    """Project a fault onto fewer attributes, as when a dimension is not logged.

    Ground-truth combinations binding a dropped attribute cannot be expressed
    in the projected data any more; losing one marks the fault as externally
    caused.  Surviving combinations, in their planting order, stay the
    localizable truth, and only their magnitudes are kept.
    """
    dropped = tuple(sorted(set(attrs)))
    kept = tuple(c for c in fault.ground_truth if not set(c.attributes) & set(dropped))
    return SimulatedFault(
        drop_attributes(fault.snapshot, dropped),
        kept,
        fault.params,
        {c: fault.magnitudes[c] for c in kept},
        external=len(kept) < len(fault.ground_truth),
        dropped_attributes=dropped,
    )


# -- serialization ---------------------------------------------------------


def write_fault(fault: SimulatedFault, directory: str | Path) -> None:
    """Serialize as snapshot.csv + truth.json + params.json (version 1).

    Version 1 stores the truth as a list of groups of combinations, each a
    binding object; every cause is written as a group of its own, in
    planting order.  ``params.json`` maps each truth combination's string
    form to its magnitude.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "snapshot.csv").write_text(render_table(fault.snapshot))
    truth = [[c.bindings] for c in fault.ground_truth]
    (d / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n")
    m = fault.snapshot.measure
    params = {
        "version": "1",
        **asdict(fault.params),
        "measure": {"kind": m.kind, "operands": list(m.operands), "family": m.distribution_family},
        "magnitudes": {str(c): m_ for c, m_ in sorted(fault.magnitudes.items())},
        "external": fault.external,
        "dropped_attributes": list(fault.dropped_attributes),
    }
    (d / "params.json").write_text(json.dumps(params, sort_keys=True, indent=1) + "\n")


def read_fault(directory: str | Path) -> SimulatedFault:
    """Load a fault directory written by write_fault.

    The truth groups of a version-1 file are read as one flat truth, group
    by group.
    """
    d = Path(directory)
    params = json.loads((d / "params.json").read_text())
    m = params["measure"]
    measure = MeasureSpec(m["kind"], tuple(m["operands"]), m["family"])
    snapshot = parse_snapshot((d / "snapshot.csv").read_text(), measure)
    truth_raw = json.loads((d / "truth.json").read_text())
    truth = tuple(AttributeCombination.from_bindings(b) for group in truth_raw for b in group)
    sim_fields = {f.name: params[f.name] for f in fields(SimulationParams)}
    sim_fields["magnitude_range"] = tuple(sim_fields["magnitude_range"])
    sim = SimulationParams(**sim_fields)
    return SimulatedFault(
        snapshot,
        truth,
        sim,
        {c: params["magnitudes"][str(c)] for c in truth},
        external=params.get("external", False),
        dropped_attributes=tuple(params.get("dropped_attributes", ())),
    )
