"""Multi-dimensional snapshot model: attributes, combinations, cuboids, aggregation.

A snapshot is the finest-grained view of one KPI at one point in time: one row
per observed combination of attribute values (a leaf), with a real and a
forecast value per fundamental measure column.  Everything downstream works on
observed leaves only; combinations that never occur in the data do not exist
for search purposes.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ripple import derived_value, measure_values

_MEASURE_KINDS = ("fundamental", "quotient", "product")
_FAMILIES = ("none", "poisson")

# column name used when a CSV carries plain "real"/"predict" columns
DEFAULT_VALUE_COLUMN = "value"


class ParseError(ValueError):
    """Snapshot CSV is malformed."""


@dataclass(frozen=True)
class MeasureSpec:
    """What the KPI is made of.

    kind
        "fundamental" for a directly additive measure, "quotient" or
        "product" for a measure derived from two fundamental columns.
    operands
        names of the fundamental value columns; one for fundamental,
        (numerator, denominator) or the two factors otherwise.
    distribution_family
        "poisson" enables probabilistic treatment of count noise at the
        leaf level; only valid for integer-valued fundamental measures.
        "none" treats every observed value as exact.
    """

    kind: str = "fundamental"
    operands: tuple[str, ...] = (DEFAULT_VALUE_COLUMN,)
    distribution_family: str = "none"

    def __post_init__(self) -> None:
        if self.kind not in _MEASURE_KINDS:
            raise ValueError(f"unknown measure kind: {self.kind!r}")
        want = 1 if self.kind == "fundamental" else 2
        if len(self.operands) != want:
            raise ValueError(
                f"{self.kind} measure needs {want} operand column(s), got {self.operands}"
            )
        if len(set(self.operands)) != len(self.operands):
            raise ValueError("operand columns must be distinct")
        if self.distribution_family not in _FAMILIES:
            raise ValueError(f"unknown distribution family: {self.distribution_family!r}")
        if self.distribution_family == "poisson" and self.kind != "fundamental":
            raise ValueError("poisson family applies to fundamental measures only")


@dataclass(frozen=True)
class AttributeSchema:
    """Attribute names in column order plus the observed domain of each."""

    attributes: tuple[str, ...]
    domains: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        for a in self.attributes:
            if not self.domains.get(a):
                raise ValueError(f"attribute {a!r} has an empty domain")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True, order=True)
class AttributeCombination:
    """A conjunction of attribute=value constraints, stored sorted by attribute.

    The empty combination denotes the whole dataset.  Leaves are combinations
    binding every attribute of the schema.
    """

    items: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if list(self.items) != sorted(self.items):
            object.__setattr__(self, "items", tuple(sorted(self.items)))
        attrs = [a for a, _ in self.items]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"attribute bound twice in {self.items}")

    @classmethod
    def from_bindings(cls, bindings: Mapping[str, str]) -> "AttributeCombination":
        return cls(tuple(sorted(bindings.items())))

    @property
    def bindings(self) -> dict[str, str]:
        return dict(self.items)

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __str__(self) -> str:
        if not self.items:
            return "(total)"
        return "&".join(f"{a}={v}" for a, v in self.items)


@dataclass(frozen=True, order=True)
class Cuboid:
    """A set of attributes spanning one level of drill-down."""

    attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.attrs)) != self.attrs:
            object.__setattr__(self, "attrs", tuple(sorted(self.attrs)))
        if not self.attrs:
            raise ValueError("cuboid needs at least one attribute")
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError("duplicate attribute in cuboid")

    @property
    def layer(self) -> int:
        return len(self.attrs)

    def __str__(self) -> str:
        return "x".join(self.attrs)


@dataclass
class _CuboidIndex:
    """Per-cuboid grouping of leaves by their projected attribute values."""

    col_idx: np.ndarray          # schema column positions of the cuboid attrs
    group_codes: np.ndarray      # (G, k) value codes of each distinct group
    group_of: np.ndarray         # (n,) group id of every leaf
    order: np.ndarray            # leaf indices sorted by group id
    starts: np.ndarray           # (G+1,) slice bounds into `order`

    @property
    def n_groups(self) -> int:
        return len(self.group_codes)

    def leaves_of(self, g: int) -> np.ndarray:
        return self.order[self.starts[g]:self.starts[g + 1]]


class Snapshot:
    """One parsed snapshot: leaf table plus the indexes search relies on.

    Rows are leaves; ``codes[i, j]`` is the integer code of leaf i's value for
    attribute j, with codes assigned in sorted order of the observed domain so
    every derived ordering is deterministic.  A per-attribute inverted index
    (value code to boolean row mask) backs ``leaf_mask``; intersecting masks
    answers descendant queries without scanning rows.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        codes: np.ndarray,
        real: Mapping[str, np.ndarray],
        forecast: Mapping[str, np.ndarray],
        measure: MeasureSpec,
    ) -> None:
        self.schema = schema
        self.codes = np.ascontiguousarray(codes, dtype=np.int32)
        self.real = {c: np.asarray(a, dtype=float) for c, a in real.items()}
        self.forecast = {c: np.asarray(a, dtype=float) for c, a in forecast.items()}
        self.measure = measure
        self._validate()
        self._code_of = {
            a: {v: i for i, v in enumerate(schema.domains[a])}
            for a in schema.attributes
        }
        self._attr_pos = {a: j for j, a in enumerate(schema.attributes)}
        self._masks: dict[str, list[np.ndarray]] = {
            a: [self.codes[:, j] == c for c in range(len(schema.domains[a]))]
            for j, a in enumerate(schema.attributes)
        }
        self._cuboid_cache: dict[tuple[str, ...], _CuboidIndex] = {}
        self._leaf_vals: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.codes)
        if n == 0:
            raise ParseError("snapshot holds no leaves")
        if self.codes.shape[1] != self.schema.n_attributes:
            raise ValueError("code matrix does not match schema")
        for col in self.measure.operands:
            for side, table in (("real", self.real), ("predict", self.forecast)):
                arr = table.get(col)
                if arr is None or len(arr) != n:
                    raise ValueError(f"missing or misaligned {side} column {col!r}")
                if np.any(arr < 0):
                    raise ParseError(f"negative {side} value in column {col!r}")
                if not np.all(np.isfinite(arr)):
                    raise ParseError(f"non-finite {side} value in column {col!r}")
        if self.measure.distribution_family == "poisson":
            v = self.real[self.measure.operands[0]]
            if np.any(np.abs(v - np.round(v)) > 1e-9):
                raise ParseError("poisson family requires integer real values")
        # duplicate leaf bindings break the leaf/aggregate distinction
        uniq, counts = np.unique(self.codes, axis=0, return_counts=True)
        if len(uniq) != n:
            dup = uniq[np.argmax(counts > 1)]
            names = {a: self.schema.domains[a][c] for a, c in zip(self.schema.attributes, dup)}
            raise ParseError(f"duplicate leaf {names} in snapshot")

    @property
    def n_leaves(self) -> int:
        return len(self.codes)

    # -- leaf access -------------------------------------------------------

    def binding_of(self, leaf: int) -> AttributeCombination:
        items = tuple(
            (a, self.schema.domains[a][self.codes[leaf, j]])
            for j, a in enumerate(self.schema.attributes)
        )
        return AttributeCombination(tuple(sorted(items)))

    def leaf_mask(self, combination: AttributeCombination) -> np.ndarray:
        """Boolean mask of leaves descended from ``combination``."""
        mask = np.ones(self.n_leaves, dtype=bool)
        for a, v in combination.items:
            try:
                mask &= self._masks[a][self._code_of[a][v]]
            except KeyError:
                raise ValueError(f"unknown binding {a}={v}") from None
        return mask

    def leaf_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-leaf (real, forecast) measure values.

        Quotient leaves with a zero denominator evaluate to 0: an empty slice
        observed no events, so its rate carries no deviation.
        """
        if self._leaf_vals is None:
            m = self.measure
            self._leaf_vals = tuple(
                measure_values(m.kind, [table[c] for c in m.operands])
                for table in (self.real, self.forecast)
            )
        return self._leaf_vals

    def leaf_weights(self) -> np.ndarray:
        """Evidence weight per leaf: how much data stands behind its value."""
        m = self.measure
        if m.kind == "fundamental":
            col = m.operands[0]
        else:
            col = m.operands[1]  # denominator / second factor carries the volume
        return self.real[col] + self.forecast[col]

    # -- cuboid machinery --------------------------------------------------

    def cuboid_index(self, cuboid: Cuboid) -> _CuboidIndex:
        key = cuboid.attrs
        idx = self._cuboid_cache.get(key)
        if idx is None:
            cols = np.array([self._attr_pos[a] for a in key], dtype=int)
            sub = self.codes[:, cols]
            group_codes, group_of = np.unique(sub, axis=0, return_inverse=True)
            group_of = group_of.astype(np.int64).ravel()
            order = np.argsort(group_of, kind="stable")
            counts = np.bincount(group_of, minlength=len(group_codes))
            starts = np.concatenate([[0], np.cumsum(counts)])
            idx = _CuboidIndex(cols, group_codes, group_of, order, starts)
            self._cuboid_cache[key] = idx
        return idx

    def combination_of_group(self, cuboid: Cuboid, g: int) -> AttributeCombination:
        idx = self.cuboid_index(cuboid)
        items = tuple(
            (a, self.schema.domains[a][idx.group_codes[g, j]])
            for j, a in enumerate(cuboid.attrs)
        )
        return AttributeCombination(tuple(sorted(items)))


# -- spec-level operations -------------------------------------------------


def parse_snapshot(text: str, measure: MeasureSpec | None = None) -> Snapshot:
    """Parse a snapshot CSV.

    Value columns are ``real_<col>``/``predict_<col>`` per operand column; a
    single-operand measure may instead use plain ``real``/``predict`` columns,
    which map to the operand name "value".  Every other column is an attribute.
    Attribute matching is exact and case-sensitive.
    """
    measure = measure or MeasureSpec()
    attrs, rows, real, forecast = _parse_table(text, measure.operands, need_forecast=True)
    return _build_snapshot(attrs, rows, real, forecast, measure)


def _parse_table(
    text: str,
    operands: Sequence[str],
    need_forecast: bool,
) -> tuple[list[str], list[tuple[str, ...]], dict[str, list[float]], dict[str, list[float]]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV") from None
    header = [h.strip() for h in header]

    value_cols: dict[str, tuple[int, int]] = {}
    consumed: set[int] = set()
    for col in operands:
        names = [f"real_{col}", f"predict_{col}"]
        if col == DEFAULT_VALUE_COLUMN and len(operands) == 1 and "real" in header:
            names = ["real", "predict"]
        try:
            ri = header.index(names[0])
            pi = header.index(names[1]) if need_forecast else -1
        except ValueError:
            missing = names[0] if names[0] not in header else names[1]
            raise ParseError(f"missing value column {missing!r}") from None
        value_cols[col] = (ri, pi)
        consumed.add(ri)
        if pi >= 0:
            consumed.add(pi)
    # tolerate predict columns present but unused (history files)
    for j, h in enumerate(header):
        if j in consumed:
            continue
        if h in ("real", "predict") or h.startswith(("real_", "predict_")):
            consumed.add(j)

    attr_idx = [j for j in range(len(header)) if j not in consumed]
    attrs = [header[j] for j in attr_idx]
    if not attrs:
        raise ParseError("no attribute columns")

    rows: list[tuple[str, ...]] = []
    real: dict[str, list[float]] = {c: [] for c in operands}
    forecast: dict[str, list[float]] = {c: [] for c in operands}
    for lineno, rec in enumerate(reader, start=2):
        if not rec or all(not x.strip() for x in rec):
            continue
        if len(rec) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} fields, got {len(rec)}")
        rows.append(tuple(rec[j] for j in attr_idx))
        for col, (ri, pi) in value_cols.items():
            real[col].append(_parse_value(rec[ri], lineno, header[ri]))
            if pi >= 0:
                forecast[col].append(_parse_value(rec[pi], lineno, header[pi]))
    if not rows:
        raise ParseError("snapshot holds no leaves")
    return attrs, rows, real, forecast


def _parse_value(token: str, lineno: int, colname: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise ParseError(f"row {lineno}: non-numeric {colname}={token!r}") from None
    if x < 0:
        raise ParseError(f"row {lineno}: negative {colname}={x}")
    return x


def _build_snapshot(
    attrs: Sequence[str],
    rows: Sequence[tuple[str, ...]],
    real: Mapping[str, Sequence[float]],
    forecast: Mapping[str, Sequence[float]],
    measure: MeasureSpec,
) -> Snapshot:
    domains = {
        a: tuple(sorted({row[j] for row in rows}))
        for j, a in enumerate(attrs)
    }
    schema = AttributeSchema(tuple(attrs), domains)
    code_of = {a: {v: i for i, v in enumerate(domains[a])} for a in attrs}
    codes = np.array(
        [[code_of[a][row[j]] for j, a in enumerate(attrs)] for row in rows],
        dtype=np.int32,
    )
    real_arr = {c: np.asarray(vals, float) for c, vals in real.items()}
    fcst_arr = {c: np.asarray(vals, float) for c, vals in forecast.items()}
    return Snapshot(schema, codes, real_arr, fcst_arr, measure)


def snapshot_from_rows(
    attrs: Sequence[str],
    rows: Sequence[tuple[str, ...]],
    real: Mapping[str, Sequence[float]],
    forecast: Mapping[str, Sequence[float]],
    measure: MeasureSpec,
) -> Snapshot:
    """Build a snapshot from in-memory rows (same validation as the CSV path)."""
    return _build_snapshot(attrs, rows, real, forecast, measure)


def cuboids_by_layer(schema: AttributeSchema, max_layer: int | None = None) -> list[Cuboid]:
    """All non-empty attribute subsets, ordered by layer then name."""
    top = schema.n_attributes if max_layer is None else min(max_layer, schema.n_attributes)
    out: list[Cuboid] = []
    names = sorted(schema.attributes)
    for layer in range(1, top + 1):
        for combo in itertools.combinations(names, layer):
            out.append(Cuboid(combo))
    return out


def aggregate(
    snapshot: Snapshot, combinations: Iterable[AttributeCombination]
) -> tuple[float, float]:
    """(real, forecast) measure value of the union of descended leaves.

    Leaves descended from several of the given combinations count once.
    """
    combos = list(combinations)
    if not combos:
        raise ValueError("aggregate of an empty selection")
    mask = np.zeros(snapshot.n_leaves, dtype=bool)
    for c in combos:
        mask |= snapshot.leaf_mask(c)
    m = snapshot.measure
    v_ops = [float(snapshot.real[c][mask].sum()) for c in m.operands]
    f_ops = [float(snapshot.forecast[c][mask].sum()) for c in m.operands]
    return derived_value(m, v_ops), derived_value(m, f_ops)


def drop_attributes(snapshot: Snapshot, attrs: Iterable[str]) -> Snapshot:
    """Project the snapshot onto the remaining attributes, summing measure columns.

    Models losing a dimension of the data: leaves that collide after the
    projection merge into one, with operand columns added up.
    """
    drop = set(attrs)
    keep = [a for a in snapshot.schema.attributes if a not in drop]
    unknown = drop - set(snapshot.schema.attributes)
    if unknown:
        raise ValueError(f"unknown attributes: {sorted(unknown)}")
    if not keep:
        raise ValueError("cannot drop every attribute")
    cols = [snapshot._attr_pos[a] for a in keep]
    sub = snapshot.codes[:, cols]
    group_codes, group_of = np.unique(sub, axis=0, return_inverse=True)
    group_of = group_of.astype(np.int64).ravel()
    g = len(group_codes)
    real = {
        c: np.bincount(group_of, weights=snapshot.real[c], minlength=g)
        for c in snapshot.measure.operands
    }
    fcst = {
        c: np.bincount(group_of, weights=snapshot.forecast[c], minlength=g)
        for c in snapshot.measure.operands
    }
    domains = {a: snapshot.schema.domains[a] for a in keep}
    schema = AttributeSchema(tuple(keep), domains)
    return Snapshot(schema, group_codes, real, fcst, snapshot.measure)
