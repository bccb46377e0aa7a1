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
from typing import Iterable, Mapping, NoReturn, Sequence

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


# a mixed-radix leaf key stays below this, so it fits an int64 with room to spare
_KEY_LIMIT = 2**62


def _group_rows(
    codes: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of ``codes``, whose column j holds codes in ``[0, sizes[j])``.

    Returns ``(group_codes, group_of, order, starts)``: each distinct row
    once in lexicographic order, every row's group id, the row indices
    sorted stably by group, and the (G+1,) group bounds into that order.
    Group ids follow the lexicographic order of the code rows; the search
    breaks its ranking ties on them.
    Each row gets one integer key, ``key * sizes[j] + codes[:, j]`` over the
    columns, so key order is the rows' lexicographic order.  Before the key
    would pass ``_KEY_LIMIT`` it is replaced by its dense rank, which keeps
    that order.
    """
    n = len(codes)
    key = np.zeros(n, dtype=np.int64)
    span = 1
    for j, size in enumerate(sizes):
        if span * size > _KEY_LIMIT:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key = key * size + codes[:, j]
        span *= size
    order = np.argsort(key, kind="stable")
    first = np.ones(n, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    group_of = np.empty(n, dtype=np.int64)
    group_of[order] = np.cumsum(first) - 1
    heads = np.flatnonzero(first)
    starts = np.append(heads, n)
    return codes[order[heads]], group_of, order, starts


@dataclass
class _CuboidIndex:
    """Per-cuboid grouping of leaves by their projected attribute values; group
    ids follow the lexicographic order of the groups' code rows (``_group_rows``)."""

    attrs: tuple[str, ...]       # the cuboid's attributes, sorted
    domains: tuple[tuple[str, ...], ...]  # value names of each attribute
    group_codes: np.ndarray      # (G, k) value codes of each distinct group
    group_of: np.ndarray         # (n,) group id of every leaf
    order: np.ndarray            # leaf indices sorted by group id
    starts: np.ndarray           # (G+1,) slice bounds into `order`

    @property
    def n_groups(self) -> int:
        return len(self.group_codes)

    def combination(self, g: int) -> AttributeCombination:
        """The attribute combination that group ``g`` stands for."""
        return AttributeCombination(
            tuple(
                (a, dom[c]) for a, dom, c in zip(self.attrs, self.domains, self.group_codes[g])
            )
        )


class Snapshot:
    """One parsed snapshot: leaf table plus the indexes search relies on.

    Rows are leaves; ``codes[i, j]`` is the integer code of leaf i's value for
    attribute j.  Codes are dense, ``0 .. len(domain) - 1``, and assigned in
    sorted order of the domain, so every derived ordering is deterministic
    and the integer keys that group leaves sort like the value names.
    ``leaf_mask`` compares one code column per binding; ``cuboid_index``
    groups the leaves of a cuboid once and keeps the grouping.
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
        self._attr_pos = {a: j for j, a in enumerate(schema.attributes)}
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
        sizes = [len(self.schema.domains[a]) for a in self.schema.attributes]
        for j, (a, size) in enumerate(zip(self.schema.attributes, sizes)):
            col = self.codes[:, j]
            if col.min() < 0 or col.max() >= size:
                raise ValueError(f"value code of attribute {a!r} outside its domain")
        # duplicate leaf bindings break the leaf/aggregate distinction
        group_codes, _, _, starts = _group_rows(self.codes, sizes)
        if len(group_codes) != n:
            dup = group_codes[np.argmax(np.diff(starts) > 1)]
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

    def leaf_mask(self, *combinations: AttributeCombination) -> np.ndarray:
        """Boolean mask of leaves descended from any of ``combinations``.

        Called with no combination it covers no leaf; an unknown binding raises ``ValueError``.
        """
        union = np.zeros(self.n_leaves, dtype=bool)
        for combination in combinations:
            mask = np.ones(self.n_leaves, dtype=bool)
            for a, v in combination.items:
                if v not in self.schema.domains.get(a, ()):
                    raise ValueError(f"unknown binding {a}={v}")
                mask &= self.codes[:, self._attr_pos[a]] == self.schema.domains[a].index(v)
            union |= mask
        return union

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
            cols = [self._attr_pos[a] for a in key]
            domains = tuple(self.schema.domains[a] for a in key)
            grouping = _group_rows(self.codes[:, cols], [len(d) for d in domains])
            idx = _CuboidIndex(key, domains, *grouping)
            self._cuboid_cache[key] = idx
        return idx


# -- spec-level operations -------------------------------------------------


def parse_snapshot(text: str, measure: MeasureSpec | None = None) -> Snapshot:
    """Parse a snapshot CSV.

    Value columns are ``real_<col>``/``predict_<col>`` per operand column; a
    single-operand measure may instead use plain ``real``/``predict`` columns,
    which map to the operand name "value".  A column named like either form
    is a value column even when no operand uses it; every other column is an
    attribute.  Attribute matching is exact and case-sensitive.
    """
    measure = measure or MeasureSpec()
    attrs, columns, real, forecast = _parse_table(text, measure.operands, need_forecast=True)
    schema, codes = _encode(attrs, columns)
    return Snapshot(schema, codes, real, forecast, measure)


def _parse_table(
    text: str,
    operands: Sequence[str],
    need_forecast: bool,
) -> tuple[list[str], list[Sequence[str]], dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Read a CSV table column by column.

    Returns the attribute names, one column of strings per attribute, and
    the real and (when ``need_forecast``) forecast values per operand.  Rows
    with no fields or only blank fields are skipped.  ``csv.reader`` reads
    only the header of a text ``_plain_columns`` can split; the rest it
    reads row by row.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV") from None
    header = [h.strip() for h in header]

    value_cols: dict[str, tuple[int, int]] = {}
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
    # a value column is no attribute even when unused: history files carry
    # predict columns that nobody reads
    attr_idx = [
        j for j, h in enumerate(header)
        if h not in ("real", "predict") and not h.startswith(("real_", "predict_"))
    ]
    attrs = [header[j] for j in attr_idx]
    if not attrs:
        raise ParseError("no attribute columns")

    value_idx = [j for pair in value_cols.values() for j in pair if j >= 0]
    columns = _plain_columns(text, len(header))
    values = None if columns is None else _floats(columns, value_idx)
    if values is None:
        records = [rec for rec in reader if any(map(str.strip, rec))]
        if not records:
            raise ParseError("snapshot holds no leaves")
        if set(map(len, records)) != {len(header)}:
            _raise_row_error(text, header, value_idx)
        columns = list(zip(*records))
        del records  # the columns now hold the only references to the field strings
        values = _floats(columns, value_idx)
        if values is None:
            _raise_row_error(text, header, value_idx)
    if any(np.any(v < 0) for v in values.values()):
        _raise_row_error(text, header, value_idx)
    real = {col: values[ri] for col, (ri, _) in value_cols.items()}
    forecast = {col: values[pi] for col, (_, pi) in value_cols.items() if pi >= 0}
    return attrs, [columns[j] for j in attr_idx], real, forecast


def _plain_columns(text: str, width: int) -> list[list[str]] | None:
    """The columns of the rows below the header, or None unless ``text`` holds
    no quote and no carriage return and every line holds ``width`` fields.

    Without quotes every ``,`` and line end separates two fields, so the text
    splits into one flat list with no list per row.  Lines end at ``\\n``
    only, as ``csv.reader`` over ``io.StringIO`` ends them.  A blank line has
    too few fields and a blank full-width row fails ``float``, which leaves
    both to ``csv.reader`` and its caller's blank-row skip.
    """
    if '"' in text or "\r" in text:
        return None
    if text.endswith("\n"):
        text = text[:-1]  # the final line end closes the last row
    # "," and "\n" never occur inside a multi-byte UTF-8 sequence, nor inside
    # the three bytes a lone surrogate passes as
    seps = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    seps = seps[(seps == ord(",")) | (seps == ord("\n"))]
    # the header and at least one row, each line end after width - 1 commas
    if (
        len(seps) < 2 * width - 1
        or len(seps) % width != width - 1
        or not np.array_equal(
            np.flatnonzero(seps == ord("\n")), np.arange(width - 1, len(seps), width)
        )
    ):
        return None
    fields = text.replace("\n", ",").split(",")
    return [fields[j::width] for j in range(width, 2 * width)]


def _floats(
    columns: Sequence[Sequence[str]], value_idx: Sequence[int]
) -> dict[int, np.ndarray] | None:
    """The value columns as float arrays, or None if a field is no number."""
    n = len(columns[0])
    try:
        return {j: np.fromiter(map(float, columns[j]), float, n) for j in value_idx}
    except ValueError:
        return None


def _raise_row_error(text: str, header: Sequence[str], value_idx: Sequence[int]) -> NoReturn:
    """Raise the ``ParseError`` of the first malformed row, checked row by row."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for lineno, rec in enumerate(reader, start=2):
        if not any(map(str.strip, rec)):
            continue
        if len(rec) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} fields, got {len(rec)}")
        for j in value_idx:
            try:
                x = float(rec[j])
            except ValueError:
                raise ParseError(f"row {lineno}: non-numeric {header[j]}={rec[j]!r}") from None
            if x < 0:
                raise ParseError(f"row {lineno}: negative {header[j]}={x}")
    raise AssertionError("no malformed row found")


def _encode(
    attrs: Sequence[str], columns: Sequence[Sequence[str]]
) -> tuple[AttributeSchema, np.ndarray]:
    """Schema and ``int32`` code matrix of attribute columns.

    Each column's domain is its sorted distinct values, and a value's code is
    its position there, so codes are dense and follow the value names' order.
    """
    domains = {a: tuple(sorted(set(col))) for a, col in zip(attrs, columns)}
    schema = AttributeSchema(tuple(attrs), domains)
    n = len(columns[0])
    codes = np.empty((n, len(attrs)), dtype=np.int32)
    for j, (a, col) in enumerate(zip(attrs, columns)):
        code_of = {v: i for i, v in enumerate(domains[a])}
        codes[:, j] = np.fromiter(map(code_of.__getitem__, col), np.int32, n)
    return schema, codes


def snapshot_from_rows(
    attrs: Sequence[str],
    rows: Sequence[tuple[str, ...]],
    real: Mapping[str, Sequence[float]],
    forecast: Mapping[str, Sequence[float]],
    measure: MeasureSpec,
) -> Snapshot:
    """Build a snapshot from in-memory rows (same validation as the CSV path)."""
    schema, codes = _encode(attrs, list(zip(*rows, strict=True)))
    return Snapshot(schema, codes, real, forecast, measure)


def cuboids_by_layer(schema: AttributeSchema) -> list[Cuboid]:
    """All non-empty attribute subsets, ordered by layer then name."""
    out: list[Cuboid] = []
    names = sorted(schema.attributes)
    for layer in range(1, schema.n_attributes + 1):
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
    mask = snapshot.leaf_mask(*combos)
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
    sizes = [len(snapshot.schema.domains[a]) for a in keep]
    group_codes, group_of, _, _ = _group_rows(snapshot.codes[:, cols], sizes)
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
