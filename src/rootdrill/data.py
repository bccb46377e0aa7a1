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

from .ripple import UndefinedValueError, measure_values

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
# keys spanning at most this many values per row are ranked by counting; on
# wider spans one sort of the keys is as fast as counting over the span
_COUNT_SPAN = 2


def _count_keys(key: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank integer keys in ``[0, span)`` by counting.

    Returns ``(distinct, rank, counts)``: the distinct keys in increasing
    order, each key's position among them, and how often each occurs.  One
    ``np.bincount`` over the span gives all three when the span is at most
    ``_COUNT_SPAN`` values per key; keys of a wider span are ranked by one
    ``np.unique`` instead, so no table is sized by it.
    """
    if span > _COUNT_SPAN * len(key):
        return np.unique(key, return_inverse=True, return_counts=True)
    counts = np.bincount(key.astype(np.intp, copy=False), minlength=span)
    if counts.all():  # every key occurs, so each is its own rank
        return np.arange(span), key, counts
    seen = counts > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[key], counts[seen]


def _row_keys(codes: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, int]:
    """One ``int64`` key per row of ``codes``, whose column j holds codes in
    ``[0, sizes[j])``, and the keys' span.

    The key is ``key * sizes[j] + codes[:, j]`` over the columns, so key
    order is the rows' lexicographic order.  Before the key would pass
    ``_KEY_LIMIT`` it is replaced by its dense rank, which keeps that order.
    """
    key = codes[:, 0].astype(np.int64)
    span = sizes[0]
    for j in range(1, len(sizes)):
        if span * sizes[j] > _KEY_LIMIT:
            distinct, key, _ = _count_keys(key, span)
            span = len(distinct)
        key *= sizes[j]
        key += codes[:, j]
        span *= sizes[j]
    return key, span


def _group_rows(
    codes: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of ``codes``, whose column j holds codes in ``[0, sizes[j])``.

    Returns ``(group_codes, group_of, order, starts)``: each distinct row
    once in lexicographic order, every row's group id, the row indices
    sorted stably by group, and the (G+1,) group bounds into that order.
    Group ids follow the lexicographic order of the code rows; the search
    breaks its ranking ties on them.  Ids and group sizes come from
    counting the row keys (``_row_keys``, ``_count_keys``: a table over the
    key span when it holds at most ``_COUNT_SPAN`` values per row, else one
    ``np.unique`` rerank first).
    """
    _, group_of, counts = _count_keys(*_row_keys(codes, sizes))
    starts = np.concatenate(([0], np.cumsum(counts)))
    # group ids in the narrowest unsigned type: at 16 bits or fewer the
    # stable sort is numpy's radix sort
    order = np.argsort(group_of.astype(np.min_scalar_type(len(counts) - 1)), kind="stable")
    return codes[order[starts[:-1]]], group_of, order, starts


def _check_leaves(schema: AttributeSchema, codes: np.ndarray, where: str) -> None:
    """Raise ``ParseError`` naming the first row of the smallest leaf that the
    table ``codes`` under ``schema`` names twice, and ``where`` it is."""
    sizes = [len(schema.domains[a]) for a in schema.attributes]
    _, group_of, counts = _count_keys(*_row_keys(codes, sizes))
    if len(counts) != len(codes):
        dup = codes[np.argmax(group_of == np.argmax(counts > 1))]
        names = {a: schema.domains[a][c] for a, c in zip(schema.attributes, dup)}
        raise ParseError(f"duplicate leaf {names} in {where}")


@dataclass
class _CuboidIndex:
    """Per-cuboid grouping of leaves by their projected attribute values; group
    ids follow the lexicographic order of the groups' code rows.  The groups
    are counted over the span of the cuboid's leaf keys when it holds at
    most ``_COUNT_SPAN`` values per leaf, else after one ``np.unique``
    rerank of the keys (``_group_rows``)."""

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
        kind, ops = self.measure.kind, self.measure.operands
        # the search sums values over slices; the measure values are not kept
        with np.errstate(over="ignore"):
            totals = {f"column {c!r}": self.real[c].sum() + self.forecast[c].sum() for c in ops}
            v, f = (measure_values(kind, [t[c] for c in ops]) for t in (self.real, self.forecast))
            totals[f"the measure of columns {ops}"] = v.sum() + f.sum()
        for name, total in totals.items():
            if not np.isfinite(total):
                raise ParseError(f"{name} totals beyond the float range")
        if self.measure.distribution_family == "poisson":
            v = self.real[self.measure.operands[0]]
            if np.any(np.abs(v - np.round(v)) > 1e-9):
                raise ParseError("poisson family requires integer real values")
        for j, a in enumerate(self.schema.attributes):
            col = self.codes[:, j]
            if col.min() < 0 or col.max() >= len(self.schema.domains[a]):
                raise ValueError(f"value code of attribute {a!r} outside its domain")
        # duplicate leaf bindings break the leaf/aggregate distinction
        _check_leaves(self.schema, self.codes, "snapshot")

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
        # the last operand carries the volume: the only one, a denominator or a second factor
        col = self.measure.operands[-1]
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
    schema, codes, real, forecast = _parse_table(text, measure.operands, need_forecast=True)
    return Snapshot(schema, codes, real, forecast, measure)


def _parse_table(
    text: str,
    operands: Sequence[str],
    need_forecast: bool,
) -> tuple[AttributeSchema, np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Read a CSV table column by column.

    Returns the schema, the ``int32`` code matrix (codes in sorted-domain
    order, as ``_encode`` assigns them), and the real and (when
    ``need_forecast``) forecast values per operand.  Rows with no fields or
    only blank fields are skipped, and so is one leading byte-order mark,
    which spreadsheet tools write.  ``csv.reader`` reads the header, from
    the first line alone when the text holds no quote (a quoted header may
    span lines); the body is decoded from its UTF-8 bytes (``_read_plain``),
    or row by row (``_read_rows``) when that reader declines the text.
    """
    text = text.removeprefix("\ufeff")
    first = text if '"' in text else text[: text.find("\n") + 1 or len(text)]
    try:
        header = next(csv.reader(io.StringIO(first)))
    except StopIteration:
        raise ParseError("empty CSV") from None
    except csv.Error as e:
        raise ParseError(f"row 1: {e}") from None
    header = [h.strip() for h in header]
    for j, h in enumerate(header):
        if h in header[:j]:
            raise ParseError(f"column {h!r} named twice in the header")

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
    read = _read_plain(text, len(header), attrs, attr_idx, value_idx)
    if read is None:
        read = _read_rows(text, header, attrs, attr_idx, value_idx)
    schema, codes, values = read
    real = {col: values[ri] for col, (ri, _) in value_cols.items()}
    forecast = {col: values[pi] for col, (_, pi) in value_cols.items() if pi >= 0}
    return schema, codes, real, forecast


# the bytes of a field are read eight at a time, as one unaligned big-endian
# word; _PREFIX[k] keeps a word's first k bytes, _SUFFIX[k] its last k
_PREFIX = np.array([0] + [2**64 - 2 ** (64 - 8 * k) for k in range(1, 9)], np.uint64)
_SUFFIX = np.array([2 ** (8 * k) - 1 for k in range(9)], np.uint64)
_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "big"))
# an integer of at most 15 digits and every partial sum of its digits times
# these powers are exact in a double, so the dot product equals float()
_MAX_DIGITS = 15
_POW10 = 10.0 ** np.arange(16)
# zero bytes before the text and after it, so two words can end at any
# field's end and one can start at any field's start
_PAD = 16


def _read_plain(
    text: str,
    width: int,
    attrs: Sequence[str],
    attr_idx: Sequence[int],
    value_idx: Sequence[int],
) -> tuple[AttributeSchema, np.ndarray, dict[int, np.ndarray]] | None:
    """Schema, codes and value columns decoded from the UTF-8 bytes of ``text``.

    Returns None, leaving the text to ``_read_rows``, unless it holds no
    quote, no NUL and no carriage return but before a ``\\n``, every line
    holds ``width`` fields, and every value field is a non-negative number.
    Without quotes every ``,`` and line end separates two fields; a line ends
    at ``\\n`` or ``\\r\\n``, as ``csv.reader`` ends it.  Blank lines at the
    end are dropped.  Any other blank line has too few fields and a blank
    full-width row fails ``float``, so both go to the row-by-row read, which
    names a malformed row.

    Each attribute field becomes one key of its bytes, zero-padded after
    them to the column's longest value of m bytes: when m is at most 8 an
    integer below 256**m, the bytes right-aligned in a ``uint64`` (``a00`` to
    ``a11`` span 258 keys), else an ``S{m}`` string.  Key order is UTF-8
    byte order, which is code-point order, so ranking the keys gives the
    codes in sorted-domain order: integer keys less their minimum are
    ranked by counting (``_count_keys``, with its ``np.unique`` rerank when
    they span more than ``_COUNT_SPAN`` values per row), string keys by
    ``np.unique``.  A value field of 1 to 15 ASCII digits is read as the
    dot product of its digits with powers of ten; any other is decoded and
    passed to ``float``.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    # the final line end closes the last row, and blank lines after it are
    # blank rows, which are skipped
    raw = text.encode("utf-8", "surrogatepass").rstrip(b"\n")
    raw = bytes(_PAD) + raw + bytes(8)
    buf = np.frombuffer(raw, np.uint8)
    # "," and "\n" never occur inside a multi-byte UTF-8 sequence, nor inside
    # the three bytes a lone surrogate passes as
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    # the header and at least one row, each line end after width - 1 commas
    is_end = buf[seps] == ord("\n")
    if (
        len(seps) < 2 * width - 1
        or len(seps) % width != width - 1
        or np.count_nonzero(is_end) != len(seps) // width
        or not is_end[width - 1::width].all()
    ):
        return None
    n = (len(seps) + 1) // width - 1
    starts = (seps[width - 1:] + 1).reshape(n, width)
    ends = np.append(seps[width:], len(buf) - 8).reshape(n, width)
    # word_at[i] is the 8 bytes from offset i, the first one most significant
    word_at = np.ndarray((len(buf) - 7,), ">u8", raw, 0, (1,))

    codes = np.empty((n, len(attrs)), dtype=np.int32)
    domains = {}
    for j, (a, col) in enumerate(zip(attrs, attr_idx)):
        s, size = starts[:, col], ends[:, col] - starts[:, col]
        m = int(size.max())
        if m <= 8:
            shift = np.uint64(64 - 8 * m)
            key = (word_at[s] & _PREFIX[size]) >> shift
            low = key.min()
            distinct, codes[:, j], _ = _count_keys(key - low, int(key.max() - low) + 1)
            distinct = ((distinct.astype(np.uint64) + low) << shift).astype(">u8").view("S8")
        elif n * m > len(buf):
            return None  # one long value would blow the fixed-width keys past the text
        else:
            padded = np.concatenate([buf, np.zeros(m, np.uint8)])
            key = np.lib.stride_tricks.sliding_window_view(padded, m)[s]
            key *= np.arange(m) < size[:, None]
            distinct, codes[:, j] = np.unique(key.view(f"S{m}").ravel(), return_inverse=True)
        domains[a] = tuple(v.decode("utf-8", "surrogatepass") for v in distinct.tolist())

    values = {}
    for col in value_idx:
        e, size = ends[:, col], ends[:, col] - starts[:, col]
        # little-endian words, the field's last byte first and '0' before its
        # first, so byte c of a row is the digit of 10^c
        words = np.empty((n, 1 if size.max() <= 8 else 2), "<u8")
        for i in range(words.shape[1]):
            keep = _SUFFIX[np.clip(size - 8 * i, 0, 8)]
            words[:, i] = _ZEROS ^ ((word_at[e - 8 * (i + 1)] ^ _ZEROS) & keep)
        digits = words.view(np.uint8) - np.uint8(ord("0"))
        values[col] = x = digits @ _POW10[:digits.shape[1]]
        fast = (size >= 1) & (size <= _MAX_DIGITS) & ~(digits > 9).view(np.uint64).any(axis=1)
        other = np.flatnonzero(~fast)
        try:
            x[other] = [
                float(raw[i:z].decode("utf-8", "surrogatepass"))
                for i, z in zip(starts[other, col].tolist(), e[other].tolist())
            ]
        except ValueError:
            return None
        if np.any(x < 0):
            return None
    return AttributeSchema(tuple(attrs), domains), codes, values


def _read_rows(
    text: str,
    header: Sequence[str],
    attrs: Sequence[str],
    attr_idx: Sequence[int],
    value_idx: Sequence[int],
) -> tuple[AttributeSchema, np.ndarray, dict[int, np.ndarray]]:
    """Schema, codes and value columns read row by row, skipping blank rows;
    the first malformed row raises its ``ParseError``.

    A text with no quote and no carriage return is split at every ``,`` and
    ``\\n``, as ``_read_plain`` splits it, so no field of it meets
    ``csv.field_size_limit()``; any other text is read by ``csv.reader``.
    """
    if '"' in text or "\r" in text:
        rows = csv.reader(io.StringIO(text))
        next(rows)
    else:
        rows = (line.split(",") for line in text.split("\n")[1:])
    records, numbers = [], []
    lineno = 1
    try:
        for lineno, rec in enumerate(rows, start=2):
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
                numbers.append(x)
            records.append(rec)
    except csv.Error as e:  # raised reading the row after ``lineno``
        raise ParseError(f"row {lineno + 1}: {e}") from None
    if not records:
        raise ParseError("snapshot holds no leaves")
    columns = list(zip(*records))
    del records  # the columns now hold the only references to the field strings
    values = dict(zip(value_idx, np.array(numbers).reshape(-1, len(value_idx)).T.copy()))
    schema, codes = _encode(attrs, [columns[j] for j in attr_idx])
    return schema, codes, values


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
    if m.kind == "quotient" and 0 in (v_ops[1], f_ops[1]):
        raise UndefinedValueError("quotient measure with zero denominator")
    return float(measure_values(m.kind, v_ops)), float(measure_values(m.kind, f_ops))


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
