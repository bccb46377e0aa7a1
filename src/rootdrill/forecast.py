"""Forecast baselines from historical snapshots.

The localization machinery only consumes (real, forecast) pairs; where the
forecast comes from is out of scope.  This module supplies the simplest
credible baseline, a moving average over recent history, so the tool is usable
on raw data that ships without predictions.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .data import (
    DEFAULT_VALUE_COLUMN,
    AttributeSchema,
    MeasureSpec,
    ParseError,
    Snapshot,
    _check_leaves,
    _group_rows,
    _parse_table,
)

# history tables averaged into the forecast, the most recent ones
WINDOW = 10


def snapshot_with_forecast(
    current_text: str,
    history_texts: Sequence[str],
    measure: MeasureSpec | None = None,
) -> Snapshot:
    """Assemble a snapshot whose forecast is a moving average of history.

    The forecast of a leaf is the mean of its real values over the last
    ``WINDOW`` history tables, a table that lacks the leaf counting as 0: a
    leaf that drops out of the data still existed, and treating the gap as a
    zero observation keeps the baseline honest about disappearances.  The
    leaf set is the union of the current table and the averaged history:
    leaves seen only in history enter with a real value of 0 (they vanished),
    leaves new to the current table get a forecast of 0 (nothing predicted
    them).  All tables must share the same attribute columns, and no table
    may name a leaf twice.
    """
    measure = measure or MeasureSpec()
    tables = [
        _parse_table(t, measure.operands, need_forecast=False)
        for t in [current_text, *history_texts]
    ]
    if len(tables) == 1:
        raise ValueError("history is empty")
    attrs = tables[0][0].attributes
    for h_schema, _, _, _ in tables[1:]:
        if h_schema.attributes != attrs:
            raise ParseError(
                f"history attributes {list(h_schema.attributes)} do not match"
                f" snapshot attributes {list(attrs)}"
            )
    for k, (h_schema, codes, _, _) in enumerate(tables):
        _check_leaves(h_schema, codes, f"history table {k}" if k else "snapshot")
    del tables[1:-WINDOW]  # tables past the window are checked, not averaged
    n_hist = len(tables) - 1
    schema, leaf_codes, leaf_of, table_of = _stack(attrs, tables)
    n_leaves = len(leaf_codes)

    # rows are summed in table order, absent leaves adding nothing
    current = table_of == 0
    real, forecast = {}, {}
    for c in measure.operands:
        values = np.concatenate([tab[c] for _, _, tab, _ in tables])
        real[c] = np.bincount(leaf_of[current], weights=values[current], minlength=n_leaves)
        forecast[c] = np.bincount(
            leaf_of[~current], weights=values[~current], minlength=n_leaves
        ) / n_hist
    return Snapshot(schema, leaf_codes, real, forecast, measure)


def render_table(snapshot: Snapshot) -> str:
    """Serialize a snapshot back to CSV (attributes, then real/predict columns)."""
    m = snapshot.measure
    plain = m.kind == "fundamental" and m.operands == (DEFAULT_VALUE_COLUMN,)
    # one list per column, headed by its name
    columns = [
        [a, *map(snapshot.schema.domains[a].__getitem__, snapshot.codes[:, j].tolist())]
        for j, a in enumerate(snapshot.schema.attributes)
    ]
    for c in m.operands:
        names = ("real", "predict") if plain else (f"real_{c}", f"predict_{c}")
        for name, table in zip(names, (snapshot.real, snapshot.forecast)):
            columns.append([name, *map(_fmt, table[c].tolist())])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*columns))
    return buf.getvalue()


def _fmt(x: float) -> str:
    return str(int(x)) if x.is_integer() else repr(x)


def _stack(
    attrs: Sequence[str], tables: list
) -> tuple[AttributeSchema, np.ndarray, np.ndarray, np.ndarray]:
    """Schema, leaf codes, and each row's leaf and table: one grouping of the
    rows of ``tables`` (the snapshot's, then the history tables) in order.
    Each domain is the sorted union of the tables' domains, and each
    table's codes are mapped into it."""
    codes = np.concatenate([c for _, c, _, _ in tables])
    bounds = np.cumsum([0] + [len(c) for _, c, _, _ in tables])
    domains = {}
    for j, a in enumerate(attrs):
        domains[a] = tuple(sorted(set().union(*(s.domains[a] for s, _, _, _ in tables))))
        code_of = {v: i for i, v in enumerate(domains[a])}
        for (s, _, _, _), lo, hi in zip(tables, bounds, bounds[1:]):
            remap = np.array([code_of[v] for v in s.domains[a]], dtype=np.int32)
            codes[lo:hi, j] = remap[codes[lo:hi, j]]
    schema = AttributeSchema(tuple(attrs), domains)
    leaf_codes, leaf_of, _, _ = _group_rows(codes, [len(domains[a]) for a in attrs])
    table_of = np.repeat(np.arange(len(tables)), np.diff(bounds))
    return schema, leaf_codes, leaf_of, table_of
