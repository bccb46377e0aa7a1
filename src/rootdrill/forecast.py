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
    _encode,
    _group_rows,
    _parse_table,
)

DEFAULT_WINDOW = 10


def snapshot_with_forecast(
    current_text: str,
    history_texts: Sequence[str],
    measure: MeasureSpec | None = None,
    window: int = DEFAULT_WINDOW,
) -> Snapshot:
    """Assemble a snapshot whose forecast is a moving average of history.

    The forecast of a leaf is the mean of its real values over the last
    ``window`` history tables, a table that lacks the leaf counting as 0: a
    leaf that drops out of the data still existed, and treating the gap as a
    zero observation keeps the baseline honest about disappearances.  The
    leaf set is the union of the current table and the averaged history:
    leaves seen only in history enter with a real value of 0 (they vanished),
    leaves new to the current table get a forecast of 0 (nothing predicted
    them).  All tables must share the same attribute columns, and no table
    may name a leaf twice.
    """
    measure = measure or MeasureSpec()
    if window < 1:
        raise ValueError("window must be positive")
    tables = [
        _parse_table(t, measure.operands, need_forecast=False)
        for t in [current_text, *history_texts]
    ]
    if len(tables) == 1:
        raise ValueError("history is empty")
    attrs = tables[0][0]
    for h_attrs, _, _, _ in tables[1:]:
        if h_attrs != attrs:
            raise ParseError(
                f"history attributes {h_attrs} do not match snapshot attributes {attrs}"
            )
    if len(tables) > window + 1:
        _stack(attrs, tables, len(history_texts))  # checked, not averaged
        del tables[1:-window]
    n_hist = len(tables) - 1
    schema, leaf_codes, leaf_of, table_of = _stack(attrs, tables, len(history_texts))
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
    attrs: Sequence[str], tables: list, n_history: int
) -> tuple[AttributeSchema, np.ndarray, np.ndarray, np.ndarray]:
    """Schema, leaf codes, and each row's leaf and table: one encoding and one
    grouping of the rows of ``tables`` (the snapshot's, then the last of
    ``n_history`` history tables) in order.  A leaf named twice in one table
    raises ``ParseError``."""
    columns = [[v for _, cols, _, _ in tables for v in cols[j]] for j in range(len(attrs))]
    schema, codes = _encode(attrs, columns)
    sizes = [len(schema.domains[a]) for a in attrs]
    leaf_codes, leaf_of, _, _ = _group_rows(codes, sizes)
    table_of = np.repeat(np.arange(len(tables)), [len(cols[0]) for _, cols, _, _ in tables])
    pairs = np.bincount(leaf_of * len(tables) + table_of)
    if pairs.max() > 1:
        leaf, t = divmod(int(np.argmax(pairs)), len(tables))
        names = {a: schema.domains[a][c] for a, c in zip(attrs, leaf_codes[leaf])}
        where = "snapshot" if t == 0 else f"history table {n_history - len(tables) + 1 + t}"
        raise ParseError(f"duplicate leaf {names} in {where}")
    return schema, leaf_codes, leaf_of, table_of
