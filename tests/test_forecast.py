import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootdrill.forecast as forecast_mod
from rootdrill import MeasureSpec, ParseError, parse_snapshot
from rootdrill.data import AttributeSchema, Snapshot
from rootdrill.forecast import WINDOW, render_table, snapshot_with_forecast
from rootdrill.simulate import synthetic_base


def forecast_of(history, current="a,real\nx,0\n"):
    """Forecast by leaf name of ``current`` against history tables of ``a=value`` rows."""
    texts = ["a,real\n" + "".join(f"{k},{v}\n" for k, v in rows.items()) for rows in history]
    snap = snapshot_with_forecast(current, texts)
    _, f = snap.leaf_values()
    return {snap.binding_of(i).bindings["a"]: f[i] for i in range(snap.n_leaves)}


class TestMovingAverage:
    def test_plain_mean(self):
        hist = [{"x": v} for v in (1.0, 2.0, 3.0)]
        assert forecast_of(hist)["x"] == 2.0

    def test_absent_counts_as_zero(self):
        # present in 3 of the WINDOW recent tables with value 10
        hist = [{"x": 10.0}] * 3 + [{"y": 1.0}] * (WINDOW - 3)
        assert forecast_of(hist)["x"] == pytest.approx(30.0 / WINDOW)

    def test_window_uses_most_recent(self):
        hist = [{"x": 100.0}] + [{"x": 1.0}] * WINDOW
        assert forecast_of(hist)["x"] == 1.0

    def test_window_validation(self):
        assert forecast_of([{"x": 4.0}])["x"] == 4.0  # one table is enough
        with pytest.raises(ValueError):
            forecast_of([])


class TestSnapshotWithForecast:
    def test_average_forecast(self):
        current = "a,real\nx,7\ny,3\n"
        hist = ["a,real\nx,4\ny,2\n", "a,real\nx,6\ny,4\n"]
        snap = snapshot_with_forecast(current, hist)
        v, f = snap.leaf_values()
        got = {str(snap.binding_of(i)): (v[i], f[i]) for i in range(snap.n_leaves)}
        assert got == {"a=x": (7.0, 5.0), "a=y": (3.0, 3.0)}

    def test_union_of_leaves(self):
        current = "a,real\nx,7\nnew,1\n"
        hist = ["a,real\nx,4\ngone,8\n"]
        snap = snapshot_with_forecast(current, hist)
        v, f = snap.leaf_values()
        got = {str(snap.binding_of(i)): (v[i], f[i]) for i in range(snap.n_leaves)}
        assert got["a=new"] == (1.0, 0.0)  # nothing predicted it
        assert got["a=gone"] == (0.0, 8.0)  # it vanished

    def test_attribute_mismatch(self):
        with pytest.raises(ParseError):
            snapshot_with_forecast("a,real\nx,1\n", ["b,real\nx,1\n"])

    def test_no_history(self):
        with pytest.raises(ValueError):
            snapshot_with_forecast("a,real\nx,1\n", [])

    def test_duplicate_leaf_in_current_table(self):
        with pytest.raises(ParseError, match="duplicate leaf {'a': 'x'} in snapshot"):
            snapshot_with_forecast("a,real\nx,7\nx,3\n", ["a,real\nx,4\n"])

    def test_duplicate_leaf_in_history_table(self):
        hist = ["a,real\nx,1\n", "a,real\nx,4\ny,2\nx,100\n", "a,real\ny,1\n"]
        with pytest.raises(ParseError, match="duplicate leaf {'a': 'x'} in history table 2"):
            snapshot_with_forecast("a,real\nx,7\n", hist)

    def test_duplicate_leaf_outside_window(self):
        hist = ["a,real\nx,4\nx,100\n"] + ["a,real\nx,2\n"] * WINDOW
        with pytest.raises(ParseError, match="duplicate leaf {'a': 'x'} in history table 1"):
            snapshot_with_forecast("a,real\nx,1\n", hist)

    def test_history_past_the_window_is_grouped_once(self, monkeypatch):
        # every table is checked on its own codes; only the averaged ones are stacked
        grouped, original = [], forecast_mod._group_rows

        def group_rows(codes, sizes):
            grouped.append(len(codes))
            return original(codes, sizes)

        monkeypatch.setattr(forecast_mod, "_group_rows", group_rows)
        hist = ["a,real\nx,1\ny,2\n"] * (2 * WINDOW)
        snapshot_with_forecast("a,real\nx,1\n", hist)
        assert grouped == [1 + 2 * WINDOW]  # the snapshot row and two per averaged table

    def test_attribute_mismatch_outside_window(self):
        hist = ["b,real\nx,1\n"] + ["a,real\nx,1\n"] * WINDOW
        with pytest.raises(ParseError):
            snapshot_with_forecast("a,real\nx,1\n", hist)

    def test_respects_window(self):
        current = "a,real\nx,0\n"
        hist = ["a,real\nx,90\n"] + ["a,real\nx,10\n"] * WINDOW
        snap = snapshot_with_forecast(current, hist)
        _, f = snap.leaf_values()
        assert f[0] == 10.0

    def test_quoted_history_table_reads_like_plain(self):
        # history tables carry predict columns nobody reads; a quote sends a
        # table to csv.reader, its plain twin is split without one
        current = render_table(synthetic_base(n_attrs=3, n_values=4, seed=1))
        plain = render_table(synthetic_base(n_attrs=3, n_values=4, seed=2))
        quoted = plain.replace("\na01,", '\n"a01",', 1)
        assert quoted != plain
        snaps = [snapshot_with_forecast(current, [t]) for t in (plain, quoted)]
        got = [
            (s.schema, s.codes.tobytes(), s.real["value"].tobytes(), s.forecast["value"].tobytes())
            for s in snaps
        ]
        assert got[0] == got[1]


class TestRenderTable:
    def test_round_trip(self, province_snapshot):
        text = render_table(province_snapshot)
        back = parse_snapshot(text)
        v1, f1 = back.leaf_values()
        v2, f2 = province_snapshot.leaf_values()
        assert sorted(v1) == sorted(v2)
        assert sorted(f1) == sorted(f2)

    def test_integer_formatting(self, province_snapshot):
        text = render_table(province_snapshot)
        first = text.splitlines()[1]
        assert first.endswith(",5,10")  # integers come out bare

    def test_quotient_round_trip(self):
        m = MeasureSpec("quotient", ("succ", "total"))
        text = "h,real_succ,predict_succ,real_total,predict_total\nh1,3,4,10,10\n"
        snap = parse_snapshot(text, m)
        back = parse_snapshot(render_table(snap), m)
        assert back.leaf_values()[0][0] == pytest.approx(0.3)


# -- against a reference on the string columns ------------------------------


def reference_forecast(current, history, measure, real_names):
    """``snapshot_with_forecast`` on string columns: each table read by
    ``csv.reader``, the snapshot's and the last ``WINDOW`` history tables'
    attribute columns concatenated, each domain their ``sorted(set(...))``."""
    tables = []
    for text in [current, *history[-WINDOW:]]:
        header, *rows = csv.reader(io.StringIO(text))
        attrs = [h for h in header if not h.startswith(("real", "predict"))]
        keys = [tuple(row[header.index(a)] for a in attrs) for row in rows]
        values = {
            c: [float(row[header.index(name)]) for row in rows]
            for c, name in zip(measure.operands, real_names)
        }
        tables.append((attrs, keys, values))
    attrs = tables[0][0]
    keys = [k for _, ks, _ in tables for k in ks]
    domains = {a: tuple(sorted({k[j] for k in keys})) for j, a in enumerate(attrs)}
    leaves = sorted(set(keys))  # code rows sort like the value names
    real, forecast = {}, {}
    for c in measure.operands:
        sums = [dict(zip(ks, vs[c])) for _, ks, vs in tables]
        real[c] = [0.0 + sums[0].get(leaf, 0.0) for leaf in leaves]
        forecast[c] = []
        for leaf in leaves:
            total = 0.0
            for table in sums[1:]:
                total += table.get(leaf, 0.0)  # absent counts as 0
            forecast[c].append(total / (len(tables) - 1))
    codes = [[domains[a].index(v) for a, v in zip(attrs, leaf)] for leaf in leaves]
    schema = AttributeSchema(tuple(attrs), domains)
    return Snapshot(schema, np.array(codes), real, forecast, measure)


VALUES = ["x", "y10", "Zürich", "北京", "ninebytes", "", "007", "a,b"]
FIELDS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e6).map(repr),
    st.sampled_from(["0012", " 7 ", "١٢", "1e3"]),
)


@st.composite
def forecast_tables(draw):
    """A snapshot text, 1 to 13 history texts over other value sets, the
    measure and its real columns; one table may be written fully quoted."""
    measure, real_names = draw(st.sampled_from([
        (MeasureSpec(), ["real"]),
        (MeasureSpec("quotient", ("succ", "total")), ["real_succ", "real_total"]),
    ]))
    attrs = ["host", "dc"][: draw(st.integers(1, 2))]
    n_tables = draw(st.integers(2, 14))
    quoted = draw(st.integers(-1, n_tables - 1))
    texts = []
    for t in range(n_tables):
        pool = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=5, unique=True))
        leaf = st.tuples(*[st.sampled_from(pool)] * len(attrs))
        leaves = draw(st.lists(leaf, min_size=1, max_size=6, unique=True))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n",
                       quoting=csv.QUOTE_ALL if t == quoted else csv.QUOTE_MINIMAL)
        w.writerow(attrs + real_names)
        for values in leaves:
            w.writerow([*values, *(draw(FIELDS) for _ in real_names)])
        texts.append(buf.getvalue())
    return texts[0], texts[1:], measure, real_names


def outcome(build):
    """The ``ParseError`` message of ``build()``, or its snapshot's arrays."""
    try:
        snap = build()
    except ParseError as err:  # values whose totals overflow
        return str(err)
    tables = [snap.real[c].tobytes() + snap.forecast[c].tobytes() for c in snap.measure.operands]
    return snap.schema, snap.codes.dtype, snap.codes.tobytes(), tables


@settings(max_examples=150, deadline=None)
@given(forecast_tables())
def test_same_snapshot_as_string_reference(tables):
    current, history, measure, real_names = tables
    want = outcome(lambda: reference_forecast(current, history, measure, real_names))
    assert outcome(lambda: snapshot_with_forecast(current, history, measure)) == want
