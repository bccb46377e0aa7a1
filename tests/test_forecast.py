import pytest

from rootdrill import MeasureSpec, ParseError, parse_snapshot
from rootdrill.forecast import render_table, snapshot_with_forecast
from rootdrill.simulate import synthetic_base


def forecast_of(history, window, current="a,real\nx,0\n"):
    """Forecast by leaf name of ``current`` against history tables of ``a=value`` rows."""
    texts = ["a,real\n" + "".join(f"{k},{v}\n" for k, v in rows.items()) for rows in history]
    snap = snapshot_with_forecast(current, texts, window=window)
    _, f = snap.leaf_values()
    return {snap.binding_of(i).bindings["a"]: f[i] for i in range(snap.n_leaves)}


class TestMovingAverage:
    def test_plain_mean(self):
        hist = [{"x": v} for v in (1.0, 2.0, 3.0)]
        assert forecast_of(hist, window=3)["x"] == 2.0

    def test_absent_counts_as_zero(self):
        # present in 3 of 10 recent tables with value 10: average is 3
        hist = [{"x": 10.0}] * 3 + [{"y": 1.0}] * 7
        assert forecast_of(hist, window=10)["x"] == pytest.approx(3.0)

    def test_window_uses_most_recent(self):
        hist = [{"x": 100.0}] + [{"x": 1.0}] * 2
        assert forecast_of(hist, window=2)["x"] == 1.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            forecast_of([{"x": 1.0}], window=0)
        with pytest.raises(ValueError):
            forecast_of([], window=3)


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
            snapshot_with_forecast("a,real\nx,7\n", hist, window=2)

    def test_duplicate_leaf_outside_window(self):
        hist = ["a,real\nx,4\nx,100\n", "a,real\nx,2\n", "a,real\nx,3\n"]
        with pytest.raises(ParseError, match="duplicate leaf {'a': 'x'} in history table 1"):
            snapshot_with_forecast("a,real\nx,1\n", hist, window=2)

    def test_attribute_mismatch_outside_window(self):
        hist = ["b,real\nx,1\n", "a,real\nx,1\n"]
        with pytest.raises(ParseError):
            snapshot_with_forecast("a,real\nx,1\n", hist, window=1)

    def test_respects_window(self):
        current = "a,real\nx,0\n"
        hist = ["a,real\nx,90\n"] + ["a,real\nx,10\n"] * 2
        snap = snapshot_with_forecast(current, hist, window=2)
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
