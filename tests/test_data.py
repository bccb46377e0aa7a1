import csv
import gc
import io
import math
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootdrill import (
    AttributeCombination,
    Cuboid,
    MeasureSpec,
    ParseError,
    aggregate,
    parse_snapshot,
    snapshot_from_rows,
)
from rootdrill.data import AttributeSchema, Snapshot, cuboids_by_layer, drop_attributes
from rootdrill.forecast import render_table
from rootdrill.simulate import synthetic_base


def combo(**bindings):
    return AttributeCombination.from_bindings(bindings)


class TestMeasureSpec:
    def test_defaults(self):
        m = MeasureSpec()
        assert m.kind == "fundamental"
        assert m.operands == ("value",)
        assert m.distribution_family == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="ratio"),
            dict(kind="quotient", operands=("a",)),
            dict(kind="fundamental", operands=("a", "b")),
            dict(kind="quotient", operands=("a", "a")),
            dict(distribution_family="gamma"),
            dict(kind="quotient", operands=("a", "b"), distribution_family="poisson"),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MeasureSpec(**kwargs)


class TestAttributeCombination:
    def test_items_sorted(self):
        c = AttributeCombination((("b", "2"), ("a", "1")))
        assert c.items == (("a", "1"), ("b", "2"))
        assert c.attributes == ("a", "b")

    def test_bindings_round_trip(self):
        c = combo(x="1", y="2")
        assert AttributeCombination.from_bindings(c.bindings) == c

    def test_str(self):
        assert str(combo(b="2", a="1")) == "a=1&b=2"
        assert str(AttributeCombination()) == "(total)"

    def test_duplicate_attribute(self):
        with pytest.raises(ValueError):
            AttributeCombination((("a", "1"), ("a", "2")))

    def test_specializes(self, province_snapshot):
        # a more specific combination's leaves lie inside its parent's
        leaf = province_snapshot.leaf_mask(combo(Province="Beijing", ISP="China Mobile"))
        parent = province_snapshot.leaf_mask(combo(Province="Beijing"))
        other = province_snapshot.leaf_mask(combo(Province="Shanghai"))
        assert np.array_equal(leaf & parent, leaf)
        assert province_snapshot.leaf_mask(AttributeCombination()).all()
        assert not (leaf & other).any()
        assert not np.array_equal(leaf & parent, parent)

    def test_hashable(self):
        assert len({combo(a="1"), combo(a="1"), combo(a="2")}) == 2


class TestCuboid:
    def test_attrs_sorted(self):
        assert Cuboid(("b", "a")).attrs == ("a", "b")

    def test_layer(self):
        assert Cuboid(("a",)).layer == 1
        assert Cuboid(("a", "b", "c")).layer == 3

    def test_rejects(self):
        with pytest.raises(ValueError):
            Cuboid(())
        with pytest.raises(ValueError):
            Cuboid(("a", "a"))


class TestParse:
    def test_basic(self, province_snapshot):
        snap = province_snapshot
        assert snap.n_leaves == 9
        assert snap.schema.attributes == ("Province", "ISP") or set(
            snap.schema.attributes
        ) == {"Province", "ISP"}
        v, f = snap.leaf_values()
        assert v.sum() == pytest.approx(518.0)
        assert f.sum() == pytest.approx(550.8)

    def test_binding_of(self, province_snapshot):
        b = province_snapshot.binding_of(0).bindings
        assert b == {"Province": "Beijing", "ISP": "China Mobile"}

    def test_missing_forecast_column(self):
        with pytest.raises(ParseError):
            parse_snapshot("a,real\nx,1\n")

    def test_negative_value(self):
        with pytest.raises(ParseError, match="2"):
            parse_snapshot("a,real,predict\nx,-1,2\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="3"):
            parse_snapshot("a,real,predict\nx,1,2\ny,oops,2\n")

    def test_duplicate_leaf(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_snapshot("a,real,predict\nx,1,2\nx,3,4\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_snapshot("a,real,predict\n")

    def test_attribute_named_like_value_column(self):
        # "realm" is an attribute, not a stray measure column
        snap = parse_snapshot("realm,real,predict\nnorth,1,2\nsouth,3,4\n")
        assert snap.schema.attributes == ("realm",)

    def test_quotient_columns(self):
        text = (
            "host,real_succ,predict_succ,real_total,predict_total\n"
            "h1,30,40,40,40\n"
            "h2,0,0,0,0\n"
        )
        m = MeasureSpec("quotient", ("succ", "total"))
        snap = parse_snapshot(text, m)
        v, f = snap.leaf_values()
        assert v[0] == 0.75 and f[0] == 1.0
        # zero denominator leaves evaluate to 0 rather than erroring
        assert v[1] == 0.0 and f[1] == 0.0

    def test_poisson_family_requires_integers(self):
        m = MeasureSpec(distribution_family="poisson")
        with pytest.raises(ParseError):
            parse_snapshot("a,real,predict\nx,1.5,2\n", m)


class TestSnapshotOps:
    def test_leaves_under(self, province_snapshot):
        beijing = province_snapshot.leaf_mask(combo(Province="Beijing"))
        assert np.flatnonzero(beijing).tolist() == [0, 1]
        assert np.count_nonzero(province_snapshot.leaf_mask(AttributeCombination())) == 9

    def test_leaf_mask_unknown_value(self, province_snapshot):
        with pytest.raises(ValueError):
            province_snapshot.leaf_mask(combo(Province="Atlantis"))

    def test_leaf_mask_unknown_attribute(self, province_snapshot):
        with pytest.raises(ValueError, match="Planet=Mars"):
            province_snapshot.leaf_mask(combo(Planet="Mars"))

    def test_leaf_mask_union(self, province_snapshot):
        both = province_snapshot.leaf_mask(combo(Province="Beijing"), combo(ISP="China Mobile"))
        # Beijing rows {0,1} and China Mobile rows {0,3,8}
        assert np.flatnonzero(both).tolist() == [0, 1, 3, 8]
        assert not province_snapshot.leaf_mask().any()
        assert province_snapshot.leaf_mask().shape == (9,)

    def test_aggregate_combination(self, province_snapshot):
        v, f = aggregate(province_snapshot, [combo(Province="Beijing")])
        assert (v, f) == (15.0, 30.0)

    def test_aggregate_total(self, province_snapshot):
        v, f = aggregate(province_snapshot, [AttributeCombination()])
        assert v == pytest.approx(518.0)
        assert f == pytest.approx(550.8)

    def test_aggregate_union_counts_once(self, province_snapshot):
        v, _ = aggregate(
            province_snapshot, [combo(Province="Beijing"), combo(ISP="China Mobile")]
        )
        # Beijing rows {0,1} and China Mobile rows {0,3,8}: union real = 5+10+10+41
        assert v == 66.0

    def test_aggregate_empty_selection(self, province_snapshot):
        with pytest.raises(ValueError):
            aggregate(province_snapshot, [])

    def test_leaf_weights(self, province_snapshot):
        w = province_snapshot.leaf_weights()
        assert w[0] == 15.0  # real + forecast of the value column
        assert w.shape == (9,)

    def test_cuboid_group_sums(self, province_snapshot):
        cub = Cuboid(("Province",))
        idx = province_snapshot.cuboid_index(cub)
        real, fcst = (
            np.bincount(idx.group_of, weights=t["value"], minlength=idx.n_groups)
            for t in (province_snapshot.real, province_snapshot.forecast)
        )
        combos = [idx.combination(g) for g in range(idx.n_groups)]
        assert combos == sorted(combos)
        by_name = {str(c): (r, f) for c, r, f in zip(combos, real, fcst)}
        assert by_name["Province=Beijing"] == (15.0, 30.0)
        assert len(combos) == 7
        for g, c in enumerate(combos):
            assert np.array_equal(
                np.sort(idx.order[idx.starts[g]:idx.starts[g + 1]]),
                np.flatnonzero(province_snapshot.leaf_mask(c)),
            )

    def test_cuboids_by_layer(self):
        schema = AttributeSchema(("a", "b", "c", "d"), {k: (("x"),) for k in "abcd"})
        cubs = cuboids_by_layer(schema)
        assert len(cubs) == 15
        assert [c.layer for c in cubs] == sorted(c.layer for c in cubs)
        assert sum(1 for c in cubs if c.layer == 2) == 6
        assert [c.attrs for c in cubs if c.layer == 1] == [
            ("a",),
            ("b",),
            ("c",),
            ("d",),
        ]

    def test_drop_attributes(self, province_snapshot):
        flat = drop_attributes(province_snapshot, ["ISP"])
        assert flat.schema.attributes == ("Province",)
        assert flat.n_leaves == 7
        v, f = aggregate(flat, [combo(Province="Beijing")])
        assert (v, f) == (15.0, 30.0)
        total_v, _ = aggregate(flat, [AttributeCombination()])
        assert total_v == pytest.approx(518.0)

    def test_drop_attributes_errors(self, province_snapshot):
        with pytest.raises(ValueError):
            drop_attributes(province_snapshot, ["Nope"])
        with pytest.raises(ValueError):
            drop_attributes(province_snapshot, ["Province", "ISP"])


def test_snapshot_from_rows_matches_parse(province_snapshot):
    rows = [
        tuple(province_snapshot.binding_of(i).bindings[a] for a in ("Province", "ISP"))
        for i in range(9)
    ]
    snap = snapshot_from_rows(
        ("Province", "ISP"),
        rows,
        {"value": province_snapshot.real["value"]},
        {"value": province_snapshot.forecast["value"]},
        MeasureSpec(),
    )
    v1, f1 = snap.leaf_values()
    v2, f2 = province_snapshot.leaf_values()
    assert sorted(v1) == sorted(v2)
    assert sorted(f1) == sorted(f2)


def test_snapshot_rejects_nan():
    with pytest.raises((ParseError, ValueError)):
        snapshot_from_rows(
            ("a",),
            [("x",), ("y",)],
            {"value": [1.0, float("nan")]},
            {"value": [1.0, 1.0]},
            MeasureSpec(),
        )


def test_snapshot_rejects_negative_value():
    with pytest.raises(ParseError, match="negative real value in column 'x'"):
        snapshot_from_rows(
            ("a",),
            [("u",), ("w",)],
            {"x": [1.0, -2.0]},
            {"x": [1.0, 1.0]},
            MeasureSpec(operands=("x",)),
        )


def test_snapshot_rejects_short_forecast_column():
    with pytest.raises(ValueError, match="misaligned predict column 'value'"):
        snapshot_from_rows(
            ("a",), [("u",), ("w",)], {"value": [1.0, 2.0]}, {"value": [1.0]}, MeasureSpec()
        )


def test_unused_value_columns_are_no_attributes():
    snap = parse_snapshot(
        "a,real,predict,real_other,predict_other\nx,1,2,3,4\ny,5,6,7,8\n"
    )
    assert snap.schema.attributes == ("a",)
    assert list(snap.real) == ["value"]


@pytest.mark.parametrize("bad", [2, -1])
def test_snapshot_rejects_code_outside_domain(bad):
    schema = AttributeSchema(("a", "b"), {"a": ("x",), "b": ("u", "w")})
    codes = np.array([[0, 0], [0, bad]])
    ones = {"value": np.ones(2)}
    with pytest.raises(ValueError, match="'b'"):
        Snapshot(schema, codes, ones, ones, MeasureSpec())


# -- leaf grouping against the row-wise reference --------------------------


def reference_grouping(codes):
    """Group rows with ``np.unique(axis=0)``: (group codes, group of, order, starts)."""
    group_codes, group_of = np.unique(codes, axis=0, return_inverse=True)
    group_of = group_of.astype(np.int64).ravel()
    order = np.argsort(group_of, kind="stable")
    counts = np.bincount(group_of, minlength=len(group_codes))
    return group_codes, group_of, order, np.concatenate([[0], np.cumsum(counts)])


def value_name(code):
    return f"v{code:04d}"  # sorts like the code


def snapshot_of(code_rows, n_attrs):
    rng = np.random.default_rng(0)
    attrs = [f"a{j}" for j in range(n_attrs)]
    rows = [tuple(value_name(c) for c in r) for r in code_rows]
    real = {"x": rng.uniform(0, 10, len(rows)), "y": rng.uniform(1, 10, len(rows))}
    fcst = {"x": rng.uniform(0, 10, len(rows)), "y": rng.uniform(1, 10, len(rows))}
    return snapshot_from_rows(attrs, rows, real, fcst, MeasureSpec("quotient", ("x", "y")))


def wide_rows(n_attrs=8, n_leaves=1000, n_values=1000, seed=7):
    """Distinct random rows with about 630 observed values per attribute."""
    rng = np.random.default_rng(seed)
    rows = {tuple(r) for r in rng.integers(0, n_values, (n_leaves, n_attrs)).tolist()}
    return sorted(rows, key=lambda r: rng.random())


@st.composite
def sparse_grids(draw):
    """Distinct rows of a random grid (some combinations never observed), plus
    the attributes to drop: a proper subset, empty on a one-attribute grid."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    row = st.tuples(*[st.integers(0, s - 1) for s in sizes])
    rows = draw(st.lists(row, min_size=1, max_size=40, unique=True))
    drop = draw(st.sets(st.sampled_from([f"a{j}" for j in range(len(sizes))]),
                        max_size=len(sizes) - 1))
    return rows, len(sizes), drop


def assert_groups_match_reference(snap):
    for cuboid in cuboids_by_layer(snap.schema):
        idx = snap.cuboid_index(cuboid)
        cols = [snap.schema.attributes.index(a) for a in cuboid.attrs]
        want = reference_grouping(snap.codes[:, cols])
        got = (idx.group_codes, idx.group_of, idx.order, idx.starts)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def assert_drop_matches_reference(snap, drop):
    flat = drop_attributes(snap, drop)
    cols = [j for j, a in enumerate(snap.schema.attributes) if a not in drop]
    group_codes, group_of, _, _ = reference_grouping(snap.codes[:, cols])
    assert np.array_equal(flat.codes, group_codes)
    for c in snap.measure.operands:
        for got, table in ((flat.real, snap.real), (flat.forecast, snap.forecast)):
            want = np.bincount(group_of, weights=table[c], minlength=len(group_codes))
            assert np.array_equal(got[c], want)


class TestGroupingReference:
    @settings(max_examples=200, deadline=None)
    @given(sparse_grids())
    @example(([(0,), (2,), (1,)], 1, set()))
    @example(([(0, 1), (1, 0), (1, 1)], 2, {"a1"}))
    def test_cuboids_and_drop_match_unique_rows(self, grid):
        rows, n_attrs, drop = grid
        snap = snapshot_of(rows, n_attrs)
        assert_groups_match_reference(snap)
        if drop:
            assert_drop_matches_reference(snap, drop)

    def test_key_wider_than_int64_is_reranked(self):
        snap = snapshot_of(wide_rows(), 8)
        sizes = [len(snap.schema.domains[a]) for a in snap.schema.attributes]
        assert math.prod(sizes) > 2**62
        assert_groups_match_reference(snap)
        for drop in (["a0"], ["a3", "a5"], ["a1", "a2", "a4", "a6", "a7"]):
            assert_drop_matches_reference(snap, set(drop))

    def test_wide_duplicate_leaf_is_named(self):
        rows = wide_rows()
        rows.append(rows[417])
        names = ", ".join(f"'a{j}': '{value_name(c)}'" for j, c in enumerate(rows[417]))
        with pytest.raises(ParseError, match=re.escape("duplicate leaf {" + names + "}")):
            snapshot_of(rows, 8)


# -- column-wise reader against the row-wise reference ---------------------


def reference_parse(text, measure):
    """Parse a snapshot CSV row by row, one ``float`` call per value field."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV") from None
    header = [h.strip() for h in header]
    operands = measure.operands
    value_cols = {}
    consumed = set()
    for col in operands:
        names = [f"real_{col}", f"predict_{col}"]
        if col == "value" and len(operands) == 1 and "real" in header:
            names = ["real", "predict"]
        try:
            ri, pi = header.index(names[0]), header.index(names[1])
        except ValueError:
            missing = names[0] if names[0] not in header else names[1]
            raise ParseError(f"missing value column {missing!r}") from None
        value_cols[col] = (ri, pi)
        consumed |= {ri, pi}
    for j, h in enumerate(header):
        if h in ("real", "predict") or h.startswith(("real_", "predict_")):
            consumed.add(j)
    attr_idx = [j for j in range(len(header)) if j not in consumed]
    attrs = [header[j] for j in attr_idx]
    if not attrs:
        raise ParseError("no attribute columns")

    def value(token, lineno, colname):
        try:
            x = float(token)
        except ValueError:
            raise ParseError(f"row {lineno}: non-numeric {colname}={token!r}") from None
        if x < 0:
            raise ParseError(f"row {lineno}: negative {colname}={x}")
        return x

    rows, real, fcst = [], {c: [] for c in operands}, {c: [] for c in operands}
    for lineno, rec in enumerate(reader, start=2):
        if not rec or all(not x.strip() for x in rec):
            continue
        if len(rec) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} fields, got {len(rec)}")
        rows.append(tuple(rec[j] for j in attr_idx))
        for col, (ri, pi) in value_cols.items():
            real[col].append(value(rec[ri], lineno, header[ri]))
            fcst[col].append(value(rec[pi], lineno, header[pi]))
    if not rows:
        raise ParseError("snapshot holds no leaves")

    domains = {a: tuple(sorted({row[j] for row in rows})) for j, a in enumerate(attrs)}
    code_of = {a: {v: i for i, v in enumerate(domains[a])} for a in attrs}
    codes = np.array(
        [[code_of[a][row[j]] for j, a in enumerate(attrs)] for row in rows], dtype=np.int32
    )
    real = {c: np.asarray(v, float) for c, v in real.items()}
    fcst = {c: np.asarray(v, float) for c, v in fcst.items()}
    return Snapshot(AttributeSchema(tuple(attrs), domains), codes, real, fcst, measure)


def outcome(parse, text, measure):
    """What ``parse`` makes of ``text``: its ParseError message, or the snapshot's arrays."""
    try:
        snap = parse(text, measure)
    except ParseError as err:
        return str(err)
    tables = [snap.real[c].tobytes() + snap.forecast[c].tobytes() for c in measure.operands]
    return snap.schema, snap.codes.dtype, snap.codes.tobytes(), tables


# attribute values: non-ASCII, embedded commas and quotes, inner spaces
ATTR_VALUES = ["x", "y10", "y9", "Zürich", "北京", "a,b", 'say "hi"', "two words", "é"]
# values a table without quotes holds; csv.reader over io.StringIO breaks
# rows at "\n" only, not at the other line boundaries of str.splitlines
PLAIN_VALUES = ["x", "y10", "Zürich", "北京", "x y", "x\x0by", "x\x1cy", "x\u2028y"]
BLANK_LINES = ["", "   ", " , ", ",,,,,", "\t"]
MEASURES = [
    (MeasureSpec(), ["real", "predict"]),
    (MeasureSpec(), ["real_value", "predict_value"]),
    (MeasureSpec("quotient", ("succ", "total")),
     ["real_succ", "predict_succ", "real_total", "predict_total"]),
]


def blank_lines(width):
    """Lines csv.reader's caller skips, two of them ``width`` fields wide."""
    return BLANK_LINES + ["," * (width - 1), ",".join([" "] * width)]


def number_text(x, style):
    return [repr(x), f" {x!r} ", f"{x:e}", f"{x:E}", f"+{x!r}", f"+{x:.3e} "][style]


@st.composite
def snapshot_tables(draw):
    """A snapshot CSV as lines, its measure, its header, its final line end,
    and whether it is plain: no quote, no carriage return, no blank line.
    The other tables may end their lines in "\r\n"."""
    measure, value_names = draw(st.sampled_from(MEASURES))
    n_attrs = draw(st.integers(1, 3))
    attr_names = ["host", "région", "dc"][:n_attrs]
    header = draw(st.permutations(attr_names + value_names))
    plain = draw(st.booleans())
    leaf = st.tuples(*[st.sampled_from(PLAIN_VALUES if plain else ATTR_VALUES)] * n_attrs)
    leaves = draw(st.lists(leaf, min_size=1, max_size=12, unique=True))
    number = st.builds(
        number_text,
        st.one_of(st.integers(0, 10**6).map(float), st.floats(0, 1e9)),
        st.integers(0, 5),
    )
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for values in leaves:
        by_name = dict(zip(attr_names, values))
        w.writerow([by_name[h] if h in by_name else draw(number) for h in header])
    lines = buf.getvalue().split("\n")[:-1]
    if not plain and draw(st.booleans()):
        lines = [line + "\r" for line in lines]  # "\r\n" line ends
    for _ in range(0 if plain else draw(st.integers(0, 4))):
        lines.insert(
            draw(st.integers(1, len(lines))), draw(st.sampled_from(blank_lines(len(header))))
        )
    return lines, measure, header, draw(st.sampled_from(["\n", ""])), plain


@contextmanager
def csv_rows_read():
    """The rows every ``csv.reader`` made inside the block yields, as a list."""
    rows = []
    reader = csv.reader

    def spy(*args, **kwargs):
        for rec in reader(*args, **kwargs):
            rows.append(rec)
            yield rec

    with mock.patch("rootdrill.data.csv.reader", spy):
        yield rows


class TestParseReference:
    @settings(max_examples=200, deadline=None)
    @given(snapshot_tables())
    def test_same_snapshot_as_row_wise_reader(self, table):
        lines, measure, _, end, plain = table
        text = "\n".join(lines) + end
        want = outcome(reference_parse, text, measure)
        assert not isinstance(want, str)
        with csv_rows_read() as rows:
            assert outcome(parse_snapshot, text, measure) == want
        if plain:
            assert len(rows) == 1  # the header; the body was split without csv.reader

    @settings(max_examples=200, deadline=None)
    @given(snapshot_tables(), st.data())
    def test_same_error_as_row_wise_reader(self, table, data):
        lines, measure, header, end, _ = table
        bad = data.draw(st.sampled_from(["oops", "-3", "1e", "-0.5e1", "short", "long"]))
        if bad == "short":
            row = ",".join(["1"] * data.draw(st.integers(1, len(header) - 1)))
        elif bad == "long":
            row = ",".join(["1"] * 2 * len(header))  # two rows run together
        else:
            # one or more bad fields: the first one in column order is named
            fields = ["1"] * len(header)
            value_cols = [j for j, h in enumerate(header) if h.startswith(("real", "predict"))]
            for j in data.draw(st.sets(st.sampled_from(value_cols), min_size=1)):
                fields[j] = bad
            row = ",".join(fields)
        at = data.draw(st.integers(1, len(lines)))
        blanks = data.draw(st.lists(st.sampled_from(blank_lines(len(header))), max_size=3))
        text = "\n".join(lines[:at] + blanks + [row] + lines[at:]) + end
        want = outcome(reference_parse, text, measure)
        assert isinstance(want, str) and want.startswith("row ")
        assert outcome(parse_snapshot, text, measure) == want


def test_plain_table_body_is_not_read_by_csv_reader():
    text = render_table(synthetic_base(n_attrs=3, n_values=4, seed=3))
    with csv_rows_read() as rows:
        snap = parse_snapshot(text)
    assert rows == [["A", "B", "C", "real", "predict"]]
    assert snap.n_leaves == 64


def test_plain_parse_runs_no_collection():
    # a list per row would start the cyclic garbage collector many times over
    text = render_table(synthetic_base(n_attrs=4, n_values=12, seed=3))
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    snap = parse_snapshot(text)
    assert gc.get_stats()[0]["collections"] == before
    assert snap.n_leaves == 20_736
