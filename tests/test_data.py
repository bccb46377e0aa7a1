import numpy as np
import pytest

from rootdrill import (
    AttributeCombination,
    Cuboid,
    MeasureSpec,
    ParseError,
    aggregate,
    parse_snapshot,
    snapshot_from_rows,
)
from rootdrill.data import AttributeSchema, cuboids_by_layer, drop_attributes


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
        combos = [province_snapshot.combination_of_group(cub, g) for g in range(idx.n_groups)]
        assert combos == sorted(combos)
        by_name = {str(c): (r, f) for c, r, f in zip(combos, real, fcst)}
        assert by_name["Province=Beijing"] == (15.0, 30.0)
        assert len(combos) == 7
        for g, c in enumerate(combos):
            assert np.array_equal(
                np.sort(idx.leaves_of(g)), np.flatnonzero(province_snapshot.leaf_mask(c))
            )

    def test_cuboids_by_layer(self):
        schema = AttributeSchema(("a", "b", "c", "d"), {k: (("x"),) for k in "abcd"})
        cubs = cuboids_by_layer(schema)
        assert len(cubs) == 15
        assert [c.layer for c in cubs] == sorted(c.layer for c in cubs)
        assert sum(1 for c in cubs if c.layer == 2) == 6
        assert [c.attrs for c in cuboids_by_layer(schema, 1)] == [
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
