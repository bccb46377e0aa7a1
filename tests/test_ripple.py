import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootdrill import (
    AttributeCombination,
    MeasureSpec,
    aggregate,
    deviation_score,
    snapshot_from_rows,
)
from rootdrill.ripple import (
    MeaninglessPairError,
    UndefinedValueError,
    expected_abnormal_value,
    measure_values,
)

positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)


@pytest.mark.parametrize(
    "v,f,d",
    [
        (5, 10, 1 / 3),
        (10, 5, -1 / 3),
        (7, 7, 0.0),
        (0, 4, 1.0),
        (4, 0, -1.0),
    ],
)
def test_deviation_score_values(v, f, d):
    assert deviation_score(v, f) == pytest.approx(d, abs=1e-15)


def test_deviation_score_rejects_negative():
    with pytest.raises(ValueError):
        deviation_score(-1, 2)
    with pytest.raises(ValueError):
        deviation_score(2, -0.5)


def test_deviation_score_empty_pair():
    with pytest.raises(MeaninglessPairError):
        deviation_score(0, 0)


def test_deviation_score_arrays():
    v = np.array([5.0, 10.0, 0.0, 4.0, 0.0])
    f = np.array([10.0, 5.0, 4.0, 0.0, 0.0])
    # an empty pair inside an array scores 0 instead of raising
    assert deviation_score(v, f).tolist() == [1 / 3, -1 / 3, 1.0, -1.0, 0.0]
    # one side may be a scalar, as when candidate rates meet one forecast
    assert deviation_score(np.array([5.0, 15.0]), 10.0).tolist() == [1 / 3, -0.2]
    with pytest.raises(ValueError):
        deviation_score(np.array([1.0, -1.0]), np.array([1.0, 1.0]))


@given(v=positive, f=positive)
def test_deviation_score_array_matches_scalar(v, f):
    assert deviation_score(np.array([v]), np.array([f]))[0] == deviation_score(v, f)


def test_error_hierarchy():
    assert issubclass(MeaninglessPairError, UndefinedValueError)
    assert issubclass(UndefinedValueError, ArithmeticError)


@given(v=positive, f=positive)
def test_deviation_score_antisymmetric(v, f):
    assert deviation_score(v, f) == -deviation_score(f, v)


def test_expected_abnormal_value_basic():
    assert expected_abnormal_value(10, 0.5) == pytest.approx(10 / 3)
    assert expected_abnormal_value(10, 0.0) == 10.0
    assert expected_abnormal_value(10, 1.0) == 0.0


def test_expected_abnormal_value_edges():
    with pytest.raises(UndefinedValueError):
        expected_abnormal_value(10, -1.0)
    with pytest.raises(ValueError):
        expected_abnormal_value(10, 1.5)


@given(f=positive, d=st.floats(min_value=-0.999, max_value=1.0, allow_nan=False))
def test_expected_abnormal_value_round_trip(f, d):
    a = expected_abnormal_value(f, d)
    assert deviation_score(a, f) == pytest.approx(d, abs=1e-9)


def test_aggregate_of_a_quotient_slice_without_total_is_undefined():
    m = MeasureSpec("quotient", ("succ", "total"))
    snap = snapshot_from_rows(
        ["A"],
        [("a0",), ("a1",)],
        {"succ": [0.0, 30.0], "total": [0.0, 40.0]},
        {"succ": [0.0, 30.0], "total": [0.0, 40.0]},
        m,
    )
    assert aggregate(snap, [AttributeCombination.from_bindings({"A": "a1"})]) == (0.75, 0.75)
    with pytest.raises(UndefinedValueError, match="zero denominator"):
        aggregate(snap, [AttributeCombination.from_bindings({"A": "a0"})])


def test_measure_values_elementwise():
    a, b = np.array([3.0, 0.0, 5.0]), np.array([4.0, 0.0, 0.0])
    assert measure_values("fundamental", [a]).tolist() == [3.0, 0.0, 5.0]
    assert measure_values("product", [a, b]).tolist() == [12.0, 0.0, 0.0]
    # a zero denominator evaluates to 0 rather than raising
    assert measure_values("quotient", [a, b]).tolist() == [0.75, 0.0, 0.0]
    with pytest.raises(ValueError):
        measure_values("ratio", [a, b])


def test_expected_abnormal_value_arrays():
    f = np.array([10.0, 4.0, 0.0])
    a = expected_abnormal_value(f, 0.5)
    assert a.tolist() == pytest.approx([10 / 3, 4 / 3, 0.0])
    assert deviation_score(a[:2], f[:2]).tolist() == pytest.approx([0.5, 0.5])


# When both operand columns of a derived measure deviate by fixed per-column
# ratios, every slice of the derived measure lands on one shared deviation
# score, and the expected-value formula reproduces the observed slice value.
@given(
    f1_total=positive,
    f2_total=positive,
    r1=st.floats(min_value=1e-3, max_value=3.0),
    r2=st.floats(min_value=1e-3, max_value=3.0),
    share=st.floats(min_value=1e-3, max_value=1.0),
    kind=st.sampled_from(["quotient", "product"]),
)
def test_derived_measure_score_closure(f1_total, f2_total, r1, r2, share, kind):
    f1_leaf, f2_leaf = share * f1_total, share * f2_total

    v_total = float(measure_values(kind, [r1 * f1_total, r2 * f2_total]))
    f_total = float(measure_values(kind, [f1_total, f2_total]))
    v_leaf = float(measure_values(kind, [r1 * f1_leaf, r2 * f2_leaf]))
    f_leaf = float(measure_values(kind, [f1_leaf, f2_leaf]))

    d = deviation_score(v_total, f_total)
    assert deviation_score(v_leaf, f_leaf) == pytest.approx(d, rel=1e-9, abs=1e-12)
    if d > -1.0:
        assert expected_abnormal_value(f_leaf, d) == pytest.approx(
            v_leaf, rel=1e-9, abs=1e-12
        )


def test_score_range():
    for v, f in [(0, 1), (1, 0), (1e-9, 1e9), (1e9, 1e-9)]:
        assert -1.0 <= deviation_score(v, f) <= 1.0
    assert math.isfinite(deviation_score(1e300, 1e300))
