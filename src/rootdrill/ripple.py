"""Deviation-score arithmetic: the one home of the ripple-effect formulas.

A fault in some slice of multi-dimensional data moves every descended leaf
away from its forecast by the same relative amount (the ripple effect).  The
deviation score

    d = (f - v) / (f + v)

captures that shared amount in [-1, 1]: positive when the real value dropped
below the forecast, negative when it rose, and identical across all leaves
affected by the same root cause.  The identity survives quotient and product
derived measures, which is what makes searching by score feasible; the test
suite pins that closure property rather than any code path here.

The search, the reports and the fault simulator all compute measure values,
deviation scores and their inverse through the functions below, so a fix to
one of these formulas reaches every caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .data import MeasureSpec


class UndefinedValueError(ArithmeticError):
    """A measure value cannot be computed, e.g. a quotient with zero denominator."""


class MeaninglessPairError(UndefinedValueError):
    """Both real and forecast are zero: the slice carries no data."""


def deviation_score(v, f):
    """Deviation of real value ``v`` from forecast ``f``, in [-1, 1].

    Scalars give a float; arrays give the score of each pair, with 0 for a
    pair where both values are 0 (an empty slice carries no deviation).

    Raises
    ------
    ValueError
        if any value is negative.
    MeaninglessPairError
        if scalar ``v == f == 0``.
    """
    if np.ndim(v) == 0 and np.ndim(f) == 0:
        if v < 0 or f < 0:
            raise ValueError(f"values must be non-negative, got v={v}, f={f}")
        if v == 0 and f == 0:
            raise MeaninglessPairError("deviation score of an empty slice is undefined")
        return (f - v) / (f + v)
    v, f = np.asarray(v, dtype=float), np.asarray(f, dtype=float)
    if min(v.min(initial=0.0), f.min(initial=0.0)) < 0:
        raise ValueError("values must be non-negative")
    tot = f + v
    tot[tot == 0.0] = 1.0  # both values are 0 there, and so is f - v
    return (f - v) / tot


def expected_abnormal_value(f, d: float):
    """Real value a leaf with forecast ``f`` should take under deviation score ``d``.

    Inverse of :func:`deviation_score` in its second argument:
    ``deviation_score(expected_abnormal_value(f, d), f) == d`` whenever defined.
    ``f`` may be an array of forecasts sharing the score.
    """
    if not -1.0 <= d <= 1.0:
        raise ValueError(f"deviation score out of range: {d}")
    if d == -1.0:
        # (1 - d) / (1 + d) blows up: no finite value attains score -1 for f > 0
        raise UndefinedValueError("expected value is unbounded at deviation score -1")
    return f * (1.0 - d) / (1.0 + d)


def measure_values(kind: str, operands: Sequence) -> np.ndarray:
    """Measure values composed elementwise from fundamental operand values.

    ``operands`` holds one value (or array) for a fundamental measure and two
    (numerator and denominator, or the two factors) for quotient and product
    measures.  A quotient with a zero denominator evaluates to 0: an empty
    slice observed no events, so its rate carries no deviation.
    """
    if kind == "fundamental":
        (a,) = operands
        return np.asarray(a, dtype=float)
    a, b = (np.asarray(x, dtype=float) for x in operands)
    if kind == "product":
        return a * b
    if kind == "quotient":
        return np.divide(a, b, out=np.zeros_like(a), where=b > 0.0)
    raise ValueError(f"unknown measure kind: {kind!r}")


def derived_value(measure: "MeasureSpec", operands: Sequence[float]) -> float:
    """Compose one measure value from its fundamental operand values.

    Like :func:`measure_values`, but a quotient with zero denominator raises
    :class:`UndefinedValueError` instead of evaluating to 0.
    """
    kind = measure.kind
    want = 1 if kind == "fundamental" else 2
    if len(operands) != want:
        raise ValueError(f"{kind} measure takes exactly {want} operand value(s)")
    if kind == "quotient" and operands[1] == 0:
        raise UndefinedValueError("quotient measure with zero denominator")
    return float(measure_values(kind, operands))
