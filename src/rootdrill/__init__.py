"""Root cause localization for multidimensional monitoring data.

Given a snapshot of a KPI broken down over several categorical attributes,
with a real and a forecast value per attribute combination, this package
locates the smallest set of attribute combinations that explains the
observed deviation, and flags snapshots whose deviation cannot be explained
by any internal combination.
"""

from .cluster import knee_threshold
from .data import (
    AttributeCombination,
    Cuboid,
    MeasureSpec,
    ParseError,
    aggregate,
    parse_snapshot,
    snapshot_from_rows,
)
from .evaluate import evaluate_fault, f1_score
from .localize import (
    LocalizationReport,
    LocalizeConfig,
    explanation_score,
    localize,
    select_exrc_threshold,
)
from .ripple import deviation_score
from .simulate import SimulationParams, eliminate_attributes, simulate_fault, synthetic_base

__version__ = "0.1.0"

__all__ = [
    "AttributeCombination",
    "Cuboid",
    "LocalizationReport",
    "LocalizeConfig",
    "MeasureSpec",
    "ParseError",
    "SimulationParams",
    "aggregate",
    "deviation_score",
    "eliminate_attributes",
    "evaluate_fault",
    "explanation_score",
    "f1_score",
    "knee_threshold",
    "localize",
    "parse_snapshot",
    "select_exrc_threshold",
    "simulate_fault",
    "snapshot_from_rows",
    "synthetic_base",
]
