"""Pure helpers that turn verdicts into the benchmark's figures.

Nothing here imports rootdrill: reports and snapshots are read through their
public attributes only, so the helpers can be tested on hand-built objects.
F1 is computed here rather than with ``rootdrill.evaluate``, so that a change
to the program's own scoring cannot move the benchmark's accuracy figures.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# a tail percentile must leave at least this many samples beyond it
TAIL_SAMPLES = 10


def _rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` samples."""
    return max(-(-n * pct // 100), 1)


def samples_beyond(n: int, pct: int) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``n`` samples."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile, from 50 up, with ten samples beyond it.

    None when ``n`` is too small for even the median to qualify.
    """
    for pct in range(99, 49, -1):
        if samples_beyond(n, pct) >= TAIL_SAMPLES:
            return pct
    return None


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    return sorted(values)[_rank(len(values), pct) - 1]


def cluster_names(report) -> list:
    """Every combination named by a cluster's best candidate, repeats kept."""
    return [
        c
        for r in report.per_cluster
        if r.candidate is not None
        for c in r.candidate.combinations
    ]


def repeat_cause_frac(reports: Sequence) -> float:
    """Share of reports whose clusters name one combination more than once."""
    repeated = 0
    for rep in reports:
        names = cluster_names(rep)
        repeated += len(names) != len(set(names))
    return repeated / len(reports) if reports else 0.0


def cause_repeat_ratio(reports: Sequence) -> float:
    """Combinations named by clusters per distinct combination; 1.0 means no repeats."""
    named = distinct = 0
    for rep in reports:
        names = cluster_names(rep)
        named += len(names)
        distinct += len(set(names))
    return named / distinct if distinct else 1.0


def combination_f1(pairs: Iterable[tuple[set, set]]) -> float:
    """Micro F1 over (predicted, truth) combination sets; 1.0 when both are always empty."""
    tp = fp = fn = 0
    for pred, truth in pairs:
        tp += len(pred & truth)
        fp += len(pred - truth)
        fn += len(truth - pred)
    return 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


def flag_f1(pairs: Iterable[tuple[bool, bool]]) -> float | None:
    """Binary F1 of a (predicted, truth) flag; None when the truth is never set."""
    pairs = list(pairs)
    tp = sum(p and t for p, t in pairs)
    fp = sum(p and not t for p, t in pairs)
    fn = sum(t and not p for p, t in pairs)
    if tp + fn == 0:
        return None
    return 2 * tp / (2 * tp + fp + fn)


def report_problems(report, snapshot, delta_exrc: float) -> list[str]:
    """Ways in which ``report`` breaks the output contract, empty when none."""
    problems = []
    schema = snapshot.schema
    named = [c for group in report.root_causes for c in group] + cluster_names(report)
    for c in named:
        if any(a not in schema.domains or v not in schema.domains[a] for a, v in c.items):
            problems.append(f"{c} is not in the snapshot's schema")
        elif not snapshot.leaf_mask(c).any():
            problems.append(f"{c} covers no leaf")
    for r in report.per_cluster:
        if r.candidate is not None and not r.candidate.gps <= 1.0:
            problems.append(f"gps {r.candidate.gps} above 1")
    low = report.min_gps is not None and report.min_gps < delta_exrc
    if report.external_root_cause != low and report.note is None:
        problems.append(
            f"external flag {report.external_root_cause} disagrees with "
            f"min_gps {report.min_gps} and gives no note"
        )
    return problems


def report_signature(report) -> tuple:
    """Everything a report states except its own timing, for equality checks."""
    return (
        tuple(tuple(c.items for c in group) for group in report.root_causes),
        tuple(
            (
                tuple(r.bounds),
                None
                if r.candidate is None
                else (
                    tuple(c.items for c in r.candidate.combinations),
                    r.candidate.gps,
                    r.candidate.cuboid.attrs,
                ),
            )
            for r in report.per_cluster
        ),
        report.min_gps,
        report.external_root_cause,
        report.note,
    )
