"""Scoring localization output against ground truth, and benchmark plumbing.

Combination-level F1 counts exact binding matches between predicted and true
root-cause combinations, aggregated over the cases of a benchmark setting.
The external-root-cause flag gets its own binary F1.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .data import AttributeCombination, MeasureSpec, Snapshot
from .localize import LocalizeConfig, localize
from .simulate import SimulatedFault, read_fault


@dataclass
class EvalCase:
    predicted: set[AttributeCombination]
    truth: set[AttributeCombination]
    predicted_external: bool
    truth_external: bool
    elapsed: float


@dataclass
class BenchmarkReport:
    per_setting: dict[tuple[int, int], float]
    overall_f1: float | None
    macro_f1: float | None
    exrc_f1: float
    mean_elapsed: float
    n_cases: int
    skipped: int


def f1_score(cases: Sequence[EvalCase]) -> float:
    """Micro-averaged F1 over whole attribute combinations.

    Empty predictions against empty truth are a perfect score: there was
    nothing to find and nothing was claimed.
    """
    tp = fp = fn = 0
    for c in cases:
        tp += len(c.predicted & c.truth)
        fp += len(c.predicted - c.truth)
        fn += len(c.truth - c.predicted)
    if tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def exrc_f1(cases: Sequence[EvalCase]) -> float:
    """Binary F1 of the external-root-cause flag."""
    tp = sum(1 for c in cases if c.predicted_external and c.truth_external)
    fp = sum(1 for c in cases if c.predicted_external and not c.truth_external)
    fn = sum(1 for c in cases if not c.predicted_external and c.truth_external)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# -- benchmark orchestration -----------------------------------------------


def _with_family(snap: Snapshot, family: str | None) -> Snapshot:
    """``snap`` with its measure's distribution family replaced by ``family``.

    Raises ``ValueError`` when the measure or the values cannot take it.
    """
    m = snap.measure
    if family is None or family == m.distribution_family:
        return snap
    measure = MeasureSpec(m.kind, m.operands, family)
    return Snapshot(snap.schema, snap.codes, snap.real, snap.forecast, measure)


def evaluate_fault(
    fault: SimulatedFault,
    cfg: LocalizeConfig | None = None,
    family_override: str | None = None,
) -> EvalCase:
    """Localize one fault and compare against its ground truth."""
    report = localize(_with_family(fault.snapshot, family_override), cfg)
    predicted = {c for combos in report.root_causes for c in combos}
    return EvalCase(
        predicted=predicted,
        truth=fault.truth_combinations(),
        predicted_external=report.external_root_cause,
        truth_external=fault.external,
        elapsed=report.elapsed,
    )


def _eval_dir(
    args: tuple[str, LocalizeConfig, str | None]
) -> tuple[tuple[int, int], EvalCase] | str:
    """Setting key and evaluated case, or why the directory is skipped: it
    could not be read, or its measure cannot take the ``family`` override."""
    path, cfg, family = args
    try:
        fault = read_fault(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable fault directory {path}: {type(exc).__name__}: {exc}"
    try:
        fault = replace(fault, snapshot=_with_family(fault.snapshot, family))
    except ValueError as exc:
        return f"fault directory {path} whose measure cannot take family {family}: {exc}"
    key = (fault.params.n_element, fault.params.cuboid_layer)
    return key, evaluate_fault(fault, cfg)


def find_fault_dirs(dataset_dir: str | Path) -> list[Path]:
    root = Path(dataset_dir)
    return sorted(p.parent for p in root.rglob("truth.json"))


def run_benchmark(
    dataset_dir: str | Path,
    cfg: LocalizeConfig | None = None,
    workers: int = 1,
    family_override: str | None = None,
) -> BenchmarkReport:
    """Evaluate every fault directory under ``dataset_dir``.

    Directories that cannot be read as faults, or whose measure cannot take
    ``family_override``, are skipped with a warning naming the reason, and
    counted; an error raised while localizing a fault propagates.  Results
    are aggregated in directory order, so reports are reproducible
    regardless of worker count.
    """
    cfg = cfg or LocalizeConfig()
    dirs = find_fault_dirs(dataset_dir)
    jobs = [(str(d), cfg, family_override) for d in dirs]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_dir, jobs, chunksize=4))
    else:
        results = [_eval_dir(job) for job in jobs]

    cases_by_setting: dict[tuple[int, int], list[EvalCase]] = {}
    all_cases: list[EvalCase] = []
    skipped = 0
    for res in results:
        if isinstance(res, str):
            warnings.warn(f"skipping {res}")
            skipped += 1
            continue
        key, case = res
        cases_by_setting.setdefault(key, []).append(case)
        all_cases.append(case)

    per_setting = {k: f1_score(v) for k, v in sorted(cases_by_setting.items())}
    overall = f1_score(all_cases) if all_cases else None
    macro = (
        sum(f1_score([c]) for c in all_cases) / len(all_cases) if all_cases else None
    )
    mean_elapsed = (
        sum(c.elapsed for c in all_cases) / len(all_cases) if all_cases else 0.0
    )
    return BenchmarkReport(
        per_setting=per_setting,
        overall_f1=overall,
        macro_f1=macro,
        exrc_f1=exrc_f1(all_cases),
        mean_elapsed=mean_elapsed,
        n_cases=len(all_cases),
        skipped=skipped,
    )
