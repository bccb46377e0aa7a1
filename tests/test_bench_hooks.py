"""The traced benchmark run (``bench/run.py --trace 1``) wraps pipeline names.

A verdict under its tracer must record a span for every wrapped stage, and
the stage-2 counts it takes must match the stage-2 value itself.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from rootdrill import SimulationParams, localize, simulate_fault, synthetic_base

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import LOCALIZE_NAMES, Tracer  # noqa: E402

localize_mod = importlib.import_module("rootdrill.localize")


def test_traced_verdict_records_every_stage(monkeypatch):
    base = synthetic_base(n_attrs=3, n_values=6, seed=42, family="poisson")
    params = SimulationParams(2, 1, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
    snap = simulate_fault(base, params, np.random.default_rng(102)).snapshot
    stage2 = localize_mod.leaf_distributions
    out = []
    monkeypatch.setattr(
        localize_mod, "leaf_distributions", lambda *a: out.append(stage2(*a)) or out[-1]
    )

    tracer = Tracer()
    with tracer.installed():
        report = localize(snap)

    assert report.per_cluster
    recorded = {s.name for s in tracer.spans}
    assert set(LOCALIZE_NAMES.values()) <= recorded
    (span,) = [s for s in tracer.spans if s.name == LOCALIZE_NAMES["leaf_distributions"]]
    (scores,) = out
    assert span.info == {"abnormal_leaves": len(scores), "score_terms": scores.bins.size}
    assert scores.bins.size == scores.ptr[-1] > len(scores) > 0
