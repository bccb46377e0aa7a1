"""Closed-loop benchmark of rootdrill's verdict path on planted-fault snapshots.

Run from the repository root:

    python3 bench/run.py --workload count-20k --seed 1 --seconds 20 --trace 0

The workload's snapshots are generated from the seed with rootdrill.simulate
and rendered to CSV text.  One caller in this process then times
``parse_snapshot`` + ``localize`` on each text in turn, starting the next
snapshot only once the previous report has returned, and checks every
report.  Whole passes over the snapshots repeat until the verdicts have
taken ``--seconds``, counted in host-speed scaled seconds (see hostspeed.py),
and each snapshot is timed by its fastest scaled verdict over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` verdicts every
snapshot twice, untraced and traced (see spans.py), and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every launch timed for setup_s
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from hostspeed import NOMINAL_S, Scaler
from spans import CUBOID_INDEX, Tracer, ancestor_named, root_of, self_times
from summary import (
    cause_repeat_ratio,
    combination_f1,
    flag_f1,
    percentile,
    repeat_cause_frac,
    report_problems,
    report_signature,
    samples_beyond,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 3


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing rootdrill, one at a time.

    Not scaled for host speed: the host-speed kernel runs in this process and
    tracked a child's start-up worse than the raw times vary.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import rootdrill"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """One caller verdicting the workload's snapshots, with every report checked."""

    def __init__(self, cases, tracer) -> None:
        from rootdrill import LocalizeConfig, localize, parse_snapshot

        self.cases = cases
        self.tracer = tracer
        self.cfg = LocalizeConfig()
        self._parse, self._localize = parse_snapshot, localize
        self.attempted = self.failed = 0
        self.first: dict[int, object] = {}  # case -> its first report

    def _verdict(self, case, traced: bool):
        if not traced:
            t0 = time.perf_counter()
            snap = self._parse(case.csv, case.measure)
            report = self._localize(snap, self.cfg)
            return time.perf_counter() - t0, snap, report
        tr = self.tracer
        with tr.installed(), tr.span("verdict") as root:
            with tr.span("data.parse"):
                snap = self._parse(case.csv, case.measure)
            with tr.span("localize.localize"):
                report = self._localize(snap, self.cfg)
        return root.end - root.start, snap, report

    def run(self, i: int, traced: bool = False) -> float | None:
        """Verdict case ``i``; its time, or None when it raised or failed a check."""
        self.attempted += 1
        try:
            dt, snap, report = self._verdict(self.cases[i], traced)
            problems = report_problems(report, snap, self.cfg.delta_exrc)
            sig = report_signature(report)
        except Exception:
            return self._fail(i, traceback.format_exc())
        if threading.active_count() > 1 or multiprocessing.active_children():
            # its work would slow the host-speed kernel and be credited to it
            problems.append("the verdict left a thread or a child process running")
        if i in self.first and sig != report_signature(self.first[i]):
            problems.append("report differs from this snapshot's first report")
        if problems:
            return self._fail(i, "; ".join(problems))
        self.first.setdefault(i, report)
        return dt

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        print(f"case {i} failed: {why}", file=sys.stderr)
        return None


def accuracy(loop: Loop) -> dict:
    pairs, flags = [], []
    for i, case in enumerate(loop.cases):
        rep = loop.first.get(i)  # a case that never verdicted predicted nothing
        pred = {c for group in rep.root_causes for c in group} if rep else set()
        pairs.append((pred, set(case.truth)))
        flags.append((bool(rep and rep.external_root_cause), case.external))
    reports = list(loop.first.values())
    return {
        "f1": combination_f1(pairs),
        "exrc_f1": flag_f1(flags),
        "flag_accuracy": sum(p == t for p, t in flags) / len(flags),
        "repeat_cause_frac": repeat_cause_frac(reports),
        "cause_repeat_ratio": cause_repeat_ratio(reports),
    }


def layer_metrics(tracer, cases, n_verdicts: int, overhead: float) -> dict:
    """Per-layer figures from the spans of the traced verdicts.

    Times are self times per traced verdict.  Counts cover the first traced
    pass, which holds every snapshot once, so they repeat exactly per seed.
    """
    spans = tracer.spans
    own = self_times(spans)
    busy: dict[str, float] = {}
    counts = dict.fromkeys(("abnormal_leaves", "score_terms", "clusters_found"), 0)
    searched = lookups = 0
    distinct_per_root: dict[int, set] = {}
    distinct_per_search: dict[int, set] = {}
    generate = 0.0
    for i, s in enumerate(spans):
        root = spans[root_of(spans, i)]
        if root.name == "simulate.generate":
            if s is root:
                generate = s.duration
            continue
        busy[s.name] = busy.get(s.name, 0.0) + own[i]
        if root.case[0] != 0:
            continue
        for k in counts:
            counts[k] += (s.info or {}).get(k, 0)
        if s.name == "localize.search":
            searched += 1
        elif s.name == CUBOID_INDEX:
            lookups += 1
            key = tuple(s.info["cuboid"])
            distinct_per_root.setdefault(id(root), set()).add(key)
            parent = ancestor_named(spans, i, "localize.search")
            if parent >= 0:
                distinct_per_search.setdefault(parent, set()).add(key)
    builds = sum(len(v) for v in distinct_per_root.values())
    visited = sum(len(v) for v in distinct_per_search.values())
    planted = sum(c.planted for c in cases)

    def per(name: str) -> float:
        return busy.get(name, 0.0) / n_verdicts

    return {
        "data.parse_s": (per("data.parse"), "s"),
        "data.cuboid_index_s": (per(CUBOID_INDEX), "s"),
        "cluster.knee_s": (per("cluster.knee"), "s"),
        "cluster.distributions_s": (per("cluster.distributions"), "s"),
        "cluster.clustering_s": (per("cluster.clustering"), "s"),
        "cluster.noise_band_s": (per("cluster.noise_band"), "s"),
        "localize.search_self_s": (per("localize.search"), "s"),
        "localize.pipeline_self_s": (per("localize.localize"), "s"),
        "simulate.generate_s": (generate / len(cases), "s"),
        "cluster.abnormal_leaves": (counts["abnormal_leaves"], "count"),
        "cluster.score_terms": (counts["score_terms"], "count"),
        "cluster.clusters_found": (counts["clusters_found"], "count"),
        "localize.clusters_searched": (searched, "count"),
        "cluster.clusters_per_cause": (searched / planted, "ratio"),
        "localize.cuboids_visited": (visited / searched if searched else 0.0, "count"),
        "data.cuboid_builds": (builds, "count"),
        "data.cuboid_lookups": (lookups, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rootdrill" / "__init__.py").is_file():
        print(f"error: rootdrill sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    traced = bool(args.trace)
    print(
        f"# workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={np.__version__} scipy={scipy.__version__}"
        f" OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1"
    )

    setup_s = None if traced else measure_setup()
    tracer = Tracer()
    rng = np.random.default_rng([args.seed, w.seed_salt])
    if traced:
        with tracer.installed(), tracer.span("simulate.generate"):
            cases = w.generate(rng, w.n_cases)
    else:
        cases = w.generate(rng, w.n_cases)

    loop = Loop(cases, tracer)
    loop.run(0)  # warm-up, untimed
    scaler = Scaler()
    best: dict[int, float] = {}  # case -> its fastest untraced verdict, scaled
    raw: dict[int, float] = {}  # the same verdict's time as measured
    traced_times, untraced_times = [], []
    passes = 0
    measured = 0.0  # scaled seconds of the untraced verdicts so far
    start = time.perf_counter()
    while True:
        for i in range(len(cases)):
            if traced:
                # alternate which of the pair runs first, so neither side
                # always finds the caches the other one warmed
                tracer.case = (passes, i)
                traced_first = i % 2 == 0
                a = loop.run(i, traced=traced_first)
                b = loop.run(i, traced=not traced_first)
                dt, dt_traced = (b, a) if traced_first else (a, b)
                if dt is not None and dt_traced is not None:
                    untraced_times.append(dt)
                    traced_times.append(dt_traced)
            else:
                dt = loop.run(i)
                scaled = scaler.scale(dt)
                if dt is not None:
                    measured += scaled
                    if scaled < best.get(i, scaled + 1):
                        best[i], raw[i] = scaled, dt
        passes += 1
        # untraced runs count scaled seconds, so that the number of passes,
        # and with it each snapshot's best of them, does not follow the host's
        # speed; the wall-clock cap ends a run whose verdicts all fail
        wall = time.perf_counter() - start
        if (wall if traced else measured) >= args.seconds or wall >= 3 * args.seconds:
            break

    attempted, failed = loop.attempted, loop.failed
    shape = f"{len(traced_times)} untraced/traced pairs" if traced else (
        f"each snapshot timed by its fastest scaled verdict, {len(best)} timed"
    )
    print(
        f"# closed loop, 1 caller: {len(cases)} snapshots x {passes} passes,"
        f" {attempted} verdicts attempted, {failed} failed; {shape}"
    )
    if traced:
        overhead = sum(traced_times) / sum(untraced_times) - 1.0 if traced_times else 0.0
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
        table = layer_metrics(tracer, cases, len(traced_times) or 1, overhead)
    else:
        acc = accuracy(loop)
        times = list(best.values())
        pct = tail_percentile(len(cases))
        leaves = sum(cases[i].n_leaves for i in best)
        error_frac = failed / attempted
        table = {
            "verdict_p50_s": (statistics.median(times) if times else 0.0, "s"),
            "verdict_tail_s": (percentile(times, pct) if times else 0.0, "s"),
            "leaves_per_s": (leaves / sum(times) if times else 0.0, "1/s"),
            "f1": (acc["f1"], "ratio"),
            "flag_accuracy": (acc["flag_accuracy"], "ratio"),
            "cause_repeat_ratio": (acc["cause_repeat_ratio"], "ratio"),
            "ok_frac": (1.0 - error_frac, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"# verdict_tail_s is p{pct}: {samples_beyond(len(times), pct)} snapshots beyond it")
        print(
            f"# host speed: reference kernel median {statistics.median(scaler.kernel_times):.6g} s"
            f" against {NOMINAL_S:g} s nominal; as measured, verdict_p50_s"
            f" {statistics.median(raw.values()) if raw else 0.0:.6g} s"
        )
        print(f"# error_frac {error_frac:.6g} ratio")
        print(f"# repeat_cause_frac {acc['repeat_cause_frac']:.6g} ratio")
        if acc["exrc_f1"] is not None:
            print(f"# exrc_f1 {acc['exrc_f1']:.6g} ratio")
    for name, (value, unit) in table.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
