"""One line per fixed snapshot: a digest of its report and its rounded verdict.

Run from the repository root:

    python3 tools/verdict_digest.py > change.txt
    python3 tools/verdict_digest.py --src /path/to/other/checkout/src > parent.txt
    diff parent.txt change.txt

The snapshots are the benchmark's seed-101 to 103 cases of every workload
(``bench/workloads.py``) and the faults of acceptance criteria 4 and 6
(``tests/test_acceptance.py``), 474 in all.  Each line holds the snapshot's
label, the sha256 of ``report_signature`` (raw gps included) and of the
``score_density`` bytes, the sha256 of stage 2's score mass, the sha256 of
stage 3's clusters, the sha256 of the snapshot and its groupings, and the
verdict with bounds and gps rounded to 1e-9: the first hash moves with any
bit of the report, the verdict only with what it states.  The score-mass
hash covers the ``ptr``, ``bins`` and ``mass`` arrays of
``leaf_distributions`` over every leaf of a Poisson snapshot, abnormal or
not, except those with no count and no forecast, so it moves with any bit
stage 2 computes; it reads ``-`` for other families.  The cluster hash
covers each cluster's ``lo_bin``, ``hi_bin``, ``bounds``, ``center``,
``mass`` and ``membership`` bytes from ``cluster_distributions`` over the
abnormal leaves that ``rootdrill.localize._abnormal`` picks for
``localize``, before the noise band drops any, so it moves with any bit
stage 3 computes; it reads ``-`` when no leaf is abnormal.  The snapshot
hash covers what the verdict reads of the parsed snapshot (attributes,
domains, codes, real and forecast columns)
and the ``group_codes``, ``group_of``, ``order`` and ``starts`` arrays of
every layer-1 and layer-2 cuboid, so it moves with any bit the reader or
the grouping computes.  ``rootdrill`` is
imported from ``--src`` (default: this checkout's ``src/``), so one copy of
the tool digests any checkout that keeps the same API, ``_abnormal``
included.  To compare against an older checkout without it, run that
checkout's own copy of the tool from a worktree of it:

    git worktree add ../parent <commit>
    (cd ../parent && python3 tools/verdict_digest.py) > parent.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEEDS = (101, 102, 103)


def verdict(report) -> list:
    """(bounds, combinations, cuboid, gps) per cluster, the external flag
    and the note, with bounds and gps rounded to 1e-9."""
    clusters = [
        [
            [round(float(b), 9) for b in r.bounds],
            [str(c) for c in r.candidate.combinations],
            str(r.candidate.cuboid),
            round(r.candidate.gps, 9),
        ]
        for r in report.per_cluster
    ]
    return [clusters, report.external_root_cause, report.note]


def score_mass_digest(snap) -> str:
    """sha256 of stage 2's score mass over the snapshot's leaves, or ``-``."""
    from rootdrill.cluster import leaf_distributions

    if snap.measure.distribution_family != "poisson":
        return "-"
    v, f = snap.leaf_values()
    some = v + f > 0.0
    mass = leaf_distributions(v[some], f[some], "poisson")
    h = hashlib.sha256()
    for a in (mass.ptr, mass.bins, mass.mass):
        h.update(a.tobytes())
    return h.hexdigest()


def cluster_digest(snap) -> str:
    """sha256 of stage 3's clusters over the abnormal leaves, or ``-``."""
    from rootdrill.cluster import cluster_distributions
    from rootdrill.localize import _abnormal

    _, _, scores = _abnormal(snap)
    if scores is None:
        return "-"
    h = hashlib.sha256()
    for c in cluster_distributions(scores):
        h.update(repr((c.lo_bin, c.hi_bin, c.bounds, c.center, c.mass)).encode())
        h.update(c.membership.tobytes())
    return h.hexdigest()


def snapshot_digest(snap) -> str:
    """sha256 of the snapshot's schema, codes and value columns, and of the
    grouping arrays of its layer-1 and layer-2 cuboids."""
    from rootdrill.data import cuboids_by_layer

    h = hashlib.sha256(repr([(a, snap.schema.domains[a]) for a in snap.schema.attributes]).encode())
    arrays = [snap.codes]
    for c in snap.measure.operands:
        arrays += [snap.real[c], snap.forecast[c]]
    for cuboid in cuboids_by_layer(snap.schema):
        if cuboid.layer <= 2:
            idx = snap.cuboid_index(cuboid)
            arrays += [idx.group_codes, idx.group_of, idx.order, idx.starts]
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest_line(label: str, snap, report, report_signature) -> str:
    h = hashlib.sha256(repr(report_signature(report)).encode())
    h.update(report.score_density.tobytes())
    return (
        f"{label} {h.hexdigest()} {score_mass_digest(snap)} {cluster_digest(snap)}"
        f" {snapshot_digest(snap)} {json.dumps(verdict(report))}"
    )


def bench_snapshots():
    """The benchmark's cases, as ``bench/run.py`` generates and parses them."""
    from workloads import WORKLOADS

    from rootdrill import parse_snapshot

    for name, w in WORKLOADS.items():
        for seed in BENCH_SEEDS:
            cases = w.generate(np.random.default_rng([seed, w.seed_salt]), w.n_cases)
            for i, case in enumerate(cases):
                yield f"bench/{name}/seed{seed}/{i:02d}", parse_snapshot(case.csv, case.measure)


def acceptance_snapshots():
    """The faults criteria 4 and 6 localize, drawn as the acceptance suite draws them."""
    from rootdrill import SimulationParams, eliminate_attributes, simulate_fault, synthetic_base

    base = synthetic_base(4, 10, mean_rate=50.0, seed=1234, family="poisson")

    def simulate(n_el, layer, rng):
        params = SimulationParams(n_el, layer, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
        return simulate_fault(base, params, rng)

    for n_el in (1, 2, 3):
        for layer in (1, 2, 3):
            for i in range(20):
                rng = np.random.default_rng(900_000 + 97 * i + 13 * n_el + layer)
                yield f"criterion4/n{n_el}-l{layer}/{i:02d}", simulate(n_el, layer, rng).snapshot
    all_attrs = ("A", "B", "C", "D")
    for k in (1, 2, 3):
        for n_el, layer in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for i in range(8):
                rng = np.random.default_rng(300_000 + 101 * i + 17 * n_el + 3 * layer + k)
                fault = simulate(n_el, layer, rng)
                truth_attrs = {a for c in fault.ground_truth for a in c.attributes}
                others = [a for a in all_attrs if a not in truth_attrs]
                if i % 2 == 0 and len(others) >= k:
                    victims = list(rng.choice(others, size=k, replace=False))
                else:
                    hit = sorted(truth_attrs)[int(rng.integers(len(truth_attrs)))]
                    rest = [a for a in all_attrs if a != hit]
                    victims = [hit] + list(rng.choice(rest, size=k - 1, replace=False))
                snap = eliminate_attributes(fault, victims).snapshot
                yield f"criterion6/k{k}-n{n_el}-l{layer}/{i}", snap


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding rootdrill")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]

    from summary import report_signature

    from rootdrill import localize

    for snapshots in (bench_snapshots(), acceptance_snapshots()):
        for label, snap in snapshots:
            print(digest_line(label, snap, localize(snap), report_signature), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
