"""``tools/verdict_digest.py`` shows reports unchanged between two trees.

Each of its lines must be the same on every run of the same tree, its
stage-2 column must hash the score mass of every leaf of a Poisson snapshot,
its stage-3 column the clusters of the abnormal leaves, and its snapshot
column what the verdict reads of the snapshot and the groupings of its
layer-1 and layer-2 cuboids.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rootdrill import (
    SimulationParams,
    localize,
    parse_snapshot,
    simulate_fault,
    synthetic_base,
)
from rootdrill.cluster import cluster_distributions, leaf_distributions
from rootdrill.data import Cuboid
from rootdrill.localize import _abnormal

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from summary import report_signature  # noqa: E402
from verdict_digest import digest_line  # noqa: E402


def digest_columns(snap):
    """The digest line of a fresh verdict, split into its six columns."""
    line = digest_line("case", snap, localize(snap), report_signature)
    assert line == digest_line("case", snap, localize(snap), report_signature)
    return line.split(" ", 5)


def poisson_fault():
    base = synthetic_base(n_attrs=3, n_values=6, seed=42, family="poisson")
    params = SimulationParams(1, 1, base_noise_sigma=0.05, leaf_noise_sigma=0.05)
    return simulate_fault(base, params, np.random.default_rng(7)).snapshot


def test_a_snapshot_of_another_family_has_no_stage2_column(province_snapshot):
    label, report_hash, stage2, stage3, snapshot_hash, verdict = digest_columns(province_snapshot)
    assert label == "case"
    assert len(report_hash) == 64 and len(stage3) == 64 and len(snapshot_hash) == 64
    assert stage2 == "-"
    clusters, _, _ = json.loads(verdict)
    assert clusters[0][1] == ["Province=Beijing"]


def test_the_stage2_column_hashes_every_leafs_score_mass():
    snap = poisson_fault()
    v, f = snap.leaf_values()
    assert np.all(v + f > 0.0)
    mass = leaf_distributions(v, f, "poisson")
    want = hashlib.sha256(mass.ptr.tobytes() + mass.bins.tobytes() + mass.mass.tobytes())
    assert digest_columns(snap)[2] == want.hexdigest()


def test_the_stage3_column_hashes_every_cluster_of_the_abnormal_leaves():
    snap = poisson_fault()
    _, abnormal, scores = _abnormal(snap)
    clusters = cluster_distributions(scores)
    assert clusters
    want = hashlib.sha256()
    for c in clusters:
        assert c.membership.shape == abnormal.shape
        fields = (c.lo_bin, c.hi_bin, c.bounds, c.center, c.mass)
        want.update(repr(fields).encode() + c.membership.tobytes())
    assert digest_columns(snap)[3] == want.hexdigest()


def test_a_snapshot_without_abnormal_leaves_has_no_stage3_column():
    snap = parse_snapshot("a,real,predict\nx,5,5\ny,7,7\nz,9,9\n")
    assert digest_columns(snap)[3] == "-"


def test_the_snapshot_column_hashes_the_parsed_table_and_its_groupings(province_snapshot):
    snap = province_snapshot
    h = hashlib.sha256(repr([(a, snap.schema.domains[a]) for a in snap.schema.attributes]).encode())
    arrays = [snap.codes, snap.real["value"], snap.forecast["value"]]
    # the province snapshot has two attributes: two layer-1 cuboids, one layer-2
    for attrs in (("ISP",), ("Province",), ("ISP", "Province")):
        idx = snap.cuboid_index(Cuboid(attrs))
        arrays += [idx.group_codes, idx.group_of, idx.order, idx.starts]
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())
    assert digest_columns(snap)[4] == h.hexdigest()
