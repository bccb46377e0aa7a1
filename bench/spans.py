"""Span recording around calls into rootdrill's layers, for the traced run.

The program itself is not instrumented.  Instead, while a traced verdict
runs, selected module-level names are swapped for wrappers that record a
span (name, start, end, parent, case) per call, plus a few exact counts
taken from the call's arguments and result.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# names looked up by rootdrill.localize.localize at call time
LOCALIZE_NAMES = {
    "knee_threshold": "cluster.knee",
    "leaf_distributions": "cluster.distributions",
    "weighted_quantile": "cluster.noise_band",
    "cluster_distributions": "cluster.clustering",
    "localize_cluster": "localize.search",
}
CUBOID_INDEX = "data.cuboid_index"


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "info")

    def __init__(self, name, start, end=None, parent=-1, case=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.case = case
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case = None  # tag stamped on every span opened from now on
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), parent=parent, case=self.case)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, describe=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if describe is not None:
                    s.info = describe(args, out)
                return out

        return traced

    @contextmanager
    def installed(self):
        """Swap the traced names in, and restore the originals on exit."""
        mod = importlib.import_module("rootdrill.localize")
        snapshot_cls = importlib.import_module("rootdrill.data").Snapshot
        saved = {n: getattr(mod, n) for n in LOCALIZE_NAMES}
        saved_index = snapshot_cls.cuboid_index
        describe = {
            "leaf_distributions": lambda a, out: {
                "abnormal_leaves": len(out),
                "score_terms": sum(int(d.bins.size) for d in out),
            },
            "cluster_distributions": lambda a, out: {"clusters_found": len(out)},
        }
        for n, span_name in LOCALIZE_NAMES.items():
            setattr(mod, n, self._wrap(span_name, saved[n], describe.get(n)))
        snapshot_cls.cuboid_index = self._wrap(
            CUBOID_INDEX, saved_index, lambda a, out: {"cuboid": list(a[1].attrs)}
        )
        try:
            yield self
        finally:
            for n, fn in saved.items():
                setattr(mod, n, fn)
            snapshot_cls.cuboid_index = saved_index

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.case, s.info]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def ancestor_named(spans: list[Span], i: int, name: str) -> int:
    """Index of the nearest ancestor of span ``i`` called ``name``, or -1."""
    i = spans[i].parent
    while i >= 0 and spans[i].name != name:
        i = spans[i].parent
    return i
