"""Span tracing for the benchmark's traced run.

Each layer function is wrapped at every module attribute modroute looks it
up by, so calls made inside the package are seen, not just the
benchmark's own. A span is (name, start, end, parent). Spans are kept in
flat arrays while the run lasts and written out once, at the end.

modroute is single-threaded, with no queues and no I/O, so a span's time is
all busy time: no layer has time spent waiting.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from array import array
from pathlib import Path
from time import perf_counter

from modroute import baselines, engine, experiments, paths

# Span name -> the (owner, attribute) sites it is looked up by.
LAYER_SITES: dict[str, tuple[tuple[object, str], ...]] = {
    "experiments.run_batch": ((experiments, "run_batch"),),
    "experiments.generate_random_mission": ((experiments, "generate_random_mission"),),
    "graph.validate": ((engine, "validate"), (baselines, "validate"), (experiments, "validate")),
    "engine.run_mission": ((engine, "run_mission"), (experiments, "run_mission")),
    "engine.step": ((engine, "step"),),
    "engine.assign_targets": ((engine, "assign_targets"), (baselines, "assign_targets")),
    "engine.compute_edge_forces": ((engine, "compute_edge_forces"),),
    "engine.select_edge": ((engine, "select_edge"),),
    "engine.resolve_waits": ((engine, "resolve_waits"),),
    "baselines.run_nonmodular_baseline": (
        (baselines, "run_nonmodular_baseline"), (experiments, "run_nonmodular_baseline"),
    ),
    "paths.PathCache.k_shortest": ((paths.PathCache, "k_shortest"),),
    "paths.PathCache.distances": ((paths.PathCache, "distances"),),
    "paths.yen_k_shortest": ((paths, "yen_k_shortest"),),
    "paths.dijkstra": ((paths, "dijkstra"),),
}
LAYERS = tuple(LAYER_SITES)


@contextlib.contextmanager
def patched(owner, attr: str, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` for the block's duration."""
    original = vars(owner)[attr]
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records one span per call of every layer function while installed."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.waits = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _wrap_resolve_waits(self, fn):
        traced = self._wrap("engine.resolve_waits", fn)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            intents = traced(*args, **kwargs)
            self.waits += sum(1 for intent in intents if intent.waiting)
            return intents

        return counting

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer site while the block runs."""
        with contextlib.ExitStack() as stack:
            for name, sites in LAYER_SITES.items():
                for owner, attr in sites:
                    if name == "engine.resolve_waits":
                        wrap = self._wrap_resolve_waits
                    else:
                        wrap = functools.partial(self._wrap, name)
                    stack.enter_context(patched(owner, attr, wrap))
            yield self

    def summary(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over every recorded span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[self.name_id[i]] += 1
            self_s[self.name_id[i]] += dur[i] - child[i]
        ids = {name: i for i, name in enumerate(self.names)}
        forces, k_shortest = ids["engine.compute_edge_forces"], ids["paths.PathCache.k_shortest"]
        force_queries = sum(
            1 for i in range(n)
            if self.name_id[i] == k_shortest and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == forces
        )
        out: dict[str, float] = {}
        for name, i in ids.items():
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        out["engine.compute_edge_forces.queries"] = force_queries
        out["engine.resolve_waits.waits"] = self.waits
        return out

    def write(self, path: Path, phase: str, mode: str = "w") -> None:
        """Append this tracer's spans to a gzip TSV file (one row a span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, mode + "t", compresslevel=1, encoding="ascii") as handle:
            if mode == "w":
                handle.write("phase\tspan\tname\tstart\tend\tparent\n")
            handle.writelines(
                f"{phase}\t{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                for i in range(len(self.start))
            )
