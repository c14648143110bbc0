"""Workloads, timed passes and metrics of the modroute benchmark.

A run sets its workload up at least ``SETUP_REPEATS`` times, then repeats full passes
over the same inputs until ``seconds`` of wall time have gone by. Every
pass is checked (see ``checks``) and must give the same digest. Route
quality comes from the first pass, so it does not depend on how many passes
fit. Timings are normalised to a reference machine speed (see ``speed``).
With tracing on, untraced and traced passes alternate instead, and the
result holds per-layer numbers in raw time.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from modroute import BatchConfig, ForceParams, Graph, Mission, MissionResult, PathCache
from modroute import engine, experiments

import checks
from speed import SpeedMeter, clock
from tracing import LAYERS, Tracer, patched

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds, so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# Mission i of a run with seed s is generated from seed s * SEED_STRIDE + i.
SEED_STRIDE = 1000
PARAMS = ForceParams()  # alpha 0.5, beta 1, k 5
FORCE, BASELINE = "force_based", "nonmodular"
SPAN_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "setup_s": "s",
    "missions_per_s": "1/s",
    "step_mean_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "mean_cost": "cost",
    "mean_steps": "steps",
    "completed_frac": "ratio",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "paths.PathCache.k_shortest.hit_ratio": "ratio",
    "paths.PathCache.distances.hit_ratio": "ratio",
    "engine.compute_edge_forces.queries_per_call": "count",
    "engine.resolve_waits.waits": "count",
    "trace.untraced_wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs. ``kind`` selects how a pass drives modroute:

    * ``missions``: ``run_mission`` with a fresh PathCache per mission, as
      ``modroute run`` does;
    * ``batch``: ``run_batch`` (router and baseline) over each consecutive
      ``trials`` missions, each call with its own fresh PathCache;
    * ``replay``: every mission under every (alpha, beta) of ``sweep``,
      through one shared PathCache that set-up fills with an identical pass.

    ``step_cap``, when set, is passed as ``max_steps`` to every run,
    including the ones ``run_batch`` makes.
    """

    name: str
    kind: str
    grid: int
    agents: int
    missions: int
    trials: int = 0
    sweep: tuple[float, ...] = ()
    step_cap: int | None = None

    @property
    def targets(self) -> int:
        return 2 * self.agents


# Completed 8x8 runs take at most about 45 steps. Some runs orbit until the
# step cap instead, a known defect: on replay-8x8-warm, half of seeds 1-10
# have such a run, and on batch-8x8 seeds 5 and 10 have one. With the
# default cap of 4*m**2 = 16384 steps one such run outweighs the whole rest
# of a pass, so the 8x8 workloads cap runs at 4*m. Every run that ends
# within 256 steps is unchanged by this; an orbiting one still shows as not
# completed.
STEP_CAP_8X8 = 4 * 8 * 8

WORKLOADS = {w.name: w for w in (
    Workload("mission-24x24", "missions", grid=24, agents=8, missions=3),
    Workload("batch-8x8", "batch", grid=8, agents=5, missions=500, trials=100, step_cap=STEP_CAP_8X8),
    Workload("replay-8x8-warm", "replay", grid=8, agents=5, missions=80,
             sweep=experiments.DEFAULT_SWEEP_GRID, step_cap=STEP_CAP_8X8),
)}


@dataclass
class Prepared:
    """A workload's inputs: the graph, its missions with their run seeds."""

    graph: Graph
    missions: list[tuple[Mission, int]]
    cache: PathCache | None = None
    batches: list[tuple[BatchConfig, list[Mission]]] = field(default_factory=list)


@dataclass
class PassResult:
    """One checked pass: normalised unit and step times, results, counts and the output digest."""

    unit_s: list[float]
    step_s: list[float]
    results: list[tuple[str, MissionResult]]
    force_runs: int
    attempted: int
    failed: int
    digest: str
    errors: list[str] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        return sum(self.unit_s)


def build(w: Workload, seed: int) -> Prepared:
    """Graph and missions, all derived from ``seed``."""
    graph = experiments.make_grid_graph(w.grid, w.grid, seed=seed)
    base = seed * SEED_STRIDE
    missions = [
        (experiments.generate_random_mission(graph, w.agents, w.targets, base + i), base + i)
        for i in range(w.missions)
    ]
    prep = Prepared(graph, missions)
    if w.kind == "batch":
        prep.batches = [
            (BatchConfig(graph, w.agents, w.targets, trials=w.trials, params=PARAMS, base_seed=base + first),
             [m for m, _ in missions[first:first + w.trials]])
            for first in range(0, w.missions, w.trials)
        ]
    return prep


def setup(w: Workload, seed: int, meter: SpeedMeter) -> Prepared:
    """Build the inputs and, for a replay, fill its cache, as units of ``meter``."""
    t0 = clock()
    prep = build(w, seed)
    meter.add_unit(clock() - t0)
    if w.kind == "replay":
        prep.cache = PathCache(prep.graph)
        _drive(w, prep, meter)
    return prep


def _recording(method: str, results: list, meter: SpeedMeter, step_cap: int | None):
    def wrap(fn):
        def record(mission, *args, **kwargs):
            if step_cap is not None:
                kwargs["max_steps"] = step_cap
            t0 = clock()
            try:
                result = fn(mission, *args, **kwargs)
            finally:
                meter.add_unit(clock() - t0)
            results.append((method, mission, result))
            return result
        return record
    return wrap


def _drive(w: Workload, prep: Prepared, meter: SpeedMeter) -> tuple[list[tuple[str, Mission, MissionResult]], int, list[str]]:
    """One pass: (results, runs attempted, errors raised).

    A unit is one ``run_mission`` or baseline call, timed where modroute
    makes it; the last unit is the rest of the pass's CPU time, less the
    meter's probes.
    """
    results: list[tuple[str, Mission, MissionResult]] = []
    errors: list[str] = []
    first_unit, probing_s = len(meter.unit_s), meter.probing_s
    t0 = clock()
    if w.kind == "batch":
        attempted = 2 * len(prep.missions)
        with patched(experiments, "run_mission", _recording(FORCE, results, meter, w.step_cap)), \
                patched(experiments, "run_nonmodular_baseline", _recording(BASELINE, results, meter, w.step_cap)):
            for config, chunk in prep.batches:
                try:
                    experiments.run_batch(config, missions=chunk)
                except Exception:
                    errors.append(traceback.format_exc())
    else:
        cells = [ForceParams(a, b, PARAMS.k) for a in w.sweep for b in w.sweep] or [PARAMS]
        attempted = len(cells) * len(prep.missions)
        run_mission = _recording(FORCE, results, meter, w.step_cap)(engine.run_mission)
        for params in cells:
            for mission, run_seed in prep.missions:
                try:
                    run_mission(mission, params, seed=run_seed, cache=prep.cache)
                except Exception:
                    errors.append(traceback.format_exc())
    elapsed = clock() - t0 - (meter.probing_s - probing_s)
    meter.add_unit(elapsed - sum(meter.unit_s[first_unit:]))
    return results, attempted, errors


def run_pass(w: Workload, prep: Prepared, meter: SpeedMeter) -> PassResult:
    """Time one pass on a fresh ``meter``, then check every result outside the timed region."""
    raw, attempted, errors = _drive(w, prep, meter)
    unit_s, step_s = meter.close()
    bad = sum(1 for _, mission, result in raw if checks.violations(mission, result))
    results = [(method, result) for method, _, result in raw]
    force_runs = sum(1 for method, _ in results if method == FORCE)
    failed = attempted - len(raw) + bad
    return PassResult(unit_s, step_s, results, force_runs, attempted, failed,
                      checks.digest(results), errors)


def _step_timer(meters: list[SpeedMeter]):
    """Wrap ``engine.step`` to record each call's latency with the current pass's meter."""
    def wrap(fn):
        def timed_step(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            meters[-1].add_step(clock() - t0)
            return out
        return timed_step
    return wrap


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of 90, 99, 99.9 that still has at least ten samples beyond it."""
    return max((p for p in (90.0, 99.0, 99.9) if n * (1 - p / 100) >= 10), default=50.0)


def _quality(first: PassResult) -> dict[str, float]:
    """Router quality; means cover completed runs only, as in ``run_batch``."""
    force = [r for method, r in first.results if method == FORCE]
    done = [r for r in force if r.completed]
    return {
        "mean_cost": statistics.fmean(r.total_cost for r in done) if done else 0.0,
        "mean_steps": statistics.fmean(r.steps_taken for r in done) if done else 0.0,
        "completed_frac": len(done) / len(force) if force else 0.0,
    }


def measure(w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    Timings are normalised to the reference speed and pooled over all
    passes: ``missions_per_s`` is force missions over normalised time, and
    the step figures come from every step of every pass. Unlike a median
    over passes, a pooled figure does not shift with the number of passes
    that fit in ``seconds``.
    """
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        meter = SpeedMeter()
        prep = setup(w, seed, meter)
        setup_s.append(sum(meter.close()[0]))
    meters: list[SpeedMeter] = []
    passes: list[PassResult] = []
    quality: dict[str, float] = {}
    start = perf_counter()
    with patched(engine, "step", _step_timer(meters)):
        while not passes or perf_counter() - start < seconds:
            meters.append(SpeedMeter())
            passes.append(run_pass(w, prep, meters[-1]))
            if len(passes) == 1:
                quality = _quality(passes[0])
            passes[-1].results = []
    steps = sorted(s for p in passes for s in p.step_s) or [0.0]
    tail = tail_percentile(len(passes[0].step_s))

    def step_ms(p: float) -> float:
        return percentile(steps, p) * 1e3

    metrics = {
        "setup_s": statistics.median(setup_s),
        "missions_per_s": sum(p.force_runs for p in passes) / sum(p.time_s for p in passes),
        "step_mean_ms": statistics.fmean(steps) * 1e3,
        "step_p90_ms": step_ms(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality,
    }
    probes = sorted(s for m in meters for s in m.probe_s)
    detail = {"digest": passes[0].digest, "passes": len(passes), "pass_s": [p.time_s for p in passes],
              "reference_ms": {q: percentile(probes, q) * 1e3 for q in (10, 50, 90)},
              "setup_runs": len(setup_s), "steps_per_pass": len(passes[0].step_s),
              "step_p50_ms": step_ms(50), f"step_p{tail:g}_ms": step_ms(tail), **quality}
    return _report(passes, metrics, END_TO_END), detail


def measure_traced(w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced passes alternate on one set-up."""
    build_tracer = Tracer()
    with build_tracer.installed():
        prep = build(w, seed)
    if w.kind == "replay":
        prep.cache = PathCache(prep.graph)
        _drive(w, prep, SpeedMeter(normalise=False))
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    summaries: list[dict[str, float]] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(run_pass(w, prep, SpeedMeter(normalise=False)))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(w, prep, SpeedMeter(normalise=False)))
        summaries.append(tracer.summary())
        untraced[-1].results = traced[-1].results = []

    built = build_tracer.summary()
    layer = {k: v + statistics.median(s[k] for s in summaries) for k, v in built.items()}
    ks, dist = layer["paths.PathCache.k_shortest.calls"], layer["paths.PathCache.distances.calls"]
    forces = layer["engine.compute_edge_forces.calls"]
    layer["paths.PathCache.k_shortest.hit_ratio"] = 1 - layer["paths.yen_k_shortest.calls"] / ks if ks else 0.0
    layer["paths.PathCache.distances.hit_ratio"] = 1 - layer["paths.dijkstra.calls"] / dist if dist else 0.0
    queries = layer.pop("engine.compute_edge_forces.queries")
    layer["engine.compute_edge_forces.queries_per_call"] = queries / forces if forces else 0.0
    layer["trace.untraced_wall_s"] = statistics.median(p.time_s for p in untraced)
    layer["trace.wall_s"] = statistics.median(p.time_s for p in traced)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]

    spans = SPAN_DIR / f"spans-{w.name}-seed{seed}.tsv.gz"
    build_tracer.write(spans, "build")
    tracer.write(spans, "pass", mode="a")
    detail = {"digest": untraced[0].digest, "spans_file": os.path.relpath(spans),
              "traced_digest_matches": {p.digest for p in traced} == {p.digest for p in untraced}}
    return _report(untraced + traced, layer, PER_LAYER), detail


def _report(passes: list[PassResult], metrics: dict[str, float], units: dict[str, str]) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for error in dict.fromkeys(e for p in passes for e in p.errors[:1]):
        print(error, file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0 and len({p.digest for p in passes}) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, detail) of one benchmark run; see the module docstring."""
    report, detail = (measure_traced if trace else measure)(w, seed, seconds)
    detail = {"workload": w.name, "seed": seed, "trace": int(trace),
              "failed_frac": report["failed"] / report["attempted"] if report["attempted"] else 1.0,
              **detail}
    return report, detail
