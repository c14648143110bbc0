"""Batch experiments: random missions, method comparisons, parameter sweeps.

Everything here is a deterministic function of its seeds, so CSV output is
byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import statistics
from dataclasses import dataclass, field, replace

from .baselines import run_nonmodular_baseline
from .engine import ForceParams, run_mission
from .graph import Graph, InfeasibleMissionError, Mission, validate
from .paths import PathCache

FORCE_BASED = "force_based"
NONMODULAR = "nonmodular"
METHODS = (FORCE_BASED, NONMODULAR)

BATCH_COLUMNS = (
    "trial", "seed", "method", "n_agents", "n_targets",
    "alpha", "beta", "k", "total_cost", "steps", "completed",
)
SWEEP_COLUMNS = (
    "alpha", "beta", "trial", "seed", "mission_hash", "total_cost", "steps", "completed",
)

DEFAULT_SWEEP_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def make_grid_graph(width: int, height: int, seed: int = 0) -> Graph:
    """4-connected grid with seeded, perturbed positive weights.

    Each lattice edge gets one weight drawn uniformly from [0.5, 1.5) and
    is stored in both directions. Node labels carry "x,y" coordinates.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    rng = random.Random(seed)
    m = width * height
    labels = {y * width + x: f"{x},{y}" for y in range(height) for x in range(width)}
    edges: list[tuple[int, int, float]] = []
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                w = rng.uniform(0.5, 1.5)
                edges.append((node, node + 1, w))
                edges.append((node + 1, node, w))
            if y + 1 < height:
                w = rng.uniform(0.5, 1.5)
                edges.append((node, node + width, w))
                edges.append((node + width, node, w))
    return Graph(m, edges, labels)


def generate_random_mission(
    graph: Graph,
    n: int,
    n_targets: int,
    seed: int,
    start_pool: list[int] | None = None,
) -> Mission:
    """Sample a feasible mission as a deterministic function of the seed.

    Starts and targets are drawn without replacement (targets never sit on
    a start node). Infeasible draws are rejected and resampled up to 100
    times. ``start_pool`` restricts where starts may be placed, e.g. to a
    fixed set of depot nodes; it must hold at least n distinct nodes of
    the graph, or ValueError is raised.
    """
    m = graph.node_count
    if n < 1 or n_targets < 1:
        raise ValueError("need at least one agent and one target")
    if n + n_targets > m:
        raise ValueError(f"cannot place {n} starts and {n_targets} distinct targets on {m} nodes")
    pool = None
    if start_pool is not None:
        for node in start_pool:
            if graph.node_problem(node):
                raise ValueError(f"start pool node {node!r} is not a node of the graph [0,{m})")
        pool = sorted(start_pool)
        for a, b in zip(pool, pool[1:]):
            if a == b:
                raise ValueError(f"start pool repeats node {a}")
        if len(pool) < n:
            raise ValueError(f"start pool has {len(pool)} nodes, need {n}")
    rng = random.Random(seed)
    for _ in range(100):
        if pool is None:
            sample = rng.sample(range(m), n + n_targets)
            starts, targets = sample[:n], sample[n:]
        else:
            starts = rng.sample(pool, n)
            remaining = sorted(set(range(m)).difference(starts))  # m - n >= n_targets nodes
            targets = rng.sample(remaining, n_targets)
        mission = Mission(graph, tuple(starts), frozenset(targets))
        if not validate(mission):
            return mission
    raise InfeasibleMissionError(
        f"no feasible mission found after 100 resamples (n={n}, n_targets={n_targets}, seed={seed})"
    )


def mission_hash(mission: Mission) -> str:
    """Stable short digest of (graph edges, starts, targets)."""
    payload = io.StringIO()
    payload.write(repr(mission.graph.edges()))
    payload.write(repr(tuple(mission.starts)))
    payload.write(repr(sorted(mission.targets)))
    return hashlib.sha256(payload.getvalue().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class BatchConfig:
    """One experiment: n agents, defaults to 2n targets, 100 trials.

    ``run_batch`` and ``sensitivity_sweep`` both run ``missions()``, each
    trial with ``trial_seed(trial)``. ``max_steps`` is the step cap of
    every run (the methods' default when None).
    """

    graph: Graph
    n_agents: int
    n_targets: int | None = None
    trials: int = 100
    params: ForceParams = field(default_factory=ForceParams)
    base_seed: int = 0
    start_pool: tuple[int, ...] | None = None
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.n_targets is None:
            object.__setattr__(self, "n_targets", 2 * self.n_agents)

    def trial_seed(self, trial: int) -> int:
        return self.base_seed + trial

    def missions(self) -> list[Mission]:
        """One mission per trial, drawn from its trial seed and the start pool."""
        return [
            generate_random_mission(
                self.graph, self.n_agents, self.n_targets, self.trial_seed(trial),
                start_pool=None if self.start_pool is None else list(self.start_pool),
            )
            for trial in range(self.trials)
        ]


@dataclass(frozen=True)
class BatchResult:
    """Per-trial rows plus per-method aggregates.

    Aggregates cover completed runs only. ``best_frequency`` is the percent
    of trials each method achieved the lowest cost, ties awarded to all
    tied methods, so the column can sum past 100.
    """

    rows: tuple[dict, ...]
    mean_cost: dict[str, float]
    variance_cost: dict[str, float]
    best_frequency: dict[str, float]


def _write_csv(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def run_batch(
    config: BatchConfig,
    out_path: str | None = None,
    missions: list[Mission] | None = None,
) -> BatchResult:
    """Compare the force-based router and the non-modular baseline.

    Both methods run on the identical mission in every trial. The missions
    are ``config.missions()`` unless an explicit list is supplied (the list
    length must then match ``trials``, every mission's graph must have
    ``config.graph``'s edges and weights, and its agent and target counts
    must be ``n_agents`` and ``n_targets``). A run that aborts on the step
    cap is recorded with ``completed=False`` and never counts as best.
    """
    if missions is None:
        missions = config.missions()
    else:
        if len(missions) != config.trials:
            raise ValueError("explicit mission list must match the trial count")
        for trial, mission in enumerate(missions):
            if not mission.graph.same_edges(config.graph):
                raise ValueError(f"mission {trial} is on another graph than the batch config's")
            if (len(mission.starts), len(mission.targets)) != (config.n_agents, config.n_targets):
                raise ValueError(f"mission {trial} does not have the batch config's "
                                 f"{config.n_agents} agents and {config.n_targets} targets")
    cache = PathCache(config.graph)
    rows: list[dict] = []
    costs: dict[str, list[float]] = {m: [] for m in METHODS}
    wins: dict[str, int] = {m: 0 for m in METHODS}
    for trial, mission in enumerate(missions):
        seed = config.trial_seed(trial)
        results = {
            FORCE_BASED: run_mission(mission, config.params, seed=seed, cache=cache,
                                     max_steps=config.max_steps),
            NONMODULAR: run_nonmodular_baseline(mission, cache=cache, max_steps=config.max_steps),
        }
        for method in METHODS:
            res = results[method]
            rows.append({
                "trial": trial,
                "seed": seed,
                "method": method,
                "n_agents": config.n_agents,
                "n_targets": config.n_targets,
                "alpha": config.params.alpha,
                "beta": config.params.beta,
                "k": config.params.k,
                "total_cost": res.total_cost,
                "steps": res.steps_taken,
                "completed": res.completed,
            })
            if res.completed:
                costs[method].append(res.total_cost)
        comparable = {m: r.total_cost for m, r in results.items() if r.completed}
        if comparable:
            best = min(comparable.values())
            for method, cost in comparable.items():
                if cost == best:
                    wins[method] += 1

    result = BatchResult(
        rows=tuple(rows),
        mean_cost={m: statistics.fmean(costs[m]) if costs[m] else math.inf for m in METHODS},
        variance_cost={
            m: (statistics.pvariance(costs[m]) if len(costs[m]) > 1 else 0.0) if costs[m] else math.inf
            for m in METHODS
        },
        best_frequency={m: 100.0 * wins[m] / config.trials for m in METHODS},
    )
    if out_path is not None:
        _write_csv(out_path, BATCH_COLUMNS, rows)
    return result


@dataclass(frozen=True)
class SweepResult:
    """Mean cost and normalized score per (alpha, beta) cell.

    The score is ``best_mean / cell_mean`` so the lowest-mean cell scores
    exactly 1 and worse cells fall toward 0. Cells containing any aborted
    run get an infinite mean and a zero score.
    """

    rows: tuple[dict, ...]
    mean_cost: dict[tuple[float, float], float]
    score: dict[tuple[float, float], float]


def sensitivity_sweep(
    config: BatchConfig,
    alpha_grid: list[float],
    beta_grid: list[float],
    out_path: str | None = None,
) -> SweepResult:
    """Mean mission cost per (alpha, beta) over ``config.missions()``.

    Every cell runs the exact same missions with the exact same per-trial
    seeds and step cap, and ``config.params`` with only alpha and beta
    replaced, so differences isolate the parameter pair. Each output row
    logs the mission hash as evidence of the sharing. A value that appears
    twice in a grid raises ValueError, and so does a cell whose parameters
    ``ForceParams`` rejects; both before the first run.
    """
    if not alpha_grid or not beta_grid:
        raise ValueError("alpha and beta grids must be non-empty")
    for name, grid in (("alpha", alpha_grid), ("beta", beta_grid)):
        for i, value in enumerate(grid):
            if value in grid[:i]:
                raise ValueError(f"{name} grid repeats the value {value}")
    cells = {(a, b): replace(config.params, alpha=a, beta=b) for a in alpha_grid for b in beta_grid}
    cache = PathCache(config.graph)
    missions = config.missions()
    hashes = [mission_hash(m) for m in missions]

    rows: list[dict] = []
    mean_cost: dict[tuple[float, float], float] = {}
    for alpha in alpha_grid:
        for beta in beta_grid:
            params = cells[alpha, beta]
            cell_costs: list[float] = []
            aborted = False
            for trial, mission in enumerate(missions):
                seed = config.trial_seed(trial)
                res = run_mission(mission, params, seed=seed, cache=cache,
                                  max_steps=config.max_steps)
                rows.append({
                    "alpha": alpha,
                    "beta": beta,
                    "trial": trial,
                    "seed": seed,
                    "mission_hash": hashes[trial],
                    "total_cost": res.total_cost,
                    "steps": res.steps_taken,
                    "completed": res.completed,
                })
                if res.completed:
                    cell_costs.append(res.total_cost)
                else:
                    aborted = True
            mean_cost[(alpha, beta)] = math.inf if aborted else statistics.fmean(cell_costs)

    best = min(mean_cost.values())
    # An aborted cell scores 0 even when every cell aborted and best is inf.
    score = {
        cell: 0.0 if mean == math.inf else (best / mean if mean > 0 else 1.0)
        for cell, mean in mean_cost.items()
    }
    if out_path is not None:
        _write_csv(out_path, SWEEP_COLUMNS, rows)
    return SweepResult(rows=tuple(rows), mean_cost=mean_cost, score=score)
