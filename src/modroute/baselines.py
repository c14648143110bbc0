"""Comparison methods: a non-modular baseline and an exact tiny-instance solver.

The baseline models conventional vehicles: every agent pays every edge it
traverses, with no shared-edge discount, no waiting, and no attraction,
just per-step nearest-target routing. The brute-force solver exhaustively
searches joint action sequences and is only usable at desk scale; it
exists so heuristic results can be checked against true optima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .engine import MissionResult, _cache_for, _intent, _timestep, assign_targets, simulate
from .graph import InfeasibleMissionError, Mission, check_int, validate
from .paths import PathCache


class OracleLimitError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass(frozen=True)
class OracleResult:
    """Exact minimum cost with one witness set of per-agent paths."""

    optimal_cost: float
    paths: tuple[tuple[int, ...], ...] | None
    explored_states: int


def run_nonmodular_baseline(
    mission: Mission,
    max_steps: int | None = None,
    cache: PathCache | None = None,
) -> MissionResult:
    """Route conventional, non-joining vehicles by nearest-target steps.

    Runs in the router's loop, ``engine.simulate``, with the same step cap
    and abort diagnostics. Each step every unfinished agent claims a target
    by ``assign_targets`` and takes one hop along the shortest path to it.
    Every edge is paid per agent: two agents crossing it together pay it
    twice. ``StepRecord.traversed`` is still the deduplicated edge set.
    A ``cache`` built for a graph whose edges or weights differ from
    ``mission.graph``'s raises ValueError.
    """
    cache = _cache_for(mission.graph, cache)

    def hops(active):
        return [
            _intent(a.agent_id, a.position,
                    cache.k_shortest(a.position, a.assigned_target, 1).paths[0].nodes[1], False)
            for a in active
        ]

    def advance(agents, unvisited, t):
        return _timestep(cache, agents, unvisited, assign_targets(cache, agents, unvisited), hops, t, None)

    return simulate(mission, max_steps, advance)


def brute_force_optimal(mission: Mission, horizon: int) -> OracleResult:
    """Exhaustive minimum over joint action sequences up to ``horizon`` steps.

    Every agent either waits or crosses one out-edge per step; edges shared
    within a step are paid once. Returns infinity with no witness when no
    sequence covers all targets in time. Pruning: abandon branches whose
    partial cost meets the incumbent, and memoize the best partial cost per
    (positions, visited, t) state. Hard instance limits keep the search at
    desk scale: n <= 3 agents, m <= 12 nodes, horizon <= 12. A horizon
    that is not an int (``check_int``) or is negative raises ValueError.
    """
    check_int("horizon", horizon)
    graph = mission.graph
    n = len(mission.starts)
    if n > 3:
        raise OracleLimitError(f"at most 3 agents (got {n})")
    if graph.node_count > 12:
        raise OracleLimitError(f"at most 12 nodes (got {graph.node_count})")
    if horizon > 12:
        raise OracleLimitError(f"horizon at most 12 (got {horizon})")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    diags = validate(mission)
    if diags:
        raise InfeasibleMissionError("; ".join(diags))

    targets = frozenset(mission.targets)
    start_positions = tuple(mission.starts)
    start_visited = frozenset(p for p in start_positions if p in targets)

    best_cost = math.inf
    best_actions: tuple[tuple[int, ...], ...] | None = None
    seen: dict[tuple[tuple[int, ...], frozenset[int], int], float] = {}
    explored = 0
    weight = graph._weights.__getitem__
    moves_from = [(u,) + tuple(v for v, _ in out) for u, out in enumerate(graph._adj)]

    def search(positions: tuple[int, ...], visited: frozenset[int], cost: float,
               actions: tuple[tuple[int, ...], ...]) -> None:
        nonlocal best_cost, best_actions, explored
        explored += 1
        if visited == targets:
            if cost < best_cost:
                best_cost = cost
                best_actions = actions
            return
        if len(actions) >= horizon or cost >= best_cost:
            return
        key = (positions, visited, len(actions))
        if seen.get(key, math.inf) <= cost:
            return
        seen[key] = cost
        # First agent slowest: the witness kept among equal-cost optima and the
        # explored-state count depend on this order.
        for move in itertools.product(*(moves_from[p] for p in positions)):
            edges = {(u, v) for u, v in zip(positions, move) if u != v}
            search(move, visited | (targets & set(move)), cost + sum(map(weight, sorted(edges))),
                   actions + (move,))

    search(start_positions, start_visited, 0.0, ())

    if best_actions is None:
        return OracleResult(math.inf, None, explored)
    return OracleResult(best_cost, tuple(zip(start_positions, *best_actions)), explored)
