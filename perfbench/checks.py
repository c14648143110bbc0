"""Correctness checks and output digests for benchmark results."""

from __future__ import annotations

import hashlib

from modroute import Mission, MissionResult


def violations(mission: Mission, result: MissionResult) -> list[str]:
    """Invariants every routing result must satisfy; empty when it does."""
    graph = mission.graph
    found: list[str] = []
    if result.steps_taken != len(result.steps):
        found.append(f"steps_taken {result.steps_taken} != {len(result.steps)} step records")
    if len(result.per_agent_paths) != len(mission.starts):
        found.append("one path per agent expected")
    for agent, nodes in enumerate(result.per_agent_paths):
        if len(nodes) != len(result.steps) + 1:
            found.append(f"agent {agent}: {len(nodes)} positions for {len(result.steps)} steps")
        if nodes and nodes[0] != mission.starts[agent]:
            found.append(f"agent {agent}: path does not begin at its start")
        for u, v in zip(nodes, nodes[1:]):
            if u != v and not graph.has_edge(u, v):
                found.append(f"agent {agent}: move {u}->{v} is neither a graph edge nor a wait")
    for record in result.steps:
        for intent in record.intents:
            if intent.src != intent.dst and not graph.has_edge(intent.src, intent.dst):
                found.append(f"step {record.t}: intent {intent.src}->{intent.dst} is not a graph edge")
    if sum(r.step_cost for r in result.steps) != result.total_cost:
        found.append("step costs do not sum to total_cost")
    if result.completed:
        visited = {node for nodes in result.per_agent_paths for node in nodes}
        missed = sorted(set(mission.targets) - visited)
        if missed:
            found.append(f"completed run never visited targets {missed}")
    return found


def digest(results: list[tuple[str, MissionResult]]) -> str:
    """sha256 over every trajectory and cost, in order, as exact decimal text."""
    h = hashlib.sha256()
    for method, result in results:
        h.update(repr((
            method,
            result.per_agent_paths,
            [(r.step_cost, sorted(r.traversed)) for r in result.steps],
            result.total_cost,
            result.steps_taken,
            result.completed,
        )).encode())
    return h.hexdigest()
