"""Independent brute-force oracles used to check the library's algorithms.

These deliberately avoid the library's own search code: Floyd-Warshall for
all-pairs distances, exhaustive DFS enumeration of simple paths, a
frozen copy of the original plain Yen search over Dijkstra, the reference
the goal-directed search must match path for path and bit for bit, and a
frozen copy of the original per-path force loop, which the first-hop
force computation must match entry for entry and bit for bit, and a
frozen copy of the original per-agent step, which the platoon-shared step
must match record for record and draw for draw, and a frozen copy of the
non-modular baseline's timestep, which the baseline must match step for
step, and the original lazy grouping of a path set's first hops, which the
table built with each set must equal, and the original per-query read of a
lightest path off a distance search, which the per-source first-hop table
must answer alike, and the original breadth-first search from a mission's
starts, which the graph's component table must answer alike, and the
original heuristic shrink factor, which listed and summed every edge weight
and which the factor read off the weight facts ``Graph`` keeps must equal.
"""

import heapq
import math
from collections import deque

from modroute.engine import AgentState, MoveIntent, StepRecord, compute_edge_forces, select_edge


def floyd_warshall(graph):
    """All-pairs shortest distances by dynamic programming."""
    m = graph.node_count
    dist = [[math.inf] * m for _ in range(m)]
    for u in range(m):
        dist[u][u] = 0.0
    for u, v, w in graph.edges():
        if w < dist[u][v]:
            dist[u][v] = w
    for mid in range(m):
        for u in range(m):
            du = dist[u]
            if du[mid] == math.inf:
                continue
            for v in range(m):
                alt = du[mid] + dist[mid][v]
                if alt < du[v]:
                    du[v] = alt
    return dist


def enumerate_simple_paths(graph, src, dst):
    """Every loopless src->dst path as (weight, node tuple), sorted.

    Weight is the left-to-right fold of edge weights so results compare
    exactly with the library's path weights.
    """
    results = []

    def walk(node, path, weight):
        if node == dst:
            results.append((weight, tuple(path)))
            return
        for nxt, w in graph.out_edges(node):
            if nxt in path_set:
                continue
            path.append(nxt)
            path_set.add(nxt)
            walk(nxt, path, weight + w)
            path.pop()
            path_set.remove(nxt)

    if src == dst:
        return [(0.0, (src,))]
    path_set = {src}
    walk(src, [src], 0.0)
    results.sort()
    return results


def reachable_from(graph, sources):
    """Nodes reachable from any source by directed traversal (breadth first)."""
    seen = set(sources)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v, _ in graph.out_edges(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def random_digraph(rng, max_nodes=10, edge_prob=0.45):
    """Random integer-weighted digraph; returns (node_count, edge list).

    Integer weights keep float sums exact, so weight ties happen often and
    tie-breaking logic actually gets exercised.
    """
    m = rng.randint(4, max_nodes)
    edges = []
    for u in range(m):
        for v in range(m):
            if u != v and rng.random() < edge_prob:
                edges.append((u, v, float(rng.randint(1, 9))))
    return m, edges


def reference_lex_shortest(graph, src, dst, banned_nodes=frozenset(), banned_edges=frozenset()):
    """Plain label-setting search keyed on (distance, node sequence).

    A frozen copy of the library's original spur search, before it became
    goal-directed. Returns (node tuple, weight) or None.
    """
    heap = [(0.0, (src,))]
    settled = set()
    while heap:
        d, nodes = heapq.heappop(heap)
        u = nodes[-1]
        if u in settled:
            continue
        settled.add(u)
        if u == dst:
            return nodes, d
        for v, w in graph.out_edges(u):
            if v in settled or v in banned_nodes or (u, v) in banned_edges:
                continue
            heapq.heappush(heap, (d + w, nodes + (v,)))
    return None


def reference_yen(graph, src, dst, k):
    """Yen's deviation search over ``reference_lex_shortest``, spurring from
    every node of each new path; a frozen copy of the library's original.

    Returns the paths as a list of (weight, node tuple).
    """

    def weight_of(nodes):
        total = 0.0
        for u, v in zip(nodes, nodes[1:]):
            total += graph.weight(u, v)
        return total

    if src == dst:
        return [(0.0, (src,))]
    first = reference_lex_shortest(graph, src, dst)
    if first is None:
        return []
    found = [(first[0], weight_of(first[0]))]
    found_set = {first[0]}
    candidates = []
    in_candidates = set()
    while len(found) < k:
        prev_nodes, _ = found[-1]
        for i in range(len(prev_nodes) - 1):
            spur = prev_nodes[i]
            root = prev_nodes[: i + 1]
            banned_edges = {
                (p[i], p[i + 1]) for p, _ in found if len(p) > i + 1 and p[: i + 1] == root
            }
            spur_result = reference_lex_shortest(graph, spur, dst, set(root[:-1]), banned_edges)
            if spur_result is None:
                continue
            total = root[:-1] + spur_result[0]
            if total in found_set or total in in_candidates:
                continue
            heapq.heappush(candidates, (weight_of(total), total))
            in_candidates.add(total)
        if not candidates:
            break
        w, nodes = heapq.heappop(candidates)
        in_candidates.discard(nodes)
        found.append((nodes, w))
        found_set.add(nodes)
    return [(w, nodes) for nodes, w in found]


def reference_first_hops(paths):
    """``PathSet.first_hops`` as it was first built, lazily from the paths:
    ``(next_node, weights)`` per distinct first hop, in order of first
    appearance, each with the weights of the paths through it."""
    hops = {}
    for path in paths:
        if len(path.nodes) > 1:
            hops.setdefault(path.nodes[1], []).append(path.total_weight)
    return tuple((hop, tuple(weights)) for hop, weights in hops.items())


def reference_lightest_path(graph, dist, pred, dst):
    """The lightest path to ``dst`` read off ``(dist, pred)``, the output of
    ``dijkstra`` from some source, as ``PathCache`` first read it, query by
    query: (nodes, ``dist[dst]``), or None when dst is unreachable or some
    node y on the predecessor chain has an in-edge (z, w) other than the one
    from ``pred[y]`` with ``dist[z] + w == dist[y]``."""
    d = dist[dst]
    if d == math.inf:
        return None
    nodes, y = [dst], dst
    while (x := pred[y]) is not None:
        dy = dist[y]
        for z, w in graph.in_edges(y):
            if dist[z] + w == dy and z != x:
                return None
        nodes.append(x)
        y = x
    return tuple(reversed(nodes)), d


def reference_shrink_factor(graph):
    """``paths._shrink_factor`` as it first was: every weight listed in
    out-edge order, then 1 - 2**-10 if the smallest is at least 2**-40 of
    their ``math.fsum`` (inf without edges), else 0."""
    weights = [w for u in range(graph.node_count) for _, w in graph.out_edges(u)]
    if min(weights, default=math.inf) >= 2.0**-40 * math.fsum(weights):
        return 1.0 - 2.0**-10
    return 0.0


def reference_edge_forces(cache, agent, others, params):
    """Per-edge attraction as the engine first computed it, path by path.

    A frozen copy of the original ``compute_edge_forces`` loop: every
    sampled path's force ``scale / (d * d)`` is credited to its first edge,
    taking the per-source maximum over paths (``max`` seeded with 0.0) or,
    with ``force_sum``, their sum folded onto 0.0 in path order; the
    per-source maps are then added into one dict in order of first
    appearance. Returns that dict.
    """
    destinations = []
    if agent.assigned_target is not None and params.beta > 0:
        destinations.append((agent.assigned_target, params.beta))
    if params.alpha > 0:
        for other in sorted(others, key=lambda a: a.agent_id):
            if other.finished or other.agent_id == agent.agent_id:
                continue
            if other.position == agent.position:
                continue
            destinations.append((other.position, params.alpha))

    entries = {}
    for dest, scale in destinations:
        per_edge = {}
        for path in cache.k_shortest(agent.position, dest, params.k).paths:
            if len(path.nodes) < 2:
                continue
            edge = (path.nodes[0], path.nodes[1])
            d = path.total_weight
            force = scale / (d * d)
            if params.force_sum:
                per_edge[edge] = per_edge.get(edge, 0.0) + force
            else:
                per_edge[edge] = max(per_edge.get(edge, 0.0), force)
        for edge, force in per_edge.items():
            entries[edge] = entries.get(edge, 0.0) + force
    return entries


def reference_step(cache, agents, unvisited, params, rng, *, t=1, wait_cost=0.0, waiting=True):
    """One timestep as the engine first computed it, agent by agent.

    A frozen copy of the original ``step``: every agent claims its nearest
    target with its own distance scan, every active agent scores its edges
    against a freshly filtered list of the others, and ``resolve_waits``
    visits every pair of agents in ascending id order. Returns
    (next agents, unvisited, StepRecord) like ``engine.step``.
    """
    assignment = _reference_assign_targets(agents, unvisited, cache)
    staged = [
        a if a.finished else AgentState(a.agent_id, a.position, assignment[a.agent_id],
                                        assignment[a.agent_id] is None)
        for a in agents
    ]
    active = [a for a in staged if not a.finished]
    intents = [
        select_edge(
            compute_edge_forces(cache, agent, [o for o in active if o is not agent], params),
            agent.position,
        )
        for agent in active
    ]
    if waiting:
        intents = _reference_resolve_waits(intents, active, rng, cache)
    moved = {i.agent_id: i.dst for i in intents}
    next_agents = [
        AgentState(a.agent_id, moved.get(a.agent_id, a.position), a.assigned_target, a.finished)
        for a in staged
    ]
    unvisited = frozenset(unvisited) - {a.position for a in next_agents}
    traversed = frozenset((i.src, i.dst) for i in intents if i.src != i.dst)
    n_waiting = sum(1 for i in intents if i.waiting)
    step_cost = sum(cache.graph.weight(u, v) for u, v in sorted(traversed)) + wait_cost * n_waiting
    return next_agents, unvisited, StepRecord(t, tuple(intents), step_cost)


def reference_baseline_step(cache, agents, unvisited, *, t=1):
    """One timestep of the non-modular baseline as the engine first computed it.

    A frozen copy of the baseline's original timestep: every unfinished
    agent claims a target as ``_reference_assign_targets`` gives it (none:
    it finishes), every active agent steps to the second node of the first
    path of ``cache.k_shortest(position, target, 1)``, and every move pays
    its edge weight, summed by the builtin ``sum`` onto 0.0 in agent order,
    with no shared-edge discount. Returns (next agents, unvisited,
    StepRecord) like the baseline's timestep.
    """
    assignment = _reference_assign_targets(agents, unvisited, cache)
    staged = [
        a if a.finished else AgentState(a.agent_id, a.position, assignment[a.agent_id],
                                        assignment[a.agent_id] is None)
        for a in agents
    ]
    intents = [
        MoveIntent(a.agent_id, a.position,
                   cache.k_shortest(a.position, a.assigned_target, 1).paths[0].nodes[1])
        for a in staged if not a.finished
    ]
    step_cost = sum((cache.graph.weight(i.src, i.dst) for i in intents), 0.0)
    moved = {i.agent_id: i.dst for i in intents}
    next_agents = [
        AgentState(a.agent_id, moved.get(a.agent_id, a.position), a.assigned_target, a.finished)
        for a in staged
    ]
    unvisited = frozenset(unvisited) - {a.position for a in next_agents}
    return next_agents, unvisited, StepRecord(t, tuple(intents), step_cost)


def _reference_assign_targets(agents, unvisited, cache):
    result = {}
    claimed = set()
    targets = sorted(unvisited)
    for agent in sorted((a for a in agents if not a.finished), key=lambda a: a.agent_id):
        dist = cache.distances(agent.position)
        d_min = min((dist[t] for t in targets), default=math.inf)
        if d_min == math.inf:
            result[agent.agent_id] = None
            continue
        nearest = [t for t in targets if dist[t] == d_min]
        free = [t for t in nearest if t not in claimed]
        if free:
            choice = free[0]
        elif all(t in claimed or dist[t] == math.inf for t in targets):
            result[agent.agent_id] = None
            continue
        else:
            choice = nearest[0]
        result[agent.agent_id] = choice
        claimed.add(choice)
    return result


def _reference_resolve_waits(intents, agents, rng, cache):
    by_id = {a.agent_id: a for a in agents}
    order = sorted(i.agent_id for i in intents)
    current = {i.agent_id: i for i in intents}

    def target_distance(agent):
        return cache.distance(agent.position, agent.assigned_target)

    def make_wait(agent_id):
        src = current[agent_id].src
        current[agent_id] = MoveIntent(agent_id, src, by_id[agent_id].position, waiting=True)

    for idx, first_id in enumerate(order):
        for second_id in order[idx + 1 :]:
            a, b = by_id[first_id], by_id[second_id]
            ia, ib = current[first_id], current[second_id]
            if a.position == b.position:
                continue
            if a.assigned_target is None or b.assigned_target is None:
                continue
            a_lands_on_b = not ia.waiting and ia.dst == b.position
            b_lands_on_a = not ib.waiting and ib.dst == a.position
            if not (a_lands_on_b or b_lands_on_a):
                continue
            dist_a, dist_b = target_distance(a), target_distance(b)
            if a_lands_on_b and b_lands_on_a:
                if dist_a < dist_b:
                    make_wait(first_id)
                elif dist_b < dist_a:
                    make_wait(second_id)
                else:
                    make_wait(first_id if rng.random() < 0.5 else second_id)
            elif a_lands_on_b and dist_b < dist_a:
                make_wait(second_id)
            elif b_lands_on_a and dist_a < dist_b:
                make_wait(first_id)
    return [current[i.agent_id] for i in intents]
