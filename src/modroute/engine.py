"""Force-based routing of modular agents.

Each timestep every unfinished agent claims a target, scores its candidate
edges by inverse-square attraction toward its target and toward the other
agents, and moves along the strongest edge; mutually swapping pairs are
defused by a waiting policy. Agents that traverse the same edge at the
same timestep pay its weight once, which is what rewards traveling
together.

The per-step cost unit is the deduplicated set of edges traversed at that
step; a mission's total cost is the sum of its step costs. Runs are fully
deterministic for a fixed (mission, parameters, seed).

Bounded edge choice. Only the strongest edge leaves a step, so ``step``
picks it with ``_choose_edge``, which scores the attraction sources from the
strongest possible one down and stops once the rest cannot change the
winner. A source whose k-shortest set is not cached is first scored from
its lightest path alone (point 4), and its k-set is fetched only when that
cannot settle the move. The move is bit for bit
``select_edge(compute_edge_forces(...))``. Write u = 2**-53 for the unit
roundoff and fl() for a rounded operation; rounding to nearest is
monotone, and ``fl(a + b)`` of non-negative a and b lies within factors
1 - u and 1 + u of ``a + b`` (a subnormal sum is exact, and so is an
integer multiple k * x of a subnormal x that stays subnormal).

1. **Lower bound.** Let d = ``cache.distances(p)``. ``_dijkstra`` relaxes
   every out-edge of each node it settles and only ever lowers d, so it
   leaves ``d[v] <= fl(d[u] + w)`` on every edge u -> v with d[u] finite.
   A path p = v_0 ... v_j has the left-fold weight W_j, with W_0 = 0 =
   d[p] and ``W_i = fl(W_{i-1} + w_i)``. If ``W_{i-1} >= d[v_{i-1}]``,
   monotone rounding gives ``W_i >= fl(d[v_{i-1}] + w_i) >= d[v_i]``. So
   D = d[s] is at most the weight of every path to s, exactly, and
   ``PathCache.k_shortest`` reports left-fold weights.
2. **Bound on one source.** Each path weight d to a source of scale c has
   d >= D, so ``fl(d * d) >= fl(D * D)``. If ``fl(D * D) > 0`` then
   ``fl(c / fl(d * d)) <= ub = fl(c / fl(D * D))``: no force of the source
   exceeds ub, and none of its path squares is 0, so it raises nothing. The
   source adds one such force to an edge, or with ``force_sum`` a fold of
   j <= k of them, at most ``(1 + u)**(k-1) * k * ub``. Its bound is B = ub,
   or ``B = fl(k * ub) >= (1 - u) * k * ub``; either way it adds at most
   ``(1 + u)**(k+1) * B`` to any edge. A D of inf gives B = 0: no path.
3. **Slack.** The n sources are scored in decreasing B. A scored source s
   gives each hop b a certain term ``c_s(b)`` and an extra term ``x_s(b)
   >= 0`` (0 where it names none) around the term ``r_s(b)`` that
   ``compute_edge_forces`` adds to b (0 if none): ``c_s(b) <= r_s(b) <=
   (1 + u)**(k+1) * (c_s(b) + x_s(b))``. Scored exactly, from its k-set,
   c_s(b) is r_s(b) and x_s(b) is 0; point 4 gives both for a source
   scored from bounds; and point 2 bounds an unscored source's r_s(b) by
   ``(1 + u)**(k+1) * B``. After each source let ``lead`` be the largest
   certain partial (a fold, in scoring order, of the certain terms on one
   edge a), ``rival`` the largest ``fl(P(b) + X(b))`` of any other edge b,
   with P(b) its certain partial and X(b) the same fold of its extra
   terms (0.0 if it has none, and ``rival`` 0.0 if there is no other
   edge), ``rest`` the fold of the unscored bounds, ``t = fl(rival +
   rest)`` and ``1 + e = 1 + (4n + k) * 2u``, which is exact. The choice
   stops when ``fl(t * (1 + e)) < lead < inf`` and t is 0 or a normal
   float, so ``fl(t * (1 + e)) >= (1 - u) * t * (1 + e)``.
   ``compute_edge_forces`` sums each edge's terms, at most n, by a fold in
   its source order, so a total is within factors ``(1 -+ u)**(n-1)`` of
   the exact sum of its terms, and so is every partial, and ``rest`` of
   the exact sum of its bounds. Then a's total is at least ``(1 -
   u)**(n-1)`` times the exact sum of its certain terms, and so at least
   ``(1 - u)**(n-1) / (1 + u)**(n-1) * lead``. Any other edge's total is
   at most ``(1 + u)**(n+k)`` times the exact sum of its certain and extra
   terms and the unscored bounds; t is at least ``(1 - u)**(n+1)`` times
   that sum, the two extra roundings being those of P + X and of the
   addition of ``rest``. So that total is at most ``(1 + u)**(n+k) / (1 -
   u)**(n+1) * t``, where ``t < lead / ((1 - u) * (1 + e))``, and the
   lead wins strictly when ``1 + e >= (1 + u)**(2n+k-1) / (1 -
   u)**(2n+1)``. The right side is at most exp(x) with ``x = 1.01 * (4n
   + k) * u``, and for n and k below 2**48, x < 1/4 and ``exp(x) <= 1 + x
   + x**2 < 1 + 2 * (4n + k) * u``. (A finite lead keeps every fold here
   from overflowing, and an inf extra term makes t inf, so the choice does
   not stop.) If t is 0, every other edge's terms are 0 while the lead's
   total, a fold that holds a positive term, is positive. A strict winner
   is what ``select_edge`` picks, whatever its tie rule. With every
   source scored exactly there are no extra terms, and ``rival`` is the
   largest certain partial of another edge.
4. **Bounds from the lightest path.** The one path of the k=1 set
   ``cache.k_shortest(p, s, 1)``, which the baseline steps along too, is
   the k-set's first path: Yen's first path, read off the distance search,
   with A* only on exact ties, which is the same path for every k and
   weighs D (point 1). Its ``first_hops`` are the one group ``((h0,
   (W0,)),)``, its first hop and weight. Without ``force_sum``, r_s(h0) is
   the force of that path, ``fl(c / fl(W0 * W0))``: that is the certain
   term, and the extra term is 0. With it, r_s(h0) is a fold that starts
   with that force and adds non-negative forces, none above it: the
   certain term is that force, and the extra term is B (point 2, with D =
   W0), which bounds r_s(h0) alone. So the certain term is the force
   ``compute_edge_forces`` gives that group (with ``force_sum`` the fold
   ``fl(0.0 + f)``, which is f), and it enters the partials as a k-set's
   terms do. Any other hop v whose edge has weight w gets ``L_v = fl(w +
   h'[v])``, with h' the heuristic ``PathCache._heuristic_to`` keeps
   towards the source. By the A* key lemma of ``paths`` (module
   docstring, "Exact ties"), keys never decrease along a loopless path,
   start at L_v on its first node after the agent and end at its fold
   weight; with the ``h' = 0`` fallback of ``_shrink_factor`` L_v = w,
   and the fold only grows. So every
   loopless path through v weighs at least L_v, and as in point 2 r_s(v) is
   at most ``(1 + u)**(k+1)`` times the extra term ``fl(c / fl(L_v *
   L_v))``, or ``fl(k * fl(c / fl(L_v * L_v)))`` with ``force_sum`` (inf if
   the square is 0); its certain term is 0. A node with ``h' = inf`` cannot
   reach the source, so no path goes through it: both terms are 0.

A choice that never stops, or that meets a ``fl(D * D)`` of 0 or an inf
bound, which it cannot trust, returns the reference itself, so the move
and the underflow ``ValueError`` are the reference's. A choice that meets
neither has ``fl(D * D) > 0`` for every source, and every path weight of a
source's k=1 set or k-set is at least D (point 1), so no force it computes
from a path squares to 0, and it needs no underflow guard of its own.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter

from .graph import Graph, InfeasibleMissionError, Mission, check_float, check_int, validate
from .paths import PathCache


@dataclass(frozen=True)
class ForceParams:
    """Tuning constants for the attraction model.

    ``alpha`` scales agent-agent attraction, ``beta`` agent-target
    attraction, each an int or a float (``check_float``), finite and
    non-negative, not both 0; ``k`` is the number of cheapest loopless
    paths sampled per attraction source, an int >= 1 (``check_int``). With
    ``force_sum`` every sampled path through a candidate edge contributes,
    instead of only the strongest one.
    """

    alpha: float = 0.5
    beta: float = 1.0
    k: int = 5
    force_sum: bool = False

    def __post_init__(self) -> None:
        alpha, beta = check_float("alpha", self.alpha), check_float("beta", self.beta)
        if not (0 <= alpha < math.inf and 0 <= beta < math.inf):  # also rejects NaN
            raise ValueError(f"alpha and beta must be finite and non-negative, got {self.alpha}, {self.beta}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both be zero")
        check_int("k", self.k, 1)


@dataclass(frozen=True, slots=True)
class AgentState:
    """One agent: position, claimed target, and whether it has stopped."""

    agent_id: int
    position: int
    assigned_target: int | None = None
    finished: bool = False


@dataclass(frozen=True, slots=True)
class EdgeForces:
    """Total attraction per candidate edge out of one agent's position."""

    agent_id: int
    entries: dict[tuple[int, int], float]


@dataclass(frozen=True, slots=True)
class MoveIntent:
    """One agent's move for the current step; ``src == dst`` is a wait."""

    agent_id: int
    src: int
    dst: int
    waiting: bool = False


@dataclass(frozen=True, slots=True)
class StepRecord:
    """The moves of one timestep and the cost charged for them."""

    t: int
    intents: tuple[MoveIntent, ...]
    step_cost: float

    @property
    def traversed(self) -> frozenset[tuple[int, int]]:
        """The deduplicated edges crossed at this step, derived from the intents."""
        return frozenset((i.src, i.dst) for i in self.intents if i.src != i.dst)


@dataclass(frozen=True, slots=True)
class MissionResult:
    per_agent_paths: tuple[tuple[int, ...], ...]
    steps: tuple[StepRecord, ...]
    total_cost: float
    completed: bool
    steps_taken: int
    diagnostic: str | None = None


# Intern tables: one shared instance per distinct value, reused across
# agents, steps and runs, each holding at most _INTERNED entries. Sound
# because the records are frozen and hold only ints, bools, None and
# immutable containers of them. ``_intent`` and ``_path`` are LRU caches, and
# ``_intent``'s typed keys keep 1 and True apart. ``_agents`` and ``_records``
# are plain dicts, emptied when full, whose keys compare by == alone, so 1
# and True, or 0 and 0.0, would share an entry. An AgentState is keyed on its
# fields, which the kernel fills with int ids, a bool and an int target or
# None. A StepRecord stores no traversed set, only what derives it: it is
# keyed on each intent's (agent_id, src, dst, waiting), and on t and its
# step cost, each with its type: ``simulate`` numbers its steps with ints,
# but ``step`` takes any t, and an int wait_cost of 0 with no edge crossed
# gives an int 0 cost.
# Inside any container 1 and True compare equal, which is why ``validate``
# admits only int node ids.
_INTERNED = 1 << 14
_intent = functools.lru_cache(maxsize=_INTERNED, typed=True)(MoveIntent)
_path = functools.lru_cache(maxsize=_INTERNED)(tuple)
_agents: dict[tuple[int, int, int | None, bool], AgentState] = {}
_records: dict[tuple, StepRecord] = {}
_finished, _position = attrgetter("finished"), attrgetter("position")

# 2u, the unit of ``_choose_edge``'s relative slack (module docstring, point 3),
# and the smallest normal float, below which a product may lose that slack.
_SLACK_UNIT = 2.0**-52
_MIN_NORMAL = sys.float_info.min


def _intern(table: dict, key: tuple, value):
    """Store ``value`` under ``key``, emptying ``table`` first when it is full."""
    if len(table) >= _INTERNED:
        table.clear()
    table[key] = value
    return value


def _agent(agent_id: int, position: int, assigned_target: int | None, finished: bool) -> AgentState:
    """The shared AgentState with these fields."""
    key = agent_id, position, assigned_target, finished
    return _agents.get(key) or _intern(_agents, key, AgentState(*key))


def assign_targets(
    cache: PathCache,
    agents: list[AgentState],
    unvisited: frozenset[int] | set[int],
) -> dict[int, int | None]:
    """Point each unfinished agent at its nearest unvisited target.

    Agents are processed in ascending id. Each takes the unvisited target
    of minimum Dijkstra distance from its position; two agents may end up
    chasing the same node. Only among exact distance ties does an agent
    prefer a target nobody has claimed this step (then the smallest id),
    which is how co-located agents fan out over equally near targets.
    An agent maps to None, and will stop for good, when it can reach no
    unvisited target or every unvisited target is already claimed while
    none of its nearest ones is free.
    """
    result: dict[int, int | None] = {}
    claimed: set[int] = set()
    targets = sorted(unvisited)
    nearest_at: dict[int, tuple[list[int], list[float]]] = {}
    for agent in sorted(agents, key=attrgetter("agent_id")):
        if agent.finished:
            continue
        position = agent.position
        if position not in nearest_at:
            dist = cache.distances(position)
            d_min, nearest = math.inf, []
            for t in targets:  # one pass: the minimum and its exact ties
                d = dist[t]
                if d < d_min:
                    d_min, nearest = d, [t]
                elif d == d_min:
                    nearest.append(t)
            nearest_at[position] = (nearest if d_min < math.inf else []), dist
        nearest, dist = nearest_at[position]
        choice = None
        for t in nearest:  # the first free nearest target
            if t not in claimed:
                choice = t
                break
        else:  # none: chase the first nearest while some reachable target is free
            for t in targets:
                if t not in claimed and dist[t] < math.inf:
                    choice = nearest[0]
                    break
        result[agent.agent_id] = choice
        if choice is not None:
            claimed.add(choice)
    return result


def attractive_force(scale: float, d: float) -> float:
    """Inverse-square attraction ``scale / d**2`` for a path of weight d.

    Raises ValueError for ``d <= 0`` and for a positive d so small that
    ``d * d`` underflows to 0.
    """
    if d <= 0:
        raise ValueError(f"attraction undefined for non-positive distance {d}")
    d2 = d * d
    if d2 == 0:
        raise ValueError(f"attraction undefined: distance {d!r} squared underflows to 0")
    return scale / d2


def compute_edge_forces(
    cache: PathCache,
    agent: AgentState,
    others: list[AgentState],
    params: ForceParams,
) -> EdgeForces:
    """Score the agent's candidate edges by total attraction.

    For the claimed target (scaled by beta) and every unfinished other
    agent at a distinct position (scaled by alpha), the k cheapest loopless
    paths are sampled and each path's force is attributed to its first
    edge. Per source, only the strongest path through a given first edge
    counts (all of them with ``force_sum``); the per-edge totals fold over
    sources, the target first and the others in id order. Edges that start
    no sampled path are absent from the map. ``others`` may include the
    agent itself, which is skipped by id.

    The paths come grouped by first edge from ``PathSet.first_hops``, each
    group's weights ascending. ``fl(scale / fl(d * d))`` never grows with
    d, so the strongest path of a group is its first, bit for bit. The
    forces of the group's paths with ``force_sum``, and of its first alone
    without, are folded onto 0.0 in path order; ``fl(0.0 + f)`` is f. Each
    force is ``attractive_force`` inline: path weights are positive, so
    only a square that underflows to 0 calls it, for its ValueError.
    """
    position, k, force_sum = agent.position, params.k, params.force_sum
    entries: dict[tuple[int, int], float] = {}
    for dest, scale in _sources(agent, sorted(others, key=attrgetter("agent_id")), params):
        for hop, weights in cache.k_shortest(position, dest, k).first_hops:
            force = 0.0
            for d in weights if force_sum else weights[:1]:
                d2 = d * d
                force += scale / d2 if d2 else attractive_force(scale, d)
            edge = (position, hop)
            entries[edge] = entries.get(edge, 0.0) + force
    return EdgeForces(agent.agent_id, entries)


def _sources(agent: AgentState, others: list[AgentState], params: ForceParams) -> list[tuple[int, float]]:
    """``(node, scale)`` per attraction source: the claimed target (scale
    beta), then every unfinished other agent at another node (scale alpha),
    in the order of ``others``. A scale of 0 adds no source."""
    sources: list[tuple[int, float]] = []
    if agent.assigned_target is not None and params.beta > 0:
        sources.append((agent.assigned_target, params.beta))
    if params.alpha > 0:
        position = agent.position
        for other in others:
            if not (other.finished or other.position == position or other.agent_id == agent.agent_id):
                sources.append((other.position, params.alpha))
    return sources


def select_edge(forces: EdgeForces, position: int) -> MoveIntent:
    """Pick the strongest candidate edge; wait in place if there is none.

    Exact force ties break toward the smaller destination node id.
    """
    best_edge: tuple[int, int] | None = None
    best_force = float("-inf")
    for edge, force in forces.entries.items():
        if force > best_force or (force == best_force and edge[1] < best_edge[1]):
            best_edge, best_force = edge, force
    if best_edge is None:
        return _intent(forces.agent_id, position, position, True)
    return _intent(forces.agent_id, best_edge[0], best_edge[1], False)


def _choose_edge(
    cache: PathCache,
    agent: AgentState,
    others: list[AgentState],
    params: ForceParams,
) -> MoveIntent:
    """``select_edge(compute_edge_forces(cache, agent, others, params), ...)``,
    bit for bit, without the work that cannot change the move.

    The sources are those of ``compute_edge_forces``, in any order of
    ``others`` (agent ids distinct). One pass scores them strongest bound
    first: exactly when their k-shortest set is cached, and otherwise from
    bounds (module docstring, point 4): h0 and W0 from the k=1 set, and
    ``L_v`` of each other hop from ``cache._heuristic_to``. Either way its
    certain terms are ``compute_edge_forces``'s forces, computed inline
    with the fold unrolled, and feed one update of the lead and rival; a
    source scored from bounds also adds its extra terms. After each source
    the pass tries the stop rule of point 3. A pass that ends without a
    move fetches the k-set of its strongest source scored from bounds, and
    the next pass scores that source exactly. Once no source is left to
    fetch, or when some bound is inf (as for a source outside the graph),
    the reference decides; by then its queries all hit.

    The exact tier reads a source's k-set with one lookup,
    ``cache.cached_k_shortest``, which returns the cached set or None and
    computes nothing, so ``k_shortest`` stays the one place that builds
    sets.
    """
    position, k, force_sum = agent.position, params.k, params.force_sum
    sources = _sources(agent, others, params)
    if not sources:
        return _intent(agent.agent_id, position, position, True)

    dist = cache.distances(position)
    m, terms = len(dist), k if force_sum else 1  # forces one source adds to an edge, at most
    inf = math.inf
    ranked = []
    for dest, scale in sources:
        d = dist[dest] if 0 <= dest < m else 0.0
        d2 = d * d
        ranked.append((scale / d2 * terms if d2 else inf, dest, scale))
    ranked.sort(reverse=True)
    if ranked[0][0] < inf:  # else no bound is trusted
        widen = 1.0 + (4 * len(ranked) + k) * _SLACK_UNIT
        cached, adj = cache.cached_k_shortest, cache.graph._adj[position]
        while True:
            rests, rest = [0.0], 0.0  # rests.pop(): the fold of the bounds not yet scored
            for source in ranked[:0:-1]:
                rest += source[0]
                rests.append(rest)
            partial: dict[int, float] = {}  # per hop, the fold of the certain terms
            extra = None  # ... and of the extra terms, once some source is scored from bounds
            lead_hop, lead, rival = None, 0.0, 0.0  # the largest partial, and the largest of another hop
            fetch = None  # the strongest source scored from bounds
            for bound, dest, scale in ranked:
                kset = cached((position, dest, k))
                if kset is not None:
                    groups = kset.first_hops
                elif dist[dest] < inf:  # the certain term of h0, and extra terms
                    groups = cache.k_shortest(position, dest, 1).first_hops  # ((h0, (W0,)),)
                    h0 = groups[0][0]
                    if extra is None:
                        extra, fetch = {}, dest
                    if force_sum:
                        extra[h0] = extra.get(h0, 0.0) + bound
                    h = cache._heuristic_to(dest)
                    for hop, w in adj:
                        if hop != h0 and h[hop] != inf:  # else no path goes through it
                            low = w + h[hop]
                            d2 = low * low
                            extra[hop] = extra.get(hop, 0.0) + (scale / d2 * terms if d2 else inf)
                else:  # no path, and the source adds nothing
                    groups = ()
                for hop, weights in groups:  # ``compute_edge_forces``'s forces, unrolled
                    if force_sum:
                        force = 0.0
                        for d in weights:
                            force += scale / (d * d)
                    else:
                        force = scale / (weights[0] * weights[0])
                    total = partial[hop] = partial.get(hop, 0.0) + force
                    if hop == lead_hop:
                        lead = total
                    elif total > lead:
                        lead_hop, lead, rival = hop, total, lead
                    elif total > rival:
                        rival = total
                rest = rests.pop()
                if rest * widen < lead:  # else t, at least rest, cannot pass the rule
                    t = rival
                    if extra:
                        for hop, more in extra.items():
                            if hop != lead_hop:
                                total = partial.get(hop, 0.0) + more
                                if total > t:
                                    t = total
                    t += rest
                    if t * widen < lead < inf and (t >= _MIN_NORMAL or t == 0.0):
                        return _intent(agent.agent_id, position, lead_hop, False)
            if fetch is None:
                break
            cache.k_shortest(position, fetch, k)
    return select_edge(compute_edge_forces(cache, agent, others, params), position)


def resolve_waits(
    cache: PathCache,
    intents: list[MoveIntent],
    agents: list[AgentState],
    rng: random.Random,
) -> list[MoveIntent]:
    """Order agents to wait where a one-step delay lets another one join.

    One rule covers both triggers, the head-on swap and the catch-up. When
    one agent's move lands on another's node and both have claimed a target,
    the agent landed on waits one step if it is strictly nearer its target
    than the other. If each lands on the other (a swap) at equal remaining
    distances, one fair draw from the seeded stream picks the waiter;
    otherwise both proceed. So an arriving agent joins a nearer agent
    instead of chasing a vacated node, and a swap deadlock always ends.

    Pairs come only from a move onto another agent's node: an intent that
    waits, or whose ``dst`` is its own agent's node, forms none. One pass
    visits the pairs in ascending (smaller id, larger id) order, re-checking
    current intents, so an agent already converted to waiting lands on no
    one. Waiting only ever switches landings off, so the pairs of the
    original intents are all the pass needs. Distances are read only for a
    pair where some side still lands. Two intents for one agent raise
    ValueError, and an intent of no agent KeyError, before any draw.
    """
    by_id = {a.agent_id: a for a in agents}
    current = {i.agent_id: i for i in intents}
    if len(current) < len(intents):
        ids = [i.agent_id for i in intents]
        repeated = sorted({a for a in ids if ids.count(a) > 1})
        raise ValueError(f"more than one intent for agent(s) {repeated}")
    at: dict[int, list[int]] = {}
    for agent_id in current:
        at.setdefault(by_id[agent_id].position, []).append(agent_id)
    pairs = set()
    for a_id, intent in current.items():
        if not intent.waiting and intent.dst != by_id[a_id].position:
            for b_id in at.get(intent.dst, ()):
                pairs.add((min(a_id, b_id), max(a_id, b_id)))
    for first_id, second_id in sorted(pairs):
        a, b = by_id[first_id], by_id[second_id]
        ia, ib = current[first_id], current[second_id]
        if a.assigned_target is None or b.assigned_target is None:
            continue
        a_lands_on_b = not ia.waiting and ia.dst == b.position
        b_lands_on_a = not ib.waiting and ib.dst == a.position
        if not (a_lands_on_b or b_lands_on_a):
            continue
        dist_a = cache.distance(a.position, a.assigned_target)
        dist_b = cache.distance(b.position, b.assigned_target)
        if b_lands_on_a and dist_a < dist_b:
            waiter = first_id
        elif a_lands_on_b and dist_b < dist_a:
            waiter = second_id
        elif a_lands_on_b and b_lands_on_a:  # neither is nearer
            waiter = first_id if rng.random() < 0.5 else second_id
        else:
            continue
        current[waiter] = _intent(waiter, current[waiter].src, by_id[waiter].position, True)
    return [current[i.agent_id] for i in intents]


def _check_wait_cost(wait_cost: float) -> None:
    """ValueError unless ``wait_cost`` is an int or a float (``check_float``),
    finite and non-negative: the one check of ``run_mission`` and ``step``."""
    value = wait_cost if type(wait_cost) is float else check_float("wait_cost", wait_cost)  # step checks it each time
    if not 0 <= value < math.inf:  # also rejects NaN
        raise ValueError(f"wait_cost must be finite and >= 0, got {wait_cost}")


def _check_max_steps(max_steps: int | None) -> None:
    """ValueError unless ``max_steps`` is None or an int >= 0 (a bool is not
    an int): the one step-cap rule of ``simulate`` and ``BatchConfig``."""
    if max_steps is not None:
        if type(max_steps) is not int:  # not check_int: the rule here is "an int or None"
            raise ValueError(f"max_steps must be an int or None, got {max_steps!r}")
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")


def _cache_for(graph: Graph, cache: PathCache | None) -> PathCache:
    """``cache``, or a new one over ``graph``; ValueError if it serves another graph."""
    if cache is None:
        return PathCache(graph)
    if not cache.graph.same_edges(graph):
        raise ValueError("the PathCache was built for another graph than the mission's")
    return cache


def simulate(mission: Mission, max_steps: int | None, advance: Callable) -> MissionResult:
    """Run ``advance(agents, unvisited, t)`` once per timestep until done.

    This is the one run loop of both the force-based router and the
    non-modular baseline; ``advance`` is the method's timestep and returns
    the moved agents, the still-unvisited targets and the step record.
    Both methods' timesteps run the one kernel ``_timestep``, so this loop
    only checks the stop rules and keeps each step's agent positions as one
    tuple, which become the per-agent paths once the run ends.
    Targets occupied at the start count as visited at t=0. The run aborts
    with ``completed=False`` and a diagnostic when the step cap (default
    ``4 * m**2``, a generous multiple of the worst-case step count) is hit,
    which signals oscillation, or when every agent has finished while
    targets remain unreachable. A ``max_steps`` that is not an int (a bool
    included) or is negative raises ValueError.
    """
    _check_max_steps(max_steps)
    diags = validate(mission)
    if diags:
        raise InfeasibleMissionError("; ".join(diags))
    if max_steps is None:
        max_steps = 4 * mission.graph.node_count * mission.graph.node_count

    agents = [_agent(i, start, None, False) for i, start in enumerate(mission.starts)]
    positions = [tuple(mission.starts)]  # every agent's node, at t = 0, 1, ...
    unvisited = frozenset(mission.targets) - set(mission.starts)
    records: list[StepRecord] = []
    diagnostic: str | None = None

    while unvisited:
        if all(map(_finished, agents)):
            diagnostic = f"all agents finished with targets still unvisited: {sorted(unvisited)}"
            break
        if len(records) >= max_steps:
            diagnostic = (
                f"step cap {max_steps} reached with targets still unvisited: "
                f"{sorted(unvisited)} (likely oscillation)"
            )
            break
        agents, unvisited, record = advance(agents, unvisited, len(records) + 1)
        records.append(record)
        positions.append(tuple(map(_position, agents)))

    return MissionResult(
        per_agent_paths=tuple(map(_path, zip(*positions))),
        steps=tuple(records),
        total_cost=sum(r.step_cost for r in records),
        completed=not unvisited,
        steps_taken=len(records),
        diagnostic=diagnostic,
    )


def step(
    cache: PathCache,
    agents: list[AgentState],
    unvisited: frozenset[int] | set[int],
    params: ForceParams,
    rng: random.Random,
    *,
    t: int = 1,
    wait_cost: float = 0.0,
    waiting: bool = True,
) -> tuple[list[AgentState], frozenset[int], StepRecord]:
    """Advance the system one timestep.

    Pipeline: claim targets (``assign_targets``), pick each agent's
    strongest edge (``_choose_edge``), defuse swaps (``resolve_waits``,
    called only when some move lands on an agent's node, as no pair
    triggers otherwise), then move every agent simultaneously. Agents
    without a claimable target are marked finished and stop moving. After
    movement any unvisited target standing under an agent becomes visited.
    The step cost sums the weights of the deduplicated traversed edge set,
    from ``cache.graph``, plus ``wait_cost`` per waiting agent. As in every
    layer function, the cache is the only handle on the graph, so paths and
    weights cannot disagree. A negative, NaN or infinite ``wait_cost``
    raises ValueError.

    Co-located agents with the same target form a platoon that is scored
    once: they skip each other and see the same other agents, so every
    member's forces and chosen edge are the first member's, bit for bit.
    The claiming, moving and costing are ``_timestep``'s, the kernel the
    baseline's timestep runs too; only the edge choice above is the
    router's own.
    """
    _check_wait_cost(wait_cost)

    def choose(active: list[AgentState]) -> list[MoveIntent]:
        leads: dict[tuple[int, int | None], MoveIntent] = {}
        intents = []
        for agent in active:
            key = agent.position, agent.assigned_target
            lead = leads.get(key)
            if lead is None:
                lead = leads[key] = _choose_edge(cache, agent, active, params)
                intents.append(lead)
            else:
                intents.append(_intent(agent.agent_id, lead.src, lead.dst, lead.waiting))
        if waiting:  # followers move as their lead, so the leads tell whether some move lands
            occupied = {position for position, _ in leads}
            for lead in leads.values():
                if not lead.waiting and lead.dst in occupied:
                    return resolve_waits(cache, intents, active, rng)
        return intents

    return _timestep(cache, agents, unvisited, assign_targets(cache, agents, unvisited), choose, t, wait_cost)


def _timestep(
    cache: PathCache,
    agents: list[AgentState],
    unvisited: frozenset[int] | set[int],
    assignment: dict[int, int | None],
    choose: Callable[[list[AgentState]], list[MoveIntent]],
    t: int,
    wait_cost: float | None,
) -> tuple[list[AgentState], frozenset[int], StepRecord]:
    """One timestep of either method, from the targets ``assign_targets``
    gave to the record: the kernel of ``step`` and of the baseline's.

    One loop over the agents claims the assigned targets (an agent with
    none finishes) and collects the active ones; ``choose(active)`` is the
    method's edge choice and returns their intents. One loop over the
    intents collects the moves, the traversed edges and the waits, and one
    over the agents moves them and drops the targets under them. A
    ``wait_cost`` of None pays every move's edge, in intent order, as
    non-joining vehicles do; otherwise the step pays each traversed edge
    once, in sorted order, plus ``wait_cost`` per wait.
    """
    staged, active = [], []
    for agent in agents:
        if not agent.finished:
            target = assignment[agent.agent_id]
            if target is None or target != agent.assigned_target:
                agent = _agent(agent.agent_id, agent.position, target, target is None)
            if target is not None:
                active.append(agent)
        staged.append(agent)
    intents = choose(active)

    moved, edges, n_waiting, intent_fields = {}, [], 0, []
    for intent in intents:
        agent_id, src, dst, waiting = intent.agent_id, intent.src, intent.dst, intent.waiting
        moved[agent_id] = dst
        if src != dst:
            edges.append((src, dst))
        if waiting:
            n_waiting += 1
        intent_fields += agent_id, src, dst, waiting
    next_agents, under = [], set()
    for agent in staged:
        dst = moved.get(agent.agent_id, agent.position)
        if dst != agent.position:  # a moved agent is active, so not finished
            agent = _agent(agent.agent_id, dst, agent.assigned_target, False)
        next_agents.append(agent)
        under.add(dst)

    weight = cache.graph._weights.__getitem__
    if wait_cost is None:
        step_cost = sum(map(weight, edges), 0.0)
    else:
        step_cost = sum(map(weight, sorted(set(edges)))) + wait_cost * n_waiting
    key = (*intent_fields, t, type(t), step_cost, type(step_cost))
    record = _records.get(key) or _intern(_records, key, StepRecord(t, tuple(intents), step_cost))
    return next_agents, frozenset(unvisited) - under, record


def run_mission(
    mission: Mission,
    params: ForceParams | None = None,
    seed: int = 0,
    max_steps: int | None = None,
    *,
    wait_cost: float = 0.0,
    waiting: bool = True,
    cache: PathCache | None = None,
) -> MissionResult:
    """Run the force-based router until all targets are visited.

    Each timestep is one ``step``; ``simulate`` runs the loop, so the
    step cap and the abort diagnostics are those it describes. With
    ``waiting=False`` nothing breaks a head-on swap deadlock: two agents
    can trade nodes forever, and such a run ends only at the step cap
    (``4 * m**2`` steps by default) with ``completed=False``. This happens
    on ordinary missions, e.g. 3 of 9 seeded 8x8 missions in
    ``tests/test_simulate.py``. A negative, NaN or infinite ``wait_cost``
    raises ValueError, and so do a ``seed`` that is not an int
    (``check_int``) and a ``cache`` built for a graph whose edges or
    weights differ from ``mission.graph``'s.
    """
    _check_wait_cost(wait_cost)
    check_int("seed", seed)
    params = params or ForceParams()
    cache = _cache_for(mission.graph, cache)
    rng = random.Random(seed)
    return simulate(mission, max_steps, lambda agents, unvisited, t: step(
        cache, agents, unvisited, params, rng, t=t, wait_cost=wait_cost, waiting=waiting,
    ))
