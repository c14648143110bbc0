import collections
import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest

from modroute import (
    AgentState,
    EdgeForces,
    ForceParams,
    Graph,
    InfeasibleMissionError,
    Mission,
    MissionResult,
    MoveIntent,
    Path,
    PathCache,
    StepRecord,
    assign_targets,
    attractive_force,
    compute_edge_forces,
    load_edge_list,
    make_grid_graph,
    resolve_waits,
    run_mission,
    run_nonmodular_baseline,
    select_edge,
    step,
)
from modroute import engine
from modroute.engine import _INTERNED, _agent, _choose_edge, _intent, _path
from modroute.experiments import generate_random_mission
from modroute.paths import _shrink_factor

from _fixtures import (
    CHAIN_PARAMS,
    EIGHT_NODE_PARAMS,
    SHARED_CORRIDOR_PARAMS,
    chain_mission,
    eight_node_graph,
    eight_node_mission,
    shared_corridor_mission,
)
from _oracles import (
    _reference_assign_targets,
    _reference_resolve_waits,
    random_digraph,
    reference_edge_forces,
    reference_step,
)


class TestForceParams:
    def test_defaults(self):
        p = ForceParams()
        assert (p.alpha, p.beta, p.k) == (0.5, 1.0, 5)

    def test_rejects_both_scales_zero(self):
        with pytest.raises(ValueError):
            ForceParams(alpha=0.0, beta=0.0)

    def test_rejects_negative_and_bad_k(self):
        with pytest.raises(ValueError):
            ForceParams(alpha=-1.0)
        with pytest.raises(ValueError):
            ForceParams(k=0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_rejects_a_k_that_is_not_an_int(self, k):
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            ForceParams(k=k)

    @pytest.mark.parametrize("scale", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nan_scales(self, scale, value):
        with pytest.raises(ValueError, match="alpha and beta must be finite and non-negative"):
            ForceParams(**{scale: value})

    @pytest.mark.parametrize("scale", ["alpha", "beta"])
    @pytest.mark.parametrize("value, message", [
        (10**400, "within the float range"),
        (True, "an int or a float, got True"),
        ("0.5", "an int or a float, got '0.5'"),
    ])
    def test_rejects_a_scale_that_is_not_an_int_or_a_float(self, scale, value, message):
        with pytest.raises(ValueError, match=f"{scale} must be {message}"):
            ForceParams(**{scale: value})


class TestAttractiveForce:
    def test_inverse_square_values(self):
        assert attractive_force(1.0, 2.0) == 0.25
        assert attractive_force(1.0, 4.0) == 0.0625

    def test_zero_scale(self):
        assert attractive_force(0.0, 7.0) == 0.0

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            attractive_force(1.0, 0.0)
        with pytest.raises(ValueError):
            attractive_force(1.0, -2.0)

    def test_distance_whose_square_underflows_rejected(self):
        with pytest.raises(ValueError, match="distance 1e-170 squared underflows"):
            attractive_force(1.0, 1e-170)
        # squares that are tiny but positive, even subnormal, keep the plain formula
        assert attractive_force(1.0, 1e-150) == 1.0 / (1e-150 * 1e-150)
        assert attractive_force(2.0**-1000, 2.0**-537) == 2.0**74


class TestAssignTargets:
    def test_tie_breaks_toward_smaller_target_id(self):
        g = eight_node_graph()
        agents = [AgentState(0, 0)]
        assert assign_targets(PathCache(g), agents, {6, 7}) == {0: 6}

    def test_empty_unvisited_maps_everyone_to_none(self):
        g = eight_node_graph()
        agents = [AgentState(0, 0), AgentState(1, 1)]
        assert assign_targets(PathCache(g), agents, set()) == {0: None, 1: None}

    def test_agent_standing_on_only_target_claims_it(self):
        g = eight_node_graph()
        assert assign_targets(PathCache(g), [AgentState(0, 6)], {6}) == {0: 6}

    def test_colocated_agents_fan_out_over_tied_targets(self):
        g = eight_node_graph()
        agents = [AgentState(0, 5), AgentState(1, 5)]
        assert assign_targets(PathCache(g), agents, {6, 7}) == {0: 6, 1: 7}

    def test_strictly_nearest_target_may_be_shared(self):
        # both agents are strictly nearest to node 2; no tie, so they conflict
        g = load_edge_list("0 1 1.0\n1 2 1.0\n3 2 1.0\n2 4 5.0\n4 5 1.0")
        agents = [AgentState(0, 1), AgentState(1, 3)]
        assert assign_targets(PathCache(g), agents, {2, 5}) == {0: 2, 1: 2}

    def test_surplus_agent_with_all_targets_claimed_gets_none(self):
        g = eight_node_graph()
        agents = [AgentState(0, 5), AgentState(1, 5), AgentState(2, 5)]
        out = assign_targets(PathCache(g), agents, {6, 7})
        assert out[0] == 6 and out[1] == 7 and out[2] is None

    def test_unreachable_target_gives_none(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        assert assign_targets(PathCache(g), [AgentState(0, 0)], {3}) == {0: None}

    def test_finished_agents_are_skipped(self):
        g = eight_node_graph()
        agents = [AgentState(0, 0, finished=True), AgentState(1, 1)]
        out = assign_targets(PathCache(g), agents, {6, 7})
        assert 0 not in out and out[1] == 6


class TestComputeEdgeForces:
    def test_demo_values_are_exact(self):
        g = eight_node_graph()
        a0 = AgentState(0, 0, assigned_target=6)
        a1 = AgentState(1, 1, assigned_target=7)
        forces = compute_edge_forces(PathCache(g), a0, [a1], EIGHT_NODE_PARAMS)
        assert forces.entries[(0, 4)] == 0.3125
        assert forces.entries[(0, 3)] == 1 / 9 + 1 / 25
        assert forces.entries[(0, 2)] == 1 / 9 + 1 / 25
        assert set(forces.entries) == {(0, 2), (0, 3), (0, 4)}

    def test_lone_agent_without_target_has_empty_map(self):
        g = eight_node_graph()
        forces = compute_edge_forces(PathCache(g), AgentState(0, 0), [], EIGHT_NODE_PARAMS)
        assert forces.entries == {}

    def test_colocated_and_finished_agents_exert_no_pull(self):
        g = eight_node_graph()
        a0 = AgentState(0, 0, assigned_target=6)
        samespot = AgentState(1, 0)
        done = AgentState(2, 1, finished=True)
        forces = compute_edge_forces(PathCache(g), a0, [samespot, done], EIGHT_NODE_PARAMS)
        only_target = compute_edge_forces(PathCache(g), a0, [], EIGHT_NODE_PARAMS)
        assert forces.entries == only_target.entries

    def test_force_sum_variant_adds_paths_sharing_first_edge(self):
        # line 0-1-2 plus a detour 0-3-2: paths (0,1,2) and (0,3,2) have
        # distinct first edges, but (0,1,2) and (0,1,3...) do not exist, so
        # use a diamond where two sampled paths share the first edge.
        g = load_edge_list("0 1 1.0\n1 2 1.0\n1 3 1.0\n3 2 1.0\n")
        agent = AgentState(0, 0, assigned_target=2)
        max_variant = compute_edge_forces(PathCache(g), agent, [], ForceParams(0.5, 1.0, 3))
        sum_variant = compute_edge_forces(PathCache(g), agent, [], ForceParams(0.5, 1.0, 3, force_sum=True))
        # paths (0,1,2) w=2 and (0,1,3,2) w=3 both start with (0,1)
        assert max_variant.entries[(0, 1)] == 1 / 4
        assert sum_variant.entries[(0, 1)] == 1 / 4 + 1 / 9


def _seeded_force_states(graph_seed, count):
    """Random 8x8 fleets: some agents co-located, some finished, some
    without a target; yields (agent, others) with agents in id order."""
    return _fleet_states(random.Random(f"forces-{graph_seed}"), 64, count)


def _fleet_states(rng, m, count):
    """Random fleets on nodes ``0..m-1``; yields (agent, others)."""
    for _ in range(count):
        n = rng.randint(2, 6)
        spots = rng.sample(range(m), rng.randint(1, min(n, m)))
        fleet = [
            AgentState(i, rng.choice(spots), rng.choice([None] + list(range(m))),
                       rng.random() < 0.2)
            for i in range(n)
        ]
        for agent in fleet:
            if not agent.finished:
                yield agent, [o for o in fleet if o is not agent]


class _CountingCache(PathCache):
    """A PathCache that counts its k-shortest queries and misses by k. A
    ``cached_k_shortest`` lookup that finds a set counts as a query, as the
    ``k_shortest`` hit it stands in for would; one that finds none computes
    nothing and is not counted."""

    queries = 0

    def __init__(self, graph):
        super().__init__(graph)
        self.by_k, self.misses = collections.Counter(), collections.Counter()
        lookup = self.cached_k_shortest

        def counted_lookup(key):
            found = lookup(key)
            if found is not None:
                self.queries += 1
                self.by_k[key[2]] += 1
            return found

        self.cached_k_shortest = counted_lookup

    def k_shortest(self, src, dst, k):
        self.queries += 1
        self.by_k[k] += 1
        self.misses[k] += (src, dst, k) not in self._kpaths
        return super().k_shortest(src, dst, k)

    @property
    def bounded(self):
        """The k=1 queries: while the chooser's k is above 1, its reads for
        bounds (engine docstring, point 4)."""
        return self.by_k[1]


def _choose_on_both_tiers(reference, fresh, agent, others, params, seen):
    """``_choose_edge`` on a cache that holds only what the chooser asked
    for (first tier, with the k-sets it fetches) and on ``reference`` after
    ``compute_edge_forces`` filled it (exact tier). True if both give the
    reference's move; ``seen`` counts how each first-tier choice ended:
    with a k-set fetched, or settled with bounds read and none fetched."""
    want = select_edge(compute_edge_forces(reference, agent, others, params), agent.position)
    fetched, read = fresh.misses[params.k], fresh.bounded
    got = _choose_edge(fresh, agent, others[::-1], params)
    bounded = reference.bounded
    exact = _choose_edge(reference, agent, others, params)
    if params.k > 1:  # with k = 1 the k-set is the set the bounds are read from
        if fresh.misses[params.k] > fetched:
            seen["fetched"] += 1
        elif fresh.bounded > read:
            seen["settled_by_bounds"] += 1
        seen["exact_tier_used_bounds"] += reference.bounded > bounded
    return got == want == exact


class TestFirstHopForcesMatchPerPathLoop:
    """``compute_edge_forces`` over first-hop tables, fed the fleet in either
    order, gives exactly what the original per-path loop gave: same edges,
    same order, same float bits. ``_choose_edge`` picks exactly what
    ``select_edge`` picks from them."""

    SCALES = [(0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0), (3.7, 0.3), (0.1, 2.9)]
    FETCHED_SETTLED = {False: (513, 5495), True: (1951, 391)}  # by force_sum

    @pytest.mark.parametrize("force_sum", [False, True], ids=["max", "force_sum"])
    def test_seeded_8x8_states(self, force_sum):
        mismatches, calls, colocated, finished = [], 0, 0, 0
        multi_hop_groups, order_sensitive_sums = 0, 0
        wrong_choices, sources, scored = [], 0, 0
        tiers, seen = [], collections.Counter()
        for graph_seed in range(3):
            graph = make_grid_graph(8, 8, seed=graph_seed)
            cache = _CountingCache(graph)
            for agent, others in _seeded_force_states(graph_seed, 40):
                colocated += any(o.position == agent.position for o in others)
                finished += any(o.finished for o in others)
                fresh = {k: _CountingCache(graph) for k in (1, 3, 5, 8)}
                for alpha, beta in self.SCALES:
                    for k in (1, 3, 5, 8):
                        params = ForceParams(alpha, beta, k, force_sum)
                        before = cache.queries
                        chosen = _choose_edge(cache, agent, others[::-1], params)
                        scored += cache.queries - before
                        before = cache.queries
                        forces = compute_edge_forces(cache, agent, others, params)
                        sources += cache.queries - before
                        if chosen != select_edge(forces, agent.position):
                            wrong_choices.append((graph_seed, agent, others, params))
                        want = [(e, f.hex()) for e, f in
                                reference_edge_forces(cache, agent, others, params).items()]
                        reordered = compute_edge_forces(cache, agent, others[::-1], params)
                        for got in (forces.entries, reordered.entries):
                            if [(e, f.hex()) for e, f in got.items()] != want:
                                mismatches.append((graph_seed, agent, others, params))
                        if not _choose_on_both_tiers(cache, fresh[k], agent, others, params, seen):
                            tiers.append((graph_seed, agent, others, params))
                        calls += 1
                if agent.assigned_target is not None:
                    for _, weights in cache.k_shortest(agent.position, agent.assigned_target, 8).first_hops:
                        forces = [1.0 / (d * d) for d in weights]
                        multi_hop_groups += len(set(weights)) > 1
                        order_sensitive_sums += sum(forces, 0.0) != sum(reversed(forces), 0.0)
        assert mismatches == [] and wrong_choices == [] and tiers == []
        assert calls > 2000
        # the lightest paths alone settle some moves, others fetch k-sets,
        # and with every k-set cached no bound is asked for
        assert seen["settled_by_bounds"] > 0 and seen["fetched"] > 0
        assert seen["exact_tier_used_bounds"] == 0
        # The counts pin how tight the bounds are: a looser bound (h0 given
        # an L_v too) fetches more k-sets, a tighter, unsound one (h' not
        # shrunk) settles more moves. A change to the tier rules updates them.
        assert (seen["fetched"], seen["settled_by_bounds"]) == self.FETCHED_SETTLED[force_sum]
        # the states exercise every case the two loops could disagree on
        assert colocated > 0 and finished > 0
        assert multi_hop_groups > 0 and order_sensitive_sums > 0
        # the bounded choice skips sources, so the pruning is exercised
        assert scored < sources


@pytest.mark.parametrize("force_sum", [False, True], ids=["max", "force_sum"])
class TestTwoTierEdgeChoice:
    """``_choose_edge`` from first-hop bounds (fresh caches) and from k-sets
    (filled caches) gives the reference's move on graphs where the bounds
    leave hops out or carry no heuristic."""

    PARAMS = [(0.5, 1.0, 1), (0.5, 1.0, 5), (3.7, 0.3, 3), (0.1, 2.9, 8), (1.0, 0.0, 5)]

    def _check(self, graphs, force_sum, states_per_graph):
        wrong, seen = [], collections.Counter()
        for graph_no, (graph, rng) in enumerate(graphs):
            reference = _CountingCache(graph)
            fresh = {k: _CountingCache(graph) for _, _, k in self.PARAMS}
            for agent, others in _fleet_states(rng, graph.node_count, states_per_graph):
                for alpha, beta, k in self.PARAMS:
                    params = ForceParams(alpha, beta, k, force_sum)
                    if not _choose_on_both_tiers(reference, fresh[k], agent, others, params, seen):
                        wrong.append((graph_no, agent, others, params))
            for k, cache in fresh.items():
                for (src, dst, k_read), found in cache._kpaths.items():
                    if k > 1 and k_read == 1 and found.first_hops:  # a read for bounds
                        h0, h = found.first_hops[0][0], cache._heuristic_to(dst)
                        seen["hops_left_out"] += sum(v != h0 and h[v] == math.inf for v, _ in graph.out_edges(src))
        assert wrong == []
        assert seen["settled_by_bounds"] > 0 and seen["fetched"] > 0
        assert seen["exact_tier_used_bounds"] == 0
        return seen

    def test_one_way_digraphs(self, force_sum):
        # one-way edges: some out-neighbours cannot reach the source (h' = inf)
        rng = random.Random("one-way")
        graphs = []
        while len(graphs) < 30:
            m, edges = random_digraph(rng, max_nodes=10, edge_prob=0.3)
            if edges:
                graphs.append((Graph(m, edges), rng))
        assert self._check(graphs, force_sum, 6)["hops_left_out"] > 0

    def test_zero_heuristic_graph(self, force_sum):
        # the paths module's example: weights 1e-12 and 7e3 fail the shrink
        # bound, so h' = 0 and every bound is the edge weight alone
        rng = random.Random("zero-heuristic")
        edges = []
        for node in range(36):
            for nbr in ([node + 1] if node % 6 < 5 else []) + ([node + 6] if node < 30 else []):
                w = rng.choice((1e-12, 7e3))
                edges += [(node, nbr, w), (nbr, node, w)]
        graph = Graph(36, edges)
        assert _shrink_factor(graph) == 0.0
        self._check([(graph, rng)], force_sum, 60)

    @pytest.mark.parametrize("scale", [1e150])
    def test_weights_whose_squares_overflow(self, force_sum, scale):
        # A 6x6 grid's weights lie in [0.5, 1.5) times scale. At 1e150 no path
        # weight squares past the float range, and both tiers give the
        # reference's move. Graph rejects a weight sum past 2**511, so a
        # scale at which some square overflows cannot be built.
        graph = Graph(36, [(u, v, w * scale) for u, v, w in make_grid_graph(6, 6, seed=1).edges()])
        reference, seen, wrong, all_zero = _CountingCache(graph), collections.Counter(), [], 0
        fresh = {k: _CountingCache(graph) for _, _, k in self.PARAMS}
        for agent, others in _fleet_states(random.Random(f"overflow-{scale}"), 36, 40):
            for alpha, beta, k in self.PARAMS:
                params = ForceParams(alpha, beta, k, force_sum)
                if not _choose_on_both_tiers(reference, fresh[k], agent, others, params, seen):
                    wrong.append((agent, others, params))
                totals = compute_edge_forces(reference, agent, others, params).entries.values()
                all_zero += bool(totals) and not any(totals)
        assert wrong == []
        assert all_zero == 0


@pytest.mark.parametrize("force_sum", [False, True], ids=["max", "force_sum"])
class TestBoundedEdgeChoice:
    """Hand-built cases for ``_choose_edge``: each gives the reference's move."""

    @staticmethod
    def _reference(cache, agent, others, params):
        return select_edge(compute_edge_forces(cache, agent, others, params), agent.position)

    def test_totals_one_ulp_apart_are_folded_in_the_reference_order(self, force_sum, monkeypatch):
        # All distances are 1, so each force is its scale. Edge (0, 2) gets
        # 1 + a + a folded target first, 2**54 + 8; in bound order, a + a + 1,
        # it would tie (0, 1)'s a + a = 2**54 + 4, one ulp below.
        a = 2.0**53 + 2
        cache = PathCache(load_edge_list("0 1 1.0\n0 2 1.0"))
        agent = AgentState(0, 0, assigned_target=2)
        others = [AgentState(1, 2), AgentState(2, 2), AgentState(3, 1), AgentState(4, 1)]
        params = ForceParams(alpha=a, beta=1.0, k=1, force_sum=force_sum)
        totals = compute_edge_forces(cache, agent, others, params).entries
        assert totals[(0, 2)] - totals[(0, 1)] == math.ulp(totals[(0, 1)])
        folds = []
        monkeypatch.setattr(engine, "select_edge", lambda f, p: folds.append(f) or select_edge(f, p))
        assert _choose_edge(cache, agent, others, params) == MoveIntent(0, 0, 2)
        assert [f.entries for f in folds] == [totals]  # the fold, not the partial totals, decided

    def test_totals_that_tie_exactly_though_the_partials_differ(self, force_sum):
        # In bound order the partial totals of (0, 2) and (0, 1) end one
        # ulp apart; folded target first they tie, and the tie goes to the
        # smaller node. Only the rounding slack keeps the choice from stopping.
        cache = PathCache(Graph(7, [(0, 1, 1.5), (0, 2, 1.5), (1, 3, 0.1), (1, 4, 0.25),
                                    (2, 5, 0.1), (2, 6, 0.7)]))
        agent = AgentState(0, 0, assigned_target=2)
        others = [AgentState(1, 3), AgentState(2, 5), AgentState(3, 2), AgentState(4, 1)]
        params = ForceParams(alpha=0.5, beta=1e-16, k=1, force_sum=force_sum)
        totals = compute_edge_forces(cache, agent, others, params).entries
        assert totals[(0, 1)] == totals[(0, 2)]
        assert _choose_edge(cache, agent, others, params) == MoveIntent(0, 0, 1)

    def test_unreachable_source_is_never_queried(self, force_sum):
        # node 3 reaches 0, but 0 cannot reach 3
        cache = _CountingCache(load_edge_list("0 1 1.0\n1 2 1.0\n3 0 1.0"))
        params = ForceParams(k=3, force_sum=force_sum)
        agent, stranded = AgentState(0, 0, assigned_target=2), AgentState(1, 3)
        assert _choose_edge(cache, agent, [stranded], params) == MoveIntent(0, 0, 1)
        assert cache.queries == cache.bounded == 1 and all(dst != 3 for _, dst, _ in cache._kpaths)
        want = self._reference(cache, agent, [stranded], params)
        assert _choose_edge(cache, agent, [stranded], params) == want
        # with no reachable source the agent waits, as the reference does
        for lone in (AgentState(0, 0), AgentState(0, 0, assigned_target=3)):
            for others in ([stranded], [stranded, AgentState(2, 3)]):
                want = self._reference(cache, lone, others, params)
                assert want.waiting and _choose_edge(cache, lone, others, params) == want

    def test_colocated_finished_and_self_exert_no_pull(self, force_sum):
        cache = _CountingCache(eight_node_graph())
        params = ForceParams(alpha=1.0, beta=1.0, k=3, force_sum=force_sum)
        agent = AgentState(0, 0, assigned_target=6)
        others = [agent, AgentState(1, 0, assigned_target=7), AgentState(2, 1, finished=True)]
        want = self._reference(cache, agent, others, params)
        cache.queries = 0
        assert _choose_edge(cache, agent, others, params) == want == MoveIntent(0, 0, 4)
        assert cache.queries == 1  # the target is the only source
        assert _choose_edge(cache, AgentState(3, 1), [AgentState(4, 1)], params).waiting

    @pytest.mark.parametrize("others", [[], [AgentState(1, 2)]], ids=["lone", "two_sources"])
    def test_bad_nodes_raise_the_reference_error(self, force_sum, others):
        cache = PathCache(Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]))
        params = ForceParams(force_sum=force_sum)
        stray = AgentState(0, 0, assigned_target=-1)
        with pytest.raises(ValueError, match="node -1 out of range"):
            compute_edge_forces(cache, stray, others, params)
        with pytest.raises(ValueError, match="node -1 out of range"):
            _choose_edge(cache, stray, others, params)


def _integer_grid(seed):
    """8x8 grid with integer weights 1-3, so equal distances are common and
    co-located agents fan out over equally near targets."""
    rng = random.Random(seed)
    edges = []
    for node in range(64):
        for nbr in ([node + 1] if node % 8 < 7 else []) + ([node + 8] if node < 56 else []):
            w = float(rng.randint(1, 3))
            edges += [(node, nbr, w), (nbr, node, w)]
    return Graph(64, edges)


class TestPlatoonStepMatchesPerAgentStep:
    """``step`` scores each co-located group once, assigns targets once per
    position and visits only triggering wait pairs, yet gives exactly what
    the original per-agent step gave: same agents, same unvisited set, same
    record, same float bits and the same random draws."""

    PARAMS = [
        ForceParams(alpha, beta, k, force_sum)
        for alpha, beta in [(0.5, 1.0), (0.0, 1.0), (0.5, 0.0)]
        for k in (1, 5)
        for force_sum in (False, True)
    ]

    def test_seeded_8x8_states(self):
        mismatches, compared, same_target, split_targets, draws = [], 0, 0, 0, 0
        for graph_no, graph in enumerate(
            [make_grid_graph(8, 8, seed=0), _integer_grid(1), _integer_grid(2)]
        ):
            cache = PathCache(graph)
            rng = random.Random(f"platoons-{graph_no}")
            for _ in range(8):
                spots = rng.sample(range(64), rng.randint(1, 3))
                fleet = [AgentState(i, rng.choice(spots), None, rng.random() < 0.1)
                         for i in range(rng.randint(2, 7))]
                free = [v for v in range(64) if v not in spots]
                targets = frozenset(rng.sample(free, rng.randint(2, 10)))
                for params, waiting in itertools.product(self.PARAMS, (True, False)):
                    agents, unvisited = fleet, targets
                    seed = rng.getrandbits(32)
                    got_rng, want_rng = random.Random(seed), random.Random(seed)
                    for t in range(1, 9):
                        if not unvisited:
                            break
                        kwargs = dict(t=t, wait_cost=0.25, waiting=waiting)
                        before = want_rng.getstate()
                        got = step(cache, agents, unvisited, params, got_rng, **kwargs)
                        want = reference_step(cache, agents, unvisited, params, want_rng, **kwargs)
                        if (got != want or got[2].step_cost.hex() != want[2].step_cost.hex()
                                or got_rng.getstate() != want_rng.getstate()):
                            mismatches.append((graph_no, agents, unvisited, params, waiting))
                        compared += 1
                        draws += want_rng.getstate() != before
                        target_of = {a.agent_id: a.assigned_target for a in want[0]}
                        groups = {}
                        for intent in want[2].intents:
                            groups.setdefault(intent.src, []).append(target_of[intent.agent_id])
                        for group in groups.values():
                            same_target += len(set(group)) < len(group)
                            split_targets += len(set(group)) > 1
                        agents, unvisited = want[:2]
        assert mismatches == []
        assert compared > 2000
        # co-located groups both share and split targets, and tie draws happen
        assert same_target > 0 and split_targets > 0 and draws > 0


class TestStepOnOneWayDigraphs:
    """On random digraphs, where many edges run one way, ``step`` still gives
    exactly what the original per-agent step gave, also as agents finish
    because no unvisited target is reachable or because every reachable
    one is claimed."""

    def test_seeded_digraph_states(self):
        mismatches, compared, unreachable, all_claimed = [], 0, 0, 0
        rng = random.Random("one-way-steps")
        for _ in range(60):
            m, edges = random_digraph(rng, max_nodes=10, edge_prob=0.3)
            if not edges:
                continue
            cache = PathCache(Graph(m, edges))
            fleet = [AgentState(i, rng.randrange(m), None, rng.random() < 0.1)
                     for i in range(rng.randint(2, 6))]
            targets = frozenset(rng.sample(range(m), rng.randint(1, min(m, 5))))
            targets -= {a.position for a in fleet}
            params_sets = TestPlatoonStepMatchesPerAgentStep.PARAMS[::3]
            for params, waiting in itertools.product(params_sets, (True, False)):
                agents, unvisited = fleet, targets
                seed = rng.getrandbits(32)
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                for t in range(1, 9):
                    if not unvisited:
                        break
                    kwargs = dict(t=t, wait_cost=0.25, waiting=waiting)
                    got = step(cache, agents, unvisited, params, got_rng, **kwargs)
                    want = reference_step(cache, agents, unvisited, params, want_rng, **kwargs)
                    if (got != want or got[2].step_cost.hex() != want[2].step_cost.hex()
                            or got_rng.getstate() != want_rng.getstate()):
                        mismatches.append((m, edges, agents, unvisited, params, waiting))
                    compared += 1
                    for before, after in zip(agents, want[0]):
                        if after.finished and not before.finished:
                            dist = cache.distances(before.position)
                            if any(dist[x] < math.inf for x in unvisited):
                                all_claimed += 1
                            else:
                                unreachable += 1
                    agents, unvisited = want[:2]
        assert mismatches == []
        assert compared > 1000
        assert unreachable > 0 and all_claimed > 0


def _seeded_wait_states(graph, rng, count):
    """Random fleets on ``graph``, every agent with an intent: a wait, a move
    onto an adjacent agent's node, or a move to a random out-neighbour.
    The agents stand within two hops of one node, some share a node and
    some have no target; now and then the intents are shuffled out of the
    agents' order. Yields (intents, agents)."""
    m = graph.node_count
    for _ in range(count):
        area = {rng.randrange(m)}
        for _ in range(2):
            area |= {v for u in area for v, _ in graph.out_edges(u)}
        spots = rng.sample(sorted(area), rng.randint(1, 5))
        fleet = [AgentState(i, rng.choice(spots), rng.choice([None] + list(range(m))))
                 for i in range(rng.randint(2, 7))]
        intents = []
        for agent in fleet:
            out = [v for v, _ in graph.out_edges(agent.position)]
            near = [a.position for a in fleet if a.position in out]
            roll = rng.random()
            if roll < 0.15:
                intents.append(MoveIntent(agent.agent_id, agent.position, agent.position, True))
            else:
                dst = rng.choice(near) if near and roll < 0.5 else rng.choice(out)
                intents.append(MoveIntent(agent.agent_id, agent.position, dst))
        if rng.random() < 0.2:
            rng.shuffle(intents)
        yield intents, fleet


class TestFastPathsMatchOracles:
    """``resolve_waits`` and ``assign_targets`` give exactly what the frozen
    original layer functions gave, on seeded inputs that reach every branch."""

    def test_resolve_waits_with_and_without_a_landing(self):
        mismatches, compared, landed, quiet, shuffled, draws = [], 0, 0, 0, 0, 0
        for graph_no, graph in enumerate(
            [make_grid_graph(8, 8, seed=0), _integer_grid(1), _integer_grid(2)]
        ):
            cache = PathCache(graph)
            rng = random.Random(f"waits-{graph_no}")
            for intents, agents in _seeded_wait_states(graph, rng, 1500):
                seed = rng.getrandbits(32)
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = resolve_waits(cache, intents, agents, got_rng)
                want = _reference_resolve_waits(intents, agents, want_rng, cache)
                if got != want or got_rng.getstate() != want_rng.getstate():
                    mismatches.append((graph_no, intents, agents))
                compared += 1
                draws += want_rng.getstate() != random.Random(seed).getstate()
                occupied = {a.position for a in agents}
                lands = any(not i.waiting and i.dst in occupied for i in intents)
                landed += lands
                quiet += not lands
                shuffled += [i.agent_id for i in intents] != [a.agent_id for a in agents]
        assert mismatches == []
        assert compared == 4500
        # steps with and without a landing, shuffled intents and tie draws all occur
        assert landed > 500 and quiet > 500 and shuffled > 0 and draws > 0

    def test_resolve_waits_on_a_move_onto_its_own_node(self):
        # Only a direct caller writes a non-waiting intent onto the agent's
        # own node; beside a co-located agent it forms no pair.
        mismatches, compared = [], 0
        graph = _integer_grid(1)
        cache, rng = PathCache(graph), random.Random("waits-in-place")
        for intents, agents in _seeded_wait_states(graph, rng, 600):
            shared = [a for a in agents if [b.position for b in agents].count(a.position) > 1]
            if not shared:
                continue
            mover = rng.choice(shared).agent_id
            intents = [MoveIntent(i.agent_id, i.src, i.src) if i.agent_id == mover else i for i in intents]
            seed = rng.getrandbits(32)
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = resolve_waits(cache, intents, agents, got_rng)
            want = _reference_resolve_waits(intents, agents, want_rng, cache)
            if got != want or got_rng.getstate() != want_rng.getstate():
                mismatches.append((intents, agents))
            compared += 1
        assert mismatches == []
        assert compared > 200

    def test_resolve_waits_rejects_two_intents_for_one_agent(self):
        # the first intent used to vanish, and the second came back twice
        cache = PathCache(eight_node_graph())
        a0, a1 = AgentState(0, 0, assigned_target=6), AgentState(1, 1, assigned_target=7)
        with pytest.raises(ValueError, match=r"more than one intent for agent\(s\) \[0\]"):
            resolve_waits(cache, [MoveIntent(0, 0, 4), MoveIntent(0, 0, 2)], [a0], random.Random(0))
        with pytest.raises(ValueError, match=r"more than one intent for agent\(s\) \[1\]"):
            resolve_waits(cache, [MoveIntent(1, 1, 4), MoveIntent(0, 0, 4), MoveIntent(1, 1, 0)],
                          [a0, a1], random.Random(0))

    def test_resolve_waits_still_rejects_an_intent_of_no_agent(self):
        agents = [AgentState(0, 0, assigned_target=6), AgentState(1, 1, assigned_target=7)]
        intents = [MoveIntent(0, 0, 4), MoveIntent(2, 1, 4)]
        with pytest.raises(KeyError):
            resolve_waits(PathCache(eight_node_graph()), intents, agents, random.Random(0))

    def test_assign_targets_on_random_digraphs(self):
        mismatches, compared = [], 0
        unreachable, all_claimed, free_tie = 0, 0, 0
        rng = random.Random("assign")
        for _ in range(300):
            m, edges = random_digraph(rng, max_nodes=9, edge_prob=0.2)
            if not edges:
                continue
            cache = PathCache(Graph(m, edges))
            for _ in range(10):
                agents = [AgentState(i, rng.randrange(m), None, rng.random() < 0.1)
                          for i in range(rng.randint(1, 6))]
                unvisited = set(rng.sample(range(m), rng.randint(0, min(m, 4))))
                got = assign_targets(cache, agents, unvisited)
                want = _reference_assign_targets(agents, unvisited, cache)
                if got != want:
                    mismatches.append((m, edges, agents, unvisited))
                compared += 1
                claimed = set()
                for agent in sorted((a for a in agents if not a.finished), key=lambda a: a.agent_id):
                    dist = cache.distances(agent.position)
                    reach = [t for t in sorted(unvisited) if dist[t] < math.inf]
                    nearest = [t for t in reach if dist[t] == min(dist[r] for r in reach)]
                    free = [t for t in nearest if t not in claimed]
                    unreachable += not reach
                    all_claimed += bool(reach) and claimed.issuperset(reach)
                    free_tie += bool(free) and free[0] != nearest[0]
                    if want[agent.agent_id] is not None:
                        claimed.add(want[agent.agent_id])
        assert mismatches == []
        assert compared > 2000
        # no reachable target, every reachable one claimed, a free exact tie
        assert unreachable > 0 and all_claimed > 0 and free_tie > 0


class TestSelectEdge:
    def test_argmax_edge_wins(self):
        forces = EdgeForces(0, {(0, 4): 0.3125, (0, 3): 0.15, (0, 2): 0.15})
        intent = select_edge(forces, 0)
        assert (intent.src, intent.dst, intent.waiting) == (0, 4, False)

    def test_exact_tie_prefers_smaller_destination(self):
        forces = EdgeForces(0, {(0, 7): 0.5, (0, 3): 0.5})
        assert select_edge(forces, 0).dst == 3

    def test_empty_map_waits_in_place(self):
        intent = select_edge(EdgeForces(3, {}), 5)
        assert (intent.agent_id, intent.src, intent.dst, intent.waiting) == (3, 5, 5, True)


class TestResolveWaits:
    def test_swap_pair_shorter_distance_waits(self):
        # A at 0 (target 2 at distance 5), B at 1 (target 3 at distance 7)
        g = load_edge_list("0 1 1.0\n0 2 5.0\n1 3 7.0")
        a = AgentState(0, 0, assigned_target=2)
        b = AgentState(1, 1, assigned_target=3)
        intents = [MoveIntent(0, 0, 1), MoveIntent(1, 1, 0)]
        out = resolve_waits(PathCache(g), intents, [a, b], random.Random(0))
        assert out[0].waiting and out[0].dst == 0
        assert not out[1].waiting and out[1].dst == 0

    def test_independent_intents_pass_through(self):
        g = eight_node_graph()
        a = AgentState(0, 0, assigned_target=6)
        b = AgentState(1, 1, assigned_target=7)
        intents = [MoveIntent(0, 0, 4), MoveIntent(1, 1, 4)]
        assert resolve_waits(PathCache(g), intents, [a, b], random.Random(0)) == intents

    def test_equal_distance_tie_uses_seeded_draw(self):
        g = load_edge_list("0 1 1.0\n0 2 5.0\n1 3 5.0")
        a = AgentState(0, 0, assigned_target=2)
        b = AgentState(1, 1, assigned_target=3)
        intents = [MoveIntent(0, 0, 1), MoveIntent(1, 1, 0)]
        out = resolve_waits(PathCache(g), intents, [a, b], random.Random(42))
        # frozen draw: with seed 42 the second agent waits
        assert [i.waiting for i in out] == [False, True]
        again = resolve_waits(PathCache(g), intents, [a, b], random.Random(42))
        assert again == out
        assert sum(i.waiting for i in out) == 1

    def test_catchup_host_waits_for_incoming_agent(self):
        # B steps onto A's node; A is closer to its target, so A pauses
        g = load_edge_list("0 1 1.0\n1 2 1.0\n1 3 2.0\n0 4 9.0")
        host = AgentState(0, 1, assigned_target=2)
        lander = AgentState(1, 0, assigned_target=4)
        intents = [MoveIntent(0, 1, 2), MoveIntent(1, 0, 1)]
        out = resolve_waits(PathCache(g), intents, [host, lander], random.Random(0))
        assert out[0].waiting and out[0].dst == 1
        assert not out[1].waiting

    def test_catchup_does_not_stall_host_farther_from_target(self):
        g = load_edge_list("0 1 1.0\n1 2 9.0\n0 3 1.0")
        host = AgentState(0, 1, assigned_target=2)
        lander = AgentState(1, 0, assigned_target=3)
        intents = [MoveIntent(0, 1, 2), MoveIntent(1, 0, 1)]
        out = resolve_waits(PathCache(g), intents, [host, lander], random.Random(0))
        assert out == intents


class TestStep:
    def test_first_step_of_demo_mission(self):
        mission = eight_node_mission()
        g = mission.graph
        agents = [AgentState(i, s) for i, s in enumerate(mission.starts)]
        new_agents, unvisited, record = step(
            PathCache(g), agents, set(mission.targets), EIGHT_NODE_PARAMS, random.Random(0), t=1
        )
        assert [a.position for a in new_agents] == [4, 4]
        assert record.traversed == frozenset({(0, 4), (1, 4)})
        assert record.step_cost == 2.0
        assert unvisited == frozenset({6, 7})

    def test_all_targets_visited_is_noop_finishing_everyone(self):
        g = eight_node_graph()
        agents = [AgentState(0, 0), AgentState(1, 1)]
        new_agents, unvisited, record = step(
            PathCache(g), agents, set(), EIGHT_NODE_PARAMS, random.Random(0), t=1
        )
        assert all(a.finished for a in new_agents)
        assert record.traversed == frozenset() and record.step_cost == 0.0

    def test_colocated_agents_sharing_an_edge_pay_once(self):
        g = eight_node_graph()
        agents = [AgentState(0, 4), AgentState(1, 4)]
        new_agents, _, record = step(
            PathCache(g), agents, {6, 7}, EIGHT_NODE_PARAMS, random.Random(0), t=1
        )
        assert [a.position for a in new_agents] == [5, 5]
        assert record.traversed == frozenset({(4, 5)})
        assert record.step_cost == 2.0

    def test_wait_cost_charged_per_waiting_agent(self):
        g = load_edge_list("0 1 1.0 undirected\n0 2 5.0 undirected\n1 3 7.0 undirected")
        a = [AgentState(0, 0), AgentState(1, 1)]
        params = ForceParams(alpha=5.0, beta=1.0, k=2)
        _, _, record = step(PathCache(g), a, {2, 3}, params, random.Random(0), t=1, wait_cost=0.25)
        n_wait = sum(1 for i in record.intents if i.waiting)
        moved = sum(g.weight(i.src, i.dst) for i in record.intents if not i.waiting)
        assert record.step_cost == moved + 0.25 * n_wait
        assert n_wait >= 1

    @pytest.mark.parametrize("wait_cost", [math.inf, math.nan, -1.0, "0", True, 10**400])
    def test_bad_wait_cost_raises_value_error(self, wait_cost):
        # an inf or NaN wait_cost would make the cost NaN even with no agent waiting
        agents = [AgentState(0, 0), AgentState(1, 1)]
        with pytest.raises(ValueError, match="wait_cost"):
            step(PathCache(eight_node_graph()), agents, {6, 7}, EIGHT_NODE_PARAMS, random.Random(0),
                 wait_cost=wait_cost)

    def test_wait_pass_runs_only_when_a_move_lands_on_an_agent(self, monkeypatch):
        # Without a landing the pass has no pair to visit, so step skips it.
        calls, waits = [], 0

        def counting_resolve_waits(cache, intents, agents, rng):
            nonlocal waits
            occupied = {a.position for a in agents}
            calls.append(any(not i.waiting and i.dst in occupied for i in intents))
            out = resolve_waits(cache, intents, agents, rng)
            waits += sum(o.waiting and not i.waiting for i, o in zip(intents, out))
            return out

        monkeypatch.setattr(engine, "resolve_waits", counting_resolve_waits)
        graph = make_grid_graph(8, 8, seed=0)
        for s in range(6):
            run_mission(generate_random_mission(graph, 5, 10, seed=600 + s), seed=s)
        assert calls and all(calls)
        assert waits > 0


class TestRunMission:
    def test_demo_mission_cost_and_trajectory(self):
        res = run_mission(eight_node_mission(), EIGHT_NODE_PARAMS, seed=0)
        assert res.completed and res.total_cost == 6.0 and res.steps_taken == 3
        assert res.per_agent_paths == ((0, 4, 5, 6), (1, 4, 5, 7))
        assert [r.step_cost for r in res.steps] == [2.0, 2.0, 2.0]

    def test_target_on_start_is_presatisfied(self):
        g = eight_node_graph()
        res = run_mission(Mission(g, (6,), frozenset({6})), EIGHT_NODE_PARAMS, seed=0)
        assert res.completed and res.total_cost == 0.0 and res.steps_taken == 0

    def test_a_grid_scaled_by_2_500_routes_as_unscaled(self):
        # 2**500 keeps the grid's weight sum under Graph's bound of 2**511, and
        # scaling by a power of two rounds nothing on the way: every distance,
        # path weight and cost scales exactly, every force by 2**-1000 and
        # stays normal, so both methods make the same moves.
        grid = make_grid_graph(6, 6, seed=1)
        scaled = Graph(36, [(u, v, w * 2.0**500) for u, v, w in grid.edges()])
        runs = 0
        for seed in range(20):
            mission = generate_random_mission(grid, 3, 6, seed)
            twin = Mission(scaled, mission.starts, mission.targets)
            pairs = [(run_nonmodular_baseline(mission), run_nonmodular_baseline(twin))]
            for force_sum in (False, True):
                params = ForceParams(force_sum=force_sum)
                pairs.append((run_mission(mission, params, seed), run_mission(twin, params, seed)))
            for plain, big in pairs:
                assert big.per_agent_paths == plain.per_agent_paths and big.completed == plain.completed
                assert [r.step_cost for r in big.steps] == [r.step_cost * 2.0**500 for r in plain.steps]
                assert big.total_cost == plain.total_cost * 2.0**500
                runs += plain.completed
        assert runs == 60

    @staticmethod
    def _square_with_a_chord(w):
        """0-1-2-3 at weight w and 0-3 at 3w, each edge both ways."""
        return Graph(4, [e for u, v, x in [(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, 3 * w)]
                         for e in ((u, v, x), (v, u, x))])

    def test_weights_at_the_floor_route_as_unscaled(self):
        # Graph's weight floor is 2**-511: the lightest path square is
        # 2**-1022, still a normal float, and every force stays finite here
        starts, targets = (0, 3), frozenset({1, 2})
        plain = Mission(self._square_with_a_chord(1.0), starts, targets)
        tiny = Mission(self._square_with_a_chord(2.0**-511), starts, targets)
        for force_sum in (False, True):
            params = ForceParams(force_sum=force_sum)
            want, got = run_mission(plain, params, seed=0), run_mission(tiny, params, seed=0)
            assert want.completed and got.per_agent_paths == want.per_agent_paths
            assert got.total_cost == want.total_cost * 2.0**-511
        assert run_nonmodular_baseline(tiny).total_cost == 2.0 * 2.0**-511

    @pytest.mark.parametrize("w", [1e-158, 1e-170])
    def test_weights_below_the_floor_are_rejected(self, w):
        # Both graphs once loaded. At 1e-158 every path square was subnormal
        # and every force inf, so the router orbited to its 64-step cap
        # while the baseline finished in one step; at 1e-170 the squares
        # underflowed to 0 and the router raised.
        with pytest.raises(ValueError, match=rf"weight must be finite and at least 2\*\*-511 .*, got {w}"):
            self._square_with_a_chord(w)

    @pytest.mark.parametrize("wait_cost", [-5.0, math.nan, math.inf, "0", True, 10**400])
    def test_bad_wait_cost_raises_value_error(self, wait_cost):
        with pytest.raises(ValueError, match="wait_cost"):
            run_mission(eight_node_mission(), EIGHT_NODE_PARAMS, wait_cost=wait_cost)

    def test_infeasible_mission_raises(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        with pytest.raises(InfeasibleMissionError):
            run_mission(Mission(g, (0,), frozenset({3})), EIGHT_NODE_PARAMS, seed=0)

    def test_bool_start_is_rejected_not_merged_with_its_int(self):
        g = load_edge_list("0 1 1.0\n1 2 1.0\n2 3 1.0")
        run_mission(Mission(g, (1,), frozenset({3})), EIGHT_NODE_PARAMS, seed=0)
        with pytest.raises(InfeasibleMissionError, match="start node True is not an int"):
            run_mission(Mission(g, (True,), frozenset({3})), EIGHT_NODE_PARAMS, seed=0)

    @pytest.mark.parametrize("other", [make_grid_graph(4, 4, seed=2), make_grid_graph(5, 5, seed=1)])
    def test_cache_for_another_graph_raises(self, other):
        # Used silently, the seed-2 cache "completed" this mission at 5.1207
        # in 4 steps instead of 8.0077 in 10.
        mission = generate_random_mission(make_grid_graph(4, 4, seed=1), 2, 4, 7)
        with pytest.raises(ValueError, match="another graph"):
            run_mission(mission, seed=0, cache=PathCache(other))

    def test_cache_for_an_equal_graph_is_accepted(self):
        mission = generate_random_mission(make_grid_graph(4, 4, seed=1), 2, 4, 7)
        res = run_mission(mission, seed=0, cache=PathCache(make_grid_graph(4, 4, seed=1)))
        assert res == run_mission(mission, seed=0)
        assert (res.total_cost, res.steps_taken) == (8.007651622243962, 10)

    def test_deterministic_for_same_seed(self):
        mission = eight_node_mission()
        a = run_mission(mission, EIGHT_NODE_PARAMS, seed=5)
        b = run_mission(mission, EIGHT_NODE_PARAMS, seed=5)
        assert a == b

    def test_cost_identity_recomputes_from_step_records(self):
        g = make_grid_graph(6, 6, seed=2)
        cache = PathCache(g)
        for s in range(10):
            mission = generate_random_mission(g, 3, 6, seed=300 + s)
            res = run_mission(mission, ForceParams(), seed=s, cache=cache)
            recomputed = sum(
                sum(g.weight(u, v) for u, v in sorted(r.traversed)) for r in res.steps
            )
            assert math.isclose(res.total_cost, recomputed, abs_tol=1e-9)

    def test_history_pairs_are_edges_or_waits(self):
        g = make_grid_graph(6, 6, seed=2)
        mission = generate_random_mission(g, 3, 6, seed=77)
        res = run_mission(mission, ForceParams(), seed=77)
        for path in res.per_agent_paths:
            for u, v in zip(path, path[1:]):
                assert u == v or g.has_edge(u, v)

    def test_completion_covers_every_target(self):
        g = make_grid_graph(6, 6, seed=2)
        mission = generate_random_mission(g, 2, 4, seed=13)
        res = run_mission(mission, ForceParams(), seed=13)
        assert res.completed
        visited = set().union(*(set(p) for p in res.per_agent_paths))
        assert set(mission.targets) <= visited

    def test_scale_invariance_of_trajectories(self):
        g = make_grid_graph(6, 6, seed=2)
        cache = PathCache(g)
        for s in range(8):
            mission = generate_random_mission(g, 3, 6, seed=500 + s)
            lo = run_mission(mission, ForceParams(0.5, 1.0, 5), seed=s, cache=cache)
            hi = run_mission(mission, ForceParams(5.0, 10.0, 5), seed=s, cache=cache)
            assert lo.per_agent_paths == hi.per_agent_paths

    def test_alpha_zero_single_agent_walks_shortest_paths(self):
        g = make_grid_graph(6, 6, seed=3)
        cache = PathCache(g)
        mission = generate_random_mission(g, 1, 3, seed=71)
        res = run_mission(mission, ForceParams(0.0, 1.0, 5), seed=71, cache=cache)
        assert res.completed
        # the walk must cost exactly the optimal nearest-target leg sum
        legs = 0.0
        pos = mission.starts[0]
        remaining = set(mission.targets)
        while remaining:
            dists = cache.distances(pos)
            best = min(remaining, key=lambda t: (dists[t], t))
            legs += dists[best]
            pos = best
            remaining.discard(best)
        assert math.isclose(res.total_cost, legs, abs_tol=1e-9)

    def test_waiting_saves_cost_on_shared_corridor(self):
        mission = shared_corridor_mission()
        on = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0, waiting=True)
        off = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0, waiting=False)
        assert on.completed and off.completed
        assert any(i.waiting for r in on.steps for i in r.intents)
        assert on.total_cost < off.total_cost
        # regression-pinned exact costs for this instance
        assert on.total_cost == 19.0 and on.steps_taken == 5
        assert off.total_cost == 34.0 and off.steps_taken == 9

    def test_step_cap_reports_oscillation(self):
        res = run_mission(chain_mission(), CHAIN_PARAMS, seed=0, waiting=False, max_steps=60)
        assert not res.completed
        assert res.steps_taken == 60
        assert "step cap" in res.diagnostic

    def test_chain_completes_with_waiting(self):
        res = run_mission(chain_mission(), CHAIN_PARAMS, seed=0)
        assert res.completed and res.total_cost == 4.0


def _fresh_intent(intent):
    return MoveIntent(intent.agent_id, intent.src, intent.dst, waiting=intent.waiting)


class TestSlottedInternedRecords:
    @pytest.mark.parametrize("record", [
        AgentState(0, 1),
        EdgeForces(0, {}),
        MoveIntent(0, 1, 2),
        StepRecord(1, (), 0.0),
        MissionResult(((0,),), (), 0.0, True, 0),
        Path((0, 1), 1.0),
    ], ids=lambda record: type(record).__name__)
    def test_records_are_slotted_and_frozen(self, record):
        assert "__slots__" in vars(type(record))
        assert not hasattr(record, "__dict__")
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))

    def test_step_record_stores_no_edge_set(self):
        assert [f.name for f in dataclasses.fields(StepRecord)] == ["t", "intents", "step_cost"]

    def test_traversed_counts_a_shared_edge_once_and_skips_waits(self):
        res = run_mission(shared_corridor_mission(), SHARED_CORRIDOR_PARAMS, seed=0)
        record = res.steps[1]
        assert [(i.src, i.dst, i.waiting) for i in record.intents] == [(1, 3, False), (1, 3, False), (3, 3, True)]
        assert record.traversed == frozenset({(1, 3)}) and record.step_cost == 2.0
        for record in res.steps:
            assert record.traversed == frozenset((i.src, i.dst) for i in record.intents if i.src != i.dst)

    def test_run_records_match_fresh_ones(self):
        mission = shared_corridor_mission()
        res = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0)
        assert any(i.waiting for r in res.steps for i in r.intents)
        for record in res.steps:
            fresh = tuple(_fresh_intent(i) for i in record.intents)
            for intent, new in zip(record.intents, fresh):
                assert intent is not new
                assert intent == new and hash(intent) == hash(new) and repr(intent) == repr(new)
            rebuilt = StepRecord(record.t, fresh, record.step_cost)
            assert record == rebuilt and hash(record) == hash(rebuilt) and repr(record) == repr(rebuilt)
        agents = [AgentState(i, s) for i, s in enumerate(mission.starts)]
        agents, _, _ = step(PathCache(mission.graph), agents, mission.targets,
                            SHARED_CORRIDOR_PARAMS, random.Random(0))
        for agent in agents:
            new = AgentState(agent.agent_id, agent.position, agent.assigned_target, agent.finished)
            assert agent == new and hash(agent) == hash(new) and repr(agent) == repr(new)

    def test_two_runs_share_their_intents(self):
        mission = shared_corridor_mission()
        a = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0)
        b = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0)
        assert a == b
        for ra, rb in zip(a.steps, b.steps, strict=True):
            assert ra is rb
            assert all(ia is ib for ia, ib in zip(ra.intents, rb.intents, strict=True))

    def test_replay_shares_every_equal_record_and_path(self):
        graph = make_grid_graph(6, 6, seed=1)
        cache = PathCache(graph)
        missions = [generate_random_mission(graph, 3, 6, seed=s) for s in range(4)]
        results = [
            run_mission(mission, ForceParams(alpha=alpha, beta=beta), seed=s, cache=cache, max_steps=100)
            for alpha, beta in itertools.product((0.3, 0.7), (0.5, 0.9))
            for s, mission in enumerate(missions)
        ]
        records = [r for res in results for r in res.steps]
        paths = [p for res in results for p in res.per_agent_paths]
        for values in (records, paths):
            first = {}
            for value in values:
                assert first.setdefault(value, value) is value
            assert len(first) < len(values)
        for record in records:
            fresh = StepRecord(record.t, tuple(_fresh_intent(i) for i in record.intents), record.step_cost)
            assert record == fresh and hash(record) == hash(fresh) and repr(record) == repr(fresh)
        for path in paths:
            fresh = tuple(list(path))
            assert path == fresh and hash(path) == hash(fresh) and repr(path) == repr(fresh)

    def test_int_and_float_step_costs_stay_apart(self):
        # an int wait_cost=0 with no edge crossed gives an int step cost of 0
        mission = shared_corridor_mission()
        cache, targets = PathCache(mission.graph), mission.targets
        agents = [_agent(i, start, None, False) for i, start in enumerate(mission.starts)]

        def wait(active):
            return [_intent(a.agent_id, a.position, a.position, True) for a in active]

        def record(wait_cost):
            return engine._timestep(cache, agents, targets, assign_targets(cache, agents, targets), wait, 1,
                                    wait_cost)[2]

        as_int, as_float = record(0), record(0.0)
        assert as_int == as_float and as_int is not as_float
        assert record(0) is as_int and record(0.0) is as_float
        assert repr(as_int) != repr(as_float)
        assert type(as_int.step_cost) is int and type(as_float.step_cost) is float

    def test_step_numbers_of_other_types_stay_apart(self):
        # ``step`` takes any t, so a record for t=1 must not stand in for t=1.0 or t=True
        mission = shared_corridor_mission()
        cache, state = PathCache(mission.graph), [AgentState(i, s) for i, s in enumerate(mission.starts)]
        records = [step(cache, state, mission.targets, SHARED_CORRIDOR_PARAMS, random.Random(0), t=t)[2]
                   for t in (1, 1.0, True, 1)]
        assert [type(r.t) for r in records] == [int, float, bool, int]
        assert records[0] == records[1] == records[2] and records[3] is records[0]
        assert len({id(r) for r in records}) == 3

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.deepcopy,
        dataclasses.replace,
    ], ids=["pickle", "deepcopy", "replace"])
    def test_mission_result_round_trips(self, clone):
        res = run_mission(shared_corridor_mission(), SHARED_CORRIDOR_PARAMS, seed=0)
        copied = clone(res)
        assert copied == res and repr(copied) == repr(res)
        assert dataclasses.replace(res, total_cost=1.0).total_cost == 1.0

    def test_tables_are_bounded_and_typed(self, monkeypatch):
        assert _intent.cache_info().maxsize == _INTERNED
        assert _intent(0, 1, 1, True) is _intent(0, 1, 1, True)
        assert _intent(0, 1, 1, 1) is not _intent(0, 1, 1, True)
        assert repr(_intent(0, 1, 1, 1)) != repr(_intent(0, 1, 1, True))
        # two steps from one state share every agent and the record
        mission = shared_corridor_mission()
        cache, state = PathCache(mission.graph), [AgentState(i, s) for i, s in enumerate(mission.starts)]
        a, b = (step(cache, state, mission.targets, SHARED_CORRIDOR_PARAMS, random.Random(0)) for _ in range(2))
        assert a[2] is b[2] and all(x is y for x, y in zip(a[0], b[0], strict=True))
        # with a bound of 4 the agent and record tables never hold more, and the run is the same
        graph = make_grid_graph(6, 6, seed=1)
        missions = [generate_random_mission(graph, 3, 6, seed=s) for s in range(3)]
        expected = [run_mission(m, seed=1, max_steps=100) for m in missions]
        intern, sizes = engine._intern, []

        def bounded_intern(table, key, value):
            got = intern(table, key, value)
            sizes.append(len(table))
            return got

        monkeypatch.setattr(engine, "_INTERNED", 4)
        monkeypatch.setattr(engine, "_intern", bounded_intern)
        monkeypatch.setattr(engine, "_agents", {})
        monkeypatch.setattr(engine, "_records", {})
        assert [run_mission(m, seed=1, max_steps=100) for m in missions] == expected
        assert sum(r.steps_taken for r in expected) > 4 and max(sizes) == 4

    def test_record_and_path_tables_share_the_bound(self, monkeypatch):
        assert _path.cache_info().maxsize == _INTERNED
        monkeypatch.setattr(engine, "_agents", {})
        first = _agent(0, 0, None, False)
        for agent_id in range(1, _INTERNED):
            _agent(agent_id, 0, None, False)
        assert len(engine._agents) == _INTERNED and _agent(0, 0, None, False) is first
        _agent(_INTERNED, 0, None, False)  # a full table is emptied before the next entry
        assert len(engine._agents) == 1 and _agent(0, 0, None, False) is not first
