"""Property tests: run invariants on small random grids and missions.

For any grid, mission, parameters and seed, every run of either method
must move agents only along graph edges or by waiting in place, bill each
step by its method's rule (the router charges an edge crossed together
once, the baseline charges every agent), charge a total cost equal to the
sum of its step costs, and, when it reports completion, have visited every
target. Two more properties pin the router's decisions: scaling alpha and
beta together by a power of two changes no run, and a run that completes
within a horizon never beats the exact optimum over that horizon. Two
more pin the lemmas the engine's bounded edge choice rests on: no sampled
path weighs less than the cached Dijkstra distance, exactly, nor less than
the first-hop bound of its first edge. The last pins ``PathCache``'s read
of a lightest path off its distance search: it declines or gives the path
that Yen's first search finds.
"""

import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modroute import (  # noqa: E402
    ForceParams,
    Graph,
    PathCache,
    brute_force_optimal,
    generate_random_mission,
    make_grid_graph,
    run_mission,
    run_nonmodular_baseline,
)
from modroute.paths import _heuristic, _lex_shortest, _shrink_factor  # noqa: E402

from _fixtures import PATH_READ_FAMILIES, family_graph  # noqa: E402


@st.composite
def missions(draw, max_agents=3, max_nodes=16):
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, min(4, max_nodes // width)))
    graph = make_grid_graph(width, height, seed=draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, max_agents))
    n_targets = draw(st.integers(1, min(4, width * height - n)))
    return generate_random_mission(graph, n, n_targets, seed=draw(st.integers(0, 2**16)))


scales = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


@st.composite
def force_params(draw):
    alpha = draw(scales)
    beta = draw(scales.filter(lambda b: alpha > 0 or b > 0))
    return ForceParams(alpha, beta, draw(st.integers(1, 5)), draw(st.booleans()))


def assert_invariants(mission, res, charge):
    """``charge(record)`` is what the method should bill for one step."""
    graph = mission.graph
    for path in res.per_agent_paths:
        assert len(path) == res.steps_taken + 1
        for u, v in zip(path, path[1:]):
            assert u == v or graph.has_edge(u, v)
    for record in res.steps:
        for intent in record.intents:
            assert intent.src == intent.dst or graph.has_edge(intent.src, intent.dst)
            assert not intent.waiting or intent.src == intent.dst
        assert record.traversed == {(i.src, i.dst) for i in record.intents if i.src != i.dst}
        assert math.isclose(record.step_cost, charge(record), rel_tol=1e-12)
    assert res.steps_taken == len(res.steps)
    assert sum(r.step_cost for r in res.steps) == res.total_cost
    visited = {v for path in res.per_agent_paths for v in path}
    if res.completed:
        assert mission.targets <= visited
    else:
        assert res.diagnostic


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(missions(), force_params(), st.integers(0, 2**16), st.booleans(),
       st.sampled_from([0.0, 0.5]))
def test_router_runs_keep_their_invariants(mission, params, seed, waiting, wait_cost):
    graph = mission.graph
    res = run_mission(mission, params, seed=seed, max_steps=4 * graph.node_count,
                      wait_cost=wait_cost, waiting=waiting)

    def shared_edges_once(record):
        waits = sum(1 for i in record.intents if i.waiting)
        return sum(graph.weight(u, v) for u, v in record.traversed) + wait_cost * waits

    assert_invariants(mission, res, shared_edges_once)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(missions())
def test_baseline_runs_keep_their_invariants(mission):
    graph = mission.graph
    res = run_nonmodular_baseline(mission, max_steps=4 * graph.node_count)

    def every_agent_pays(record):
        return sum(graph.weight(i.src, i.dst) for i in record.intents if i.src != i.dst)

    assert_invariants(mission, res, every_agent_pays)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(missions(), force_params(), st.integers(-4, 4), st.integers(0, 2**16), st.booleans())
def test_scaling_alpha_and_beta_by_a_power_of_two_changes_nothing(mission, params, j, seed, waiting):
    # Multiplying by 2**j is exact for every force, so every comparison
    # between edges, and so every decision, comes out the same.
    scaled = ForceParams(params.alpha * 2.0**j, params.beta * 2.0**j, params.k, params.force_sum)
    cap = 4 * mission.graph.node_count
    base = run_mission(mission, params, seed=seed, max_steps=cap, waiting=waiting)
    other = run_mission(mission, scaled, seed=seed, max_steps=cap, waiting=waiting)
    assert other.per_agent_paths == base.per_agent_paths
    assert [r.intents for r in other.steps] == [r.intents for r in base.steps]
    assert other.total_cost == base.total_cost


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(missions(max_agents=2, max_nodes=12), force_params(), st.integers(2, 10),
       st.integers(0, 2**16))
def test_a_run_within_the_horizon_never_beats_the_exact_optimum(mission, params, horizon, seed):
    res = run_mission(mission, params, seed=seed, max_steps=horizon)
    if not res.completed:
        return  # the optimum over the horizon bounds only runs that fit in it
    optimal = brute_force_optimal(mission, horizon=horizon).optimal_cost
    # the two sum the same step costs in different orders
    assert res.total_cost >= optimal - 1e-9


# uniform, integer 1-3 (exact sums, many ties), tenths (inexact sums, ties)
WEIGHTS = {
    "uniform": lambda rng: rng.uniform(0.01, 10.0),
    "integer_1_3": lambda rng: float(rng.randint(1, 3)),
    "tenths": lambda rng: rng.choice([0.1, 0.2, 0.3]),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(WEIGHTS)), st.integers(2, 9), st.sampled_from([0.2, 0.35, 0.5]),
       st.integers(1, 6), st.integers(0, 2**16))
def test_no_sampled_path_weighs_less_than_the_cached_distance(family, m, edge_prob, k, seed):
    rng = random.Random(seed)
    edges = [(u, v, WEIGHTS[family](rng)) for u in range(m) for v in range(m)
             if u != v and rng.random() < edge_prob]
    cache = PathCache(Graph(m, edges))
    for src in range(m):
        for dst in range(m):
            d = cache.distance(src, dst)
            weights = [p.total_weight for p in cache.k_shortest(src, dst, k).paths]
            assert all(w >= d for w in weights)
            # the lightest sampled path is a shortest one, bit for bit
            assert weights[0] == d if weights else d == math.inf


# The families above, plus weights that fail the heuristic's shrink bound,
# so that h' = 0 and each first-hop bound is the edge weight alone.
BOUND_WEIGHTS = {**WEIGHTS, "zero_heuristic": lambda rng: rng.choice([1e-12, 7e3])}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(BOUND_WEIGHTS)), st.integers(2, 9), st.sampled_from([0.2, 0.35, 0.5]),
       st.integers(1, 6), st.integers(0, 2**16))
def test_no_sampled_path_weighs_less_than_its_first_hop_bound(family, m, edge_prob, k, seed):
    rng = random.Random(seed)
    edges = [(u, v, BOUND_WEIGHTS[family](rng)) for u in range(m) for v in range(m)
             if u != v and rng.random() < edge_prob]
    graph = Graph(m, edges)
    cache, cold = PathCache(graph), PathCache(graph)  # ``cold`` answers only k=1 queries
    for src in range(m):
        for dst in range(m):
            paths = cache.k_shortest(src, dst, k).paths
            if src == dst or not paths:
                continue
            # h0 and W0 as the edge chooser reads them, on either cache
            first_hops = cold.k_shortest(src, dst, 1).first_hops
            assert cache.k_shortest(src, dst, 1).first_hops == first_hops
            assert first_hops == ((paths[0].nodes[1], (paths[0].total_weight,)),)
            h0, h = first_hops[0][0], cold._heuristic_to(dst)
            assert cache._heuristic_to(dst) == h
            bound = {v: w + h[v] for v, w in graph.out_edges(src) if v != h0 and h[v] != math.inf}
            for path in paths[1:]:
                if path.nodes[1] != h0:  # a hop left out of ``bound`` would raise KeyError
                    assert path.total_weight >= bound[path.nodes[1]]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PATH_READ_FAMILIES)), st.integers(2, 10), st.sampled_from([0.25, 0.4, 0.6]),
       st.integers(0, 2**16))
def test_a_first_path_read_off_the_distance_search_is_yens(family, m, edge_prob, seed):
    graph = family_graph(family, m, edge_prob, random.Random(seed))
    cache, factor = PathCache(graph), _shrink_factor(graph)
    for dst in range(m):
        h = _heuristic(graph, dst, factor)
        for src in range(m):
            if src == dst:
                continue
            read, searched = cache._lightest_path(src, dst), _lex_shortest(graph, src, dst, h[:])
            if read is not None:
                assert read == searched
            elif family == "float":  # floats do not tie: every reachable pair is read
                assert searched is None
