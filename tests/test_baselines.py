import itertools
import math
import random
import re

import pytest

from modroute import (
    AgentState,
    ForceParams,
    Graph,
    InfeasibleMissionError,
    Mission,
    OracleLimitError,
    PathCache,
    brute_force_optimal,
    load_edge_list,
    make_grid_graph,
    run_mission,
    run_nonmodular_baseline,
    validate,
)
from modroute import baselines
from modroute.experiments import generate_random_mission

from _fixtures import SUM_IS_LEFT_FOLD, eight_node_graph, eight_node_mission
from _oracles import random_digraph, reference_baseline_step


class TestNonmodularBaseline:
    def test_single_agent_single_target(self):
        g = eight_node_graph()
        res = run_nonmodular_baseline(Mission(g, (0,), frozenset({6})))
        assert res.completed and res.total_cost == 4.0
        assert res.per_agent_paths == ((0, 4, 5, 6),)

    def test_pair_pays_disjoint_paths(self):
        res = run_nonmodular_baseline(eight_node_mission())
        assert res.completed and res.total_cost == 8.0
        assert res.steps_taken == 3

    def test_shared_edge_paid_per_agent(self):
        g = eight_node_graph()
        # both agents start at 4 and both must cross (4,5) toward 6/7
        res = run_nonmodular_baseline(Mission(g, (4, 4), frozenset({6, 7})))
        first = res.steps[0]
        assert first.traversed == frozenset({(4, 5)})
        assert first.step_cost == 4.0  # weight 2.0 paid by each of the two agents

    def test_baseline_never_beats_shared_cost_demo(self):
        force = run_mission(eight_node_mission(), ForceParams(1.0, 1.0, 3), seed=0)
        base = run_nonmodular_baseline(eight_node_mission())
        assert force.total_cost < base.total_cost

    def test_steps_match_the_frozen_baseline_step(self, monkeypatch):
        # Every step of a run, as the baseline hands it to ``simulate``,
        # against a frozen copy of its original timestep, chained from the starts.
        steps = []
        real_simulate = baselines.simulate

        def recording_simulate(mission, max_steps, advance):
            def recorded(agents, unvisited, t):
                out = advance(agents, unvisited, t)
                steps.append((agents, unvisited, t, out))
                return out
            return real_simulate(mission, max_steps, recorded)

        monkeypatch.setattr(baselines, "simulate", recording_simulate)
        rng = random.Random("baseline-steps")
        graphs = [make_grid_graph(8, 8, seed=s) for s in range(3)]
        while len(graphs) < 43:
            m, edges = random_digraph(rng, max_nodes=10, edge_prob=0.3)
            if edges:
                graphs.append(Graph(m, edges))
        mismatches, compared, on_target, finished, shared = [], 0, 0, 0, 0
        for graph in graphs:
            cache = PathCache(graph)
            m = graph.node_count
            for _ in range(12 if m == 64 else 4):
                starts = tuple(rng.randrange(m) for _ in range(rng.randint(1, 5)))
                targets = set(rng.sample(range(m), rng.randint(1, min(m, 6))))
                if rng.random() < 0.5:
                    targets.add(rng.choice(starts))
                mission = Mission(graph, starts, frozenset(targets))
                if validate(mission):
                    continue
                on_target += bool(targets & set(starts))
                steps.clear()
                result = run_nonmodular_baseline(mission, max_steps=200, cache=cache)
                agents = [AgentState(i, s) for i, s in enumerate(starts)]
                unvisited = frozenset(targets) - set(starts)
                for t, (got_agents, got_unvisited, got_t, got) in enumerate(steps, 1):
                    assert (got_agents, got_unvisited, got_t) == (agents, unvisited, t)
                    want = reference_baseline_step(cache, agents, unvisited, t=t)
                    if got != want or got[2].step_cost.hex() != want[2].step_cost.hex():
                        mismatches.append((graph.edges(), mission, t))
                    compared += 1
                    finished += sum(a.finished for a in want[0]) > sum(a.finished for a in agents)
                    shared += len(want[2].traversed) < len(want[2].intents)
                    agents, unvisited = want[:2]
                assert len(steps) == result.steps_taken
        assert mismatches == []
        assert compared > 500
        assert on_target > 0 and finished > 0 and shared > 0

    def test_equivalent_to_alpha_zero_for_single_agent(self):
        g = make_grid_graph(6, 6, seed=3)
        cache = PathCache(g)
        for s in range(8):
            mission = generate_random_mission(g, 1, 3, seed=900 + s)
            solo = run_nonmodular_baseline(mission, cache=cache)
            reduced = run_mission(mission, ForceParams(0.0, 1.0, 5), seed=s, cache=cache)
            assert solo.completed and reduced.completed
            assert math.isclose(solo.total_cost, reduced.total_cost, abs_tol=1e-9)

    def test_infeasible_mission_raises(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        with pytest.raises(InfeasibleMissionError):
            run_nonmodular_baseline(Mission(g, (0,), frozenset({3})))

    def test_cache_for_another_graph_raises(self):
        # Used silently, the seed-2 cache cut this mission from 9.9254 to 5.1207.
        mission = generate_random_mission(make_grid_graph(4, 4, seed=1), 2, 4, 7)
        assert run_nonmodular_baseline(mission).total_cost == 9.925432368617793
        with pytest.raises(ValueError, match="another graph"):
            run_nonmodular_baseline(mission, cache=PathCache(make_grid_graph(4, 4, seed=2)))


def replayed_cost(g, paths):
    """Cost of joint paths, replayed: each step pays its distinct moved edges
    once, summed in sorted order, and the step sums fold left from 0.0."""
    cost = 0.0
    for before, after in itertools.pairwise(zip(*paths)):
        edges = {(u, v) for u, v in zip(before, after) if u != v}
        assert all(g.has_edge(u, v) for u, v in edges)
        cost += sum(g.weight(u, v) for u, v in sorted(edges))
    return cost


class TestBruteForceOptimal:
    def test_demo_mission_optimum(self):
        res = brute_force_optimal(eight_node_mission(), horizon=5)
        assert res.optimal_cost == 6.0
        assert res.paths == ((0, 0, 0, 4, 5, 6), (1, 1, 1, 4, 5, 7))
        assert res.explored_states == 4057

    def test_witness_paths_are_valid_and_cover(self):
        mission = eight_node_mission()
        res = brute_force_optimal(mission, horizon=5)
        assert replayed_cost(mission.graph, res.paths) == res.optimal_cost
        visited = set(itertools.chain.from_iterable(res.paths))
        assert set(mission.targets) <= visited

    # A compensated sum() moves some of the oracle's partial costs by an ulp,
    # so other branches meet the incumbent and the explored-state count
    # changes, though the optimum does not.
    @pytest.mark.parametrize("seed, horizon, cost, paths, explored", [
        (1, 5, "0x1.d95d2b7b3685ep+1", ((2, 2, 2, 2, 2, 2), (9, 9, 9, 9, 9, 10), (1, 1, 1, 4, 3, 6)),
         (47850, 46938)),
        (2, 6, "0x1.314e96245b5a3p+2",
         ((0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 2, 5, 8), (10, 10, 10, 10, 10, 9, 6)), (153891, 152959)),
        (3, 6, "0x1.eb3fffa2bde8cp+1",
         ((3, 3, 3, 3, 4, 5, 2), (9, 9, 9, 9, 9, 9, 9), (8, 8, 8, 8, 8, 11, 11)), (92223, 91467)),
    ])
    def test_three_agent_optimum_and_its_witness(self, seed, horizon, cost, paths, explored):
        mission = generate_random_mission(make_grid_graph(3, 4, seed=0), 3, 4, seed=seed)
        res = brute_force_optimal(mission, horizon=horizon)
        assert res.optimal_cost == float.fromhex(cost)
        assert res.paths == paths
        assert res.explored_states == explored[0 if SUM_IS_LEFT_FOLD else 1]
        assert replayed_cost(mission.graph, res.paths) == res.optimal_cost
        assert set(mission.targets) <= set(itertools.chain.from_iterable(res.paths))

    def test_presatisfied_mission_costs_nothing(self):
        g = eight_node_graph()
        res = brute_force_optimal(Mission(g, (6,), frozenset({6})), horizon=3)
        assert res.optimal_cost == 0.0 and res.paths == ((6,),)

    def test_infeasible_mission_raises(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        with pytest.raises(InfeasibleMissionError, match="target node 3 unreachable from every start"):
            brute_force_optimal(Mission(g, (0,), frozenset({3})), horizon=4)

    def test_unreachable_within_horizon_is_infinite(self):
        g = load_edge_list("0 1 1.0\n1 2 1.0\n2 3 1.0")
        res = brute_force_optimal(Mission(g, (0,), frozenset({3})), horizon=2)
        assert res.optimal_cost == math.inf and res.paths is None

    @pytest.mark.parametrize("horizon", [2.5, True, "3"])
    def test_horizon_that_is_not_an_int_is_rejected(self, horizon):
        # 2.5 once searched 1,433 states, and True ran as horizon 1
        with pytest.raises(ValueError, match=re.escape(f"horizon must be an int, got {horizon!r}")):
            brute_force_optimal(eight_node_mission(), horizon)

    def test_limits_enforced(self):
        g = make_grid_graph(4, 4, seed=0)
        mission = Mission(g, (0, 1, 2, 3), frozenset({15}))
        with pytest.raises(OracleLimitError, match="agents"):
            brute_force_optimal(mission, horizon=4)
        big = make_grid_graph(4, 4, seed=0)
        with pytest.raises(OracleLimitError, match="nodes"):
            brute_force_optimal(Mission(big, (0,), frozenset({15})), horizon=4)
        small = eight_node_mission()
        with pytest.raises(OracleLimitError, match="horizon"):
            brute_force_optimal(small, horizon=13)

    def test_start_permutation_leaves_optimum_unchanged(self):
        rng = random.Random(5)
        for _ in range(5):
            m, edges = random_digraph(rng, max_nodes=7)
            if not edges:
                continue
            g = Graph(m, edges)
            try:
                mission = generate_random_mission(g, 2, 2, seed=rng.randint(0, 999))
            except (InfeasibleMissionError, ValueError):
                continue
            swapped = Mission(g, tuple(reversed(mission.starts)), mission.targets)
            a = brute_force_optimal(mission, horizon=6)
            b = brute_force_optimal(swapped, horizon=6)
            assert a.optimal_cost == b.optimal_cost

    def test_heuristic_never_beats_oracle(self):
        rng = random.Random(17)
        checked = 0
        while checked < 12:
            m, edges = random_digraph(rng, max_nodes=8)
            if not edges:
                continue
            g = Graph(m, edges)
            try:
                mission = generate_random_mission(g, 2, 2, seed=rng.randint(0, 9999))
            except (InfeasibleMissionError, ValueError):
                continue
            oracle = brute_force_optimal(mission, horizon=8)
            if oracle.optimal_cost == math.inf:
                continue
            heur = run_mission(mission, ForceParams(), seed=checked)
            assert heur.completed
            assert heur.total_cost >= oracle.optimal_cost - 1e-9
            checked += 1

    def test_heuristic_achieves_optimum_on_demo(self):
        oracle = brute_force_optimal(eight_node_mission(), horizon=5)
        heur = run_mission(eight_node_mission(), ForceParams(1.0, 1.0, 3), seed=0)
        assert heur.total_cost == oracle.optimal_cost == 6.0
