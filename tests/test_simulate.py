"""The run loop shared by the force-based router and the baseline.

The pinned digest freezes both methods' full output on seeded 8x8 runs, so
any change to the loop that alters a trajectory, an intent or a cost shows
here as a different hash.
"""

import hashlib
import re

import pytest

from modroute import (
    BatchConfig,
    ForceParams,
    Graph,
    Mission,
    PathCache,
    generate_random_mission,
    make_grid_graph,
    run_batch,
    run_mission,
    run_nonmodular_baseline,
)
from modroute.experiments import DEFAULT_SWEEP_GRID

from _fixtures import chain_mission, unit_grid

PINNED_DIGEST = "a891490ebd10395f03f4f4e6906e6a95a7eaf38767be187a0f4fbfa16e6f1f87"


def _result_repr(res) -> str:
    steps = [(r.t, r.step_cost, sorted(r.traversed), r.intents) for r in res.steps]
    return repr((res.per_agent_paths, steps, res.total_cost, res.completed, res.steps_taken))


def test_pinned_output_of_both_methods():
    graph = make_grid_graph(8, 8, seed=0)
    params = ForceParams()
    h = hashlib.sha256()
    for n in (2, 3, 5):
        for seed in range(3):
            mission = generate_random_mission(graph, n, 2 * n, seed=100 * n + seed)
            for waiting in (True, False):
                res = run_mission(mission, params, seed=seed, max_steps=200,
                                  wait_cost=0.25, waiting=waiting)
                h.update(_result_repr(res).encode())
            h.update(_result_repr(run_nonmodular_baseline(mission)).encode())
    config = BatchConfig(graph=graph, n_agents=3, trials=5, params=params, base_seed=7)
    h.update(repr(run_batch(config)).encode())
    assert h.hexdigest() == PINNED_DIGEST


# Trajectories and intents only: no float goes into this digest, so unlike
# PINNED_DIGEST it is the same on every Python version (3.12 made ``sum()``
# of floats compensated, which moves only costs) and every PYTHONHASHSEED.
PINNED_TRAJECTORY_DIGEST = "adce0d42649f4c4982720e5a4f1f4757a023f216a0cfd4cf3e5b474331b9ec8b"


def test_pinned_trajectories_on_every_interpreter():
    graph = make_grid_graph(8, 8, seed=0)
    h = hashlib.sha256()
    for n, seed in ((2, 0), (3, 1), (5, 2), (5, 3)):
        mission = generate_random_mission(graph, n, 2 * n, seed=600 + seed)
        runs = [
            run_mission(mission, ForceParams(alpha, beta), seed=seed, max_steps=256)  # a cold cache each
            for alpha in DEFAULT_SWEEP_GRID for beta in DEFAULT_SWEEP_GRID
        ]
        runs.append(run_nonmodular_baseline(mission, max_steps=256))
        for res in runs:
            h.update(repr((res.per_agent_paths, [r.intents for r in res.steps])).encode())
    assert h.hexdigest() == PINNED_TRAJECTORY_DIGEST


# Road-scale runs, trajectories and intents only as above: one mission on a
# 32x32 float grid and one on a 16x16 unit grid, whose ties make many
# lightest-path reads decline, each routed by both methods on a cold cache.
PINNED_ROAD_SCALE_DIGEST = "84a22c1ec2a2aec9f818f4547443dd44f390865c13eb88d947c535f1675c1793"


def test_pinned_trajectories_at_road_scale():
    h, known, table_bytes = hashlib.sha256(), 0, 0
    for graph in (make_grid_graph(32, 32, seed=0), unit_grid(16, 16)):
        mission, cap = generate_random_mission(graph, 8, 16, seed=100), 4 * graph.node_count
        for run in (lambda cache: run_mission(mission, seed=100, max_steps=cap, cache=cache),
                    lambda cache: run_nonmodular_baseline(mission, max_steps=cap, cache=cache)):
            cache = PathCache(graph)
            res = run(cache)
            h.update(repr((res.per_agent_paths, [r.intents for r in res.steps])).encode())
            known += sum(len(table) - table.count(0) for table in cache._declined.values())
            table_bytes += sum(map(len, cache._declined.values()))
    assert h.hexdigest() == PINNED_ROAD_SCALE_DIGEST
    assert known < table_bytes / 10  # the reads fill only the chains they walk


def test_without_waiting_a_swap_deadlock_runs_to_the_step_cap():
    graph = make_grid_graph(8, 8, seed=0)
    mission = generate_random_mission(graph, 2, 4, seed=200)
    stuck = run_mission(mission, ForceParams(), seed=0, max_steps=200, waiting=False)
    assert stuck.completed is False
    assert stuck.steps_taken == 200
    assert stuck.diagnostic.endswith("(likely oscillation)")
    assert run_mission(mission, ForceParams(), seed=0, max_steps=200).completed


@pytest.mark.parametrize("method", [run_mission, run_nonmodular_baseline], ids=["router", "baseline"])
def test_step_cap_aborts_both_methods(method):
    # Neither target is within one hop of either start.
    res = method(chain_mission(), max_steps=1)
    assert res.completed is False
    assert res.steps_taken == 1
    assert "step cap" in res.diagnostic


@pytest.mark.parametrize("method", [run_mission, run_nonmodular_baseline], ids=["router", "baseline"])
def test_finished_agents_with_targets_unvisited_abort_both_methods(method):
    # the agent takes target 1 first, after which it can no longer reach 3
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0)])
    res = method(Mission(g, (0,), frozenset({1, 3})))
    assert res.completed is False
    assert (res.steps_taken, res.total_cost, res.per_agent_paths) == (2, 1.0, ((0, 1, 1),))
    assert res.diagnostic == "all agents finished with targets still unvisited: [3]"


@pytest.mark.parametrize("method", [run_mission, run_nonmodular_baseline], ids=["router", "baseline"])
def test_negative_step_cap_is_rejected_by_both_methods(method):
    with pytest.raises(ValueError, match="max_steps must be >= 0, got -3"):
        method(chain_mission(), max_steps=-3)


@pytest.mark.parametrize("cap", [True, 1.5, "3"])
@pytest.mark.parametrize("method", [run_mission, run_nonmodular_baseline], ids=["router", "baseline"])
def test_a_step_cap_that_is_not_an_int_is_rejected_by_both_methods(method, cap):
    # True once ran one step, and 1.5 ran two
    with pytest.raises(ValueError, match=re.escape(f"max_steps must be an int or None, got {cap!r}")):
        method(chain_mission(), max_steps=cap)
