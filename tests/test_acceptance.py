"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Criteria 5 and 8 share one set of batch runs.
"""

import math
import random
import time

import pytest

from modroute import (
    AgentState,
    BatchConfig,
    ForceParams,
    Graph,
    InfeasibleMissionError,
    PathCache,
    brute_force_optimal,
    compute_edge_forces,
    generate_random_mission,
    make_grid_graph,
    run_batch,
    run_mission,
    sensitivity_sweep,
    step,
    yen_k_shortest,
)
from modroute.experiments import FORCE_BASED, NONMODULAR

from _fixtures import (
    EIGHT_NODE_PARAMS,
    SHARED_CORRIDOR_PARAMS,
    eight_node_graph,
    eight_node_mission,
    shared_corridor_mission,
)
from _oracles import enumerate_simple_paths, random_digraph

BATCH_SIZES = (2, 3, 5, 8)
BATCH_SEEDS = {2: 1000, 3: 2000, 5: 3000, 8: 4000}
BATCH_PARAMS = ForceParams(alpha=0.5, beta=1.0, k=5)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def grid64():
    return make_grid_graph(8, 8, seed=0)


@pytest.fixture(scope="module")
def grid_batches(grid64, tmp_path_factory):
    """Criterion-5 batches: 100 trials per fleet size, CSV written once."""
    out_dir = tmp_path_factory.mktemp("batches")
    results = {}
    for n in BATCH_SIZES:
        config = BatchConfig(
            graph=grid64, n_agents=n, trials=100, params=BATCH_PARAMS,
            base_seed=BATCH_SEEDS[n],
        )
        csv_path = out_dir / f"batch_n{n}.csv"
        results[n] = (config, run_batch(config, out_path=str(csv_path)), csv_path)
    return results


def test_criterion_1_worked_example_is_exact():
    started = time.perf_counter()
    cache = PathCache(eight_node_graph())
    a0 = AgentState(0, 0, assigned_target=6)
    a1 = AgentState(1, 1, assigned_target=7)
    forces = compute_edge_forces(cache, a0, [a1], EIGHT_NODE_PARAMS)
    mission = eight_node_mission()
    agents = [AgentState(i, s) for i, s in enumerate(mission.starts)]
    moved, _, _ = step(cache, agents, set(mission.targets), EIGHT_NODE_PARAMS,
                       random.Random(0), t=1)
    elapsed = time.perf_counter() - started
    ok = (
        forces.entries[(0, 4)] == 0.3125
        and forces.entries[(0, 3)] == 1 / 9 + 1 / 25
        and forces.entries[(0, 2)] == 1 / 9 + 1 / 25
        and [a.position for a in moved] == [4, 4]
        and elapsed < 1.0
    )
    _report(1, "worked-example forces and first move exact", ok, f"{elapsed:.3f}s")


def test_criterion_2_yen_matches_enumeration():
    started = time.perf_counter()
    rng = random.Random(20240)
    checked = 0
    ok = True
    while checked < 200:
        m, edges = random_digraph(rng, max_nodes=10)
        if not edges:
            continue
        graph = Graph(m, edges)
        src, dst = rng.sample(range(m), 2)
        k = rng.randint(1, 5)
        got = yen_k_shortest(graph, src, dst, k)
        expected = enumerate_simple_paths(graph, src, dst)[:k]
        if [(p.total_weight, p.nodes) for p in got.paths] != expected:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(2, "k-shortest paths equal brute-force enumeration on 200 graphs",
            ok, f"{elapsed:.1f}s")


def test_criterion_3_oracle_dominance():
    started = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    attempts = 0
    ok = True
    while checked < 50 and attempts < 500:
        attempts += 1
        seed = 600 + attempts
        r = random.Random(seed)
        m = r.randint(5, 10)
        edges = []
        for u in range(m):
            for v in range(u + 1, m):
                if r.random() < 0.45:
                    w = float(r.randint(1, 9))
                    edges.append((u, v, w))
                    edges.append((v, u, w))
        if not edges:
            continue
        graph = Graph(m, edges)
        try:
            mission = generate_random_mission(graph, r.randint(1, 2), r.randint(1, 2), seed)
        except (InfeasibleMissionError, ValueError):
            continue
        oracle = brute_force_optimal(mission, horizon=8)
        if oracle.optimal_cost == math.inf:
            continue
        heuristic = run_mission(mission, BATCH_PARAMS, seed=seed)
        if not heuristic.completed or heuristic.total_cost < oracle.optimal_cost - 1e-9:
            ok = False
            break
        checked += 1
    ok = ok and checked == 50
    demo = run_mission(eight_node_mission(), EIGHT_NODE_PARAMS, seed=0)
    ok = ok and demo.total_cost == 6.0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _report(3, "heuristic cost >= exact optimum on 50 tiny missions, demo hits 6.0",
            ok, f"{elapsed:.1f}s")


def test_criterion_4_shared_edge_accounting(grid64):
    agents = [AgentState(0, 4), AgentState(1, 4)]
    _, _, record = step(PathCache(eight_node_graph()), agents, {6, 7}, EIGHT_NODE_PARAMS, random.Random(0), t=1)
    ok = record.traversed == frozenset({(4, 5)}) and record.step_cost == 2.0

    cache = PathCache(grid64)
    for s in range(100):
        mission = generate_random_mission(grid64, 3, 6, seed=9000 + s)
        res = run_mission(mission, BATCH_PARAMS, seed=9000 + s, cache=cache)
        recomputed = sum(
            sum(grid64.weight(u, v) for u, v in sorted(r.traversed)) for r in res.steps
        )
        if not math.isclose(res.total_cost, recomputed, abs_tol=1e-9):
            ok = False
            break
    _report(4, "shared edges paid once; step records rebuild total cost to 1e-9", ok)


def test_criterion_5_modularity_beats_baseline(grid_batches):
    started = time.perf_counter()
    ok = True
    details = []
    for n in BATCH_SIZES:
        _, result, _ = grid_batches[n]
        mean_force = result.mean_cost[FORCE_BASED]
        mean_base = result.mean_cost[NONMODULAR]
        best = result.best_frequency[FORCE_BASED]
        details.append(f"n={n}: {mean_force:.1f} vs {mean_base:.1f}, best {best:.0f}%")
        if not (mean_force <= mean_base and best >= 70.0):
            ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600.0
    _report(5, "force-based mean <= baseline and best-or-tied >= 70%", ok,
            "; ".join(details))


def test_criterion_6_scale_invariance(grid64):
    cache = PathCache(grid64)
    ok = True
    for s in range(20):
        mission = generate_random_mission(grid64, 3, 6, seed=100 + s)
        low = run_mission(mission, ForceParams(0.5, 1.0, 5), seed=s, cache=cache)
        high = run_mission(mission, ForceParams(5.0, 10.0, 5), seed=s, cache=cache)
        if low.per_agent_paths != high.per_agent_paths:
            ok = False
            break
        if [r.intents for r in low.steps] != [r.intents for r in high.steps]:
            ok = False
            break
    _report(6, "trajectories identical under (alpha,beta) -> (10a,10b)", ok)


def test_criterion_7_waiting_benefit():
    mission = shared_corridor_mission()
    on = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0, waiting=True)
    off = run_mission(mission, SHARED_CORRIDOR_PARAMS, seed=0, waiting=False)
    waited = any(i.waiting for r in on.steps for i in r.intents)
    ok = (
        on.completed and off.completed and waited
        and on.total_cost < off.total_cost
        and on.total_cost == 19.0  # regression-pinned
        and off.total_cost == 34.0
    )
    _report(7, "waiting strictly cheaper on shared corridor", ok,
            f"{on.total_cost} vs {off.total_cost}")


def test_criterion_8_termination_and_reproducibility(grid_batches):
    ok = True
    cap = 4 * 64 * 64
    for n in BATCH_SIZES:
        _, result, csv_path = grid_batches[n]
        for row in result.rows:
            if not row["completed"] or row["steps"] >= cap:
                ok = False
        config = BatchConfig(
            graph=grid_batches[n][0].graph, n_agents=n, trials=100,
            params=BATCH_PARAMS, base_seed=BATCH_SEEDS[n],
        )
        rerun_path = csv_path.parent / f"rerun_n{n}.csv"
        run_batch(config, out_path=str(rerun_path))
        if rerun_path.read_bytes() != csv_path.read_bytes():
            ok = False
    _report(8, "all 400 batch missions complete under the step cap; CSV reruns byte-identical", ok)


def test_criterion_9_sensitivity_trend(grid64):
    started = time.perf_counter()
    sweep = sensitivity_sweep(
        BatchConfig(grid64, 5, n_targets=10, trials=100, params=ForceParams(k=5), base_seed=400),
        alpha_grid=[0.5, 0.9], beta_grid=[0.1, 1.0],
    )
    balanced = sweep.mean_cost[(0.5, 1.0)]
    lopsided = sweep.mean_cost[(0.9, 0.1)]
    elapsed = time.perf_counter() - started
    ok = balanced < lopsided
    _report(9, "mean cost at (0.5, 1.0) below (0.9, 0.1) on 100 shared missions",
            ok, f"{balanced:.1f} < {lopsided:.1f}, {elapsed:.0f}s")
