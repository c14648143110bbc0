import hashlib
import math
import re

import pytest

from modroute import (
    BatchConfig,
    ForceParams,
    InfeasibleMissionError,
    Mission,
    generate_random_mission,
    make_grid_graph,
    mission_hash,
    run_batch,
    sensitivity_sweep,
)
from modroute import experiments
from modroute.engine import run_mission
from modroute.experiments import BATCH_COLUMNS, DEFAULT_SWEEP_GRID, FORCE_BASED, NONMODULAR

from _fixtures import eight_node_graph, eight_node_mission


class TestGridGraph:
    @pytest.mark.parametrize("width, height", [(0, 3), (3, 0), (-1, 2)])
    def test_non_positive_dimensions_rejected(self, width, height):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            make_grid_graph(width, height)

    @pytest.mark.parametrize("width, height, message", [
        (True, 3, "width must be an int, got True"),
        (2.0, 3, "width must be an int, got 2.0"),
        (2, "3", "height must be an int, got '3'"),
    ])
    def test_dimensions_that_are_not_an_int_are_rejected(self, width, height, message):
        # True once built a 1x3 grid, and 2.0 failed with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            make_grid_graph(width, height)

    def test_shape_and_edge_count(self):
        g = make_grid_graph(8, 8, seed=0)
        assert g.node_count == 64
        # 2*w*h - w - h lattice pairs, two directed edges each
        assert g.edge_count == 2 * (2 * 8 * 8 - 8 - 8)

    def test_weights_are_seeded_and_positive(self):
        a = make_grid_graph(5, 5, seed=9)
        b = make_grid_graph(5, 5, seed=9)
        c = make_grid_graph(5, 5, seed=10)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()
        assert all(0.5 <= w < 1.5 for _, _, w in a.edges())

    def test_coordinate_labels(self):
        g = make_grid_graph(3, 2, seed=0)
        assert g.label(0) == "0,0" and g.label(5) == "2,1"


class TestGenerateRandomMission:
    def test_deterministic_for_same_seed(self):
        g = make_grid_graph(5, 10, seed=0)
        assert generate_random_mission(g, 3, 6, seed=7) == generate_random_mission(g, 3, 6, seed=7)

    def test_frozen_snapshot_for_seed_seven(self):
        g = make_grid_graph(5, 10, seed=0)
        mission = generate_random_mission(g, 3, 6, seed=7)
        assert mission.starts == (20, 9, 25)
        assert sorted(mission.targets) == [3, 4, 6, 23, 34, 41]

    def test_starts_and_targets_are_disjoint(self):
        g = make_grid_graph(5, 10, seed=0)
        for seed in range(20):
            m = generate_random_mission(g, 4, 8, seed=seed)
            assert not (set(m.starts) & set(m.targets))

    @pytest.mark.parametrize("n, n_targets, message", [
        (True, 2, "n must be an int, got True"),
        (2.0, 2, "n must be an int, got 2.0"),
        (2, "3", "n_targets must be an int, got '3'"),
    ])
    def test_counts_that_are_not_an_int_are_rejected(self, n, n_targets, message):
        # True once drew a 1-agent mission, and 2.0 failed with a bare TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_random_mission(make_grid_graph(4, 4), n, n_targets, seed=0)

    @pytest.mark.parametrize("n, n_targets", [(0, 2), (2, 0)])
    def test_no_agent_or_no_target_rejected(self, n, n_targets):
        with pytest.raises(ValueError, match="need at least one agent and one target"):
            generate_random_mission(eight_node_graph(), n, n_targets, seed=0)

    def test_no_room_for_distinct_nodes_rejected(self):
        g = eight_node_graph()
        with pytest.raises(ValueError, match="cannot place"):
            generate_random_mission(g, 1, 8, seed=0)

    def test_start_pool_restricts_starts(self):
        g = make_grid_graph(5, 10, seed=0)
        pool = [0, 1, 2, 3]
        for seed in range(10):
            m = generate_random_mission(g, 2, 4, seed=seed, start_pool=pool)
            assert set(m.starts) <= set(pool)

    @pytest.mark.parametrize("pool, message", [
        ((), "start pool has 0 nodes"),
        ((0, 99), "start pool node 99 is not a node"),
        ((0, 0), "start pool repeats node 0"),
        ((0, 2.0), "start pool node 2.0 is not a node"),
    ], ids=["empty", "outside-graph", "repeated", "float"])
    def test_bad_start_pool_rejected(self, pool, message):
        config = BatchConfig(make_grid_graph(4, 4), 2, trials=1, start_pool=pool)
        with pytest.raises(ValueError, match=message):
            config.missions()

    def test_resampling_failure_raises(self):
        # second component is unreachable, so any mission touching it fails
        from modroute import load_edge_list

        g = load_edge_list("0 1 1.0 undirected\n2 3 1.0\n")
        with pytest.raises(InfeasibleMissionError, match="resamples"):
            generate_random_mission(g, 1, 3, seed=0)


@pytest.mark.parametrize("seed", [True, 1.5, None, "3"])
@pytest.mark.parametrize("draw", [
    lambda seed: make_grid_graph(3, 3, seed=seed),
    lambda seed: generate_random_mission(make_grid_graph(6, 6, seed=1), 2, 4, seed=seed),
    lambda seed: run_mission(eight_node_mission(), seed=seed),
], ids=["make_grid_graph", "generate_random_mission", "run_mission"])
def test_a_seed_that_is_not_an_int_is_rejected(draw, seed):
    # True once drew the seed-1 result, 1.5 drew one of its own, and None
    # seeded from OS entropy, so a run could not be repeated
    with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {seed!r}")):
        draw(seed)


class TestRunBatch:
    def test_single_trial_on_demo_mission(self, tmp_path):
        config = BatchConfig(graph=eight_node_graph(), n_agents=2, n_targets=2, trials=1,
                             params=ForceParams(1.0, 1.0, 3), base_seed=0)
        result = run_batch(config, missions=[eight_node_mission()])
        assert result.mean_cost[FORCE_BASED] == 6.0
        assert result.mean_cost[NONMODULAR] == 8.0
        assert result.best_frequency[FORCE_BASED] == 100.0
        assert result.best_frequency[NONMODULAR] == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            BatchConfig(graph=eight_node_graph(), n_agents=2, trials=0)

    @pytest.mark.parametrize("trials", [True, 1.5, "3"])
    def test_trials_that_are_not_an_int_are_rejected(self, trials):
        # True once ran one trial, and 1.5 failed later with a bare TypeError
        with pytest.raises(ValueError, match=f"trials must be an int >= 1, got {trials!r}"):
            BatchConfig(graph=eight_node_graph(), n_agents=2, trials=trials)

    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    @pytest.mark.parametrize("name", ["n_agents", "n_targets", "base_seed"])
    def test_counts_and_seed_that_are_not_an_int_are_rejected(self, name, value):
        # True once ran 1-agent missions, 2.0 failed in run_batch with a bare
        # TypeError, and base_seed=1.5 wrote rows with seed 1.5; n_agents is
        # checked before n_targets' default is derived from it
        fields = {"n_agents": 2, "n_targets": None, "base_seed": 0, name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
            BatchConfig(graph=make_grid_graph(4, 4), trials=2, **fields)

    @pytest.mark.parametrize("max_steps, message", [
        (1.5, "max_steps must be an int or None, got 1.5"),
        (True, "max_steps must be an int or None, got True"),
        ("3", "max_steps must be an int or None, got '3'"),
        (-1, "max_steps must be >= 0, got -1"),
    ])
    def test_step_cap_is_checked_before_any_mission_is_drawn(self, monkeypatch, max_steps, message):
        # these once built, and run_batch drew every mission before the
        # first run raised simulate's message
        monkeypatch.setattr(experiments, "generate_random_mission", None)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BatchConfig(make_grid_graph(4, 4), 2, trials=2, max_steps=max_steps)

    @pytest.mark.parametrize("max_steps", [None, 0, 7])
    def test_step_cap_none_or_an_int_from_zero_is_accepted(self, max_steps):
        assert BatchConfig(make_grid_graph(4, 4), 2, trials=2, max_steps=max_steps).max_steps == max_steps

    def test_one_completed_trial_has_zero_variance(self):
        result = run_batch(BatchConfig(make_grid_graph(6, 6, seed=0), 2, trials=1, base_seed=1))
        assert all(row["completed"] for row in result.rows)
        assert result.variance_cost == {FORCE_BASED: 0.0, NONMODULAR: 0.0}

    def test_n_targets_defaults_to_twice_agents(self):
        config = BatchConfig(graph=make_grid_graph(6, 6, seed=0), n_agents=3)
        assert config.n_targets == 6

    def test_csv_is_byte_identical_across_reruns(self, tmp_path):
        g = make_grid_graph(6, 6, seed=0)
        config = BatchConfig(graph=g, n_agents=2, trials=5, base_seed=42)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_batch(config, out_path=str(p1))
        run_batch(config, out_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(BATCH_COLUMNS)

    def test_tied_methods_both_count_as_best(self):
        # single agent: both methods walk the same nearest-target tour
        g = make_grid_graph(6, 6, seed=1)
        config = BatchConfig(graph=g, n_agents=1, n_targets=2, trials=4,
                             params=ForceParams(0.0, 1.0, 5), base_seed=7)
        result = run_batch(config)
        assert result.best_frequency[FORCE_BASED] == 100.0
        assert result.best_frequency[NONMODULAR] == 100.0

    def test_row_count_and_methods(self):
        g = make_grid_graph(6, 6, seed=0)
        result = run_batch(BatchConfig(graph=g, n_agents=2, trials=3, base_seed=1))
        assert len(result.rows) == 6
        assert {r["method"] for r in result.rows} == {FORCE_BASED, NONMODULAR}

    @pytest.mark.parametrize("count", [0, 2])
    def test_mission_list_of_another_length_rejected(self, count):
        config = BatchConfig(graph=eight_node_graph(), n_agents=2, n_targets=2, trials=1)
        with pytest.raises(ValueError, match="explicit mission list must match the trial count"):
            run_batch(config, missions=[eight_node_mission()] * count)

    def test_mission_on_another_graph_rejected(self):
        # Used silently, both methods reported 5.1207 for this mission.
        mission = generate_random_mission(make_grid_graph(4, 4, seed=1), 2, 4, 7)
        config = BatchConfig(graph=make_grid_graph(4, 4, seed=2), n_agents=2, n_targets=4, trials=1)
        with pytest.raises(ValueError, match="mission 0 is on another graph"):
            run_batch(config, missions=[mission])

    @pytest.mark.parametrize("n,n_targets", [(3, 2), (2, 3)])
    def test_mission_with_other_counts_rejected(self, n, n_targets):
        # Used silently, a 3-agent, 2-target mission wrote rows saying 2 and 4.
        g = make_grid_graph(4, 4, seed=1)
        mission = generate_random_mission(g, n, n_targets, 7)
        with pytest.raises(ValueError, match="mission 0 does not have the batch config's 2 agents and 4 targets"):
            run_batch(BatchConfig(g, 2, trials=1), missions=[mission])

    def test_step_cap_applies_to_both_methods(self):
        g = make_grid_graph(6, 6, seed=0)
        capped = run_batch(BatchConfig(graph=g, n_agents=2, trials=3, base_seed=1, max_steps=1))
        assert [(r["steps"], r["completed"]) for r in capped.rows] == [(1, False)] * 6
        assert capped.mean_cost == {FORCE_BASED: math.inf, NONMODULAR: math.inf}
        free = run_batch(BatchConfig(graph=g, n_agents=2, trials=3, base_seed=1))
        assert all(r["completed"] and r["steps"] > 1 for r in free.rows)
        assert BatchConfig(graph=g, n_agents=2).max_steps is None


class TestSensitivitySweep:
    def test_single_cell_scores_one(self):
        g = make_grid_graph(6, 6, seed=0)
        sw = sensitivity_sweep(BatchConfig(g, 2, trials=3, base_seed=3), alpha_grid=[0.5],
                               beta_grid=[1.0])
        assert sw.score[(0.5, 1.0)] == 1.0

    def test_cells_share_missions(self):
        g = make_grid_graph(6, 6, seed=0)
        sw = sensitivity_sweep(BatchConfig(g, 2, trials=4, base_seed=11), alpha_grid=[0.3, 0.6],
                               beta_grid=[0.5])
        by_trial = {}
        for row in sw.rows:
            by_trial.setdefault(row["trial"], set()).add(row["mission_hash"])
        assert all(len(hashes) == 1 for hashes in by_trial.values())

    def test_uniform_scaling_leaves_means_unchanged(self):
        g = make_grid_graph(6, 6, seed=0)
        sw = sensitivity_sweep(BatchConfig(g, 2, trials=5, base_seed=19), alpha_grid=[0.3, 0.6],
                               beta_grid=[0.6, 1.2])
        assert sw.mean_cost[(0.3, 0.6)] == sw.mean_cost[(0.6, 1.2)]

    def test_balanced_cell_outscores_agent_heavy_cell(self):
        g = make_grid_graph(8, 8, seed=0)
        sw = sensitivity_sweep(BatchConfig(g, 5, trials=30, base_seed=23), alpha_grid=[0.5, 1.0],
                               beta_grid=[0.1, 1.0])
        assert sw.score[(0.5, 1.0)] > sw.score[(1.0, 0.1)]

    def test_all_aborted_cells_score_zero(self):
        g = make_grid_graph(6, 6, seed=0)
        sw = sensitivity_sweep(BatchConfig(g, 2, trials=2, base_seed=4, max_steps=1),
                               alpha_grid=[0.3, 0.6], beta_grid=[1.0])
        assert not any(row["completed"] for row in sw.rows)
        assert all(mean == float("inf") for mean in sw.mean_cost.values())
        assert sw.score == {(0.3, 1.0): 0.0, (0.6, 1.0): 0.0}

    def test_empty_grid_rejected(self):
        g = make_grid_graph(6, 6, seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            sensitivity_sweep(BatchConfig(g, 2, trials=2), alpha_grid=[], beta_grid=[1.0])

    @pytest.mark.parametrize("alphas, betas, message", [
        ([0.5, 0.5], [1.0], "alpha grid repeats the value 0.5"),
        ([0.3], [1.0, 0.7, 1.0], "beta grid repeats the value 1.0"),
    ])
    def test_repeated_grid_value_rejected(self, alphas, betas, message):
        g = make_grid_graph(4, 4, seed=0)
        with pytest.raises(ValueError, match=message):
            sensitivity_sweep(BatchConfig(g, 2, trials=2), alpha_grid=alphas, beta_grid=betas)

    def test_invalid_cell_rejected_before_any_run(self, monkeypatch):
        runs = []

        def counted_run(*args, **kwargs):
            runs.append(args)
            return run_mission(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_mission", counted_run)
        config = BatchConfig(make_grid_graph(4, 4, seed=0), 2, trials=3)
        with pytest.raises(ValueError, match="alpha and beta cannot both be zero"):
            sensitivity_sweep(config, alpha_grid=[0.5, 0.0], beta_grid=[1.0, 0.0])
        assert runs == []

    def test_csv_bytes_pinned(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sensitivity_sweep(BatchConfig(make_grid_graph(6, 6, seed=0), 2, trials=3, base_seed=8),
                          alpha_grid=[0.3, 0.6], beta_grid=[1.0, 0.2], out_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "8a79e2fa6e6ca219ad133d2e207b2842319c1f1fef64d25dbe966b29badab59c")

    def test_sweep_runs_the_missions_of_its_batch_config(self):
        pool = (0, 1, 2, 6)
        config = BatchConfig(make_grid_graph(6, 6, seed=0), 2, trials=4, base_seed=5,
                             start_pool=pool)
        missions = config.missions()
        sw = sensitivity_sweep(config, alpha_grid=[0.3, 0.6], beta_grid=[1.0])
        by_trial = {}
        for row in sw.rows:
            by_trial.setdefault(row["trial"], set()).add(row["mission_hash"])
        assert by_trial == {t: {mission_hash(m)} for t, m in enumerate(missions)}
        assert all(s in pool for m in missions for s in m.starts)
        assert run_batch(config) == run_batch(config, missions=missions)

    def test_default_grid_constant(self):
        assert DEFAULT_SWEEP_GRID == (0.1, 0.3, 0.5, 0.7, 0.9)

    def test_csv_reproducible(self, tmp_path):
        g = make_grid_graph(6, 6, seed=0)
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        config = BatchConfig(g, 2, trials=2, base_seed=2)
        sensitivity_sweep(config, alpha_grid=[0.5], beta_grid=[1.0], out_path=str(p1))
        sensitivity_sweep(config, alpha_grid=[0.5], beta_grid=[1.0], out_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestMissionHash:
    def test_stable_and_sensitive(self):
        m1 = eight_node_mission()
        m2 = eight_node_mission()
        assert mission_hash(m1) == mission_hash(m2)
        other = Mission(m1.graph, (0, 2), m1.targets)
        assert mission_hash(other) != mission_hash(m1)

    def test_pinned_digests(self):
        # the sweep CSV's mission_hash column: a change here changes its bytes
        drawn = generate_random_mission(make_grid_graph(6, 6, seed=0), 3, 6, 11)
        assert (mission_hash(eight_node_mission()), mission_hash(drawn)) == ("a3f81b5c4c56", "114ba5a1267b")
