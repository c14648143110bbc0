import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modroute import BatchConfig, ForceParams, generate_random_mission, make_grid_graph
from modroute.cli import build_parser, main

from _fixtures import EIGHT_NODE_EDGE_LIST, SUM_IS_LEFT_FOLD


@pytest.fixture
def demo_graph_file(tmp_path):
    path = tmp_path / "demo.edges"
    path.write_text(EIGHT_NODE_EDGE_LIST)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_demo_mission_json(self, capsys, demo_graph_file):
        code, out, _ = run_cli(
            capsys, "run", "--graph", demo_graph_file,
            "--starts", "0,1", "--target-nodes", "6,7",
            "--alpha", "1", "--beta", "1", "--k", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["completed"] is True
        assert payload["total_cost"] == 6.0
        assert payload["per_agent_paths"] == [[0, 4, 5, 6], [1, 4, 5, 7]]

    def test_step_cap_abort_exits_3(self, capsys, tmp_path):
        chain = tmp_path / "chain.edges"
        chain.write_text(
            "0 1 1 undirected\n1 2 1 undirected\n2 3 1 undirected\n3 4 1 undirected\n"
        )
        code, out, _ = run_cli(
            capsys, "run", "--graph", str(chain),
            "--starts", "0,1", "--target-nodes", "3,4",
            "--alpha", "5", "--beta", "1", "--k", "3",
            "--max-steps", "1",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["completed"] is False and "step cap" in payload["diagnostic"]

    def test_finished_agents_with_targets_unvisited_exit_3(self, capsys, tmp_path):
        # the agent takes target 1 first, after which it can no longer reach 3
        path = tmp_path / "trap.edges"
        path.write_text("0 1 1.0\n1 2 1.0\n0 3 5.0\n")
        code, out, _ = run_cli(capsys, "run", "--graph", str(path), "--starts", "0", "--target-nodes", "1,3")
        assert code == 3
        payload = json.loads(out)
        assert payload["completed"] is False
        assert payload["diagnostic"] == "all agents finished with targets still unvisited: [3]"

    def test_grid_mission_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--grid", "6x6", "--agents", "2", "--targets", "4", "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["completed"] is True

    def test_drawn_mission_is_the_batchs_first_with_2n_targets(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--grid", "6x6", "--agents", "3", "--seed", "2")
        mission = generate_random_mission(make_grid_graph(6, 6, seed=0), 3, 6, seed=2)
        assert code == 0
        drawn = json.loads(out)["mission"]
        assert (drawn["starts"], drawn["targets"]) == (list(mission.starts), sorted(mission.targets))

    def test_infeasible_explicit_mission_exits_2(self, capsys, tmp_path):
        path = tmp_path / "split.edges"
        path.write_text("0 1 1.0\n2 3 1.0\n")
        code, out, err = run_cli(
            capsys, "run", "--graph", str(path), "--starts", "0", "--target-nodes", "3",
        )
        assert (code, out) == (2, "")
        assert err == "mission infeasible: target node 3 unreachable from every start\n"

    def test_graphml_file_is_read_as_graphml(self, capsys, tmp_path):
        path = tmp_path / "tiny.graphml"
        path.write_text(
            '<graphml><key id="d0" for="edge" attr.name="cost"/><graph><node id="a"/><node id="b"/>'
            '<edge source="a" target="b"><data key="d0">5</data></edge></graph></graphml>'
        )
        code, out, _ = run_cli(
            capsys, "run", "--graph", str(path), "--weight-attr", "cost",
            "--starts", "a", "--target-nodes", "b",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_cost"] == 5.0 and payload["per_agent_paths"] == [[0, 1]]


class TestValidate:
    def test_ok_mission_exits_0(self, capsys, demo_graph_file):
        code, out, _ = run_cli(
            capsys, "validate", "--graph", demo_graph_file,
            "--starts", "0,1", "--target-nodes", "6,7",
        )
        assert code == 0
        assert json.loads(out)["diagnostics"] == []

    def test_unreachable_target_exits_2(self, capsys, tmp_path):
        path = tmp_path / "split.edges"
        path.write_text("0 1 1.0\n2 3 1.0\n")
        code, out, _ = run_cli(
            capsys, "validate", "--graph", str(path),
            "--starts", "0", "--target-nodes", "3",
        )
        assert code == 2
        assert any("unreachable" in d for d in json.loads(out)["diagnostics"])

    def test_graphml_suffix_in_any_case_is_read_as_graphml(self, capsys, tmp_path):
        # it was read as an edge list and exited 1 on its first line
        path = tmp_path / "tiny.GraphML"
        path.write_text(
            '<graphml><graph><node id="a"/><node id="b"/>'
            '<edge source="a" target="b"><data key="length">5</data></edge></graph></graphml>'
        )
        code, out, _ = run_cli(capsys, "validate", "--graph", str(path), "--starts", "a", "--target-nodes", "b")
        assert code == 0
        assert json.loads(out) == {
            "mission": {"starts": [0], "targets": [1], "start_labels": ["a"], "target_labels": ["b"]},
            "diagnostics": [],
        }


class TestOracle:
    def test_demo_optimum(self, capsys, demo_graph_file):
        code, out, _ = run_cli(
            capsys, "oracle", "--graph", demo_graph_file,
            "--starts", "0,1", "--target-nodes", "6,7", "--horizon", "5",
        )
        assert code == 0
        assert json.loads(out)["optimal_cost"] == 6.0

    def test_limit_violation_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--grid", "8x8", "--agents", "1", "--targets", "1", "--seed", "0"
        )
        assert code == 1
        assert "12 nodes" in err

    def test_no_covering_sequence_prints_valid_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--grid", "3x3", "--agents", "1", "--targets", "2",
            "--seed", "1", "--horizon", "1",
        )

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(out, parse_constant=reject)
        assert code == 0
        assert payload["optimal_cost"] is None and payload["paths"] is None

    def test_negative_horizon_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--grid", "3x3", "--agents", "1", "--targets", "2",
            "--seed", "1", "--horizon", "-1",
        )
        assert code == 1 and out == ""
        assert "horizon must be >= 0" in err


class TestBatchAndSweep:
    def test_batch_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "batch", "--grid", "6x6", "--agents", "2", "--trials", "3",
            "--seed", "5", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("trial,seed,method")
        assert len(lines) == 1 + 3 * 2
        assert "force_based" in out and "nonmodular" in out

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--grid", "6x6", "--agents", "2", "--trials", "2",
            "--alphas", "0.5", "--betas", "1.0", "--seed", "5", "--out", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().startswith("alpha,beta,trial,seed,mission_hash")
        assert "score=1.000" in out

    def test_starts_from_pool(self, capsys, tmp_path):
        out_csv = tmp_path / "pool.csv"
        code, _, _ = run_cli(
            capsys, "batch", "--grid", "6x6", "--agents", "2", "--trials", "2",
            "--seed", "5", "--starts-from", "0,1,2,3", "--out", str(out_csv),
        )
        assert code == 0

    def test_sweep_step_cap_applies_to_every_run(self, capsys, tmp_path):
        out_csv = tmp_path / "capped.csv"
        argv = ["sweep", "--grid", "6x6", "--agents", "2", "--trials", "2",
                "--alphas", "0.5", "--betas", "1.0", "--seed", "5"]
        code, out, _ = run_cli(capsys, *argv, "--max-steps", "1", "--out", str(out_csv))
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()]
        steps, completed = rows[0].index("steps"), rows[0].index("completed")
        assert [(row[steps], row[completed]) for row in rows[1:]] == [("1", "False")] * 2
        assert "mean_cost=inf score=0.000" in out
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "score=1.000" in out

    def test_batch_step_cap_applies_to_every_run(self, capsys, tmp_path):
        out_csv = tmp_path / "capped.csv"
        argv = ["batch", "--grid", "6x6", "--agents", "2", "--trials", "2", "--seed", "5"]
        code, out, _ = run_cli(capsys, *argv, "--max-steps", "1", "--out", str(out_csv))
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()]
        steps, completed = rows[0].index("steps"), rows[0].index("completed")
        assert [(row[steps], row[completed]) for row in rows[1:]] == [("1", "False")] * 4
        assert "force_based: mean=inf" in out and "nonmodular: mean=inf" in out
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "mean=inf" not in out

    def test_sweep_repeated_grid_value_exits_1(self, capsys, tmp_path):
        out_csv = tmp_path / "twice.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--grid", "4x4", "--agents", "2", "--trials", "2",
            "--alphas", "0.5,0.5", "--betas", "1.0", "--out", str(out_csv),
        )
        assert code == 1
        assert out == "" and "alpha grid repeats the value 0.5" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["batch", "sweep"])
    @pytest.mark.parametrize("flag", ["--wait-cost=100", "--starts=0,1", "--target-nodes=6,7"])
    def test_batch_rejects_run_only_flags(self, capsys, command, flag):
        # batch and sweep run no wait cost and draw every mission from the
        # seed, so they must not accept these flags and silently ignore them.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--grid", "4x4", "--agents", "2", "--trials", "3", flag])
        assert excinfo.value.code == 1
        assert flag.split("=")[0] in capsys.readouterr().err


class TestDefaults:
    @pytest.mark.parametrize("command, flags", [
        ("run", ("alpha", "beta", "k", "seed")),
        ("batch", ("alpha", "beta", "k", "trials", "seed")),
        ("sweep", ("k", "trials", "seed")),
    ])
    def test_unset_flags_are_the_library_defaults(self, command, flags):
        # the CLI keeps no copy of these numbers: it reads them off the dataclasses
        args = vars(build_parser().parse_args([command, "--grid", "4x4"]))
        params, config = ForceParams(), BatchConfig(make_grid_graph(4, 4), 2)
        library = {"alpha": params.alpha, "beta": params.beta, "k": params.k,
                   "trials": config.trials, "seed": config.base_seed}
        assert {flag: repr(args[flag]) for flag in flags} == {flag: repr(library[flag]) for flag in flags}


class TestParsedArgs:
    # Every flag of each subcommand, and none of them: the values the
    # handlers read. The handler itself is left out.
    @pytest.mark.parametrize("argv, parsed", [
        ("run --grid 5x4 --weight-attr w --agents 3 --targets 4 --seed 9 --starts 0,1 --target-nodes 6,7"
         " --alpha 0.25 --beta 2.5 --k 3 --force-sum --max-steps 40 --wait-cost 0.5",
         {"command": "run", "graph": None, "grid": "5x4", "weight_attr": "w", "agents": 3, "targets": 4,
          "seed": 9, "starts": "0,1", "target_nodes": "6,7", "alpha": 0.25, "beta": 2.5, "k": 3,
          "force_sum": True, "max_steps": 40, "wait_cost": 0.5}),
        ("batch --graph g.graphml --weight-attr w --agents 3 --targets 4 --seed 9 --alpha 0.25 --beta 2.5"
         " --k 3 --force-sum --trials 6 --max-steps 40 --starts-from 0,1,2 --out b.csv",
         {"command": "batch", "graph": "g.graphml", "grid": None, "weight_attr": "w", "agents": 3,
          "targets": 4, "seed": 9, "alpha": 0.25, "beta": 2.5, "k": 3, "force_sum": True, "trials": 6,
          "max_steps": 40, "starts_from": "0,1,2", "out": "b.csv"}),
        ("sweep --grid 5x4 --weight-attr w --agents 3 --targets 4 --seed 9 --trials 6 --k 3 --max-steps 40"
         " --alphas 0.2,0.4 --betas 1,2 --out s.csv",
         {"command": "sweep", "graph": None, "grid": "5x4", "weight_attr": "w", "agents": 3, "targets": 4,
          "seed": 9, "trials": 6, "k": 3, "max_steps": 40, "alphas": "0.2,0.4", "betas": "1,2",
          "out": "s.csv"}),
        ("oracle --grid 3x3 --weight-attr w --agents 2 --targets 3 --seed 9 --starts 0,1 --target-nodes 6,7"
         " --horizon 5",
         {"command": "oracle", "graph": None, "grid": "3x3", "weight_attr": "w", "agents": 2, "targets": 3,
          "seed": 9, "starts": "0,1", "target_nodes": "6,7", "horizon": 5}),
        ("validate --graph g.edges --weight-attr w --agents 3 --targets 4 --seed 9 --starts 0,1"
         " --target-nodes 6,7",
         {"command": "validate", "graph": "g.edges", "grid": None, "weight_attr": "w", "agents": 3,
          "targets": 4, "seed": 9, "starts": "0,1", "target_nodes": "6,7"}),
        ("run --grid 4x4",
         {"command": "run", "graph": None, "grid": "4x4", "weight_attr": "length", "agents": 2,
          "targets": None, "seed": 0, "starts": None, "target_nodes": None, "alpha": 0.5, "beta": 1.0,
          "k": 5, "force_sum": False, "max_steps": None, "wait_cost": 0.0}),
        ("batch --grid 4x4",
         {"command": "batch", "graph": None, "grid": "4x4", "weight_attr": "length", "agents": 2,
          "targets": None, "seed": 0, "alpha": 0.5, "beta": 1.0, "k": 5, "force_sum": False,
          "trials": 100, "max_steps": None, "starts_from": None, "out": None}),
        ("sweep --grid 4x4",
         {"command": "sweep", "graph": None, "grid": "4x4", "weight_attr": "length", "agents": 2,
          "targets": None, "seed": 0, "trials": 100, "k": 5, "max_steps": None,
          "alphas": "0.1,0.3,0.5,0.7,0.9", "betas": "0.1,0.3,0.5,0.7,0.9", "out": None}),
        ("oracle --grid 4x4",
         {"command": "oracle", "graph": None, "grid": "4x4", "weight_attr": "length", "agents": 2,
          "targets": None, "seed": 0, "starts": None, "target_nodes": None, "horizon": 8}),
        ("validate --grid 4x4",
         {"command": "validate", "graph": None, "grid": "4x4", "weight_attr": "length", "agents": 2,
          "targets": None, "seed": 0, "starts": None, "target_nodes": None}),
    ])
    def test_each_subcommand_parses_to_these_values(self, argv, parsed):
        args = vars(build_parser().parse_args(argv.split()))
        args.pop("handler", None)
        assert {name: repr(value) for name, value in args.items()} == {
            name: repr(value) for name, value in parsed.items()}


# Each int flag on every subcommand that takes it
INT_FLAGS = [(command, flag) for command in ("run", "batch", "sweep", "oracle", "validate")
             for flag in ("--agents", "--targets", "--seed")] + [
    ("run", "--k"), ("batch", "--k"), ("sweep", "--k"), ("batch", "--trials"), ("sweep", "--trials"),
    ("run", "--max-steps"), ("batch", "--max-steps"), ("sweep", "--max-steps"), ("oracle", "--horizon"),
]


class TestBadInput:
    def test_unknown_node_exits_1(self, capsys, demo_graph_file):
        code, _, err = run_cli(
            capsys, "run", "--graph", demo_graph_file,
            "--starts", "nowhere", "--target-nodes", "6",
        )
        assert code == 1
        assert "unknown node" in err

    @pytest.mark.parametrize("token", ["1_0", "１"])
    def test_token_that_int_misreads_is_an_unknown_node(self, capsys, token):
        # int() reads these as 10 and 1, both nodes of the grid
        code, out, err = run_cli(capsys, "run", "--grid", "4x4", "--starts", token, "--target-nodes", "3")
        assert (code, out) == (1, "")
        assert err == f"error: unknown node {token!r}\n"

    def test_node_index_out_of_range_exits_1(self, capsys, demo_graph_file):
        code, out, err = run_cli(
            capsys, "validate", "--graph", demo_graph_file, "--starts", "0,8", "--target-nodes", "6",
        )
        assert (code, out) == (1, "")
        assert err == "error: node index 8 out of range [0,8)\n"

    @pytest.mark.parametrize("flag", ["--starts", "--target-nodes"])
    def test_explicit_starts_and_targets_come_together(self, capsys, demo_graph_file, flag):
        code, out, err = run_cli(capsys, "run", "--graph", demo_graph_file, flag, "0")
        assert (code, out) == (1, "")
        assert err == "error: --starts and --target-nodes must be given together\n"

    def test_label_that_is_another_nodes_index_exits_1(self, capsys, tmp_path):
        # Raw ids 1, 2, 3 load as indices 0, 1, 2: "2" is node 1's label
        # and node 2's index.
        path = tmp_path / "shifted.edges"
        path.write_text("1 2 1 undirected\n2 3 1 undirected\n")
        code, _, err = run_cli(
            capsys, "validate", "--graph", str(path), "--starts", "2", "--target-nodes", "3",
        )
        assert code == 1
        assert "ambiguous node '2'" in err
        assert "label of node 1" in err and "index of node 2" in err

    def test_label_equal_to_its_own_index_is_accepted(self, capsys, tmp_path):
        # Raw ids 0, 1, 5 load as indices 0, 1, 2: "1" is node 1's label and
        # index, and "5" is a label whose index reading is out of range.
        path = tmp_path / "gap.edges"
        path.write_text("0 1 1 undirected\n1 5 1 undirected\n")
        code, out, _ = run_cli(
            capsys, "validate", "--graph", str(path), "--starts", "1", "--target-nodes", "5",
        )
        assert code == 0
        assert json.loads(out)["mission"] == {
            "starts": [1], "targets": [2], "start_labels": ["1"], "target_labels": ["5"],
        }

    @pytest.mark.parametrize("flag", [
        "--wait-cost=nan", "--wait-cost=-5", "--wait-cost=inf", "--max-steps=-3",
        "--alpha=inf", "--beta=inf",
    ])
    def test_bad_run_input_exits_1(self, capsys, flag):
        code, out, err = run_cli(capsys, "run", "--grid", "4x4", "--agents", "2", flag)
        assert code == 1
        assert out == ""
        assert flag[2:].split("=")[0].replace("-", "_") in err

    # int() reads these as 10, 2 and 7
    @pytest.mark.parametrize("token", ["1_0", "\uff12", " 7"])
    @pytest.mark.parametrize("command, flag", INT_FLAGS)
    def test_int_flag_that_int_would_misread_exits_1(self, capsys, command, flag, token):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--grid", "4x4", flag, token])
        assert excinfo.value.code == 1
        assert f"error: argument {flag}: invalid int value: {token!r}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["+3", "007", "-1"])
    @pytest.mark.parametrize("command, flag", INT_FLAGS)
    def test_int_flag_is_read_as_int_reads_it(self, command, flag, token):
        args = build_parser().parse_args([command, "--grid", "4x4", flag, token])
        assert repr(getattr(args, flag[2:].replace("-", "_"))) == repr(int(token))

    # float() reads these as 10.5 and 1.5
    @pytest.mark.parametrize("token", ["1_0.5", "\u0661.\u0665", "\uff11.\uff15"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--wait-cost"])
    def test_float_flag_that_float_would_misread_exits_1(self, capsys, flag, token):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--grid", "4x4", "--agents", "2", f"{flag}={token}"])
        assert excinfo.value.code == 1
        assert f"error: argument {flag}: invalid float value: {token!r}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1e3", ".5", "+2.", "-inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--wait-cost"])
    def test_float_flag_is_read_as_float_reads_it(self, flag, token):
        args = build_parser().parse_args(["run", "--grid", "4x4", f"{flag}={token}"])
        assert getattr(args, flag[2:].replace("-", "_")) == float(token)

    @pytest.mark.parametrize("token", ["1_0.5", "\u0661.\u0665", "\uff11.\uff15"])
    @pytest.mark.parametrize("flag", ["--alphas", "--betas"])
    def test_sweep_item_that_float_would_misread_exits_1(self, capsys, flag, token):
        code, out, err = run_cli(capsys, "sweep", "--grid", "4x4", "--agents", "2", "--trials", "1",
                                 flag, f"0.5, {token} ")
        assert (code, out) == (1, "")
        assert err == f"error: {flag}: {token!r} is not a number\n"

    def test_sweep_items_are_stripped_and_read_as_float_reads_them(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--grid", "4x4", "--agents", "2", "--trials", "1",
                               "--alphas", " 1e-1, .5,", "--betas", "+2., 1E0")
        assert code == 0
        assert [line.split(" mean_cost")[0] for line in out.splitlines()] == [
            f"alpha={a} beta={b}" for a in (0.1, 0.5) for b in (1.0, 2.0)
        ]

    @pytest.mark.parametrize("grid", ["notagrid", "8_0x8", "８x８", ""])
    def test_bad_grid_string_exits_1(self, capsys, grid):
        code, out, err = run_cli(capsys, "run", "--grid", grid, "--agents", "1")
        assert (code, out) == (1, "")
        assert err == f"error: --grid expects WxH, got {grid!r}\n"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])  # missing required --graph/--grid
        assert excinfo.value.code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--graph", "/nonexistent.edges", "--agents", "1"
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_weights_whose_sum_overflows_exit_1(self, capsys, tmp_path, command):
        # the first sum overflows the float range; the second is finite but
        # past 2**511, and its run once exited 0 after a blind walk
        path = tmp_path / "huge.edges"
        for text in ("0 1 1e308\n1 2 1e308\n", "0 1 1e154\n1 2 1e154\n"):
            path.write_text(text)
            code, out, err = run_cli(capsys, command, "--graph", str(path), "--starts", "0", "--target-nodes", "2")
            assert (code, out) == (1, "")
            assert err.startswith("error: edge weights must sum to at most 2**511")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_weight_below_the_floor_exits_1(self, capsys, tmp_path, command):
        edge_list, graphml = tmp_path / "tiny.edges", tmp_path / "tiny.graphml"
        edge_list.write_text("0 1 1e-160\n1 2 1\n")
        graphml.write_text('<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><key id="d0" for="edge" '
                           'attr.name="length"/><graph><node id="0"/><node id="1"/><node id="2"/>'
                           '<edge source="0" target="1"><data key="d0">1e-160</data></edge>'
                           '<edge source="1" target="2"><data key="d0">1</data></edge></graph></graphml>')
        for path in (edge_list, graphml):
            code, out, err = run_cli(capsys, command, "--graph", str(path), "--starts", "0", "--target-nodes", "2")
            assert (code, out) == (1, "")
            assert err.startswith("error: edge (0,1) weight must be finite and at least 2**-511 (1.49e-154)")


class TestUnreadFlags:
    # A flag the command would not read exits 1 instead of being ignored.
    def test_every_unread_flag_is_named(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--grid", "4x4", "--starts", "0", "--target-nodes", "3",
                                 "--agents", "7", "--targets", "9", "--weight-attr", "nosuch")
        assert (code, out) == (1, "")
        assert err == ("error: --agents, --targets not read: the mission is given by --starts and "
                       "--target-nodes; --weight-attr not read: only a GraphML file has edge attributes\n")

    @pytest.mark.parametrize("command", ["run", "oracle", "validate"])
    @pytest.mark.parametrize("flag", ["--agents=2", "--targets=3", "--seed=4"])
    def test_draw_flags_with_an_explicit_mission(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, "--grid", "3x3", flag, "--starts", "0", "--target-nodes", "8")
        if command == "run" and flag == "--seed=4":  # the run's own seed
            assert code == 0 and json.loads(out)["completed"]
        else:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {flag.split('=')[0]} not read: the mission is given by --starts")

    @pytest.mark.parametrize("command", ["run", "batch", "sweep", "oracle", "validate"])
    @pytest.mark.parametrize("source", ["grid", "edge list"])
    def test_weight_attr_without_graphml(self, capsys, demo_graph_file, command, source):
        graph = ["--grid", "3x3"] if source == "grid" else ["--graph", demo_graph_file]
        code, out, err = run_cli(capsys, command, *graph, "--weight-attr", "length")
        assert (code, out) == (1, "")
        assert err == "error: --weight-attr not read: only a GraphML file has edge attributes\n"

    def test_draw_flags_of_a_drawn_mission_are_read(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--grid", "4x4", "--agents", "3", "--targets", "4", "--seed", "5")
        mission = json.loads(out)["mission"]
        assert code == 0 and (len(mission["starts"]), len(mission["targets"])) == (3, 4)


class TestOutputBytes:
    # Other tests parse the printed JSON, so they would not see a change in
    # key order, indent or float text. A drawn run's total cost and the
    # oracle's explored-state count differ where sum() is compensated, so
    # those two have a digest for each kind of sum.
    @pytest.mark.parametrize("argv, code, digests", [
        ("run --grid 6x6 --agents 3 --seed 2", 0,
         ("a2bfab877dc07cc2467a6a53c929ec9968701cb9d2195d96a8f43c8b5c786f0c",
          "080d6b88395447cbd9602a44d4331146331875e28ac004062882d448ae039c61")),
        ("run --grid 6x6 --starts 0,5 --target-nodes 30,35 --max-steps 2", 3,
         ("085371d38d286073ff43d8ca7cd5b81bade0447b59356e25e99ea23c0fc914cb",) * 2),
        ("oracle --grid 3x4 --agents 3 --targets 4 --seed 1 --horizon 5", 0,
         ("977b17b2610677333534a32fa8d4e30058fc93f8c30efe85042013fbf1411742",
          "99e22d58f088423dd3104fb1d56949d0fc74ffa494cf9703bd14fdf77c39d66d")),
        ("validate --grid 4x4 --agents 2 --seed 0", 0,
         ("863eb7aabe4f80eadd048749662644d773057cb193f7ca6b3c31459894206b9f",) * 2),
    ])
    def test_stdout_bytes_and_exit_code(self, capsys, argv, code, digests):
        got, out, _ = run_cli(capsys, *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digests[0 if SUM_IS_LEFT_FOLD else 1])


class TestHashSeedIndependence:
    def test_run_and_batch_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            cwd = tmp_path / f"hashseed{hash_seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            runs = [
                subprocess.run([sys.executable, "-m", "modroute", *argv], cwd=cwd, env=env,
                               capture_output=True, check=True).stdout
                for argv in (
                    ["run", "--grid", "6x6", "--agents", "3", "--seed", "7"],
                    ["batch", "--grid", "6x6", "--agents", "3", "--trials", "5", "--seed", "7",
                     "--out", "rows.csv"],
                )
            ]
            outputs.append((runs, (cwd / "rows.csv").read_bytes()))
        assert outputs[0] == outputs[1]
