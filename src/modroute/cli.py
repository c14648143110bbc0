"""Command-line interface.

Subcommands: run (single mission), batch (method comparison), sweep
(alpha/beta sensitivity), oracle (tiny-instance exact solve), validate
(mission diagnostics). Exit codes: 0 success, 1 invalid input, 2 mission
infeasible, 3 step-cap abort in `run`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baselines import OracleLimitError, brute_force_optimal
from .engine import ForceParams, run_mission
from .experiments import (
    BatchConfig,
    DEFAULT_SWEEP_GRID,
    METHODS,
    make_grid_graph,
    run_batch,
    sensitivity_sweep,
)
from .graph import Graph, GraphFormatError, InfeasibleMissionError, Mission, load_edge_list, load_graphml, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_STEP_CAP = 3


class _Parser(argparse.ArgumentParser):
    # Flags must be spelled out: with prefixes allowed, batch would read
    # --starts (a flag it rejects) as --starts-from.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on usage errors by default; reserve 2 for
    # infeasible missions and report usage problems as invalid input.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="path to a GraphML (.graphml) or edge-list file")
    src.add_argument("--grid", metavar="WxH", help="synthetic WxH grid graph")
    sub.add_argument("--weight-attr", default="length", help="GraphML edge weight attribute")


def _add_mission_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--agents", type=int, default=2, help="number of agents")
    sub.add_argument("--targets", type=int, default=None, help="number of targets (default 2x agents)")
    sub.add_argument("--seed", type=int, default=0, help="base random seed")


def _add_explicit_mission_args(sub: argparse.ArgumentParser) -> None:
    # Only for the one-mission subcommands; batch and sweep draw every mission from the seed.
    sub.add_argument("--starts", help="comma-separated explicit start nodes (labels or indices)")
    sub.add_argument("--target-nodes", help="comma-separated explicit target nodes")


def _add_param_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=0.5, help="agent-agent attraction scale")
    sub.add_argument("--beta", type=float, default=1.0, help="agent-target attraction scale")
    sub.add_argument("--k", type=int, default=5, help="sampled cheapest paths per attraction source")
    sub.add_argument("--force-sum", action="store_true",
                     help="sum all sampled paths per candidate edge instead of taking the strongest")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modroute", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = subs.add_parser("run", help="route one mission and print the result")
    _add_graph_args(run_p)
    _add_mission_args(run_p)
    _add_explicit_mission_args(run_p)
    _add_param_args(run_p)
    run_p.add_argument("--max-steps", type=int, default=None, help="step cap (default 4*m^2)")
    run_p.add_argument("--wait-cost", type=float, default=0.0, help="cost charged per waiting agent per step")

    batch_p = subs.add_parser("batch", help="compare methods over seeded trials")
    _add_graph_args(batch_p)
    _add_mission_args(batch_p)
    _add_param_args(batch_p)
    batch_p.add_argument("--trials", type=int, default=100)
    batch_p.add_argument("--max-steps", type=int, default=None, help="step cap of every run (default 4*m^2)")
    batch_p.add_argument("--starts-from", help="comma-separated node labels to sample starts from")
    batch_p.add_argument("--out", help="CSV output path")

    sweep_p = subs.add_parser("sweep", help="alpha/beta sensitivity sweep")
    _add_graph_args(sweep_p)
    _add_mission_args(sweep_p)
    sweep_p.add_argument("--trials", type=int, default=100)
    sweep_p.add_argument("--k", type=int, default=5)
    sweep_p.add_argument("--max-steps", type=int, default=None, help="step cap of every run (default 4*m^2)")
    sweep_p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_SWEEP_GRID))
    sweep_p.add_argument("--betas", default=",".join(str(b) for b in DEFAULT_SWEEP_GRID))
    sweep_p.add_argument("--out", help="CSV output path")

    oracle_p = subs.add_parser("oracle", help="exact optimum for a tiny mission")
    _add_graph_args(oracle_p)
    _add_mission_args(oracle_p)
    _add_explicit_mission_args(oracle_p)
    oracle_p.add_argument("--horizon", type=int, default=8, help="search depth in steps (max 12)")

    val_p = subs.add_parser("validate", help="print mission diagnostics")
    _add_graph_args(val_p)
    _add_mission_args(val_p)
    _add_explicit_mission_args(val_p)
    return parser


def _load_graph(args) -> Graph:
    if args.grid:
        try:
            width, height = (int(part) for part in args.grid.lower().split("x"))
        except ValueError:
            raise GraphFormatError(f"--grid expects WxH, got {args.grid!r}") from None
        return make_grid_graph(width, height, seed=0)
    if args.graph.endswith(".graphml"):
        return load_graphml(args.graph, weight_attr=args.weight_attr)
    with open(args.graph, encoding="utf-8") as handle:
        return load_edge_list(handle.read())


def _resolve_nodes(graph: Graph, node_list: str) -> list[int]:
    by_label = {}
    if graph.node_labels:
        by_label = {label: node for node, label in graph.node_labels.items()}
    nodes = []
    for token in node_list.split(","):
        token = token.strip()
        try:
            index = int(token)
        except ValueError:
            index = None
        if token in by_label:
            node = by_label[token]
            if graph.node_problem(index) is None and index != node:
                raise GraphFormatError(
                    f"ambiguous node {token!r}: it is the label of node {node} "
                    f"and the index of node {index}"
                )
            nodes.append(node)
        elif index is None:
            raise GraphFormatError(f"unknown node {token!r}")
        elif problem := graph.node_problem(index):
            raise GraphFormatError(f"node index {index} {problem}")
        else:
            nodes.append(index)
    return nodes


def _build_mission(graph: Graph, args) -> Mission:
    if args.starts and args.target_nodes:
        return Mission(graph, tuple(_resolve_nodes(graph, args.starts)),
                       frozenset(_resolve_nodes(graph, args.target_nodes)))
    if args.starts or args.target_nodes:
        raise GraphFormatError("--starts and --target-nodes must be given together")
    return BatchConfig(graph, args.agents, args.targets, trials=1, base_seed=args.seed).missions()[0]


def _mission_json(graph: Graph, mission: Mission) -> dict:
    return {
        "starts": list(mission.starts),
        "targets": sorted(mission.targets),
        "start_labels": [graph.label(s) for s in mission.starts],
        "target_labels": [graph.label(t) for t in sorted(mission.targets)],
    }


def _force_params(args) -> ForceParams:
    return ForceParams(alpha=args.alpha, beta=args.beta, k=args.k, force_sum=args.force_sum)


def _cmd_run(args) -> int:
    graph = _load_graph(args)
    mission = _build_mission(graph, args)
    result = run_mission(mission, _force_params(args), seed=args.seed, max_steps=args.max_steps,
                         wait_cost=args.wait_cost)
    payload = {
        "mission": _mission_json(graph, mission),
        "completed": result.completed,
        "total_cost": result.total_cost,
        "steps": result.steps_taken,
        "per_agent_paths": [list(path) for path in result.per_agent_paths],
        "diagnostic": result.diagnostic,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if result.completed else EXIT_STEP_CAP


def _batch_config(args, graph: Graph, params: ForceParams,
                  start_pool: tuple[int, ...] | None = None) -> BatchConfig:
    return BatchConfig(graph=graph, n_agents=args.agents, n_targets=args.targets,
                       trials=args.trials, params=params, base_seed=args.seed,
                       start_pool=start_pool, max_steps=args.max_steps)


def _cmd_batch(args) -> int:
    graph = _load_graph(args)
    start_pool = tuple(_resolve_nodes(graph, args.starts_from)) if args.starts_from else None
    result = run_batch(_batch_config(args, graph, _force_params(args), start_pool), out_path=args.out)
    for method in METHODS:
        print(f"{method}: mean={result.mean_cost[method]:.4f} "
              f"variance={result.variance_cost[method]:.4f} "
              f"best={result.best_frequency[method]:.1f}%")
    if args.out:
        print(f"rows written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _batch_config(args, _load_graph(args), ForceParams(k=args.k))
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    betas = [float(b) for b in args.betas.split(",") if b.strip()]
    result = sensitivity_sweep(config, alphas, betas, out_path=args.out)
    for (alpha, beta), mean in sorted(result.mean_cost.items()):
        print(f"alpha={alpha} beta={beta} mean_cost={mean:.4f} score={result.score[(alpha, beta)]:.3f}")
    if args.out:
        print(f"rows written to {args.out}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    graph = _load_graph(args)
    mission = _build_mission(graph, args)
    result = brute_force_optimal(mission, horizon=args.horizon)
    payload = {
        "mission": _mission_json(graph, mission),
        "optimal_cost": result.optimal_cost if result.paths else None,
        "paths": [list(p) for p in result.paths] if result.paths else None,
        "explored_states": result.explored_states,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_validate(args) -> int:
    graph = _load_graph(args)
    mission = _build_mission(graph, args)
    diags = validate(mission)
    print(json.dumps({"mission": _mission_json(graph, mission), "diagnostics": diags}, indent=2))
    return EXIT_OK if not diags else EXIT_INFEASIBLE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "batch": _cmd_batch,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleMissionError as exc:
        print(f"mission infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphFormatError, OracleLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
