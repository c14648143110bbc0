"""Command-line interface.

Subcommands: run (single mission), batch (method comparison), sweep
(alpha/beta sensitivity), oracle (tiny-instance exact solve), validate
(mission diagnostics). Exit codes: 0 success, 1 invalid input, 2 mission
infeasible, 3 the run aborted in `run`: step cap, or every agent finished
with targets unvisited.
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
from .graph import (Graph, GraphFormatError, InfeasibleMissionError, Mission, load_edge_list, load_graphml,
                    read_float, read_int, validate)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_ABORTED = 3


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


def _token_arg(read, kind: str):
    """An argparse type that reads its token by ``read`` (``read_int`` or
    ``read_float``), with argparse's own message for a token it rejects."""
    def parse(token: str):
        if (value := read(token)) is None:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {token!r}")
        return value
    return parse


_int_arg, _float_arg = _token_arg(read_int, "int"), _token_arg(read_float, "float")


def _float_list(flag: str, text: str) -> list[float]:
    values = []
    for item in text.split(","):
        if item := item.strip():
            if (value := read_float(item)) is None:
                raise ValueError(f"{flag}: {item!r} is not a number")
            values.append(value)
    return values


def build_parser() -> argparse.ArgumentParser:
    # Each flag is declared once, on the group of subcommands that takes it;
    # a subcommand takes its groups' flags as argparse parents.
    common, explicit, runs, forces, trials = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="path to a GraphML (.graphml) or edge-list file")
    src.add_argument("--grid", metavar="WxH", help="synthetic WxH grid graph")
    common.add_argument("--weight-attr", default="length", help="GraphML edge weight attribute")
    common.add_argument("--agents", type=_int_arg, default=2, help="number of agents")
    common.add_argument("--targets", type=_int_arg, default=None, help="number of targets (default 2x agents)")
    common.add_argument("--seed", type=_int_arg, default=BatchConfig.base_seed, help="base random seed")
    # Only for the one-mission subcommands; batch and sweep draw every mission from the seed.
    explicit.add_argument("--starts", help="comma-separated explicit start nodes (labels or indices)")
    explicit.add_argument("--target-nodes", help="comma-separated explicit target nodes")
    runs.add_argument("--k", type=_int_arg, default=ForceParams.k, help="sampled cheapest paths per attraction source")
    runs.add_argument("--max-steps", type=_int_arg, default=None, help="step cap of every run (default 4*m^2)")
    forces.add_argument("--alpha", type=_float_arg, default=ForceParams.alpha, help="agent-agent attraction scale")
    forces.add_argument("--beta", type=_float_arg, default=ForceParams.beta, help="agent-target attraction scale")
    forces.add_argument("--force-sum", action="store_true",
                        help="sum all sampled paths per candidate edge instead of taking the strongest")
    trials.add_argument("--trials", type=_int_arg, default=BatchConfig.trials, help="number of seeded trials")
    trials.add_argument("--out", help="CSV output path")

    parser = _Parser(prog="modroute", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler, about: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=about, parents=[common, *parents])
        sub.set_defaults(handler=handler)
        return sub

    add("run", _cmd_run, "route one mission and print the result", explicit, runs, forces).add_argument(
        "--wait-cost", type=_float_arg, default=0.0, help="cost charged per waiting agent per step")
    add("batch", _cmd_batch, "compare methods over seeded trials", runs, forces, trials).add_argument(
        "--starts-from", help="comma-separated node labels to sample starts from")
    sweep = add("sweep", _cmd_sweep, "alpha/beta sensitivity sweep", runs, trials)
    sweep.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_SWEEP_GRID))
    sweep.add_argument("--betas", default=",".join(str(b) for b in DEFAULT_SWEEP_GRID))
    add("oracle", _cmd_oracle, "exact optimum for a tiny mission", explicit).add_argument(
        "--horizon", type=_int_arg, default=8, help="search depth in steps (max 12)")
    add("validate", _cmd_validate, "print mission diagnostics", explicit)
    return parser


def _load_graph(args) -> Graph:
    if args.grid:
        sizes = [read_int(part.strip()) for part in args.grid.lower().split("x")]
        if len(sizes) != 2 or None in sizes:
            raise GraphFormatError(f"--grid expects WxH, got {args.grid!r}")
        return make_grid_graph(*sizes, seed=0)
    if args.graph.lower().endswith(".graphml"):
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
        index = read_int(token)
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


def _build_mission(args) -> Mission:
    graph = _load_graph(args)
    if args.starts and args.target_nodes:
        return Mission(graph, tuple(_resolve_nodes(graph, args.starts)),
                       frozenset(_resolve_nodes(graph, args.target_nodes)))
    if args.starts or args.target_nodes:
        raise GraphFormatError("--starts and --target-nodes must be given together")
    return BatchConfig(graph, args.agents, args.targets, trials=1, base_seed=args.seed).missions()[0]


def _unread_flags(args, argv: list[str]) -> list[str]:
    """One line per reason that flags given in ``argv`` would go unread.

    With ``--starts`` and ``--target-nodes`` nothing is drawn, so
    ``--agents`` and ``--targets`` are not read, nor is ``--seed`` outside
    ``run``, which seeds its run with it; and only a GraphML file has a
    ``--weight-attr`` to read. A flag counts as given when a token is the
    flag or starts with it and ``=``: with abbreviations off and no
    positional arguments, argparse takes no other token for a flag's name
    and lets no such token through as a value.
    """
    rules = []
    if getattr(args, "starts", None) and args.target_nodes:
        drawn = ("--agents", "--targets") if args.command == "run" else ("--agents", "--targets", "--seed")
        rules.append((drawn, "the mission is given by --starts and --target-nodes"))
    if not (args.graph and args.graph.lower().endswith(".graphml")):
        rules.append((("--weight-attr",), "only a GraphML file has edge attributes"))
    lines = []
    for flags, why in rules:
        if given := [flag for flag in flags if any(token == flag or token.startswith(flag + "=") for token in argv)]:
            lines.append(f"{', '.join(given)} not read: {why}")
    return lines


def _print_json(mission: Mission, **fields) -> None:
    graph, targets = mission.graph, sorted(mission.targets)
    print(json.dumps({"mission": {
        "starts": list(mission.starts),
        "targets": targets,
        "start_labels": [graph.label(s) for s in mission.starts],
        "target_labels": [graph.label(t) for t in targets],
    }, **fields}, indent=2))


def _force_params(args) -> ForceParams:
    return ForceParams(alpha=args.alpha, beta=args.beta, k=args.k, force_sum=args.force_sum)


def _cmd_run(args) -> int:
    mission = _build_mission(args)
    result = run_mission(mission, _force_params(args), seed=args.seed, max_steps=args.max_steps,
                         wait_cost=args.wait_cost)
    _print_json(mission, completed=result.completed, total_cost=result.total_cost, steps=result.steps_taken,
                per_agent_paths=[list(path) for path in result.per_agent_paths], diagnostic=result.diagnostic)
    return EXIT_OK if result.completed else EXIT_ABORTED


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
    result = sensitivity_sweep(config, _float_list("--alphas", args.alphas), _float_list("--betas", args.betas),
                               out_path=args.out)
    for (alpha, beta), mean in sorted(result.mean_cost.items()):
        print(f"alpha={alpha} beta={beta} mean_cost={mean:.4f} score={result.score[(alpha, beta)]:.3f}")
    if args.out:
        print(f"rows written to {args.out}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    mission = _build_mission(args)
    result = brute_force_optimal(mission, horizon=args.horizon)
    _print_json(mission, optimal_cost=result.optimal_cost if result.paths else None,
                paths=[list(p) for p in result.paths] if result.paths else None,
                explored_states=result.explored_states)
    return EXIT_OK


def _cmd_validate(args) -> int:
    mission = _build_mission(args)
    diags = validate(mission)
    _print_json(mission, diagnostics=diags)
    return EXIT_OK if not diags else EXIT_INFEASIBLE


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    if unread := _unread_flags(args, argv):
        print(f"error: {'; '.join(unread)}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.handler(args)
    except InfeasibleMissionError as exc:
        print(f"mission infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphFormatError, OracleLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
