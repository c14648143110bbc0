"""Input fuzz: loader texts, graphs that load, and command lines.

Loaders: edge-list and GraphML texts drawn from small random graphs.
Whatever a file holds, ``load_edge_list`` and ``load_graphml`` return a
``Graph`` or raise ``GraphFormatError``, never another exception. The texts
mix well-formed weights from the smallest subnormal to past ``2**511`` with
0, negative values, ``inf`` and ``nan``; node ids and weights with tokens
that ``int()`` or ``float()`` would misread (``1_0``, ``１``, ``0x10``);
self-loops, duplicate pairs with conflicting weights, and edges of either
direction in one file. A graph that loads keeps its ``edges()`` through a
dump and a reload. The two warnings a loader gives, a skipped self-loop and
a conflicting duplicate, are the only ones this module lets pass.

Runs: a graph whose weights span ``Graph``'s range, from the ``2**-511``
floor up to the ``2**511`` sum bound, with a mission that ``validate``
accepts, runs under both methods to a finite ``total_cost`` and raises
nothing.

Command lines: argv drawn from ``cli.build_parser()``'s own subcommands and
flags, with valid values and tokens that are easy to misread. ``cli.main``
exits 0, 1, 2 or 3 and prints no traceback.
"""

import argparse
import contextlib
import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from modroute import (  # noqa: E402
    Graph,
    GraphFormatError,
    Mission,
    cli,
    dump_edge_list,
    dump_graphml,
    load_edge_list,
    load_graphml,
    run_mission,
    run_nonmodular_baseline,
    validate,
)

pytestmark = [
    pytest.mark.filterwarnings("ignore:.*ignoring self-loop:UserWarning"),
    pytest.mark.filterwarnings("ignore:duplicate edge .* with conflicting weights:UserWarning"),
]


def rarely(common, rare):
    """Draws from ``common``, and about one in forty from ``rare``: a file
    takes tens of draws, and a fault in each would leave few files loading."""
    return st.integers(0, 39).flatmap(lambda i: rare if i == 20 else common)


WEIGHTS = rarely(
    st.one_of(st.floats(min_value=5e-324, max_value=2.0**513).map(repr), st.integers(1, 9).map(str),
              st.sampled_from(["1e154", "6.7e153", "1e308"])),
    st.sampled_from(["0", "0.0", "-0", "-2.5", "inf", "-inf", "nan", "1_0", "\uff11", "0x10"]),
)
NODES = rarely(st.integers(0, 5).map(str), st.sampled_from(["-1", "-0", "+2", "1_0", "\uff11", "0x10"]))
SUM_PAST_2_511 = "0 1 1e154\n1 2 1e154\n"  # finite, but past Graph's bound
SUM_PAST_2_511_GRAPHML = (
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
    '<key id="d0" for="edge" attr.name="length"/><graph edgedefault="directed">'
    '<node id="0"/><node id="1"/><node id="2"/>'
    '<edge source="0" target="1"><data key="d0">1e154</data></edge>'
    '<edge source="1" target="2"><data key="d0">1e154</data></edge></graph></graphml>'
)


@st.composite
def edge_list_texts(draw):
    lines = []
    for _ in range(draw(rarely(st.integers(1, 8), st.just(0)))):
        src = draw(NODES)
        dst = draw(rarely(NODES, st.just(src)))
        mode = draw(rarely(st.sampled_from(["", " directed", " undirected", " UNDIRECTED"]), st.just(" sideways")))
        lines.append(f"{src} {dst} {draw(WEIGHTS)}{mode}")
        if draw(st.booleans()):  # the same pair again, at another weight
            lines.append(f"{src} {dst} {draw(WEIGHTS)}{mode}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def graphml_texts(draw):
    nodes = [f"n{i}" for i in range(draw(rarely(st.integers(1, 5), st.just(0))))]
    ids = rarely(st.sampled_from(nodes), st.just("unknown")) if nodes else st.just("unknown")
    rows = []
    for _ in range(draw(rarely(st.integers(1, 8), st.just(0)))):
        src = draw(ids)
        dst = draw(rarely(ids, st.just(src)))
        directed = draw(rarely(st.sampled_from(["", ' directed="true"', ' directed="false"', ' directed="1"',
                                                ' directed="0"']), st.just(' directed="yes"')))
        for _ in range(draw(st.integers(1, 2))):  # a second row repeats the pair, at another weight
            data = draw(rarely(WEIGHTS.map(lambda w: f'<data key="d0">{w}</data>'), st.just("")))
            rows.append(f'<edge source="{src}" target="{dst}"{directed}>{data}</edge>')
    edgedefault = draw(st.sampled_from(["directed", "undirected"]))
    return ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<key id="d0" for="edge" attr.name="length" attr.type="double"/>'
            f'<graph edgedefault="{edgedefault}">'
            + "".join(f'<node id="{n}"/>' for n in nodes) + "".join(rows) + "</graph></graphml>")


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file for every example of the module to write and read."""
    return str(tmp_path_factory.mktemp("fuzz") / "g.graphml")


def _load_or_reject(load, *args):
    """The Graph ``load`` returns, or None if it raises GraphFormatError;
    any other exception fails the test."""
    try:
        return load(*args)
    except GraphFormatError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_list_texts())
@example(SUM_PAST_2_511)
def test_edge_list_loads_or_raises_graph_format_error(path, text):
    g = _load_or_reject(load_edge_list, text)
    if g is None:
        return
    assert load_edge_list(dump_edge_list(g)).edges() == g.edges()
    dump_graphml(g, path)
    assert load_graphml(path).edges() == g.edges()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphml_texts())
@example(SUM_PAST_2_511_GRAPHML)
def test_graphml_loads_or_raises_graph_format_error(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    g = _load_or_reject(load_graphml, path)
    if g is None:
        return
    dump_graphml(g, path)
    assert load_graphml(path).edges() == g.edges()


# The extremes of the weight range, drawn often: a float strategy alone
# seldom reaches the floor or the bound.
RUN_WEIGHTS = st.one_of(st.floats(min_value=2.0**-511, max_value=2.0**511),
                        st.sampled_from([2.0**-511, 1.0, 2.0**509, 2.0**511]))


@st.composite
def runnable_missions(draw):
    n = draw(st.integers(2, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=2 * n, unique=True))
    weights = {}
    for src, dst in pairs:
        weights[src, dst] = draw(RUN_WEIGHTS)
        if draw(st.booleans()):  # the reverse edge at the same weight, as undirected files give
            weights.setdefault((dst, src), weights[src, dst])
    try:
        graph = Graph(n, [(src, dst, w) for (src, dst), w in weights.items()])
    except ValueError:  # the weights sum past 2**511
        assume(False)
    mission = Mission(graph, tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))),
                      draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3)))
    assume(not validate(mission))
    return mission


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(runnable_missions())
def test_a_mission_that_validates_runs_to_a_finite_cost(mission):
    for method in (run_mission, run_nonmodular_baseline):
        assert math.isfinite(method(mission).total_cost)


SUBCOMMANDS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
FLAGS = {a.option_strings[-1]: a for sub in SUBCOMMANDS.values() for a in sub._actions if a.option_strings}


def sometimes(common, rare):
    """Draws from ``common``, and one in three from ``rare``."""
    return st.integers(0, 2).flatmap(lambda i: rare if i == 0 else common)


MISREAD = st.sampled_from(["1_0", "\uff11", " 7", "0x10", "1e308", "nan", "inf", "-0", ""])


@pytest.fixture(scope="module")
def flag_values(tmp_path_factory):
    """Valid values for each flag, by its argparse ``dest``, with an
    edge-list file, a GraphML file and an output folder for every example
    to read and write. The counts are capped so that every call stays
    small: grids of at most 4x4, at most 3 agents, 2 trials and an oracle
    horizon of 4."""
    root = tmp_path_factory.mktemp("cli")
    # Node 6 has no way out, so missions that start there are infeasible.
    (root / "g.edges").write_text("0 1 1\n1 2 2.5\n2 0 1\n1 3 0.5 undirected\n3 4 1 undirected\n"
                                  "4 5 2 undirected\n5 6 1\n")
    (root / "g.graphml").write_text(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><key id="d0" for="edge" attr.name="length"/>'
        '<graph edgedefault="undirected">' + "".join(f'<node id="{c}"/>' for c in "abcdef")
        + "".join(f'<edge source="{u}" target="{v}"><data key="d0">{w}</data></edge>'
                  for u, v, w in ("ab1", "bc2", "cd1", "de3", "ef1", "fa2")) + "</graph></graphml>")
    nodes = st.sampled_from(["0", "1", "6", "0,1", "1,2,3", "a", "a,c", "b,d,f", "9"])
    floats = st.sampled_from(["0", "0.5", "1", "2.0"])
    return {
        "graph": st.sampled_from([str(root / "g.edges"), str(root / "g.graphml"), str(root / "none.edges")]),
        "grid": st.sampled_from(["1x1", "2x2", "3x3", "4x4", "2X3", "4x0", "3"]),
        "weight_attr": st.sampled_from(["length", "nosuch"]),
        "agents": st.integers(0, 3).map(str),
        "targets": st.integers(0, 4).map(str),
        "seed": st.integers(-1, 9).map(str),
        "starts": nodes,
        "target_nodes": nodes,
        "starts_from": nodes,
        "k": st.integers(0, 3).map(str),
        "max_steps": st.integers(0, 20).map(str),
        "alpha": floats,
        "beta": floats,
        "wait_cost": floats,
        "trials": st.integers(0, 2).map(str),
        "out": st.sampled_from([str(root / "out.csv"), str(root), str(root / "no" / "out.csv")]),
        "alphas": st.sampled_from(["0.5", "0.1,0.9", ",", "x"]),
        "betas": st.sampled_from(["1.0", "0.5,1", ",", "x"]),
        "horizon": st.integers(0, 4).map(str),
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_command_line_exits_0_to_3_without_a_traceback(flag_values, data):
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    own = [a for a in SUBCOMMANDS[command]._actions if a.option_strings]
    # A graph source first, then the command's own flags and, one in three, any command's.
    # One value in three is a misread token, so that about a quarter of the calls exit 0.
    actions = [FLAGS[data.draw(st.sampled_from(["--grid", "--graph"]))]] + data.draw(st.lists(
        sometimes(st.sampled_from(own), st.sampled_from(sorted(FLAGS)).map(FLAGS.get)), max_size=5))
    if command in ("batch", "sweep") and all(a.dest != "trials" for a in actions):  # not the default 100
        actions.append(FLAGS["--trials"])
    argv = [command]
    for action in actions:
        argv.append(data.draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(data.draw(sometimes(flag_values[action.dest], MISREAD)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
