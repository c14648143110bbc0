"""Loader fuzz: edge-list and GraphML texts drawn from small random graphs.

Whatever a file holds, ``load_edge_list`` and ``load_graphml`` return a
``Graph`` or raise ``GraphFormatError``, never another exception. The texts
mix well-formed weights from the smallest subnormal to past ``2**511`` with
0, negative values, ``inf`` and ``nan``; node ids and weights with tokens
that ``int()`` or ``float()`` would misread (``1_0``, ``１``, ``0x10``);
self-loops, duplicate pairs with conflicting weights, and edges of either
direction in one file. A graph that loads keeps its ``edges()`` through a
dump and a reload. The two warnings a loader gives, a skipped self-loop and
a conflicting duplicate, are the only ones this module lets pass.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from modroute import GraphFormatError, dump_edge_list, dump_graphml, load_edge_list, load_graphml  # noqa: E402

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
