import math
import random
import re
import sys

import pytest

from modroute import (
    BatchConfig,
    Graph,
    GraphFormatError,
    Mission,
    dump_edge_list,
    dump_graphml,
    load_edge_list,
    load_graphml,
    make_grid_graph,
    run_mission,
    run_nonmodular_baseline,
    validate,
)
from modroute import graph as graph_module
from modroute.paths import dijkstra, path_weight

from _fixtures import eight_node_graph, eight_node_mission
from _oracles import random_digraph, reachable_from

GRAPHML_MINIMAL = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="edge" attr.name="length" attr.type="double"/>
  <graph edgedefault="directed">
    <node id="a"/>
    <node id="b"/>
    <edge source="a" target="b"><data key="d0">5</data></edge>
  </graph>
</graphml>
"""


class TestEdgeList:
    def test_undirected_line_expands_to_two_edges(self):
        g = load_edge_list("0 1 2.0 undirected")
        assert g.node_count == 2
        assert g.edges() == [(0, 1, 2.0), (1, 0, 2.0)]

    def test_directed_is_default(self):
        g = load_edge_list("0 1 2.0")
        assert g.edges() == [(0, 1, 2.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list("# only a comment\n\n")

    def test_parse_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_edge_list("0 1 1.0\n1 2 1.0\n2 x 1.0\n")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="positive"):
            load_edge_list("0 1 0.0")
        with pytest.raises(GraphFormatError, match="positive"):
            load_edge_list("0 1 -3")

    @pytest.mark.parametrize("text", ["0 1 1e308\n1 2 1e308\n", "0 1 1e308 undirected\n"])
    def test_weights_whose_sum_overflows_rejected(self, text):
        # each weight is finite, but their sum is past the float range
        with pytest.raises(ValueError, match=r"edge weights must sum to at most 2\*\*511"):
            load_edge_list(text)

    def test_bad_direction_field(self):
        with pytest.raises(GraphFormatError, match="direction"):
            load_edge_list("0 1 1.0 sideways")

    @pytest.mark.parametrize("text, message", [
        ("0 1\n", r"line 1: expected 'src dst weight \[directed\|undirected\]', got '0 1'"),
        ("0 1 1.0\n1 2 1.0 directed extra\n", "line 2: expected 'src dst weight"),
        ("0 1 1.0\n-1 2 1.0\n", "line 2: node ids must be non-negative"),
        ("0 1 heavy\n", "line 1: weight 'heavy' is not a number"),
        # int() would read 1_0 as 10, merging it into node 10, and a non-ASCII digit as its value
        ("1_0 2 1.0\n10 3 1.0\n", "line 1: node ids must be integers"),
        ("\u0661 2 1.0\n", "line 1: node ids must be integers"),
        # float() would read these weights as 10.5, 1.5 and 1.5
        ("0 1 1_0.5\n", "line 1: weight '1_0.5' is not a number"),
        ("0 1 \u0661.\u0665\n", "line 1: weight '\u0661.\u0665' is not a number"),
        ("0 1 \uff11.\uff15\n", "line 1: weight '\uff11.\uff15' is not a number"),
    ])
    def test_malformed_line_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            load_edge_list(text)

    @pytest.mark.parametrize("token", ["1e3", ".5", "+2.", "2E-1"])
    def test_weight_is_read_as_float_reads_it(self, token):
        assert load_edge_list(f"0 1 {token}\n").edges() == [(0, 1, float(token))]

    def test_signed_node_id_is_read_as_its_int(self):
        g = load_edge_list("+3 4 1.0")
        assert [g.label(i) for i in range(g.node_count)] == ["3", "4"]

    def test_comments_and_blank_lines_ignored(self):
        g = load_edge_list("# header\n0 1 1.0  # trailing\n\n1 2 2.0\n")
        assert g.edge_count == 2

    def test_sparse_ids_compact_with_labels(self):
        g = load_edge_list("5 10 1.0\n10 20 2.0")
        assert g.node_count == 3
        assert g.edges() == [(0, 1, 1.0), (1, 2, 2.0)]
        assert [g.label(i) for i in range(3)] == ["5", "10", "20"]

    def test_conflicting_duplicate_collapses_to_min_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate edge 5->10 with conflicting weights"):
            g = load_edge_list("5 10 3.0\n5 10 2.0")
        assert g.edges() == [(0, 1, 2.0)]

    def test_exact_duplicate_is_silent(self):
        g = load_edge_list("0 1 2.0 undirected\n1 0 2.0 undirected")
        assert g.edge_count == 2

    def test_self_loop_skipped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = load_edge_list("0 0 1.0\n0 1 1.0")
        assert g.edges() == [(0, 1, 1.0)]

    def test_roundtrip_preserves_edge_multiset(self):
        g = eight_node_graph()
        again = load_edge_list(dump_edge_list(g))
        assert again.edges() == g.edges()

    def test_eight_node_fixture_shape_and_path_costs(self):
        g = eight_node_graph()
        assert g.node_count == 8
        # 11 undirected node pairs stored as 22 directed edges
        assert g.edge_count == 22
        assert path_weight(g, (0, 4, 5, 6)) == 4.0
        assert path_weight(g, (0, 3, 5, 6)) == 5.0
        assert path_weight(g, (0, 2, 5, 6)) == 5.0
        assert path_weight(g, (0, 4, 1)) == 2.0
        assert path_weight(g, (0, 3, 1)) == 3.0
        assert path_weight(g, (0, 2, 1)) == 3.0


class TestGraphml:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tiny.graphml"
        path.write_text(GRAPHML_MINIMAL)
        g = load_graphml(str(path))
        assert g.node_count == 2
        assert g.edges() == [(0, 1, 5.0)]
        assert g.label(0) == "a" and g.label(1) == "b"

    def test_missing_weight_names_edge(self, tmp_path):
        path = tmp_path / "bad.graphml"
        path.write_text(GRAPHML_MINIMAL.replace('<data key="d0">5</data>', ""))
        with pytest.raises(GraphFormatError, match="a->b"):
            load_graphml(str(path))

    def test_non_numeric_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.graphml"
        path.write_text(GRAPHML_MINIMAL.replace(">5<", ">five<"))
        with pytest.raises(GraphFormatError, match="non-numeric"):
            load_graphml(str(path))

    # float() would read these as 10.5, 1.5 and 1.5
    @pytest.mark.parametrize("token", ["1_0.5", "\u0661.\u0665", "\uff11.\uff15"])
    def test_weight_that_float_would_misread_is_non_numeric(self, tmp_path, token):
        path = tmp_path / "bad.graphml"
        path.write_text(GRAPHML_MINIMAL.replace(">5<", f">{token}<"), encoding="utf-8")
        with pytest.raises(GraphFormatError, match=f"a->b: non-numeric 'length' value {re.escape(repr(token))}"):
            load_graphml(str(path))

    @pytest.mark.parametrize("token", ["1e3", ".5", " +2. "])
    def test_weight_is_read_as_float_reads_it(self, tmp_path, token):
        path = tmp_path / "tiny.graphml"
        path.write_text(GRAPHML_MINIMAL.replace(">5<", f">{token}<"))
        assert load_graphml(str(path)).edges() == [(0, 1, float(token))]

    def test_unparseable_xml(self, tmp_path):
        path = tmp_path / "broken.graphml"
        path.write_text("<graphml><graph>")
        with pytest.raises(GraphFormatError, match="unparseable"):
            load_graphml(str(path))

    @pytest.mark.parametrize("old, new, message", [
        ('<node id="b"/>', "<node/>", "node without id"),
        ('target="b"', 'target="c"', "edge a->c references unknown node"),
        (">5<", ">0<", "edge a->b: weight must be positive, got 0.0"),
        (">5<", ">-2.5<", "edge a->b: weight must be positive, got -2.5"),
        ('<edge source="a" target="b"><data key="d0">5</data></edge>', "", "no edges in"),
        ('<node id="b"/>', '<node id="b"/>\n    <node id="a"/>', "duplicate node id 'a'"),
        ('target="b"', 'target="b" directed="False"', "edge a->b: directed='False' is not true, false, 1 or 0"),
        ('target="b"', 'target="b" directed="yes"', "edge a->b: directed='yes' is not true, false, 1 or 0"),
        ('edgedefault="directed"', 'edgedefault="Undirected"',
         "edgedefault must be 'directed' or 'undirected', got 'Undirected'"),
    ])
    def test_malformed_file_rejected(self, tmp_path, old, new, message):
        path = tmp_path / "bad.graphml"
        path.write_text(GRAPHML_MINIMAL.replace(old, new))
        with pytest.raises(GraphFormatError, match=message):
            load_graphml(str(path))

    @pytest.mark.parametrize("body, message", [
        ("<key id='d0'/>", "no <graph> element in"),
        ("<graph/>", "no nodes in"),
    ])
    def test_file_without_a_graph_or_nodes_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.graphml"
        path.write_text(f'<graphml xmlns="http://graphml.graphdrawing.org/xmlns">{body}</graphml>')
        with pytest.raises(GraphFormatError, match=message):
            load_graphml(str(path))

    def test_self_loop_skipped_with_warning(self, tmp_path):
        path = tmp_path / "loop.graphml"
        loop = '<edge source="a" target="a"><data key="d0">1</data></edge>'
        path.write_text(GRAPHML_MINIMAL.replace("</graph>", loop + "</graph>"))
        with pytest.warns(UserWarning, match="ignoring self-loop at GraphML node 'a'"):
            g = load_graphml(str(path))
        assert g.edges() == [(0, 1, 5.0)]
        path.write_text(GRAPHML_MINIMAL.replace('target="b"', 'target="a"'))
        with pytest.warns(UserWarning, match="self-loop"), pytest.raises(GraphFormatError, match="no edges in"):
            load_graphml(str(path))

    def test_conflicting_duplicate_is_named_by_its_node_ids(self, tmp_path):
        # the undirected edge b-a also stores a->b, at another weight
        undirected = '<edge source="b" target="a" directed="false"><data key="d0">3</data></edge>'
        path = tmp_path / "dup.graphml"
        path.write_text(GRAPHML_MINIMAL.replace("</graph>", undirected + "</graph>"))
        with pytest.warns(UserWarning) as record:
            g = load_graphml(str(path))
        assert [str(w.message) for w in record] == [
            "duplicate edge a->b with conflicting weights; keeping the minimum"
        ]
        assert g.edges() == [(0, 1, 3.0), (1, 0, 3.0)]

    @pytest.mark.parametrize(
        "edgedefault, override, edges",
        [
            ("undirected", "", [(0, 1, 5.0), (1, 0, 5.0)]),
            ("directed", ' directed="false"', [(0, 1, 5.0), (1, 0, 5.0)]),
            ("undirected", ' directed="true"', [(0, 1, 5.0)]),
            ("directed", ' directed="0"', [(0, 1, 5.0), (1, 0, 5.0)]),
            ("undirected", ' directed="1"', [(0, 1, 5.0)]),
        ],
        ids=["undirected-default", "directed-false-override", "directed-true-override",
             "directed-0-override", "directed-1-override"],
    )
    def test_undirected_default_doubles_edge_count(self, tmp_path, edgedefault, override, edges):
        # a per-edge ``directed`` attribute overrides the graph's edgedefault
        text = GRAPHML_MINIMAL.replace('edgedefault="directed"', f'edgedefault="{edgedefault}"')
        text = text.replace('<edge source="a" target="b"', f'<edge source="a" target="b"{override}')
        path = tmp_path / "undir.graphml"
        path.write_text(text)
        g = load_graphml(str(path))
        assert g.edge_count == len(edges)
        assert g.edges() == edges

    def test_custom_weight_attribute(self, tmp_path):
        text = GRAPHML_MINIMAL.replace('attr.name="length"', 'attr.name="metres"')
        path = tmp_path / "attr.graphml"
        path.write_text(text)
        g = load_graphml(str(path), weight_attr="metres")
        assert g.edges() == [(0, 1, 5.0)]

    def test_key_id_equal_to_the_attribute_name_is_not_the_attribute(self, tmp_path):
        # the key with id "length" holds travel times; the lengths are d1
        text = GRAPHML_MINIMAL.replace(
            '<key id="d0" for="edge" attr.name="length" attr.type="double"/>',
            '<key id="length" for="edge" attr.name="travel_time" attr.type="double"/>\n'
            '  <key id="d1" for="edge" attr.name="length" attr.type="double"/>',
        ).replace('<data key="d0">5</data>', '<data key="length">99.0</data><data key="d1">2.5</data>')
        path = tmp_path / "clash.graphml"
        path.write_text(text)
        assert load_graphml(str(path)).edges() == [(0, 1, 2.5)]
        assert load_graphml(str(path), weight_attr="travel_time").edges() == [(0, 1, 99.0)]

    def test_undeclared_data_key_names_the_attribute(self, tmp_path):
        text = GRAPHML_MINIMAL.replace(
            '  <key id="d0" for="edge" attr.name="length" attr.type="double"/>\n', ""
        ).replace('key="d0"', 'key="length"')
        path = tmp_path / "bare.graphml"
        path.write_text(text)
        assert load_graphml(str(path)).edges() == [(0, 1, 5.0)]

    def test_fifty_node_grid_roundtrip(self, tmp_path):
        g = make_grid_graph(5, 10, seed=0)
        assert g.node_count == 50
        path = tmp_path / "grid.graphml"
        dump_graphml(g, str(path))
        again = load_graphml(str(path))
        assert again.node_count == g.node_count
        assert again.edges() == g.edges()


class TestCheckInt:
    @pytest.mark.parametrize("value, low", [(0, None), (-3, None), (1, 1), (7, 1)])
    def test_an_int_at_or_above_low_passes(self, value, low):
        assert graph_module.check_int("x", value, low) is None

    @pytest.mark.parametrize("value, low, message", [
        (True, None, "x must be an int, got True"),
        (1.0, None, "x must be an int, got 1.0"),
        ("3", None, "x must be an int, got '3'"),
        (None, None, "x must be an int, got None"),
        (0, 1, "x must be an int >= 1, got 0"),
        (True, 1, "x must be an int >= 1, got True"),
        (2.0, 1, "x must be an int >= 1, got 2.0"),
    ])
    def test_anything_else_is_rejected_with_the_name_and_value(self, value, low, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_module.check_int("x", value, low)


@pytest.mark.parametrize("token, value", [
    ("7", 7), ("+3", 3), ("-1", -1), ("007", 7),
    # int() reads each of these as an int: 10, 1, 1 and (stripped) 4
    ("1_0", None), ("١", None), ("１", None), (" 4", None),
    ("", None), ("+", None), ("--1", None), ("1.0", None),
])
def test_read_int_takes_a_sign_and_ascii_digits_only(token, value):
    assert graph_module.read_int(token) == value


@pytest.mark.parametrize("token", [
    "1e3", ".5", "+2.", "-inf", "0", "-0.0", "7.", "1E+5", "2e-3", "Infinity", "+INF", "nan", "-NaN",
])
def test_read_float_reads_what_float_reads(token):
    value = graph_module.read_float(token)
    assert type(value) is float and (value == float(token) or math.isnan(value) and math.isnan(float(token)))


@pytest.mark.parametrize("token", [
    # float() reads each of these: 10.5, 1.5, 1.5, and (stripped) 4.0 and inf
    "1_0.5", "\u0661.\u0665", "\uff11.\uff15", " 4", "inf\n",
    "", ".", "+", "e3", "1e", "1..2", "--1", "0x1p3", "infin", "\u0131nf",
])
def test_read_float_takes_ascii_digits_point_and_exponent_only(token):
    assert graph_module.read_float(token) is None


class TestGraphInvariants:
    def test_graph_without_nodes_rejected(self):
        with pytest.raises(ValueError, match="graph needs at least one node: node_count must be an int >= 1, got 0"):
            Graph(0, [])

    @pytest.mark.parametrize("node_count", [True, 2.0, "3"])
    def test_node_count_must_be_an_int(self, node_count):
        # True once built a graph whose ids were checked against [0,True), and
        # 2.0 died with a bare TypeError
        with pytest.raises(ValueError, match=f"node_count must be an int >= 1, got {node_count!r}"):
            Graph(node_count, [])

    def test_label_without_labels_is_the_index(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert g.node_labels is None
        assert [g.label(i) for i in range(3)] == ["0", "1", "2"]

    def test_constructor_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 5, 1.0)])
        with pytest.raises(ValueError, match=r"edge \(True,0\) endpoint is not an int"):
            Graph(2, [(True, 0, 1.0)])
        with pytest.raises(ValueError, match=r"edge \(0,1.0\) endpoint is not an int"):
            Graph(2, [(0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1, 1.0)])
        with pytest.raises(ValueError, match="positive"):
            Graph(2, [(0, 1, -1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [(0, 1, 1.0), (0, 1, 2.0)])

    @pytest.mark.parametrize("weight, message", [
        (10**400, "must be within the float range, got an int of 1329 bits"),
        ("1.0", "must be an int or a float, got '1.0'"),
        (1j, "must be an int or a float, got 1j"),
        (True, "must be an int or a float, got True"),
    ])
    def test_constructor_rejects_a_weight_that_is_not_an_int_or_a_float(self, weight, message):
        with pytest.raises(ValueError, match=rf"edge \(0,1\) weight {message}"):
            Graph(2, [(0, 1, weight)])

    def test_constructor_stores_an_int_weight_as_a_float(self):
        g = Graph(2, [(0, 1, 3), (1, 0, 10**150)])
        assert [type(w) for _, _, w in g.edges()] == [float, float] and g.weight(1, 0) == 1e150

    @pytest.mark.parametrize("weights", [(1e308, 1e308), (sys.float_info.max, 2.0**970)])
    def test_constructor_rejects_weights_whose_sum_overflows(self, weights):
        # the second pair sums to exactly halfway above the largest float
        with pytest.raises(ValueError, match=r"edge weights must sum to at most 2\*\*511 \(6.7e\+153\)"):
            Graph(3, [(0, 1, weights[0]), (1, 2, weights[1])])

    def test_weights_summing_just_under_2_511_run(self):
        # the largest float below 2**511 is 2**511 - 2**458; the route 0-1-2
        # weighs 1.5 * 2**510 - 2**458, whose square is finite
        weights = [(0, 1, 2.0**510), (1, 0, 2.0**509), (1, 2, 2.0**509 - 2.0**458)]
        g = Graph(3, weights)
        assert g._weight_sum == math.nextafter(2.0**511, 0) and g._min_weight == 2.0**509 - 2.0**458
        mission = Mission(g, (0,), frozenset({2}))
        result = run_mission(mission)
        assert result.completed and result.total_cost == 1.5 * 2.0**510 - 2.0**458
        assert run_nonmodular_baseline(mission).total_cost == result.total_cost
        # a sum one float past the bound, and one of 1.5e308, are rejected
        for weights in ([(0, 1, 2.0**510), (1, 0, 2.0**510), (1, 2, 2.0**459)],
                        [(0, 1, 5e307), (1, 0, 5e307), (1, 2, 5e307)]):
            with pytest.raises(ValueError, match=r"edge weights must sum to at most 2\*\*511"):
                Graph(3, weights)

    def test_all_loaded_weights_positive(self):
        g = eight_node_graph()
        assert all(w > 0 for _, _, w in g.edges())

    def test_adjacency_lookup(self):
        g = eight_node_graph()
        assert [v for v, _ in g.out_edges(0)] == [2, 3, 4]
        assert [u for u, _ in g.in_edges(6)] == [5]
        assert g.weight(4, 5) == 2.0
        with pytest.raises(ValueError, match="no edge"):
            g.weight(0, 6)


def _extreme_digraph(rng):
    """A random digraph with no isolated node and weights whose binary
    exponents are drawn uniformly, from 5e-324 up to about 2**511 over the
    edge count, so that their sum stays within the bound; one graph in four
    also has one weight of 2**510, with the others below 2**510 over it."""
    m = rng.randint(2, 9)
    pairs = {(u, v) for u in range(m) for v in range(m) if u != v and rng.random() < 0.3}
    for node in range(m):  # give every node an edge, in a random direction
        if not any(node in pair for pair in pairs):
            other = rng.choice([v for v in range(m) if v != node])
            pairs.add((node, other) if rng.random() < 0.5 else (other, node))
    pairs = sorted(pairs)
    big = rng.random() < 0.25
    top = (510 if big else 511) - len(pairs).bit_length()
    weights = [max(5e-324, math.ldexp(rng.random(), rng.randint(-1074, top))) for _ in pairs]
    if big:
        weights[rng.randrange(len(weights))] = 2.0**510
    return Graph(m, [(u, v, w) for (u, v), w in zip(pairs, weights)])


class TestExtremeWeights:
    # Graph admits weights whose fsum is at most 2**511, so that every path
    # weight squares to a finite float and no force is 0 for want of range.
    @staticmethod
    def _graphml(edges):
        rows = "".join(f'<edge source="{u}" target="{v}"><data key="d0">{w!r}</data></edge>' for u, v, w in edges)
        nodes = "".join(f'<node id="{n}"/>' for n in sorted({n for u, v, _ in edges for n in (u, v)}))
        return (f'<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><key id="d0" for="edge" '
                f'attr.name="length"/><graph edgedefault="directed">{nodes}{rows}</graph></graphml>')

    def test_a_grid_scaled_past_the_bound_is_rejected_by_every_entry(self, tmp_path):
        # times 1e154 every weight of this grid is past 2**511 (6.7e153), and
        # 17 of 20 missions on it once ran to the step cap
        grid = make_grid_graph(6, 6, seed=1)
        edges = [(u, v, w * 1e154) for u, v, w in grid.edges()]
        message = r"edge weights must sum to at most 2\*\*511"
        with pytest.raises(ValueError, match=message):
            Graph(36, edges)
        with pytest.raises(ValueError, match=message):
            load_edge_list("".join(f"{u} {v} {w!r}\n" for u, v, w in edges))
        path = tmp_path / "huge.graphml"
        path.write_text(self._graphml(edges))
        with pytest.raises(ValueError, match=message):
            load_graphml(str(path))
        path.write_text(self._graphml(grid.edges()))  # the same file unscaled loads
        assert load_graphml(str(path)).same_edges(grid)

    def test_dump_and_load_keep_extreme_weights(self, tmp_path):
        rng, path, sizes = random.Random("extreme-weights"), tmp_path / "g.graphml", set()
        for _ in range(200):
            g = _extreme_digraph(rng)
            assert g._weight_sum <= 2.0**511
            dump_graphml(g, str(path))
            assert load_edge_list(dump_edge_list(g)).edges() == g.edges()
            assert load_graphml(str(path)).edges() == g.edges()
            sizes.add(g.node_count)
        assert sizes == set(range(2, 10))


class TestValidate:
    def test_fixture_mission_is_clean(self):
        assert validate(eight_node_mission()) == []

    def test_unreachable_target_diagnosed(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        diags = validate(Mission(g, (0,), frozenset({3})))
        assert len(diags) == 1 and "unreachable" in diags[0]

    def test_out_of_range_start(self):
        g = load_edge_list("0 1 1.0")
        diags = validate(Mission(g, (9,), frozenset({1})))
        assert any("start node 9 out of range" in d for d in diags)

    def test_out_of_range_target(self):
        g = load_edge_list("0 1 1.0")
        diags = validate(Mission(g, (0,), frozenset({1, 7, -1})))
        assert diags == ["target node -1 out of range [0,2)", "target node 7 out of range [0,2)"]

    def test_empty_starts_and_targets(self):
        g = load_edge_list("0 1 1.0")
        diags = validate(Mission(g, (), frozenset()))
        assert len(diags) == 2

    def test_node_ids_that_are_not_ints(self):
        # True == 1 and 4.0 == 4, but neither is a node id: read as one, it
        # would print as itself and be merged with the int by equal records.
        # Targets that are not ints come first, by repr, then out-of-range
        # ints, ascending.
        g = make_grid_graph(3, 3)
        diags = validate(Mission(g, (True, 4), frozenset({4.0, 8, "7", 12, -2})))
        assert diags == [
            "start node True is not an int",
            "target node '7' is not an int",
            "target node 4.0 is not an int",
            "target node -2 out of range [0,9)",
            "target node 12 out of range [0,9)",
        ]

    def test_each_call_returns_a_fresh_list(self, monkeypatch):
        checks = []
        diagnose = graph_module._diagnose
        monkeypatch.setattr(graph_module, "_diagnose", lambda m: checks.append(m) or diagnose(m))
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        mission = Mission(g, (0,), frozenset({3}))
        first = validate(mission)
        first.clear()
        assert validate(mission) == ["target node 3 unreachable from every start"]
        assert validate(mission) is not validate(mission)
        assert checks == [mission]
        twin = Mission(g, (0,), frozenset({3}))
        assert mission == twin and hash(mission) == hash(twin) and repr(mission) == repr(twin)

    def test_dijkstra_confirms_fixture_reachability(self):
        g = eight_node_graph()
        dist = dijkstra(g, 0)[0]
        assert dist[6] < math.inf and dist[7] < math.inf


class TestComponentTable:
    # validate reads reachability off the graph's strongly connected
    # components, built once per Graph; a breadth-first search from the
    # starts is the oracle.
    def test_validate_matches_the_search_oracle_on_random_digraphs(self):
        rng = random.Random(33)
        split = 0
        for _ in range(300):
            m, edges = random_digraph(rng, edge_prob=rng.choice([0.08, 0.15, 0.3, 0.45]))
            g = Graph(m, edges)
            split += len(set(g._comp)) > 1
            for _ in range(4):
                starts = tuple(rng.sample(range(m), rng.randint(1, 3)))
                targets = frozenset(rng.sample(range(m), rng.randint(1, m)))
                reached = reachable_from(g, starts)
                assert validate(Mission(g, starts, targets)) == [
                    f"target node {t} unreachable from every start" for t in sorted(targets) if t not in reached
                ]
        assert split > 150  # most graphs have several components

    def test_a_target_reached_across_two_condensation_edges(self):
        # {0,1} -> {2,3} -> {4,5}, each pair joined both ways
        g = load_edge_list("0 1 1 undirected\n1 2 1\n2 3 1 undirected\n3 4 1\n4 5 1 undirected\n")
        comp = g._comp
        assert len(set(comp)) == 3
        assert g._comp_out[comp[0]] == (comp[2],) and g._comp_out[comp[2]] == (comp[4],)
        assert validate(Mission(g, (0,), frozenset({5}))) == []
        assert validate(Mission(g, (3,), frozenset({0, 1, 5}))) == [
            "target node 0 unreachable from every start",
            "target node 1 unreachable from every start",
        ]

    def test_a_target_behind_a_one_way_edge_pointing_away(self):
        # {0,1} -> {2,3} <- {4,5}: the one edge between the last two points away from 5
        g = load_edge_list("0 1 1 undirected\n1 2 1\n2 3 1 undirected\n4 3 1\n4 5 1 undirected\n")
        assert validate(Mission(g, (0,), frozenset({3, 5}))) == ["target node 5 unreachable from every start"]
        assert validate(Mission(g, (0, 4), frozenset({3, 5}))) == []

    def test_a_grid_is_one_component_with_nothing_to_walk(self):
        g = make_grid_graph(8, 8, seed=3)
        assert set(g._comp) == {0} and g._comp_out == ((),)

    def test_a_5000_node_one_way_path_builds_without_recursion(self):
        m = 5000
        assert sys.getrecursionlimit() < m
        g = Graph(m, [(i, i + 1, 1.0) for i in range(m - 1)])
        assert len(set(g._comp)) == m
        assert validate(Mission(g, (0,), frozenset({m - 1}))) == []
        assert validate(Mission(g, (m - 1,), frozenset({0}))) == ["target node 0 unreachable from every start"]

    def test_drawing_100_missions_builds_the_table_once(self, monkeypatch):
        builds = []
        components = graph_module._components
        monkeypatch.setattr(graph_module, "_components",
                            lambda adj, radj: builds.append(len(adj)) or components(adj, radj))
        g = make_grid_graph(10, 10, seed=0)
        missions = BatchConfig(g, 8, 16, trials=100).missions()
        assert len(missions) == 100 and all(validate(mission) == [] for mission in missions)
        assert builds == [100]
