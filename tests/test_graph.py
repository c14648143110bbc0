import math

import pytest

from modroute import (
    Graph,
    GraphFormatError,
    Mission,
    dump_edge_list,
    dump_graphml,
    load_edge_list,
    load_graphml,
    make_grid_graph,
    validate,
)
from modroute import graph as graph_module
from modroute.paths import dijkstra, path_weight

from _fixtures import eight_node_graph, eight_node_mission

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

    def test_bad_direction_field(self):
        with pytest.raises(GraphFormatError, match="direction"):
            load_edge_list("0 1 1.0 sideways")

    @pytest.mark.parametrize("text, message", [
        ("0 1\n", r"line 1: expected 'src dst weight \[directed\|undirected\]', got '0 1'"),
        ("0 1 1.0\n1 2 1.0 directed extra\n", "line 2: expected 'src dst weight"),
        ("0 1 1.0\n-1 2 1.0\n", "line 2: node ids must be non-negative"),
        ("0 1 heavy\n", "line 1: weight 'heavy' is not a number"),
    ])
    def test_malformed_line_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            load_edge_list(text)

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
        ],
        ids=["undirected-default", "directed-false-override", "directed-true-override"],
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


class TestGraphInvariants:
    def test_graph_without_nodes_rejected(self):
        with pytest.raises(ValueError, match="graph needs at least one node"):
            Graph(0, [])

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
