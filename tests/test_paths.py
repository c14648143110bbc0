import dataclasses
import math
import pickle
import random

import pytest

from modroute import (
    ForceParams,
    Graph,
    PathCache,
    dijkstra,
    generate_random_mission,
    load_edge_list,
    make_grid_graph,
    path_weight,
    run_mission,
    run_nonmodular_baseline,
    yen_k_shortest,
)
from modroute import paths
from modroute.paths import _heuristic, _lex_shortest, _shrink_factor

from _fixtures import PATH_READ_FAMILIES, eight_node_graph, family_graph, unit_grid
from _oracles import enumerate_simple_paths, floyd_warshall, random_digraph, reference_yen


class TestDijkstra:
    def test_fixture_distances(self):
        g = eight_node_graph()
        dist, pred = dijkstra(g, 0)
        assert dist[6] == 4.0
        assert (dist[0], pred[0]) == (0.0, None)

    def test_unreachable_is_infinite(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        dist, pred = dijkstra(g, 0)
        assert (dist[3], pred[3]) == (math.inf, None)

    def test_predecessors_reconstruct_shortest_path(self):
        g = eight_node_graph()
        dist, pred = dijkstra(g, 0)
        node, path = 6, [6]
        while pred[node] is not None:
            node = pred[node]
            path.append(node)
        path.reverse()
        assert path_weight(g, path) == dist[6]

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            m, edges = random_digraph(rng)
            if not edges:
                continue
            g = Graph(m, edges)
            expected = floyd_warshall(g)
            for src in range(m):
                assert dijkstra(g, src)[0] == expected[src]

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            dijkstra(eight_node_graph(), 99)

    def test_in_edges_give_distances_to_the_source(self):
        rng = random.Random(13)
        for _ in range(20):
            m, edges = random_digraph(rng)
            if not edges:
                continue
            g = Graph(m, edges)
            expected = floyd_warshall(g)
            for dst in range(m):
                got = dijkstra(g, dst, g.in_edges)[0]
                assert got == [expected[v][dst] for v in range(m)]


class TestYen:
    def test_fixture_top3_to_goal(self):
        ps = yen_k_shortest(eight_node_graph(), 0, 6, 3)
        assert [p.total_weight for p in ps.paths] == [4.0, 5.0, 5.0]
        assert [p.nodes for p in ps.paths] == [(0, 4, 5, 6), (0, 2, 5, 6), (0, 3, 5, 6)]

    def test_fixture_top3_between_agents(self):
        ps = yen_k_shortest(eight_node_graph(), 0, 1, 3)
        assert [p.nodes for p in ps.paths] == [(0, 4, 1), (0, 2, 1), (0, 3, 1)]
        assert [p.total_weight for p in ps.paths] == [2.0, 3.0, 3.0]

    def test_source_equals_destination(self):
        ps = yen_k_shortest(eight_node_graph(), 5, 5, 4)
        assert len(ps.paths) == 1
        assert ps.paths[0].nodes == (5,) and ps.paths[0].total_weight == 0.0

    def test_unreachable_destination_gives_empty_set(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        assert yen_k_shortest(g, 0, 3, 3).paths == ()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            yen_k_shortest(eight_node_graph(), 0, 6, 0)

    @pytest.mark.parametrize("k", [2.0, 2.5, True])
    def test_k_must_be_an_int(self, k):
        # a float k once failed deep inside the search with a bare TypeError,
        # and True was read as 1
        g = make_grid_graph(8, 8, seed=3)
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            yen_k_shortest(g, 0, 63, k)
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            PathCache(g).k_shortest(0, 63, k)

    def test_first_path_weight_equals_dijkstra_distance(self):
        rng = random.Random(23)
        for _ in range(25):
            m, edges = random_digraph(rng)
            if not edges:
                continue
            g = Graph(m, edges)
            src, dst = rng.sample(range(m), 2)
            ps = yen_k_shortest(g, src, dst, 1)
            expected = dijkstra(g, src)[0][dst]
            if ps.paths:
                assert ps.paths[0].total_weight == expected
            else:
                assert expected == math.inf

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(37)
        for _ in range(60):
            m, edges = random_digraph(rng)
            if not edges:
                continue
            g = Graph(m, edges)
            src, dst = rng.sample(range(m), 2)
            k = rng.randint(1, 5)
            got = yen_k_shortest(g, src, dst, k)
            expected = enumerate_simple_paths(g, src, dst)[:k]
            assert [(p.total_weight, p.nodes) for p in got.paths] == expected

    def test_outputs_are_loopless_and_sorted(self):
        rng = random.Random(41)
        for _ in range(25):
            m, edges = random_digraph(rng)
            if not edges:
                continue
            g = Graph(m, edges)
            src, dst = rng.sample(range(m), 2)
            ps = yen_k_shortest(g, src, dst, 4)
            keys = [(p.total_weight, p.nodes) for p in ps.paths]
            assert keys == sorted(keys)
            for p in ps.paths:
                assert len(set(p.nodes)) == len(p.nodes)
                assert path_weight(g, p.nodes) == p.total_weight


# Edge-weight draws for the equivalence check against the plain search.
# Integers sum exactly. Non-dyadic values tie after rounding in ways that
# reorder paths under an unshrunk A* key. Near-ulp offsets of 7e3 mixed
# with 1e-12-scale weights fail the heuristic's rounding bound, so those
# graphs run with the zero heuristic.
WEIGHT_FAMILIES = {
    "integer": lambda rng: float(rng.randint(1, 9)),
    "tie_prone": lambda rng: rng.choice((0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0)),
    "extreme_spread": lambda rng: rng.choice(
        (4e-13, 6e-13, 1e-12, 1.3e-12, 2.2e-12, 7e3, 7e3 + 2**-40, 7e3 + 2**-39)
    ),
}


class TestMatchesPlainYen:
    """The goal-directed search returns exactly what plain Yen over plain
    Dijkstra returns: same paths, same order, bit-identical weights."""

    @pytest.mark.parametrize("family", sorted(WEIGHT_FAMILIES))
    def test_randomized_queries(self, family):
        draw = WEIGHT_FAMILIES[family]
        rng = random.Random(f"yen-{family}")
        mismatches, queries, zero_heuristic = [], 0, 0
        while queries < 2500:
            m = rng.randint(4, 8)
            edges = [
                (u, v, draw(rng)) for u in range(m) for v in range(m)
                if u != v and rng.random() < 0.45
            ]
            if not edges:
                continue
            g = Graph(m, edges)
            zero_heuristic += _shrink_factor(g) == 0.0
            cache = PathCache(g)
            for _ in range(4):
                src, dst = rng.sample(range(m), 2)
                k = rng.randint(1, 8)
                expected = reference_yen(g, src, dst, k)
                for got in (yen_k_shortest(g, src, dst, k), cache.k_shortest(src, dst, k)):
                    if [(p.total_weight, p.nodes) for p in got.paths] != expected:
                        mismatches.append((edges, src, dst, k))
                queries += 1
        assert mismatches == []
        if family == "extreme_spread":
            assert zero_heuristic > 0
        else:
            assert zero_heuristic == 0


def _integer_grid(width, height, rng):
    """4-connected grid with one integer weight in 1..3 per lattice edge."""
    edges = []
    for u, v, _ in make_grid_graph(width, height).edges():
        if u < v:
            w = float(rng.randint(1, 3))
            edges += [(u, v, w), (v, u, w)]
    return Graph(width * height, edges)


class TestGridsMatchPlainYen:
    """Grids, as in the benchmark, are where the spur-search bound cuts
    hardest; integer weights 1..3 add many exact ties at the bound."""

    @pytest.mark.parametrize("family", ["grid_weights", "integer_1_3"])
    def test_seeded_grid_queries(self, family):
        rng = random.Random(f"grid-{family}")
        mismatches, queries = [], 0
        for side in (5, 6):
            for graph_seed in range(4):
                if family == "grid_weights":
                    g = make_grid_graph(side, side, seed=graph_seed)
                else:
                    g = _integer_grid(side, side, rng)
                cache = PathCache(g)
                for k in range(1, 9):
                    for _ in range(3):
                        src, dst = rng.sample(range(g.node_count), 2)
                        expected = reference_yen(g, src, dst, k)
                        for got in (yen_k_shortest(g, src, dst, k), cache.k_shortest(src, dst, k)):
                            if [(p.total_weight, p.nodes) for p in got.paths] != expected:
                                mismatches.append((side, graph_seed, src, dst, k))
                        queries += 1
        assert queries == 192
        assert mismatches == []

    @pytest.mark.parametrize("family", ["grid_weights", "integer_1_3"])
    def test_benchmark_size_grid_at_k_5(self, family):
        rng = random.Random(f"grid8-{family}")
        mismatches, queries = [], 0
        for graph_seed in range(4):
            if family == "grid_weights":
                g = make_grid_graph(8, 8, seed=graph_seed)
            else:
                g = _integer_grid(8, 8, rng)
            cache = PathCache(g)
            for _ in range(40):
                src, dst = rng.sample(range(g.node_count), 2)
                expected = reference_yen(g, src, dst, 5)
                for got in (yen_k_shortest(g, src, dst, 5), cache.k_shortest(src, dst, 5)):
                    if [(p.total_weight, p.nodes) for p in got.paths] != expected:
                        mismatches.append((graph_seed, src, dst))
                queries += 1
        assert queries == 160
        assert mismatches == []


def _search(graph, src, dst, h, banned=frozenset(), limit=math.inf):
    """``_lex_shortest`` from src whose first hop is not in ``banned``, with
    src closed and the first heap filtered as a spur search's is."""
    h = h[:]
    h[src] = math.inf
    heap = [(w + h[v], w, (src, v)) for v, w in graph.out_edges(src)
            if w + h[v] <= limit and h[v] != math.inf and v not in banned]
    return _lex_shortest(graph, dst, h, heap, limit)


class TestBoundedSpurSearch:
    def test_limit_cuts_below_the_shortest_weight_and_keeps_exact_ties(self):
        g = eight_node_graph()
        h = _heuristic(g, 5, _shrink_factor(g))
        # With the first hop to 4 banned, 0->2->5 and 0->3->5 tie at 4.0.
        assert _search(g, 0, 5, h, {4}) == ((0, 2, 5), 4.0)
        assert _search(g, 0, 5, h, {4}, limit=4.0) == ((0, 2, 5), 4.0)
        assert _search(g, 0, 5, h, {4}, limit=math.nextafter(4.0, 0.0)) is None
        assert _search(g, 0, 5, h, limit=3.0) == ((0, 4, 5), 3.0)
        assert _search(g, 0, 5, h, limit=2.5) is None

    def test_a_first_hop_whose_key_equals_the_limit_is_kept(self):
        g = Graph(3, [(0, 1, 2.0), (0, 2, 1.0), (2, 1, 1.5)])
        from_source = [(0.0, 0.0, (0,))]  # the search pushes the first hops itself
        assert _lex_shortest(g, 1, [0.0] * 3, from_source[:], limit=2.0) == ((0, 1), 2.0)
        assert _lex_shortest(g, 1, [0.0] * 3, from_source[:], limit=math.nextafter(2.0, 0.0)) is None
        assert _search(g, 0, 1, [0.0] * 3, limit=2.0) == ((0, 1), 2.0)

    def test_spur_first_keys_equal_to_the_limit_are_kept(self, monkeypatch):
        # Weights of 1 and 2 make every sum exact, so with a slack too small to
        # move a finite limit (inf * slack is still inf) a spur whose first hop
        # reaches dst at exactly the bound has a first key equal to its limit;
        # that candidate ties the bound and may sort before the queued one.
        monkeypatch.setattr(paths, "_BOUND_SLACK", math.ulp(0.0))
        rng = random.Random("limit-ties")
        for _ in range(60):
            m = 6
            g = Graph(m, [(u, v, float(rng.randint(1, 2))) for u in range(m) for v in range(m)
                          if u != v and rng.random() < 0.5])
            for src, dst in ((s, d) for s in range(m) for d in range(m) if s != d):
                for k in (3, 4):
                    got = yen_k_shortest(g, src, dst, k)
                    assert [(p.total_weight, p.nodes) for p in got.paths] == reference_yen(g, src, dst, k)

    def test_some_spur_search_stops_at_the_bound(self, monkeypatch):
        search = paths._lex_shortest
        cut = []

        def counting_search(graph, dst, h, heap, limit=math.inf):
            unbounded = search(graph, dst, h[:], heap[:])
            got = search(graph, dst, h, heap, limit)
            if got is None and unbounded is not None:
                cut.append((dst, limit))
            return got

        monkeypatch.setattr(paths, "_lex_shortest", counting_search)
        g = make_grid_graph(8, 8, seed=3)
        rng = random.Random(5)
        for _ in range(10):
            src, dst = rng.sample(range(g.node_count), 2)
            yen_k_shortest(g, src, dst, 5)
        assert cut

    def test_first_key_check_skips_searches_and_changes_no_output(self, monkeypatch):
        # With an infinite slack every limit is inf, so no spur search is
        # skipped for its first keys. The spurs visited depend only on the
        # found paths and their spur indices, which the bound leaves alone,
        # so the difference in searches made is what the check skips.
        search = paths._lex_shortest
        limits = []

        def counting_search(graph, dst, h, heap, limit=math.inf):
            assert heap  # the spur loop skips a search whose first heap is empty
            if len(heap[0][2]) == 2:  # a spur search: its spur is closed, and its heap holds
                spur = heap[0][2][0]  # labels a search from the spur would push first
                assert h[spur] == math.inf and len({nodes for _, _, nodes in heap}) == len(heap)
                for key, g, (u, v) in heap:
                    assert u == spur and (key, g) == (graph.weight(u, v) + h[v], graph.weight(u, v))
                    assert key <= limit and h[v] != math.inf
            limits.append(limit)
            return search(graph, dst, h, heap, limit)

        monkeypatch.setattr(paths, "_lex_shortest", counting_search)
        g = make_grid_graph(8, 8, seed=3)
        rng = random.Random(5)
        queries = [rng.sample(range(g.node_count), 2) for _ in range(20)]
        bounded = [yen_k_shortest(g, src, dst, 5) for src, dst in queries]
        searched = len(limits)
        limits.clear()
        monkeypatch.setattr(paths, "_BOUND_SLACK", math.inf)
        unbounded = [yen_k_shortest(g, src, dst, 5) for src, dst in queries]
        assert set(limits) == {math.inf}
        assert len(limits) > searched
        assert bounded == unbounded
        for (src, dst), got in zip(queries, bounded):
            assert [(p.total_weight, p.nodes) for p in got.paths] == reference_yen(g, src, dst, 5)


class TestPathWeight:
    def test_fixture_values(self):
        g = eight_node_graph()
        assert path_weight(g, (0, 4, 1)) == 2.0
        assert path_weight(g, (5,)) == 0.0

    def test_non_adjacent_pair_rejected(self):
        with pytest.raises(ValueError, match="no edge"):
            path_weight(eight_node_graph(), (0, 6))

    @pytest.mark.parametrize("nodes", [[], ()])
    def test_empty_sequence_rejected(self, nodes):
        with pytest.raises(ValueError, match="at least one node"):
            path_weight(make_grid_graph(3, 3), nodes)

    @pytest.mark.parametrize("nodes", [[999], [-1], [9], (0, 1, -1), (4, 9)])
    def test_node_out_of_range_rejected(self, nodes):
        g = make_grid_graph(3, 3)
        with pytest.raises(ValueError, match="out of range"):
            path_weight(g, nodes)
        assert path_weight(g, [8]) == 0.0


class TestFirstHops:
    def test_fixture_tables(self):
        cache = PathCache(eight_node_graph())
        to_goal = cache.k_shortest(0, 6, 3)
        to_agent = cache.k_shortest(0, 1, 3)
        assert to_goal.first_hops == ((4, (4.0,)), (2, (5.0,)), (3, (5.0,)))
        assert to_agent.first_hops == ((4, (2.0,)), (2, (3.0,)), (3, (3.0,)))
        # README's worked example: edge (0,4) pulls 1/4^2 + 1/2^2
        (_, goal_w), (_, agent_w) = to_goal.first_hops[0], to_agent.first_hops[0]
        assert 1.0 / goal_w[0] ** 2 + 1.0 / agent_w[0] ** 2 == 0.3125

    def test_groups_keep_first_appearance_and_ascending_weights(self):
        g = load_edge_list("0 1 1.0\n1 2 1.0\n1 3 1.0\n3 2 1.0\n0 4 1.5\n4 2 1.0\n")
        table = yen_k_shortest(g, 0, 2, 3).first_hops
        # paths (0,1,2) w=2, (0,4,2) w=2.5, (0,1,3,2) w=3: hop 1 comes first
        assert table == ((1, (2.0, 3.0)), (4, (2.5,)))

    def test_trivial_and_empty_sets_have_no_hops(self):
        g = load_edge_list("0 1 1.0\n2 3 1.0")
        assert yen_k_shortest(g, 0, 0, 3).first_hops == ()
        assert yen_k_shortest(g, 0, 3, 3).first_hops == ()

    def test_built_table_leaves_equality_hash_and_repr_alone(self):
        g = eight_node_graph()
        built, fresh = yen_k_shortest(g, 0, 6, 3), yen_k_shortest(g, 0, 6, 3)
        assert built is not fresh
        # built with the set and kept on it, outside the dataclass fields
        assert vars(built)["first_hops"] is built.first_hops == ((4, (4.0,)), (2, (5.0,)), (3, (5.0,)))
        assert [field.name for field in dataclasses.fields(built)] == ["origin", "destination", "paths"]
        assert built == fresh and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) and "first_hops" not in repr(built)
        # a pickle holds the fields only, and loading it builds the table again
        assert b"first_hops" not in pickle.dumps(built)
        loaded = pickle.loads(pickle.dumps(built))
        assert loaded == built and loaded.first_hops == built.first_hops
        assert dataclasses.replace(built, paths=built.paths[1:]).first_hops == ((2, (5.0,)), (3, (5.0,)))


class TestPathCache:
    def test_cached_results_match_direct_calls(self):
        g = eight_node_graph()
        cache = PathCache(g)
        assert cache.distance(0, 6) == 4.0
        assert cache.k_shortest(0, 6, 3) is cache.k_shortest(0, 6, 3)
        assert cache.k_shortest(0, 6, 3) == yen_k_shortest(g, 0, 6, 3)
        assert cache.distances(0) == dijkstra(g, 0)[0]

    @pytest.mark.parametrize("family", sorted(PATH_READ_FAMILIES))
    def test_k_sets_match_yen_and_plain_yen_cold_or_after_distances(self, family):
        rng = random.Random(f"cache-{family}")
        for _ in range(12):
            g = family_graph(family, rng.randint(4, 8), 0.45, rng)
            filled = PathCache(g)
            for _ in range(8):
                src, dst = rng.sample(range(g.node_count), 2)
                filled.distances(src)
                for k in (1, 2, 5):
                    direct = yen_k_shortest(g, src, dst, k)
                    assert [(p.total_weight, p.nodes) for p in direct.paths] == reference_yen(g, src, dst, k)
                    assert PathCache(g).k_shortest(src, dst, k) == direct
                    assert filled.k_shortest(src, dst, k) == direct


def _recorded_searches(monkeypatch):
    """Record, for every ``_lex_shortest`` run, whether it is a spur search,
    whose first labels hold two nodes; False marks a first-path search,
    which starts from the source's one label."""
    search, calls = paths._lex_shortest, []

    def recording_search(graph, dst, h, heap, limit=math.inf):
        calls.append(len(heap[0][2]) == 2)
        return search(graph, dst, h, heap, limit)

    monkeypatch.setattr(paths, "_lex_shortest", recording_search)
    return calls


class TestFirstPathsFromTheDistanceSearch:
    """``PathCache`` reads each lightest path off the Dijkstra it keeps for
    ``distances`` and searches only where the read meets an exact tie."""

    def test_read_gives_a_unique_lightest_path_and_declines_ties(self):
        cache = PathCache(unit_grid(4, 4))
        assert cache._lightest_path(0, 3) == ((0, 1, 2, 3), 3.0)  # the one shortest path
        assert cache._lightest_path(0, 15) is None  # 20 shortest paths tie
        assert cache._lightest_path(5, 5) == ((5,), 0.0)
        assert PathCache(load_edge_list("0 1 1.0\n2 0 1.0"))._lightest_path(0, 2) is None  # unreachable

    @pytest.mark.parametrize("k", [1, 5])
    def test_yen_given_its_first_path_returns_what_it_finds_itself(self, k, monkeypatch):
        g, pairs = make_grid_graph(6, 6, seed=1), ((0, 35), (7, 20), (30, 5))
        plain = [yen_k_shortest(g, src, dst, k) for src, dst in pairs]
        calls = _recorded_searches(monkeypatch)
        for (src, dst), path_set in zip(pairs, plain):
            first = path_set.paths[0]
            assert yen_k_shortest(g, src, dst, k, first=(first.nodes, first.total_weight)) == path_set
        assert all(calls) and (k == 1) == (calls == [])

    @pytest.mark.parametrize("graph", [make_grid_graph(6, 6, seed=1), unit_grid(6, 6)], ids=["float", "unit"])
    def test_a_k_set_missed_after_the_pairs_k1_set_is_the_cold_one(self, graph, monkeypatch):
        pairs = ((0, 35), (7, 20), (30, 5), (14, 14))
        cold = [PathCache(graph).k_shortest(src, dst, 5) for src, dst in pairs]
        cache = PathCache(graph)
        for src, dst in pairs:
            cache.k_shortest(src, dst, 1)
        # on unit weights the read declines, so the k=1 path came from Yen's own search
        assert (cache._lightest_path(0, 35) is None) == (graph.weight(0, 1) == 1.0)
        read, reads = cache._lightest_path, []
        monkeypatch.setattr(cache, "_lightest_path", lambda src, dst: reads.append((src, dst)) or read(src, dst))
        calls = _recorded_searches(monkeypatch)
        assert [cache.k_shortest(src, dst, 5) for src, dst in pairs] == cold
        assert reads == [] and calls and all(calls)  # the k=1 path is reused: no read, no first search

    @pytest.mark.parametrize("k", [True, 1.0, 2.0, 5.0, 0])
    def test_k_is_checked_on_a_miss_that_reuses_the_k1_set(self, k, monkeypatch):
        # True and 1.0 equal the cached k=1 key, and 5.0 the cached k=5 key
        g = make_grid_graph(6, 6, seed=1)
        cache = PathCache(g)
        first = cache.k_shortest(0, 35, 1).paths[0]
        cache.k_shortest(0, 35, 5)
        calls = _recorded_searches(monkeypatch)
        monkeypatch.setattr(paths, "dijkstra", lambda graph, src: calls.append(src))
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            PathCache(g).k_shortest(0, 5, k)
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            yen_k_shortest(g, 0, 35, k, first=(first.nodes, first.total_weight))
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            cache.k_shortest(0, 35, k)
        assert calls == []  # each call raised before any search

    def test_missions_on_a_float_grid_run_only_spur_searches(self, monkeypatch):
        calls = _recorded_searches(monkeypatch)
        g = make_grid_graph(8, 8, seed=3)
        cache, mission = PathCache(g), generate_random_mission(g, 5, 10, seed=3)
        run_mission(mission, ForceParams(), seed=3, cache=cache)
        run_nonmodular_baseline(mission, cache=cache)
        assert {k for _, _, k in cache.k_shortest_keys} == {1, 5}
        assert calls and all(calls)

    def test_a_baseline_run_on_a_float_grid_builds_no_heuristic(self):
        # every k=1 query is answered by the read, so Yen never looks at a heuristic
        g = make_grid_graph(8, 8, seed=3)
        cache = PathCache(g)
        result = run_nonmodular_baseline(generate_random_mission(g, 5, 10, seed=3), cache=cache)
        assert result.completed and len(cache.k_shortest_keys) > 10
        assert cache._to == {}

    def test_a_unit_weight_grid_still_searches_some_first_paths(self, monkeypatch):
        calls = _recorded_searches(monkeypatch)
        g = unit_grid(6, 6)
        cache = PathCache(g)
        run_mission(generate_random_mission(g, 3, 6, seed=5), ForceParams(), seed=5, cache=cache)
        assert not all(calls)


class TestBadNodeIds:
    """A node id outside [0, m) or not an int raises ValueError: a negative
    id must not wrap around to the end of the node list, and a bool or a
    float equal to an id must not be read, or cached, as that id."""

    @pytest.mark.parametrize(
        "src,dst", [(0, -1), (0, 16), (-1, 3), (16, 3), (-1, -1), (True, 15), (1.0, 15), (0, 35.0)]
    )
    def test_every_entry_point_rejects_it(self, src, dst):
        g = make_grid_graph(4, 4)
        cache = PathCache(g)
        bad = next(node for node in (src, dst) if type(node) is not int or not 0 <= node < 16)
        message = f"node {bad!r} " + ("out of range" if type(bad) is int else "is not an int")
        with pytest.raises(ValueError, match=message):
            yen_k_shortest(g, src, dst, 2)
        with pytest.raises(ValueError, match=message):
            cache.k_shortest(src, dst, 3)
        with pytest.raises(ValueError, match=message):
            cache.distance(src, dst)
        with pytest.raises(ValueError, match=message):
            dijkstra(g, bad)
        with pytest.raises(ValueError, match=message):
            path_weight(g, (src, dst))
        assert cache._kpaths == {} and cache._to == {} and cache._dist == {}

    def test_k_shortest_checks_only_on_a_miss(self, monkeypatch):
        check, checked = paths._check_nodes, []

        def counting_check(graph, *nodes):
            checked.append(nodes)
            check(graph, *nodes)

        monkeypatch.setattr(paths, "_check_nodes", counting_check)
        cache = PathCache(make_grid_graph(4, 4))
        first = cache.k_shortest(0, 15, 3)
        misses = len(checked)
        assert misses > 0
        assert cache.k_shortest(0, 15, 3) is first
        assert len(checked) == misses
