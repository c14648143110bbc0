"""Shared test graphs and missions.

EIGHT_NODE is the hand-checkable demo instance used throughout: two agents
at nodes 0 and 1, goals at 6 and 7, a shared corridor through 4 and 5.
Weights are dyadic so path sums are exact in floating point.
"""

from modroute import ForceParams, Graph, Mission, load_edge_list, make_grid_graph

# Python 3.12 made float sum() compensated, so a cost summed from floats can
# differ in its last bit from the left fold of earlier versions (ROADMAP item
# 2). A pin of such a value keeps one entry for each kind of sum.
SUM_IS_LEFT_FOLD = sum([0.1] * 10) == 0.9999999999999999

EIGHT_NODE_EDGE_LIST = """\
# two starts (0, 1), meeting node 4, corridor 4-5, twin goals 6 and 7
0 2 1.5 undirected
0 3 1.5 undirected
0 4 1.0 undirected
1 2 1.5 undirected
1 3 1.5 undirected
1 4 1.0 undirected
2 5 2.5 undirected
3 5 2.5 undirected
4 5 2.0 undirected
5 6 1.0 undirected
5 7 1.0 undirected
"""

# Demo parameters: equal attraction scales, three sampled paths.
EIGHT_NODE_PARAMS = ForceParams(alpha=1.0, beta=1.0, k=3)

# Tree with an expensive shared corridor (3-4) fanning out to three leaf
# goals; three agents enter from the left. Tuned so that with waiting the
# trailing agents catch up and share the corridor, while without waiting
# the initial swap executes and everyone travels offset.
SHARED_CORRIDOR_EDGE_LIST = """\
0 1 1 undirected
1 3 2 undirected
2 3 6 undirected
3 4 4 undirected
4 5 1 undirected
5 6 1 undirected
4 7 1 undirected
7 8 1 undirected
4 9 1 undirected
9 10 1 undirected
"""

SHARED_CORRIDOR_PARAMS = ForceParams(alpha=0.018, beta=1.0, k=3)

# Line graph where a strong agent-agent pull deadlocks the pair at one
# edge: with waiting they join and sweep both goals; without waiting they
# swap positions forever.
CHAIN_EDGE_LIST = """\
0 1 1 undirected
1 2 1 undirected
2 3 1 undirected
3 4 1 undirected
"""

CHAIN_PARAMS = ForceParams(alpha=5.0, beta=1.0, k=3)


def eight_node_graph():
    return load_edge_list(EIGHT_NODE_EDGE_LIST)


def eight_node_mission():
    graph = eight_node_graph()
    return Mission(graph, (0, 1), frozenset({6, 7}))


def shared_corridor_mission():
    graph = load_edge_list(SHARED_CORRIDOR_EDGE_LIST)
    return Mission(graph, (0, 1, 2), frozenset({6, 8, 10}))


def chain_mission():
    graph = load_edge_list(CHAIN_EDGE_LIST)
    return Mission(graph, (0, 1), frozenset({3, 4}))


# Edge-weight families for the check that a first path read off the
# distance search is the one Yen's first search finds. Floats almost never
# tie; integers, unit weights and tenths tie exactly or after rounding;
# "one_way" keeps a single direction per node pair; and 1e-13 or 2**-60
# added to 7e3 rounds to 7e3, so such an edge adds nothing after a 7e3 one.
PATH_READ_FAMILIES = {
    "float": lambda rng: rng.uniform(0.01, 10.0),
    "integer_1_3": lambda rng: float(rng.randint(1, 3)),
    "unit": lambda rng: 1.0,
    "tenths": lambda rng: rng.choice((0.1, 0.2, 0.3)),
    "one_way": lambda rng: rng.uniform(0.01, 10.0),
    "zero_effect": lambda rng: rng.choice((1e-13, 7e3, 2.0**-60)),
}


def family_graph(family, m, edge_prob, rng):
    """Random m-node graph with weights from ``PATH_READ_FAMILIES[family]``.

    Each node pair gets an edge with probability ``edge_prob``: both ways
    with one weight, or one way in a random direction for "one_way".
    """
    draw = PATH_READ_FAMILIES[family]
    edges = []
    for u in range(m):
        for v in range(u + 1, m):
            if rng.random() < edge_prob:
                w = draw(rng)
                if family != "one_way":
                    edges += [(u, v, w), (v, u, w)]
                elif rng.random() < 0.5:
                    edges.append((u, v, w))
                else:
                    edges.append((v, u, w))
    return Graph(m, edges)


def unit_grid(width, height):
    """4-connected grid with every edge of weight 1: full of exact ties."""
    return Graph(width * height, [(u, v, 1.0) for u, v, _ in make_grid_graph(width, height).edges()])
