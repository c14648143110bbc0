"""Shortest-path primitives: Dijkstra, k shortest loopless paths, caching.

All tie-breaking is deterministic. Among equal-weight paths the
lexicographically smallest node sequence wins, so outputs are identical
across runs and platforms. A path's weight is always the left-to-right
fold of its edge weights, which keeps floating-point results reproducible
and lets independent recomputations compare exactly.

How the k-shortest search is made fast without changing any answer:

* **Reverse distances.** ``h[v]`` is the shortest distance from ``v`` to
  the destination, from one Dijkstra over ``Graph.in_edges``. ``PathCache``
  computes it once per destination and reuses it for every query and spur
  search towards that destination; on a symmetric graph it is the forward
  search it already keeps (below).
* **A\\* search.** ``_lex_shortest`` is a label-setting search over labels
  (g, node sequence), where g is the fold of the sequence's edge weights.
  Its heap key is ``(g + h'[v], g, nodes)`` with ``h' = h * (1 - 2**-10)``,
  and it never enters a node with ``h = inf``, which cannot reach the
  destination. With ``h' = 0`` it is plain Dijkstra keyed on ``(g, nodes)``.
* **Exact ties.** Plain Dijkstra keyed on ``(g, nodes)`` settles each node
  y with a label L(y) that extends the label L(x) of the node x before y on
  its path. A* settles every node with the same label if its key never
  decreases along such an edge x -> y, rounding included:
  ``fl(g_x + h'_x) <= fl(g_y + h'_y)`` with ``g_y = fl(g_x + w)``. (A tie
  is broken by g or, when g did not grow, by the shorter sequence.) Then,
  while y is unsettled, a label on L(y)'s path sits in the heap with a
  smaller key than any label for y, so y is settled only after L(y) has
  been pushed. For one node the key orders labels as ``(g, nodes)`` does,
  and labels pushed from nodes that plain Dijkstra settles after y are
  larger than L(y), so L(y) wins. Rounding is monotone, so it is enough
  that the exact sums satisfy ``g_x + h'_x <= g_y + h'_y``. Let u = 2**-53
  (unit roundoff), e = 2**-10, W the sum of all edge weights and w_min the
  smallest weight, both kept by ``Graph``. Dijkstra guarantees ``h_x <=
  fl(h_y + w)``. Writing each rounding as a factor (1 +- u) gives the
  sufficient condition
  ``e * w >= u * (g_x + 3 * h_y + 3 * w) + O(u**2 * W)``. Both ``g_x + w``
  and ``h_y + w`` are sums over distinct edges, rounded, so at most
  W(1 + 2**-12), and the right side is at most 4.01 * u * W. The condition
  therefore holds on every edge when ``w_min / W >= 4.01 * 2**-43``; the
  code checks the stricter ``w_min / W >= 2**-40``. Without the shrink
  factor the key can tie or decrease after rounding, and the search
  returned two equal-weight paths in the wrong order on weights such as
  0.1, 0.2 and 0.3. A graph that fails the bound, such as one with weights
  1e-12 and 7e3, gets ``h = 0`` on every node that can reach the
  destination: the same search with a zero heuristic, which is plain
  Dijkstra.
* **First paths from the distance search.** ``PathCache`` keeps the
  predecessors of the Dijkstra it runs for ``distances(src)`` and reads
  Yen's first path to any dst off them, so that path costs no search.
  ``_dijkstra`` gives each node y != src ``dist[y] = fl(dist[x] + w)`` with
  x = ``pred[y]``, so dist[y] is the left fold of the predecessor chain.
  Both dist[y] and the g of plain Dijkstra's label L(y) are the least left
  fold of any src -> y path: each is the fold of some path, and each search
  leaves its value at y at most ``fl(value(x) + w)`` on every edge x -> y
  (a node settled after y has a value at least y's, and rounding is
  monotone), so by induction along a path it is at most the path's fold.
  Plain Dijkstra keyed on (g, nodes) settles y with the smallest label it
  pushed, and a label from an in-neighbour x settled after y would be
  larger than L(y) anyway, as ``g_x >= g_y`` and L(x) sorts after L(y). So
  L(y) is the smallest ``(fl(g_x + w), L(x) + (y))`` over all in-neighbours
  x. Call y tied when some in-edge (z, w) other than the one from
  ``pred[y]`` has ``fl(dist[z] + w) == dist[y]``. If y is not tied,
  ``pred[y]`` is the only in-neighbour whose g term reaches the minimum,
  and ``L(y) = L(pred[y]) + (y)``. By induction from ``L(src) = (src,)``,
  L(dst) is the predecessor chain, of weight ``dist[dst]``, when no node on
  the chain is tied; a read declines exactly when some node on its chain
  is tied. Whether y is tied depends on src and y only, not on dst, so
  ``PathCache`` tests each node at most once per source, and only the
  nodes that some read walks. Per source it keeps one byte per node y: 0
  until a read walks y, then whether a read to y succeeds or declines. It
  declines when y is unreachable or y or some node before it on the chain
  is tied, as y inherits the decline from ``pred[y]``. A read of a known
  dst looks up one byte and walks the chain back. A read of an unknown dst
  follows the chain back to the first known node (src is known from the
  start) and fills it from there outward, so each read fills only its own
  chain. The tie test covers in-neighbours settled after y too, so the
  proof assumes no order of settling, and a node's state is the same
  whichever reads came before. Where the read declines, Yen runs its
  first search as before. The read needs no heuristic, so it also holds
  on graphs that fail the shrink bound. Random float weights almost never
  tie; integer and unit weights often do. A k=1 read is the whole answer:
  ``PathCache`` builds that one-path set itself and calls no Yen. Yen's
  first path is the same for every k, so a k > 1 miss whose k=1 set is
  cached hands Yen that set's one path, whether the read gave it or a
  search found it: the miss makes no read, and on an exact tie no first
  search either.
* **One search per node on symmetric graphs.** ``h`` towards dst comes
  from a Dijkstra over ``Graph.in_edges`` from dst. When every edge has a
  reverse edge of equal weight, ``in_edges(v)`` and ``out_edges(v)`` are
  the same (neighbour, weight) pairs in the same order for every v
  (``graph._adj == graph._radj``, which ``PathCache`` checks once). That
  search then makes the same relaxations in the same order as the forward
  search from dst that ``distances(dst)`` runs, and leaves the same
  floats. So ``PathCache`` scales the cached forward distances instead:
  ``h`` is bit for bit the reverse search's, no answer or bound changes,
  and each node costs one Dijkstra instead of two. Grids and undirected
  files are symmetric. The test is all or nothing: a graph with a single
  one-way edge, such as a road network with one-way streets, keeps the
  reverse search for every destination.
* **Lawler's deviation pruning.** Yen's method spurs a new path from each
  of its nodes. Each candidate remembers the spur index i it was first
  generated at, and when it becomes a result it is spurred only from i
  onward. A spur at j < i repeats an earlier search exactly. Its root, the
  first j + 1 nodes, is shared with the path it deviated from, so the root
  already has a found path and a spur at j. A found path adds a new banned
  next edge at j only if it deviated at or before j, and then it was itself
  spurred at j. So the latest spur made at that root had the same root and
  the same banned edges, and its result is already found or queued.
  Skipping the repeat leaves the output unchanged. The banned next hops of
  the spur at ``prev[i]`` are the nodes after position i of the found
  paths whose first i + 1 nodes are ``prev``'s. Let c be the length of a
  found path p's common prefix with ``prev``. Both paths are loopless and
  end at the destination, so neither is a prefix of the other, and
  ``p[c] != prev[c]``. p shares ``prev``'s first i + 1 nodes exactly when
  i < c, and for i < c - 1 its next hop is ``prev[i + 1]``. So each round
  bans ``prev[i + 1]`` at every index i, which the scan of the spur's
  out-edges tests inline, and ``p[c]`` at index c - 1 for each other found
  path p. Only the second kind needs a table: one prefix scan per found
  path per round fills ``extra``, a dict from index c - 1 to those further
  hops, with entries only where some found path deviated and none for a
  c - 1 below the spur index ``start``, so no set is built per index.
* **Bounded spur search.** With r = k - (paths found) outputs still to
  come, ``bound`` is the weight of the r-th lightest queued candidate (inf
  while fewer than r are queued). A path heavier than ``bound`` is never
  output: r queued paths sort before it and the next r pops take them or
  lighter ones. ``bound`` never increases. A push can only lower the r-th
  weight, and a pop takes the lightest candidate while r drops by one, so
  the new (r-1)-th weight is the old r-th. A path heavier than ``bound``
  at one time is thus heavier at every later time too. Each spur search
  gets ``limit = fl(fl(bound - root_w) + fl(s * bound))``, where ``root_w``
  is the fold of the root's edges and s = 8 * N * u with N the node
  count. It stops once a popped key exceeds ``limit``. Keys pop in
  non-decreasing order: with ``h'`` shrunk by the bound proved above, and
  trivially with ``h = 0`` since ``fl(g + w) >= g``. The destination's key
  is ``fl(g + 0) = g``. So a cut search's path P has spur weight
  ``g_P > limit``. Its candidate weight W is the fold of P's n < N edges
  continued from ``root_w``. Let S be their exact sum. If
  ``root_w + S >= 2 * bound`` then ``W >= (1 - n * u)(root_w + S) > bound``.
  Otherwise ``root_w`` and S are below 2 * bound, so the fold errors of
  ``g_P`` and W and the three roundings in ``limit`` add up to less than
  ``(4.02 * n + 2) * u * bound``, which is below ``s * bound``. Hence
  ``W > bound``, and the cut path is never output. An exact tie with
  ``bound`` is never cut. A path cut now but met again later is at most
  queued, never output, and it is the only kind of path whose first spur
  index can differ, so every output carries the same spur index as
  without the cut. Lawler's skip stays valid when the earlier spur at that
  root was cut rather than queued: the repeat would find the same path,
  which weighs more than an earlier ``bound`` and so more than the
  current one.

  Two further cuts make the bounded search cheaper and change no result.
  First, ``_lex_shortest`` pushes no label whose key exceeds ``limit``.
  Compare it with the search described above, which pushes every label
  and returns None at the first popped key above ``limit``. While that
  full search pops keys at or below ``limit``, the cut search's heap holds
  exactly the full heap's labels with keys at or below ``limit``. Both then pop the same
  label, the smallest, and treat it alike, and the cut search pushes the
  same new labels less those above ``limit``. When the full search pops a
  key above ``limit``, every label in its heap is above ``limit``, so the
  cut heap is empty and both return None. When the full heap runs empty,
  so does the cut one. This needs no order of keys. Second, the spur
  search's first heap holds ``(w + h[v], w, (spur, v))`` for each
  unbanned, open neighbour v with ``w + h[v] <= limit``: the labels that
  a search from the spur's own label would push first, less the banned
  ones, with the same sums (``0.0 + w == w``). ``yen_k_shortest`` builds
  that heap in its one scan of the spur's out-edges, before it copies
  ``h``, hands it to ``_lex_shortest`` and skips a search whose heap is
  empty: that search would return None at once. That scan, like the
  relaxation loop of ``_lex_shortest``, passes over a closed, unreachable
  or banned neighbour before it computes a key. In a 100-trial 8x8 ``run_batch`` with
  n = 5 (grid seed 3, missions 3000-3099) 38,082 of 61,986 spur heaps are
  empty.

The output is therefore the same path sets, in the same order and with the
same weights, as plain Yen over plain Dijkstra keyed on (g, nodes).
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass

from .graph import Graph, check_int

# Heuristic shrink factor 1 - 2**-10 and the smallest min-weight / total-weight
# ratio for which it keeps exact ties (derivation in the module docstring).
_SHRINK = 1.0 - 2.0**-10
_MIN_WEIGHT_SHARE = 2.0**-40
# Relative slack per graph node in the spur search's weight limit,
# 8 * 2**-53 (derivation in the module docstring).
_BOUND_SLACK = 2.0**-50
# States of a node in a source's table of lightest-path reads; 0 is not yet known.
_READS, _DECLINES = 1, 2

Edges = Callable[[int], tuple[tuple[int, float], ...]]
# (nodes, left-fold weight) of one path, as the searches return it
NodesWeight = tuple[tuple[int, ...], float]


@dataclass(frozen=True, slots=True)
class Path:
    """A loopless node sequence together with its total edge weight."""

    nodes: tuple[int, ...]
    total_weight: float


@dataclass(frozen=True)
class PathSet:
    """Up to k distinct loopless paths, ascending by (weight, sequence).

    ``first_hops`` holds ``(next_node, weights)`` per distinct first hop, in
    order of first appearance, each with the weights of the paths through
    it; the paths are sorted by weight, so each ``weights`` ascends. The
    table is built with the set and kept on the instance, outside the
    dataclass fields, so equality, hashing, repr and pickling ignore it (a
    pickle holds the fields, and loading it builds the table again).
    """

    origin: int
    destination: int
    paths: tuple[Path, ...]

    def __post_init__(self) -> None:
        hops: dict[int, tuple[float, ...]] = {}
        for path in self.paths:
            nodes = path.nodes
            if len(nodes) > 1:
                hops[nodes[1]] = hops.get(nodes[1], ()) + (path.total_weight,)
        object.__setattr__(self, "first_hops", tuple(hops.items()))

    def __reduce__(self):
        return PathSet, (self.origin, self.destination, self.paths)


def path_weight(graph: Graph, nodes: list[int] | tuple[int, ...]) -> float:
    """Sum of edge weights along ``nodes``; 0 for a single-node path.

    Raises ValueError for an empty sequence, for an item that is not a node
    id (``Graph.node_problem``) and when a consecutive pair is not a graph
    edge.
    """
    if not nodes:
        raise ValueError("a path needs at least one node")
    _check_nodes(graph, *nodes)
    total = 0.0
    for u, v in zip(nodes, nodes[1:]):
        total += graph.weight(u, v)
    return total


def _dijkstra(edges: Edges, m: int, src: int) -> tuple[list[float], list[int | None]]:
    """Dense distances and predecessors from ``src`` along ``edges(u)``.

    A push needs a strictly smaller distance, so a node's heap entries have
    distinct keys and the newest one, keyed ``dist[u]``, pops first; as
    ``fl(d + w) >= d``, no node is pushed again after that pop. So an entry
    popped with ``d > dist[u]`` is stale and skipped, and each node relaxes
    its edges once, when it settles.
    """
    dist = [math.inf] * m
    pred: list[int | None] = [None] * m
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in edges(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def dijkstra(
    graph: Graph, src: int, edges: Edges | None = None
) -> tuple[list[float], list[int | None]]:
    """Single-source shortest distances and predecessors, dense by node id.

    ``edges`` gives each node's (neighbour, weight) pairs and defaults to
    ``graph.out_edges``; pass ``graph.in_edges`` for distances *to* ``src``.
    An unreachable node has distance inf and predecessor None; ``src`` has
    distance 0 and predecessor None. A relaxation replaces a predecessor
    only with a strictly smaller distance, so among tied predecessors
    ``pred[v]`` is the one whose relaxation first reached v's final
    distance. Raises ValueError for a ``src`` that is not a node id.
    """
    _check_nodes(graph, src)
    return _dijkstra(edges or graph.out_edges, graph.node_count, src)


def _check_nodes(graph: Graph, *nodes: int) -> None:
    """Raise ValueError naming the first of ``nodes`` that is not a node id
    of ``graph`` and why (``Graph.node_problem``): a bool or a float equal
    to an id is rejected, and a negative int is not read from the end of a
    list indexed by node."""
    for node in nodes:
        if problem := graph.node_problem(node):
            raise ValueError(f"node {node!r} {problem}")


def _shrink_factor(graph: Graph) -> float:
    """Heuristic scale: 1 - 2**-10 if ties provably survive rounding, else 0.
    It compares the smallest weight and the weight sum that ``Graph`` keeps."""
    return _SHRINK if graph._min_weight >= _MIN_WEIGHT_SHARE * graph._weight_sum else 0.0


def _heuristic(graph: Graph, dst: int, factor: float) -> list[float]:
    """Scaled distance from every node to ``dst``; inf where it cannot reach it."""
    return _scaled(_dijkstra(graph.in_edges, graph.node_count, dst)[0], factor)


def _scaled(dist: list[float], factor: float) -> list[float]:
    """``dist`` times ``factor``, with inf kept where ``factor`` is 0."""
    return [d * factor if d < math.inf else math.inf for d in dist]


def _lex_shortest(
    graph: Graph,
    dst: int,
    h: list[float],
    heap: list[tuple[float, float, tuple[int, ...]]],
    limit: float = math.inf,
) -> NodesWeight | None:
    """Minimum-weight path to dst from the labels in ``heap``,
    lexicographically smallest among ties.

    A* keyed on (g + h[v], g, node sequence); see the module docstring for
    why this returns the same path as plain Dijkstra keyed on (g, sequence).
    ``heap`` holds the first labels ``(key, g, nodes)``, in any order, and
    is used up: ``[(0.0, 0.0, (src,))]`` searches from src, and a spur
    search gets its spur's open, unbanned next hops whose keys are at most
    ``limit``. ``h`` is inf on every node the path may not enter, a spur's
    own node included. The search also sets it to inf on each node it
    settles, so the caller passes a copy. No label with a key above
    ``limit`` is pushed, so the search returns None when the path it would
    have returned weighs more than ``limit``.
    """
    inf = math.inf
    adj = graph._adj
    push, pop = heapq.heappush, heapq.heappop
    heapq.heapify(heap)
    while heap:
        _, g, nodes = pop(heap)
        u = nodes[-1]
        if h[u] == inf:
            continue  # settled by an earlier label
        if u == dst:
            return nodes, g
        h[u] = inf
        for v, w in adj[u]:
            hv = h[v]
            if hv != inf:  # else closed, settled or unable to reach dst
                ng = g + w
                key = ng + hv
                if key <= limit:
                    push(heap, (key, ng, nodes + (v,)))
    return None


def yen_k_shortest(
    graph: Graph, src: int, dst: int, k: int, h: list[float] | None = None, *, first: NodesWeight | None = None
) -> PathSet:
    """The k shortest loopless src->dst paths by deviation search.

    Returns fewer than k paths when fewer exist and an empty PathSet when
    the destination is unreachable. ``src == dst`` yields the single
    zero-length path. Candidates are kept in one list sorted by
    (weight, node sequence) so the output order is deterministic. ``h`` is
    the search heuristic towards ``dst`` (``PathCache`` passes its cached
    one); when not given, it is computed here only if Yen will search: with
    ``first`` given and k = 1 nothing is searched. ``first`` is the
    lightest path ``(nodes, weight)`` when the caller already knows it
    (``PathCache`` reads it off its distance search); it must be the path
    that the first search would find, and then that search is skipped. It
    is the first output, so with k = 1 it is the whole set; ``PathCache``
    builds that set itself and does not call Yen for it.
    Raises ValueError for a src or dst that is not a node id
    (``Graph.node_problem``: a bool or a float equal to one is rejected) and
    for a k that is not an int >= 1 (``check_int``).
    """
    _check_nodes(graph, src, dst)
    check_int("k", k, 1)
    if src == dst:
        return PathSet(src, dst, (Path((src,), 0.0),))
    if h is None and (first is None or k > 1):  # else the loop returns first and reads no h
        h = _heuristic(graph, dst, _shrink_factor(graph))
    if first is None:
        first = _lex_shortest(graph, dst, h[:], [(0.0, 0.0, (src,))])
    adj, weights = graph._adj, graph._weights
    slack = _BOUND_SLACK * graph.node_count
    # Sorted, lightest first; each with the spur index it deviated at.
    candidates = [] if first is None else [(first[1], first[0], 0)]
    seen = {nodes for _, nodes, _ in candidates}  # every path found or queued
    found: list[NodesWeight] = []
    inf = bound = math.inf  # bound: weight of the r-th lightest candidate, r = k - len(found)
    while candidates:
        w, prev, start = candidates.pop(0)
        found.append((prev, w))
        if len(found) == k:
            break
        # extra[i]: the spur at prev[i]'s banned next hops besides prev[i + 1],
        # for i >= start (see Lawler in the module docstring)
        extra: dict[int, list[int]] = {}
        for p, _ in found[:-1]:
            c = 0  # length of p's common prefix with prev
            while p[c] == prev[c]:
                c += 1
            if c > start:
                extra.setdefault(c - 1, []).append(p[c])
        open_h = h[:]  # h with the root's nodes closed
        root_w = 0.0  # left-to-right fold of the root's edge weights
        for i in range(len(prev) - 1):
            spur, nxt = prev[i], prev[i + 1]
            open_h[spur] = inf
            if i >= start:
                limit = bound - root_w + slack * bound
                more = extra.get(i, ())
                heap = []  # the spur search's first heap; a comprehension would make open_h a cell
                for v, w in adj[spur]:
                    hv = open_h[v]
                    if hv != inf and v != nxt and v not in more:
                        key = w + hv
                        if key <= limit:
                            heap.append((key, w, (spur, v)))
                spur_result = None  # with an empty heap, the search would return None at once
                if heap:
                    spur_result = _lex_shortest(graph, dst, open_h[:], heap, limit)
                if spur_result is not None and (total := prev[:i] + (spur_nodes := spur_result[0])) not in seen:
                    total_w, u = root_w, spur
                    for v in spur_nodes[1:]:
                        total_w += weights[u, v]
                        u = v
                    bisect.insort(candidates, (total_w, total, i))
                    seen.add(total)
                    if len(found) + len(candidates) >= k:
                        bound = candidates[k - len(found) - 1][0]
            root_w += weights[spur, nxt]

    return PathSet(src, dst, tuple(Path(nodes, w) for nodes, w in found))


class PathCache:
    """Memoized shortest-path queries over one immutable graph.

    Dijkstra distance maps with their predecessors and declined reads,
    reverse-distance heuristics and k-shortest path sets are pure functions
    of the graph, so results can be shared across steps, missions, and
    whole experiment batches without affecting determinism.

    Node ids are checked (``Graph.node_problem``) where a query misses and
    before it computes anything, so a bad id is never cached. A hit is
    not checked again: the caches are dicts, so a bool or a float equal to
    a cached int id finds that int's entry. ``distance`` checks both ids on
    every call, since it indexes a list by ``dst``.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._dist: dict[int, tuple[list[float], list[int | None]]] = {}  # dijkstra's (dist, pred)
        self._declined: dict[int, bytearray] = {}  # per source, each node's read state (_lightest_path)
        self._kpaths: dict[tuple[int, int, int], PathSet] = {}
        # the set k_shortest keeps for a (src, dst, k) key, or None; it computes nothing
        self.cached_k_shortest: Callable[[tuple[int, int, int]], PathSet | None] = self._kpaths.get
        self._to: dict[int, list[float]] = {}
        self._factor = _shrink_factor(graph)
        # every edge has a reverse edge of equal weight: a search over in-edges is one over out-edges
        self._symmetric = graph._adj == graph._radj

    def distances(self, src: int) -> list[float]:
        """Dense distance vector from ``src`` (inf where unreachable)."""
        cached = self._dist.get(src)
        if cached is None:
            cached = self._dist[src] = dijkstra(self.graph, src)
        return cached[0]

    def distance(self, src: int, dst: int) -> float:
        """Shortest src -> dst distance, the left fold of a lightest path's
        weights (inf where unreachable), off the cached ``distances(src)``.

        The waiting policy compares agents by it. Raises ValueError for a
        src or dst that is not a node id, before any search.
        """
        _check_nodes(self.graph, src, dst)
        return self.distances(src)[dst]

    def k_shortest(self, src: int, dst: int, k: int) -> PathSet:
        """``yen_k_shortest(graph, src, dst, k)``, computed once per
        (src, dst, k) and kept.

        A miss takes the pair's lightest path from the cached k=1 set, or
        else reads it off the distance search from src. A k=1 miss whose
        read succeeds is that path's set, built without Yen. Any other miss
        runs Yen, handed that path as its first; Yen then searches only
        when k > 1 or the read declined. Every path set is built here: the
        router fetches its k-sets here, and its bounded tier and the
        baseline read the k=1 set, whose one path is the first path of the
        k-set for every k. Its exact tier reads k-sets already built with
        ``cached_k_shortest``, a dict lookup by ``(src, dst, k)`` that
        returns the kept set or None and computes nothing. A hit returns the
        same instance. Raises ValueError, before any search, for a k that is not
        an int >= 1 (``check_int``; a bool or a float equal to a cached k is
        never a hit), and on a miss for a src or dst that is not a node id.
        """
        key = (src, dst, k)
        cached = self._kpaths.get(key)
        if cached is None or type(k) is not int:  # the hit guard: check_int below raises for a non-int k
            _check_nodes(self.graph, src, dst)
            check_int("k", k, 1)
            lightest = self._kpaths.get((src, dst, 1)) if k > 1 else None  # k = 1 is the key just missed
            if lightest is None:
                first = self._lightest_path(src, dst)
            else:  # empty when dst is unreachable; then Yen's own search finds nothing too
                first = (lightest.paths[0].nodes, lightest.paths[0].total_weight) if lightest.paths else None
            if k == 1 and first is not None:
                cached = PathSet(src, dst, (Path(*first),))
            else:  # Yen needs no heuristic when src == dst
                h = self._heuristic_to(dst) if src != dst else None
                cached = yen_k_shortest(self.graph, src, dst, k, h=h, first=first)
            self._kpaths[key] = cached
        return cached

    def _lightest_path(self, src: int, dst: int) -> NodesWeight | None:
        """Yen's first src->dst path read off the distance search from
        ``src``: the predecessor chain, or None where the read declines, at a
        dst src cannot reach or where some y on the chain has an in-edge
        (z, w), z other than ``pred[y]``, with ``fl(dist[z] + w) == dist[y]``
        (module docstring, "First paths from the distance search").

        ``_declined[src]`` holds one byte per node: 0 until a read walks the
        node, then ``_READS`` or ``_DECLINES``. A read of an unknown dst
        follows the chain back to a known node (src is known from the start)
        and fills it from there outward, a node inheriting a decline from its
        predecessor, so each node's in-edges are scanned at most once per
        source."""
        known = self._declined.get(src)
        if known is None:
            self.distances(src)
            known = self._declined[src] = bytearray(self.graph.node_count)
            known[src] = _READS
        dist, pred = self._dist[src]
        if not known[dst]:
            chain, y = [], dst
            while not known[y] and (x := pred[y]) is not None:
                chain.append(y)
                y = x
            if not known[y]:  # y == dst has no predecessor and is not src: unreachable
                known[y] = _DECLINES
            radj = self.graph._radj
            for y in reversed(chain):  # from src outward: known[pred[y]] is set
                x = pred[y]
                state = known[x]
                if state == _READS:
                    dy = dist[y]
                    for z, w in radj[y]:
                        if dist[z] + w == dy and z != x:
                            state = _DECLINES
                            break
                known[y] = state
        if known[dst] == _DECLINES:
            return None
        nodes, y = [dst], dst
        while (y := pred[y]) is not None:
            nodes.append(y)
        nodes.reverse()
        return tuple(nodes), dist[dst]

    def _heuristic_to(self, dst: int) -> list[float]:
        """The shrunk heuristic towards ``dst``, computed once per destination.

        Yen's searches towards dst use it, and the router's bounded tier
        reads its first-hop bounds off it (``engine`` docstring, point 4).
        On a symmetric graph it scales the cached ``distances(dst)``, the
        same computation as the reverse search, so no second search runs
        (module docstring, "One search per node on symmetric graphs")."""
        h = self._to.get(dst)
        if h is None:
            if self._symmetric:
                h = _scaled(self.distances(dst), self._factor)
            else:
                h = _heuristic(self.graph, dst, self._factor)
            self._to[dst] = h
        return h
