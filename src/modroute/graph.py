"""Weighted directed graphs, mission instances, and file ingestion.

Node ids are dense integers in ``[0, m)``: ``Graph.node_problem`` holds that
rule, and every layer that takes a node id from its caller asks it.
``check_int`` holds the rule for every other int a caller passes (a node
count, grid size, agent or target count, k, trial count, seed or horizon),
``check_float`` the rule for every float a caller passes (an edge weight,
alpha, beta or a wait cost), and ``read_int`` and ``read_float`` the rules
for reading an int or a float from a text token.
External identifiers (raw ids from an edge list, GraphML node ids) are kept
in ``Graph.node_labels`` for reporting. Waiting in place is always allowed
and free, so self-loops are implicit and never stored; a ``--wait-cost``
style surcharge is applied by the simulation layer, not the graph.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
_NOT_INT = "is not an int"
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_FLOAT_TOKEN = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)", re.A | re.I)
_XS_BOOLEAN = {"true": True, "1": True, "false": False, "0": False}
_MAX_WEIGHT_SUM = 2.0**511  # the largest edge-weight sum a Graph admits (Graph docstring)


class GraphFormatError(ValueError):
    """Edge-list or GraphML input that cannot be parsed into a valid graph:
    ``load_edge_list`` and ``load_graphml`` raise it for every rule a file
    breaks, its syntax's or ``Graph``'s, the ``2**511`` weight-sum bound
    included. ``Graph(...)`` itself raises plain ValueError."""


class InfeasibleMissionError(ValueError):
    """Mission that fails validation or cannot be constructed."""


def check_int(name: str, value: object, low: int | None = None) -> None:
    """Raise ValueError naming ``value`` unless it is an int, and ``>= low``
    when ``low`` is given. A bool or a float equal to an int is rejected, for
    the reason ``Graph.node_problem`` gives for node ids: ``True == 1`` and
    ``4.0 == 4``, so it would pass for the int while printing as itself."""
    if type(value) is not int or (low is not None and value < low):
        raise ValueError(f"{name} must be an int{' >= ' + str(low) if low is not None else ''}, got {value!r}")


def check_float(name: str, value: object) -> float:
    """``float(value)``, or ValueError naming ``value`` unless it is an int or
    a float whose float conversion does not overflow. A bool is neither, as
    in ``check_int``: ``True`` would pass as 1.0 while printing as itself.
    A str or a complex would raise TypeError at the first comparison, and an
    int past the float range OverflowError at the first float operation.
    The caller checks the range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an int or a float, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within the float range, got an int of {value.bit_length()} bits") from None


def read_int(token: str) -> int | None:
    """The int that ``token`` spells with an optional sign and ASCII digits
    0-9, or None. ``int()`` also reads ``"1_0"`` as 10 and ``"１"`` (a
    full-width digit) as 1, so a token of a file or a flag that is no int
    there would be merged into node 10 or node 1."""
    return int(token) if _INT_TOKEN.fullmatch(token) else None


def read_float(token: str) -> float | None:
    """The float that ``token`` spells with an optional sign and ASCII
    digits, with an optional point and exponent, or ``inf``, ``infinity`` or
    ``nan`` in any case; else None. ``float()`` also reads ``"1_0.5"`` as
    10.5 and ``"١.٥"`` or ``"１.５"`` (non-ASCII digits) as 1.5, and strips
    surrounding whitespace, as ``read_int`` explains for ints."""
    return float(token) if _FLOAT_TOKEN.fullmatch(token) else None


class Graph:
    """Immutable weighted directed graph.

    Invariants enforced at construction: ``node_count`` is an int >= 1
    (``check_int``), endpoints are node ids, weights ints or floats
    (``check_float``) that are strictly positive with a ``math.fsum`` of at
    most ``2**511`` (about 6.7e153), no stored self-loops, at most one edge
    per (src, dst) pair. A loopless path weighs at most that sum, up to the
    rounding of its fold, so every path weight squares to a finite float and
    no inverse-square force is 0 for want of range. The constructor keeps
    the sum and the smallest weight (inf without edges), the two facts
    ``paths._shrink_factor`` compares.
    Instances are safe to share across concurrent mission runs; all
    mutation happens before construction.

    Reachability is a fact of the graph alone, so the constructor also
    builds its component table once (``_components``): each node's strongly
    connected component and each component's out-neighbour components. A
    connected graph whose edges all go both ways, such as a grid, is one
    component, with nothing to walk. ``validate`` answers every mission on
    the graph from it, with no search of its own: on a 100x100 grid
    (Python 3.11.7, 2-vCPU VM), drawing 100 missions of 8 agents and 16
    targets took 0.73-0.90 s of CPU with a breadth-first search per mission
    and takes 0.003-0.006 s, and the table costs about 10 ms once.
    """

    __slots__ = ("node_count", "node_labels", "_adj", "_radj", "_weights", "_weight_sum", "_min_weight",
                 "_comp", "_comp_out")

    def __init__(
        self,
        node_count: int,
        edges: list[tuple[int, int, float]],
        node_labels: dict[int, str] | None = None,
    ) -> None:
        check_int("graph needs at least one node: node_count", node_count, 1)
        self.node_count = node_count
        self.node_labels = dict(node_labels) if node_labels else None
        adj: list[list[tuple[int, float]]] = [[] for _ in range(node_count)]
        radj: list[list[tuple[int, float]]] = [[] for _ in range(node_count)]
        weights: dict[tuple[int, int], float] = {}
        for src, dst, w in edges:
            if problem := self.node_problem(src) or self.node_problem(dst):
                raise ValueError(f"edge ({src!r},{dst!r}) endpoint {problem}")
            if src == dst:
                raise ValueError(f"self-loop ({src},{src}) cannot be stored; waiting is implicit")
            if type(w) is not float:  # check_float returns a float as it is
                w = check_float(f"edge ({src},{dst}) weight", w)
            if not (w > 0.0 and w != float("inf")):
                raise ValueError(f"edge ({src},{dst}) weight must be positive and finite, got {w}")
            if (src, dst) in weights:
                raise ValueError(f"duplicate edge ({src},{dst})")
            weights[(src, dst)] = w
        for (src, dst), w in sorted(weights.items()):
            adj[src].append((dst, w))
            radj[dst].append((src, w))
        try:  # fsum raises OverflowError once its exact partial sum leaves the float range
            total = math.fsum(weights.values())
        except OverflowError:
            total = math.inf
        if not total <= _MAX_WEIGHT_SUM:
            raise ValueError(f"edge weights must sum to at most 2**511 ({_MAX_WEIGHT_SUM:.3g}), "
                             "so that every path weight squares to a finite float")
        self._weight_sum, self._min_weight = total, min(weights.values(), default=math.inf)
        self._adj = tuple(tuple(lst) for lst in adj)
        self._radj = tuple(tuple(lst) for lst in radj)
        self._weights = weights
        self._comp, self._comp_out = _components(self._adj, self._radj)

    def node_problem(self, node: object) -> str | None:
        """Why ``node`` is not a node id of this graph, or None if it is one.

        A node id is an int in ``[0, node_count)``. A bool or a float equal
        to an id is not one: records that hold node ids compare by equality,
        where ``True == 1`` and ``4.0 == 4``, so it would be merged with the
        int while printing as itself. Each caller puts the answer, ``"is not
        an int"`` or ``"out of range [0,m)"``, into its own message.
        """
        if type(node) is not int:
            return _NOT_INT
        if not 0 <= node < self.node_count:
            return f"out of range [0,{self.node_count})"
        return None

    def out_edges(self, src: int) -> tuple[tuple[int, float], ...]:
        """Out-neighbors of ``src`` as (dst, weight) pairs sorted by dst."""
        return self._adj[src]

    def in_edges(self, dst: int) -> tuple[tuple[int, float], ...]:
        """In-neighbors of ``dst`` as (src, weight) pairs sorted by src."""
        return self._radj[dst]

    def weight(self, src: int, dst: int) -> float:
        try:
            return self._weights[(src, dst)]
        except KeyError:
            raise ValueError(f"no edge ({src},{dst})") from None

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._weights

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def edges(self) -> list[tuple[int, int, float]]:
        """All stored edges as (src, dst, weight), sorted."""
        return [(s, d, w) for s, out in enumerate(self._adj) for d, w in out]

    def same_edges(self, other: Graph) -> bool:
        """Whether ``other`` has the same node count and weighted edges; labels are ignored."""
        return self is other or self._adj == other._adj

    def label(self, node: int) -> str:
        if self.node_labels and node in self.node_labels:
            return self.node_labels[node]
        return str(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def _components(adj, radj) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The strongly connected components of the graph with out-edge table
    ``adj`` and in-edge table ``radj``: each node's component id, and each
    component's out-neighbour components, ascending.

    Kosaraju's two passes, with explicit stacks so that a long one-way path
    cannot exhaust the recursion limit. The first walks ``adj`` depth first
    and lists the nodes by finishing time; the second takes them latest
    first and collects over ``radj`` the unassigned nodes that reach each,
    which form its component. Components come out in topological order of
    the condensation, so an in-edge from a node that already has another
    component is a condensation edge into the current one.
    """
    m = len(adj)
    seen = bytearray(m)
    finished: list[int] = []
    for root in range(m):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, iter(adj[root]))]
        while stack:
            node, edges = stack[-1]
            for v, _ in edges:
                if not seen[v]:
                    seen[v] = 1
                    stack.append((v, iter(adj[v])))
                    break
            else:
                stack.pop()
                finished.append(node)
    comp = [-1] * m
    out: list[set[int]] = []
    for root in reversed(finished):
        if comp[root] >= 0:
            continue
        c = len(out)
        out.append(set())
        comp[root] = c
        todo = [root]
        while todo:
            for u, _ in radj[todo.pop()]:
                if (cu := comp[u]) < 0:
                    comp[u] = c
                    todo.append(u)
                elif cu != c:
                    out[cu].add(c)
    return tuple(comp), tuple(tuple(sorted(succ)) for succ in out)


@dataclass(frozen=True)
class Mission:
    """One problem instance: a graph, agent start nodes, and a target set."""

    graph: Graph
    starts: tuple[int, ...]
    targets: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(self.starts))
        object.__setattr__(self, "targets", frozenset(self.targets))

    @functools.cached_property
    def _diagnostics(self) -> tuple[str, ...]:
        # Computed once per instance, which is immutable; not a field, so it
        # stays out of equality, hash and repr.
        return tuple(_diagnose(self))


def _add_file_edge(edges: list[tuple[int, int, float]], where: str, src: int, dst: int, w: float,
                   directed: bool) -> None:
    """Append to ``edges`` what a file's edge ``src -> dst`` of weight ``w``
    stores: itself, and ``dst -> src`` too unless ``directed``. A weight
    that is not positive and finite raises GraphFormatError; a self-loop,
    implicit as waiting, is skipped with the warning ``"<where>: ignoring
    self-loop"``. ``where`` names the edge as its loader does (``line N``,
    ``edge a->b``)."""
    if not (w > 0.0 and w != math.inf):
        raise GraphFormatError(f"{where}: weight must be positive and finite, got {w}")
    if src == dst:
        warnings.warn(f"{where}: ignoring self-loop", stacklevel=3)
        return
    edges.append((src, dst, w))
    if not directed:
        edges.append((dst, src, w))


def _file_graph(labels: list[str], edges: list[tuple[int, int, float]], empty: str) -> Graph:
    """The Graph of a loaded file: node ``i`` labelled ``labels[i]``, and
    ``edges`` as ``_add_file_edge`` lists them.

    No edges raises GraphFormatError(``empty``). Repeated (src, dst) pairs
    collapse to the minimum weight, since downstream loopless-path logic
    assumes simple edge identity: exact repeats silently, conflicting
    weights with a warning that names the pair by its labels (the file's own
    node ids). A rule only ``Graph`` checks, the ``2**511`` weight-sum bound,
    raises its ValueError as GraphFormatError.
    """
    if not edges:
        raise GraphFormatError(empty)
    out: dict[tuple[int, int], float] = {}
    for src, dst, w in edges:
        if out.setdefault((src, dst), w) != w:
            warnings.warn(f"duplicate edge {labels[src]}->{labels[dst]} with conflicting weights; "
                          "keeping the minimum", stacklevel=3)
            out[(src, dst)] = min(out[(src, dst)], w)
    try:
        return Graph(len(labels), [(s, d, w) for (s, d), w in out.items()], dict(enumerate(labels)))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def load_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format into a Graph.

    Each non-comment line reads ``src dst weight [directed|undirected]``
    with non-negative integer node ids (``read_int`` tokens) and a positive
    finite weight (a ``read_float`` token). The direction field defaults to
    ``directed``; ``undirected`` lines produce two directed edges of equal
    weight. ``#`` starts a comment. Node ids are compacted to dense indices,
    an id that only a self-loop names dropped; the raw ids are kept as
    labels. Every rule the text breaks, the weight-sum bound of ``Graph``
    included, raises GraphFormatError.
    """
    raw_edges: list[tuple[int, int, float]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise GraphFormatError(
                f"line {lineno}: expected 'src dst weight [directed|undirected]', got {line!r}"
            )
        src, dst = read_int(fields[0]), read_int(fields[1])
        if src is None or dst is None:
            raise GraphFormatError(f"line {lineno}: node ids must be integers")
        if src < 0 or dst < 0:
            raise GraphFormatError(f"line {lineno}: node ids must be non-negative")
        if (w := read_float(fields[2])) is None:
            raise GraphFormatError(f"line {lineno}: weight {fields[2]!r} is not a number")
        mode = fields[3].lower() if len(fields) == 4 else "directed"
        if mode not in ("directed", "undirected"):
            raise GraphFormatError(f"line {lineno}: direction must be 'directed' or 'undirected'")
        _add_file_edge(raw_edges, f"line {lineno}", src, dst, w, mode == "directed")
    raw_ids = sorted({n for s, d, _ in raw_edges for n in (s, d)})
    index = {raw: i for i, raw in enumerate(raw_ids)}
    edges = [(index[s], index[d], w) for s, d, w in raw_edges]
    return _file_graph([str(raw) for raw in raw_ids], edges, "no edges")


def dump_edge_list(graph: Graph) -> str:
    """Serialize as directed edge-list lines over dense node indices."""
    lines = [f"{s} {d} {w!r}" for s, d, w in graph.edges()]
    return "\n".join(lines) + "\n"


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def load_graphml(path: str, weight_attr: str = "length") -> Graph:
    """Load a GraphML file, taking edge weights from ``weight_attr``.

    Handles the GraphML subset of nodes, edges, and one numeric edge
    attribute: the ``<key>`` whose ``attr.name`` is ``weight_attr``, or a
    ``<data>`` keyed by ``weight_attr`` itself when no ``<key>`` declares
    that id. ``edgedefault="undirected"`` graphs (and per-edge
    ``directed="false"`` or ``"0"`` overrides) expand to directed edge
    pairs; any other ``edgedefault`` than ``directed`` or ``undirected``, or
    ``directed`` value than the four ``xs:boolean`` spellings, is rejected.
    GraphML node ids become labels over dense indices, every declared node
    kept; a repeated node id is rejected. Every rule the file breaks, the
    weight-sum bound of ``Graph`` included, raises GraphFormatError.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise GraphFormatError(f"unparseable GraphML in {path}: {exc}") from None
    root = tree.getroot()

    weight_keys, declared = set(), set()
    for el in root.iter():
        if _localname(el.tag) == "key":
            declared.add(el.get("id"))
            if el.get("attr.name") == weight_attr and el.get("for") in (None, "edge", "all"):
                weight_keys.add(el.get("id"))
    if weight_attr not in declared:  # a bare ``<data key="length">`` names the attribute itself
        weight_keys.add(weight_attr)

    graph_el = next((el for el in root.iter() if _localname(el.tag) == "graph"), None)
    if graph_el is None:
        raise GraphFormatError(f"no <graph> element in {path}")
    edgedefault = graph_el.get("edgedefault", "directed")
    if edgedefault not in ("directed", "undirected"):
        raise GraphFormatError(f"edgedefault must be 'directed' or 'undirected', got {edgedefault!r}")

    index: dict[str, int] = {}
    for el in graph_el.iter():
        if _localname(el.tag) != "node":
            continue
        node_id = el.get("id")
        if node_id is None:
            raise GraphFormatError("node without id")
        if node_id in index:
            raise GraphFormatError(f"duplicate node id {node_id!r}")
        index[node_id] = len(index)
    if not index:
        raise GraphFormatError(f"no nodes in {path}")

    edges: list[tuple[int, int, float]] = []
    for el in graph_el.iter():
        if _localname(el.tag) != "edge":
            continue
        src_id, dst_id = el.get("source"), el.get("target")
        if src_id not in index or dst_id not in index:
            raise GraphFormatError(f"edge {src_id}->{dst_id} references unknown node")
        value: float | None = None
        for data in el:
            if _localname(data.tag) == "data" and data.get("key") in weight_keys:
                if (value := read_float((data.text or "").strip())) is None:
                    raise GraphFormatError(f"edge {src_id}->{dst_id}: non-numeric {weight_attr!r} value {data.text!r}")
                break
        if value is None:
            raise GraphFormatError(f"edge {src_id}->{dst_id} missing weight attribute {weight_attr!r}")
        per_edge = el.get("directed")
        if per_edge is None:
            is_directed = edgedefault == "directed"
        elif (is_directed := _XS_BOOLEAN.get(per_edge)) is None:
            raise GraphFormatError(f"edge {src_id}->{dst_id}: directed={per_edge!r} is not true, false, 1 or 0")
        _add_file_edge(edges, f"edge {src_id}->{dst_id}", index[src_id], index[dst_id], value, is_directed)
    return _file_graph(list(index), edges, f"no edges in {path}")


def dump_graphml(graph: Graph, path: str, weight_attr: str = "length") -> None:
    """Write the graph as directed GraphML with one numeric edge attribute."""
    ET.register_namespace("", GRAPHML_NS)
    root = ET.Element(f"{{{GRAPHML_NS}}}graphml")
    key = ET.SubElement(root, f"{{{GRAPHML_NS}}}key")
    key.set("id", "d0")
    key.set("for", "edge")
    key.set("attr.name", weight_attr)
    key.set("attr.type", "double")
    graph_el = ET.SubElement(root, f"{{{GRAPHML_NS}}}graph")
    graph_el.set("edgedefault", "directed")
    for node in range(graph.node_count):
        el = ET.SubElement(graph_el, f"{{{GRAPHML_NS}}}node")
        el.set("id", graph.label(node))
    for src, dst, w in graph.edges():
        el = ET.SubElement(graph_el, f"{{{GRAPHML_NS}}}edge")
        el.set("source", graph.label(src))
        el.set("target", graph.label(dst))
        data = ET.SubElement(el, f"{{{GRAPHML_NS}}}data")
        data.set("key", "d0")
        data.text = repr(w)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)


def validate(mission: Mission) -> list[str]:
    """Return human-readable diagnostics; empty iff the mission is runnable.

    A start or target that is not a node id (``Graph.node_problem``), such
    as a bool or a float equal to a valid id, is reported, not read as that
    id: starts in order, then targets that are not ints by repr, then
    out-of-range targets ascending, then unreachable targets ascending. The
    diagnostics are worked out once per mission; each call returns a new
    list.
    """
    return list(mission._diagnostics)


def _diagnose(mission: Mission) -> list[str]:
    graph = mission.graph
    diags: list[str] = []
    if not mission.starts:
        diags.append("mission has no start nodes")
    if not mission.targets:
        diags.append("mission has no target nodes")
    valid_starts = []
    for s in mission.starts:
        if problem := graph.node_problem(s):
            diags.append(f"start node {s!r} {problem}")
        else:
            valid_starts.append(s)
    problems = {t: p for t in mission.targets if (p := graph.node_problem(t))}
    if problems:  # those that are not ints by repr, then the ints ascending
        not_ints = sorted((t for t, p in problems.items() if p == _NOT_INT), key=repr)
        diags += [f"target node {t!r} {problems[t]}" for t in not_ints + sorted(problems.keys() - not_ints)]
    targets = sorted(mission.targets.difference(problems))
    if valid_starts:
        comp, comp_out = graph._comp, graph._comp_out
        reached = {comp[s] for s in valid_starts}
        stack = list(reached)
        while stack:  # mark every component the starts reach in the condensation
            for c in comp_out[stack.pop()]:
                if c not in reached:
                    reached.add(c)
                    stack.append(c)
        for t in targets:
            if comp[t] not in reached:
                diags.append(f"target node {t} unreachable from every start")
    return diags
