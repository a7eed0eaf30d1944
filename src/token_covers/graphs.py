"""Multigraphs, simple graphs, standard families, serialization.

``Multigraph`` is the one graph carrier: it permits loops and parallel
edges, stores each edge once as ``(min, max)``, checks the vertex count,
edge ranges and labels, and carries voltage base graphs and covering
lifts.  ``SimpleGraph`` is a multigraph with no loops or parallel edges,
for token graphs and everything downstream of them; the two are never
equal.  A simple graph is stored as one adjacency bitmask per vertex, the
form the search kernel reads.  Its sorted edge tuples are built from the
masks only when a caller reads ``edges`` (edge orbits and
``is_automorphism`` do; Theorem 1's cover and the F_2(K_n) it is checked
against never do, nor does a quotient's lift), so a construction that
knows its output is simple builds the masks alone
(``SimpleGraph._from_masks``).

Graphs are immutable after construction; every function in this module
is pure.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional, Sequence


class Multigraph:
    """Undirected multigraph on vertices ``0..n-1`` with loops allowed.

    Edges are stored in insertion order; the position of an edge is its
    edge id.  Each non-loop edge is normalized to ``(min, max)`` so that
    exports and voltage orientations are deterministic.
    """

    __slots__ = ("_n", "_edges", "_labels")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = (),
                 labels: Optional[Sequence[str]] = None):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self._n = vertex_count
        normalized = []
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
            normalized.append((u, v) if u <= v else (v, u))
        self._edges = tuple(normalized)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != vertex_count:
                raise ValueError("labels length must equal vertex_count")
        self._labels = labels

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def labels(self):
        return self._labels

    def degree(self, v: int) -> int:
        """Vertex degree with loops counting twice."""
        return sum((u == v) + (w == v) for u, w in self._edges)

    def degrees(self):
        degs = [0] * self._n
        for u, v in self._edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._n == other._n and self._edges == other._edges)

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self):
        return f"{type(self).__name__}({self._n} vertices, {self.edge_count} edges)"


class SimpleGraph(Multigraph):
    """Finite undirected simple graph on vertices ``0..n-1``: a multigraph
    with no loops or parallel edges, its edges sorted.

    Stored as per-vertex integer bitmasks (``adjacency_masks``), the
    representation the search kernels consume; ``edges`` is read off them
    on first use.
    """

    __slots__ = ("_adj",)

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = (),
                 labels: Optional[Sequence[str]] = None):
        super().__init__(vertex_count, edges, labels)
        seen = set()
        adj = [0] * vertex_count
        for e in self._edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at {u} not allowed in a simple graph")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = tuple(adj)
        self._edges = None

    @classmethod
    def _from_masks(cls, vertex_count: int, adj, labels) -> "SimpleGraph":
        """Wrap ``vertex_count`` adjacency masks already known to be those
        of a simple graph (a construction's own output: bit v of ``adj[u]``
        set exactly when bit u of ``adj[v]`` is, and no bit ``u`` of
        ``adj[u]``), skipping the checks of ``__init__``.  ``labels`` are
        None or ``vertex_count`` strings."""
        g = object.__new__(cls)
        g._n = vertex_count
        g._labels = None if labels is None else tuple(labels)
        g._adj = tuple(adj)
        g._edges = None
        return g

    @property
    def edges(self) -> tuple:
        """Each edge once as ``(u, v)`` with u < v, sorted: the bits of each
        vertex's mask above the vertex, in vertex order.  Built on first
        read and kept."""
        if self._edges is None:
            # one int object per vertex, shared by all its edges
            ids = list(range(self._n))
            self._edges = tuple((ids[u], ids[v]) for u, mask in enumerate(self._adj)
                                for v in _bits(mask >> u + 1 << u + 1))
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._n == other._n and self._adj == other._adj)

    def __hash__(self):
        return hash((self._n, self._adj))

    @property
    def adjacency_masks(self) -> tuple:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def neighbors(self, v: int):
        return _bits(self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self):
        return [m.bit_count() for m in self._adj]


def _bits(mask: int) -> list:
    """Positions of the set bits of ``mask``, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# standard families


def complete(n: int) -> SimpleGraph:
    """Complete graph K_n."""
    _family("complete", (n,))
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n: int) -> SimpleGraph:
    """Star K_{1,n}; vertex 0 is the center."""
    _family("star", (n,))
    return SimpleGraph(n + 1, [(0, i) for i in range(1, n + 1)])


def complete_bipartite(m: int, n: int) -> SimpleGraph:
    """K_{m,n} with parts 0..m-1 and m..m+n-1."""
    _family("complete_bipartite", (m, n))
    return SimpleGraph(m + n, [(u, m + v) for u in range(m) for v in range(n)])


def path(n: int) -> SimpleGraph:
    """Path on n vertices (n - 1 edges)."""
    _family("path", (n,))
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> SimpleGraph:
    """Cycle on n vertices; n >= 3 (shorter cycles are not simple graphs)."""
    _family("cycle", (n,))
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


# name -> (builder, parameter names, their least value,
#          (vertex count, edge count) from the parameters)
FAMILY_BUILDERS = {
    "complete": (complete, ("n",), 1, lambda n: (n, n * (n - 1) // 2)),
    "star": (star, ("n",), 1, lambda n: (n + 1, n)),
    "complete_bipartite": (complete_bipartite, ("m", "n"), 1, lambda m, n: (m + n, m * n)),
    "path": (path, ("n",), 1, lambda n: (n, n - 1)),
    "cycle": (cycle, ("n",), 3, lambda n: (n, n)),
}


def _family(name: str, params):
    """The builder and size rule of a named family, its arity and least
    parameter value checked (the builders check theirs here too)."""
    if name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILY_BUILDERS)}")
    builder, names, least, size = FAMILY_BUILDERS[name]
    if len(params) != len(names):
        raise ValueError(f"family {name!r} takes {len(names)} parameter(s), got {len(params)}")
    if min(params) < least:
        names = ", ".join(names)
        raise ValueError(f"{name}({names}) requires {names} >= {least}")
    return builder, size


def make_family(name: str, *params: int) -> SimpleGraph:
    """Build a named family graph, e.g. ``make_family("complete", 4)``."""
    builder, _ = _family(name, params)
    return builder(*params)


def family_size(name: str, *params: int) -> tuple:
    """(vertex count, edge count) of ``make_family(name, *params)`` from the
    parameters alone, so a cap can be checked before the graph is built.
    Parameters the builder rejects raise its error here, building nothing."""
    _, size = _family(name, params)
    return size(*params)


# ---------------------------------------------------------------------------
# structural predicates


def underlying_simple(G: Multigraph) -> SimpleGraph:
    """Simple reduction: loops dropped, parallel classes collapsed (into
    the same mask bits)."""
    adj = [0] * G.vertex_count
    for u, v in G.edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return SimpleGraph._from_masks(G.vertex_count, adj, G.labels)


def components(count: int, neighbours):
    """Components of the graph on points ``0..count-1`` that joins each
    point ``x`` to every point ``neighbours(x)`` yields, each sorted,
    ordered by least point.  One breadth-first walk from each point not
    yet reached, in increasing order.

    Orbits are such components: for a finite group the points its
    generators map ``x`` to are enough, as each inverse is a power."""
    seen = [False] * count
    comps = []
    for start in range(count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for x in comp:
            for y in neighbours(x):
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        comps.append(sorted(comp))
    return comps


def connected_components(G: SimpleGraph):
    """Vertex sets of the components, each sorted, ordered by minimum."""
    return components(G.vertex_count, G.neighbors)


def is_connected(G: SimpleGraph) -> bool:
    return len(connected_components(G)) <= 1


def is_biregular(G: SimpleGraph):
    """Degrees of the two sides of a degree-uniform bipartition, if any.

    Returns ``(a, b)`` where ``a`` is the degree of vertex 0 and ``b`` that
    of the other side, ``(0, 0)`` for an edgeless graph, or ``None`` when
    no 2-coloring gives each side one degree (or G has no vertices).  The
    walk is over the bipartite double cover: point 2v + s is v on side s
    and each edge switches side, so a component is bipartite exactly when
    its walk meets each vertex once.  Every component's pair of side
    degrees (an isolated vertex's is (0, 0)) must agree up to a swap.
    """
    degree = G.degrees()
    pairs = set()
    for comp in components(2 * G.vertex_count,
                           lambda p: [2 * w + 1 - p % 2 for w in G.neighbors(p // 2)]):
        if len({p // 2 for p in comp}) < len(comp):
            return None  # an odd cycle
        sides = [{degree[p // 2] for p in comp if p % 2 == s} or {0} for s in (0, 1)]
        if len(sides[0]) > 1 or len(sides[1]) > 1:
            return None
        pairs.add(tuple(sorted((*sides[0], *sides[1]))))
    if len(pairs) != 1:
        return None
    (a, b), = pairs
    return degree[0], a + b - degree[0]


def srg_parameters(G: SimpleGraph):
    """(v, k, lambda, mu) when G is strongly regular, else None.

    Requires at least one adjacent and one non-adjacent vertex pair so that
    both parameters are determined; complete and edgeless graphs return None.
    """
    n = G.vertex_count
    degs = set(G.degrees())
    if n < 2 or len(degs) != 1:
        return None
    k = degs.pop()
    adj = G.adjacency_masks
    lam = set()
    mu = set()
    for u in range(n):
        for v in range(u + 1, n):
            common = (adj[u] & adj[v]).bit_count()
            (lam if G.has_edge(u, v) else mu).add(common)
            if len(lam) > 1 or len(mu) > 1:
                return None
    if not lam or not mu:
        return None
    return (n, k, lam.pop(), mu.pop())


# ---------------------------------------------------------------------------
# serialization


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(G, *, name: str = "G", edge_labels: Optional[Mapping[int, str]] = None) -> str:
    """Deterministic DOT export (undirected; loops as self-edges).

    ``edge_labels`` maps edge ids (positions in ``G.edges``) to labels.
    Labels are written as DOT quoted strings, with ``\\`` and ``"``
    escaped.
    """
    lines = [f"graph {name} {{"]
    labels = G.labels
    for v in range(G.vertex_count):
        if labels is not None:
            lines.append(f'  {v} [label="{_dot_escape(labels[v])}"];')
        else:
            lines.append(f"  {v};")
    # a stable sort: parallel edges stay in id order, and a SimpleGraph's
    # sorted edges in theirs
    for e in sorted(range(G.edge_count), key=G.edges.__getitem__):
        u, v = G.edges[e]
        if edge_labels is not None and e in edge_labels:
            lines.append(f'  {u} -- {v} [label="{_dot_escape(edge_labels[e])}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(G) -> str:
    """Deterministic JSON export: {"vertices", "labels", "edges"}."""
    order = sorted(range(G.edge_count), key=G.edges.__getitem__)  # as in to_dot
    payload = {
        "vertices": G.vertex_count,
        "labels": list(G.labels) if G.labels is not None else None,
        "edges": [{"id": e, "u": G.edges[e][0], "v": G.edges[e][1]} for e in order],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_int(value, what: str) -> int:
    """A JSON integer; floats and booleans (an ``int`` subclass) are not."""
    if type(value) is not int:
        raise ValueError(f"malformed graph JSON: {what} must be an integer, got {value!r}")
    return value


def from_json(text: str) -> Multigraph:
    """Parse the to_json format back into a Multigraph."""
    try:
        payload = json.loads(text)
        n = _json_int(payload["vertices"], "vertices")
        records = payload["edges"]
        if not isinstance(records, list):
            raise ValueError(f"malformed graph JSON: edges must be a list, got {records!r}")
        labels = payload.get("labels")
        if labels is not None and not (isinstance(labels, list)
                                       and all(isinstance(x, str) for x in labels)):
            raise ValueError("malformed graph JSON: labels must be null or a list "
                             f"of strings, got {labels!r}")
        edges = [None] * len(records)
        for rec in records:
            e, u, v = (_json_int(rec[key], f"edge {key}") for key in ("id", "u", "v"))
            if not (0 <= e < len(records)) or edges[e] is not None:
                raise ValueError(f"bad or duplicate edge id {e}")
            edges[e] = (u, v)
        return Multigraph(n, edges, labels=labels)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
