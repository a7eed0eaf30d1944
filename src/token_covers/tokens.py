"""Token graphs and the comparison families they are matched against.

k-subsets are plain sorted tuples throughout (``token_graph`` and
``induced_token_permutation`` share one bitmask index, and ``token_graph``
builds its graph's adjacency masks directly, with no edge list); vertex
order of every construction is the lexicographic order of
``itertools.combinations``, so vertex ids are reproducible without
carrying subset objects around.  No construction takes a vertex cap:
``check_vertex_cap`` is the one cap check, which a command makes before it
builds anything.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .algebra import Permutation
from .graphs import SimpleGraph, complete

# a count from 10^PRINTED_DIGITS on has more digits than Python's default
# limit for converting an int to text, so a cap message writes it as a bound
PRINTED_DIGITS = 4300


def ksubsets(n: int, k: int):
    """All k-subsets of 0..n-1 as sorted tuples, lexicographic."""
    return list(combinations(range(n), k))


def binomial(n: int, k: int, cap: int) -> int:
    """C(n, k) for a check against ``cap`` (0 for k outside 0..n): the count
    itself while it is within both ``cap`` and ``PRINTED_DIGITS`` digits,
    else a lower bound past both.  The partial products C(n, i) grow with i
    up to i = min(k, n - k), so the first one past that limit ends the
    count, and no much larger integer is built."""
    limit = max(cap, 10**PRINTED_DIGITS - 1)
    count = 1 if 0 <= k <= n else 0
    for i in range(1, min(k, n - k) + 1):
        count = count * (n - i + 1) // i
        if count > limit:
            break
    return count


def shown_count(count: int) -> str:
    """``count`` as an error message writes it: a count from
    10^PRINTED_DIGITS on (exact, or a bound from ``binomial``) as that bound,
    which ``str`` of the count could not print."""
    return str(count) if count < 10**PRINTED_DIGITS else f"at least 10^{PRINTED_DIGITS}"


def check_vertex_cap(name: str, vertices: int, cap: int) -> None:
    """Raise the one vertex-cap error when ``name``'s graph, of ``vertices``
    vertices, is over ``cap``, the count written by ``shown_count``."""
    if vertices > cap:
        raise ValueError(f"{name}: {shown_count(vertices)} vertices exceed the cap {cap}")


def subset_label(s) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def token_graph(X: SimpleGraph, k: int) -> SimpleGraph:
    """k-token graph of X: k-subsets adjacent when their symmetric
    difference is an edge of X.  Vertex i is ``ksubsets(n, k)[i]``."""
    n = X.vertex_count
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    subs, index = _subset_index(n, k)
    # trading u for a larger v gives a lexicographically later subset, so
    # each edge is found once, from its earlier end, and set in both masks
    higher = [[v for v in X.neighbors(u) if v > u] for u in range(n)]
    adj = [0] * len(subs)
    for i, (sub, m) in enumerate(zip(subs, index)):
        bit = 1 << i
        row = adj[i]
        for u in sub:
            rest = m ^ 1 << u
            for v in higher[u]:
                if not m >> v & 1:
                    j = index[rest | 1 << v]
                    row |= 1 << j
                    adj[j] |= bit
        adj[i] = row
    return SimpleGraph._from_masks(len(subs), adj, [subset_label(s) for s in subs])


def johnson(n: int, k: int) -> SimpleGraph:
    """Johnson graph J(n, k): k-subsets adjacent when they intersect in
    exactly k - 1 elements, that is when their symmetric difference is a
    pair, so for k < n it is the k-token graph of K_n."""
    if n < 1:
        raise ValueError(f"n={n} out of range: need n >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if k == n:
        return SimpleGraph(1, [], labels=[subset_label(range(n))])
    return token_graph(complete(n), k)


def line_graph(X: SimpleGraph) -> SimpleGraph:
    """Vertices are the edges of X, adjacent when sharing an endpoint."""
    es = X.edges
    edges = []
    for i, (a, b) in enumerate(es):
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if a in (c, d) or b in (c, d):
                edges.append((i, j))
    return SimpleGraph(len(es), edges, labels=[f"{u}-{v}" for u, v in es])


def subdivision(X: SimpleGraph) -> SimpleGraph:
    """One new vertex per edge; each edge replaced by a 2-path through it.

    Original vertices keep their ids; the vertex subdividing the e-th edge
    (in sorted edge order) is ``n + e``.
    """
    n = X.vertex_count
    edges = []
    for e, (u, v) in enumerate(X.edges):
        edges.append((u, n + e))
        edges.append((v, n + e))
    labels = [str(v) for v in range(n)] + [f"{u}-{v}" for u, v in X.edges]
    return SimpleGraph(n + X.edge_count, edges, labels=labels)


def inclusion_bigraph(n: int, a: int, b: int) -> SimpleGraph:
    """Bipartite inclusion graph between the a-subsets and b-subsets of
    0..n-1 (a-set adjacent to every b-set containing it).

    Concrete model of a doubled Johnson graph; vertices are the a-subsets
    (lexicographic) followed by the b-subsets.
    """
    if not 0 <= a < b <= n:
        raise ValueError(f"need 0 <= a < b <= n, got a={a}, b={b}, n={n}")
    lows = ksubsets(n, a)
    highs = ksubsets(n, b)
    offset = len(lows)
    edges = []
    for i, low in enumerate(lows):
        ls = set(low)
        for j, high in enumerate(highs):
            if ls <= set(high):
                edges.append((i, offset + j))
    labels = [subset_label(s) for s in lows] + [subset_label(s) for s in highs]
    return SimpleGraph(offset + len(highs), edges, labels=labels)


@lru_cache(maxsize=1)
def _subset_index(n: int, k: int) -> tuple[tuple, dict]:
    """The k-subsets of ``ksubsets(n, k)`` and each one's index by bitmask,
    in subset order, kept for the run of calls on one (n, k) that a command
    makes: ``token_graph``, then ``induced_token_permutation`` once per
    generator; read only."""
    subs = tuple(combinations(range(n), k))
    return subs, {sum(1 << u for u in s): i for i, s in enumerate(subs)}


def induced_token_permutation(p: Permutation, k: int) -> Permutation:
    """Action of a base-vertex permutation on the k-subset vertices: the
    image of a subset is found by its bitmask, with no sort."""
    subs, index = _subset_index(p.degree, k)
    bits = [1 << v for v in p.images]
    return Permutation(tuple(index[sum([bits[u] for u in s])] for s in subs))
