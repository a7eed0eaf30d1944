"""Shared test oracles, independent of the library's search machinery
except where a docstring says otherwise."""

import random
from collections import deque
from itertools import accumulate, combinations, permutations, product
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from token_covers import symmetry, voltage
from token_covers.algebra import Permutation, Subgroup
from token_covers.graphs import (
    Multigraph,
    SimpleGraph,
    complete,
    complete_bipartite,
    components,
    cycle,
    family_size,
    is_connected,
    make_family,
    path,
    star,
)
from token_covers.report import Evidence, VerificationReport
from token_covers.symmetry import acts_freely, automorphisms, edge_orbits
from token_covers.tokens import johnson, line_graph, subdivision, token_graph


def subgroups(m: int):
    """All subgroups of Z_m, one per divisor d of m (the index)."""
    return [Subgroup(m, d) for d in range(1, m + 1) if m % d == 0]


# A coset r + dZ_m of Z_m is the triple (m, d, r) with 0 <= r < d, and its
# member set is range(r, m, d), written here rather than read from
# ``Subgroup.members``, so that the tests compare the library against it.


def cosets(m: int, d: int):
    """The d cosets of dZ_m, by representative."""
    return [(m, d, r) for r in range(d)]


def members(K) -> set:
    m, d, r = K
    return set(range(r, m, d))


def translate(K, v: int):
    """The set-wise translate K + v, representative recanonicalized."""
    m, d, r = K
    return (m, d, (r + v) % d)


def intersects(K, H) -> bool:
    """Whether two cosets (of possibly different subgroups of the same
    Z_m) share an element, by the congruence rep_K = rep_H mod
    gcd(d_K, d_H): the reference for ``lift``'s edge rule."""
    if K[0] != H[0]:
        raise ValueError("cosets live in different groups")
    return (K[2] - H[2]) % gcd(K[1], H[1]) == 0


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def is_identity(p: Permutation) -> bool:
    return all(i == x for i, x in enumerate(p.images))


def from_cycles(n: int, cycles) -> Permutation:
    """The permutation of 0..n-1 with the given cycles, fixing the rest."""
    images = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def fiber_offsets(cvg):
    """offset[x]: the total fiber size of the base vertices before x, so
    that ``lift`` puts cover vertex (x, r) at index offset[x] + r."""
    return list(accumulate((H.index for H in cvg.vertex_groups), initial=0))


def free_actions(X, m: int):
    """Automorphisms of X all of whose cycles have length m (so of order
    m, generating a free action), sorted by image tuple: a filter over
    every element of ``automorphisms(X)``.  m < 2 is rejected, as
    the only such permutation of order 1 is the identity."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return sorted((p for p in automorphisms(X).elements() if acts_freely(p, m)),
                  key=lambda p: p.images)


def brute_force_isomorphism(X, Y):
    """All-permutations isomorphism oracle (use only for <= 8 vertices)."""
    n = X.vertex_count
    if n != Y.vertex_count or X.edge_count != Y.edge_count:
        return None
    target = set(Y.edges)
    for p in permutations(range(n)):
        if all(((p[u], p[v]) if p[u] < p[v] else (p[v], p[u])) in target
               for u, v in X.edges):
            return p
    return None


def brute_force_automorphisms(X):
    """All automorphisms of X by exhaustive enumeration."""
    n = X.vertex_count
    target = set(X.edges)
    found = []
    for p in permutations(range(n)):
        if all(((p[u], p[v]) if p[u] < p[v] else (p[v], p[u])) in target
               for u, v in X.edges):
            found.append(p)
    return found


def brute_force_biregular(X):
    """Biregularity oracle (use only for <= 8 vertices): every 2-colouring
    with vertex 0 on side 0 is tried, and the first whose edges all cross
    sides and whose sides each have one degree gives (side 0's degree,
    side 1's degree or 0 if side 1 is empty); None if none does."""
    n = X.vertex_count
    degree = X.degrees()
    for colours in product((0, 1), repeat=n - 1):
        side = (0, *colours)
        if any(side[u] == side[v] for u, v in X.edges):
            continue
        degrees = [{degree[v] for v in range(n) if side[v] == s} for s in (0, 1)]
        if len(degrees[0]) == 1 and len(degrees[1]) <= 1:
            return degrees[0].pop(), max(degrees[1], default=0)
    return None


def complement(X: SimpleGraph) -> SimpleGraph:
    n = X.vertex_count
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not X.has_edge(u, v)]
    return SimpleGraph(n, edges)


def kneser(n: int, k: int) -> SimpleGraph:
    """k-subsets of [n], adjacent when disjoint (Petersen = kneser(5, 2))."""
    subs = list(combinations(range(n), k))
    edges = []
    for i, a in enumerate(subs):
        sa = set(a)
        for j in range(i + 1, len(subs)):
            if not sa & set(subs[j]):
                edges.append((i, j))
    return SimpleGraph(len(subs), edges)


def cayley_z4_squared(steps) -> SimpleGraph:
    """Cayley graph of Z_4 x Z_4 with the connection set ``steps`` (closed
    under negation)."""
    def vertex(a, b):
        return 4 * (a % 4) + b % 4
    return SimpleGraph(16, {tuple(sorted((vertex(a, b), vertex(a + x, b + y))))
                            for a in range(4) for b in range(4) for x, y in steps})


def shrikhande() -> SimpleGraph:
    """The Shrikhande graph, an SRG(16, 6, 2, 2)."""
    return cayley_z4_squared([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)])


def rook_4x4() -> SimpleGraph:
    """The 4x4 rook's graph, an SRG(16, 6, 2, 2) not isomorphic to the
    Shrikhande graph."""
    return cayley_z4_squared([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])


def disjoint_union(A: SimpleGraph, B: SimpleGraph) -> SimpleGraph:
    off = A.vertex_count
    edges = list(A.edges) + [(u + off, v + off) for u, v in B.edges]
    return SimpleGraph(off + B.vertex_count, edges)


def assert_mask_built(G: SimpleGraph, n: int, edges, labels=None):
    """A graph built from masks alone (``token_graph``, ``underlying_simple``)
    against ``edges``, the brute-force edge list of the graph it must be:
    the same as the validating constructor's graph (``==`` and ``hash``),
    and its ``edges``, ``edge_count`` and masks those read off ``edges``
    here, not through ``SimpleGraph``."""
    expected = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
    assert len(expected) == len(edges), "the oracle lists each edge once"
    masks = [0] * n
    for u, v in expected:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    checked = SimpleGraph(n, edges, labels)
    assert G == checked and checked == G and hash(G) == hash(checked)
    assert G.vertex_count == n
    assert G.edges == expected
    assert G.edge_count == len(expected)
    assert G.adjacency_masks == tuple(masks)
    assert G.labels == (None if labels is None else tuple(labels)) == checked.labels


def brute_force_token_graph(X: SimpleGraph, k: int):
    """(edges, labels) of F_k(X) by its definition: the k-subsets in
    lexicographic order, two adjacent when their symmetric difference is
    an edge of X, each edge once as (earlier, later)."""
    subs = list(combinations(range(X.vertex_count), k))
    sets = [set(s) for s in subs]
    edges = [(i, j) for i, j in combinations(range(len(subs)), 2)
             if len(diff := sets[i] ^ sets[j]) == 2 and X.has_edge(*diff)]
    return edges, ["{" + ",".join(map(str, s)) + "}" for s in subs]


def token_degree_oracle(X: SimpleGraph, subset) -> int:
    """Degree of a token-graph vertex: edges with one endpoint inside."""
    inside = set(subset)
    return sum(1 for u, v in X.edges if (u in inside) ^ (v in inside))


def random_simple_graph(rng, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph(n, edges)


def relabel(X: SimpleGraph, images) -> SimpleGraph:
    return SimpleGraph(X.vertex_count,
                       [(images[u], images[v]) for u, v in X.edges])


def random_multigraph(rng, n: int, m_edges: int) -> Multigraph:
    edges = []
    for _ in range(m_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))
    return Multigraph(n, edges)


@st.composite
def simple_graphs(draw, min_vertices=1, max_vertices=12):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def dense_or_sparse_graphs(draw, min_vertices=1, max_vertices=12):
    """A drawn graph or its complement: drawn graphs lean sparse, so their
    complements give dense graphs, whose neighbour counts inside a class
    run to several binary digits."""
    X = draw(simple_graphs(min_vertices, max_vertices))
    return complement(X) if draw(st.booleans()) else X


@st.composite
def graph_pairs(draw, max_vertices=12):
    """A graph, dense or sparse, and either an independent graph on as many
    vertices, or a relabelling of it with up to four degree-preserving
    edge switches."""
    X = draw(dense_or_sparse_graphs(max_vertices=max_vertices))
    n = X.vertex_count
    if draw(st.booleans()):
        return X, draw(dense_or_sparse_graphs(n, n))
    edges = set(relabel(X, draw(st.permutations(range(n)))).edges)
    for _ in range(draw(st.integers(0, 4))):
        # ab, cd -> ad, cb keeps every degree
        switches = [((a, b), (c, d), (min(a, d), max(a, d)), (min(c, b), max(c, b)))
                    for (a, b), (x, y) in combinations(sorted(edges), 2)
                    for c, d in ((x, y), (y, x)) if len({a, b, c, d}) == 4]
        switches = [sw for sw in switches if not {sw[2], sw[3]} & edges]
        if not switches:
            break
        ab, cd, ad, cb = draw(st.sampled_from(switches))
        edges -= {ab, (min(cd), max(cd))}
        edges |= {ad, cb}
    return X, SimpleGraph(n, edges)


@st.composite
def graphs_or_doubles(draw, max_vertices=10):
    """A drawn graph, or the disjoint union of one with a relabelling of
    itself, whose automorphisms (each copy's and the swap of the two) are
    found at many levels, so the orbit pruning acts deep in the search."""
    X = draw(simple_graphs(max_vertices=max_vertices))
    if draw(st.booleans()):
        return X
    return disjoint_union(X, relabel(X, draw(st.permutations(range(X.vertex_count)))))


@st.composite
def graph_unions(draw, max_vertices=8):
    """A relabelled disjoint union of drawn graphs, bipartite pieces
    (complete bipartite graphs, even cycles) and isolated vertices, on
    1..``max_vertices`` vertices."""
    pieces = st.one_of(
        simple_graphs(max_vertices=4),
        st.builds(complete_bipartite, st.integers(1, 3), st.integers(1, 3)),
        st.builds(cycle, st.sampled_from([4, 6])),
        st.just(SimpleGraph(1)),
    )
    X = draw(pieces)
    for _ in range(draw(st.integers(0, 3))):
        piece = draw(pieces)
        if X.vertex_count + piece.vertex_count <= max_vertices:
            X = disjoint_union(X, piece)
    return relabel(X, draw(st.permutations(range(X.vertex_count))))


def zz_reference(family, params, k):
    """The ``zz`` report for one k with no shared work: the base graph is
    built and searched for k = 1 and k = |V| - 1, and every F_k gets its
    own ``automorphisms`` search.  The classification family and rule are
    read through the ``symmetry`` module, so a test that patches either
    patches both."""
    n_x, _ = family_size(family, *params)
    if not 1 <= k <= n_x - 1:
        raise ValueError(f"k={k} out of range 1..{n_x - 1}")
    X = make_family(family, *params)
    if not is_connected(X):
        raise ValueError("classification check requires a connected graph")
    name, norm = symmetry._classification_family(X)
    if k == 1 or k == n_x - 1:
        predicted = len(edge_orbits(X, automorphisms(X).generators)) <= 1
        rule = "k reduces the token graph to the base graph"
    else:
        predicted = symmetry._in_classification(name, norm, k)
        rule = f"classification case for {name}{norm}" if predicted else "no classification case matches"
    F = token_graph(X, k)
    orbits = edge_orbits(F, automorphisms(F).generators)
    computed = len(orbits) <= 1
    family_tag = ":".join([family, *map(str, params)])
    evidence = [
        Evidence("family", family_tag),
        Evidence("k", k),
        Evidence("token_vertices", F.vertex_count),
        Evidence("token_edges", F.edge_count),
        Evidence("predicted_edge_transitive", predicted),
        Evidence("computed_edge_transitive", computed),
        Evidence("edge_orbit_count", len(orbits)),
        Evidence("rule", rule, kind="note"),
    ]
    if computed != predicted:
        if len(orbits) > 1:
            witness = [list(orbits[0][0]), list(orbits[1][0])]
        else:
            witness = "token graph has a single edge orbit"
        evidence.append(Evidence("disagreement", witness, kind="counterexample"))
    return VerificationReport.from_outcome(f"zz-{family_tag}-k{k}", computed == predicted,
                                           evidence)


def automorphisms_by_matching(X):
    """Every automorphism of X as an image tuple, from networkx's VF2
    matcher (independent of the search kernel; use on small graphs)."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(X.vertex_count))
    G.add_edges_from(X.edges)
    return [tuple(m[v] for v in range(X.vertex_count))
            for m in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter()]


def edge_orbit_count(X, automorphisms):
    """Orbits of the edges of X under a list of image tuples that holds
    the whole group (so one application of each is closed)."""
    seen = set()
    count = 0
    for u, v in X.edges:
        if (u, v) not in seen:
            count += 1
            seen.update((min(g[u], g[v]), max(g[u], g[v])) for g in automorphisms)
    return count


def kernel_corpus():
    """Graphs the search-kernel tests run every kernel entry point on.  The
    second last is graph 1043 of networkx's atlas (Read & Wilson, *An Atlas
    of Graphs*, 1998), the one graph on up to 7 vertices whose first path
    is left unequitable by a queue that leaves out a part of a split class
    that was still queued.  The last, K_{1,30}, has a first path of 30
    levels (29 leaves individualized one at a time), so the search
    backtracks through a deep stack."""
    graphs = [
        complete(1), complete(2), complete(6), cycle(4), cycle(7), path(5),
        star(4), complete_bipartite(2, 3), complete_bipartite(3, 3),
        token_graph(complete(5), 2), token_graph(star(4), 2),
        token_graph(complete_bipartite(2, 4), 3),
        johnson(5, 2), subdivision(complete(4)), line_graph(complete(5)),
    ]
    rng = random.Random(3)
    for _ in range(25):
        graphs.append(random_simple_graph(rng, rng.randint(2, 12), rng.random()))
    graphs.append(SimpleGraph(7, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                                  (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (5, 6)]))
    graphs.append(star(30))
    return graphs


def kernel_witness_pairs():
    """Adjacency-mask pairs for the isomorphism-witness tests: an edgeless
    graph against a cycle, whose splitters reach nothing on the left, so
    only the no-split replay's cover check rejects them; each corpus graph
    with a seeded relabelling of itself; then neighbouring corpus graphs
    paired up (mostly non-isomorphic, some of unequal size); then
    K_{1,25} built as a complete bipartite graph against ``star(25)``, a
    first path of 25 levels."""
    rng = random.Random(5)
    graphs = kernel_corpus()
    pairs = [(SimpleGraph(5).adjacency_masks, cycle(5).adjacency_masks)]
    for g in graphs:
        images = list(range(g.vertex_count))
        rng.shuffle(images)
        pairs.append((g.adjacency_masks, relabel(g, images).adjacency_masks))
    for a, b in zip(graphs[::2], graphs[1::2]):
        pairs.append((a.adjacency_masks, b.adjacency_masks))
    pairs.append((complete_bipartite(1, 25).adjacency_masks, star(25).adjacency_masks))
    return pairs


def regular_pairs():
    """Pairs of regular graphs with equal order and degree, on which
    refinement splits nothing until a vertex is individualized, so the
    trace replay carries each branch: Shrikhande against the 4x4 rook's
    graph both ways, then 20 seeded random d-regular pairs, d = 3..5 and
    n = 8..20, every other one a relabelling (from networkx's
    ``random_regular_graph``)."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(16)

    def regular(d, n):
        return SimpleGraph(n, nx.random_regular_graph(d, n, seed=rng.randrange(2**32)).edges)

    pairs = [(shrikhande(), rook_4x4()), (rook_4x4(), shrikhande())]
    while len(pairs) < 22:
        d, n = rng.randint(3, 5), rng.randint(8, 20)
        if d * n % 2:
            continue
        X = regular(d, n)
        Y = relabel(X, rng.sample(range(n), n)) if len(pairs) % 2 else regular(d, n)
        pairs.append((X, Y))
    return pairs


def full_scan_refine(adj_l, col_l, adj_r, col_r, ncolors, seeds):
    """Reference equitable refinement: the search kernel's original
    splitter-queue loop, which rescans all n vertices for every splitter
    (splitter masks, per-vertex counts, per-class histograms, recoloring),
    with the kernel's queue rule and tie-break, so that it allocates the
    same ids in the same order.  Refines both sides in lockstep; mutates
    ``col_l``/``col_r`` and returns the new color count, or -1 when the
    sides are incompatible.  Both colorings must have the same class
    sizes."""
    n = len(adj_l)
    in_queue = bytearray(n + 1)
    queue = deque()
    for s in seeds:
        if not in_queue[s]:
            in_queue[s] = 1
            queue.append(s)
    while queue:
        s = queue.popleft()
        in_queue[s] = 0
        mask_l = 0
        mask_r = 0
        for v in range(n):
            if col_l[v] == s:
                mask_l |= 1 << v
            if col_r[v] == s:
                mask_r |= 1 << v
        cnt_l = [0] * n
        cnt_r = [0] * n
        hist_l = {}
        hist_r = {}
        for v in range(n):
            k = (adj_l[v] & mask_l).bit_count()
            cnt_l[v] = k
            c = col_l[v]
            h = hist_l.get(c)
            if h is None:
                hist_l[c] = h = {}
            h[k] = h.get(k, 0) + 1
            k = (adj_r[v] & mask_r).bit_count()
            cnt_r[v] = k
            c = col_r[v]
            h = hist_r.get(c)
            if h is None:
                hist_r[c] = h = {}
            h[k] = h.get(k, 0) + 1
        splits = {}
        for c in sorted(hist_l):
            h = hist_l[c]
            if hist_r.get(c) != h:
                return -1
            if len(h) > 1:
                values = sorted(h)
                table = {values[0]: c}
                for val in values[1:]:
                    table[val] = ncolors
                    ncolors += 1
                splits[c] = table
                # Hopcroft's rule: a class not queued leaves out its first
                # largest part (its own part first, then new ids in order)
                parts = list(table.values())
                if in_queue[c]:
                    parts.remove(c)
                else:
                    largest = max(h.values())
                    parts.remove(next(cc for val, cc in table.items() if h[val] == largest))
                for cc in parts:
                    in_queue[cc] = 1
                    queue.append(cc)
        if splits:
            for v in range(n):
                t = splits.get(col_l[v])
                if t is not None:
                    col_l[v] = t[cnt_l[v]]
                t = splits.get(col_r[v])
                if t is not None:
                    col_r[v] = t[cnt_r[v]]
    return ncolors


def reference_isomorphism_witness(adj1, adj2):
    """Reference search: the kernel's original isomorphism search, which
    refines both graphs in lockstep at every node (``full_scan_refine``)."""
    adj1 = tuple(adj1)
    adj2 = tuple(adj2)
    n = len(adj1)
    if len(adj2) != n:
        return None
    if n == 0:
        return ()
    col_l = [0] * n
    col_r = [0] * n
    nc = full_scan_refine(adj1, col_l, adj2, col_r, 1, (0,))
    if nc < 0:
        return None
    return _lockstep_first(adj1, col_l, adj2, col_r, nc)


def reference_automorphism_generators(adj):
    """Reference search: the kernel's original automorphism search (the
    identity path first, then one lockstep search per unpruned sibling),
    each generator paired with the vertex of the level it was found at."""
    adj = tuple(adj)
    n = len(adj)
    gens = []
    if n <= 1:
        return gens
    col_l = [0] * n
    col_r = [0] * n
    nc = full_scan_refine(adj, col_l, adj, col_r, 1, (0,))
    _lockstep_aut(adj, col_l, col_r, nc, [], 0, gens)
    return gens


def _lockstep_target(col, nc):
    """Smallest non-singleton class, ties to the lowest id, and its least
    member; (-1, -1) if the coloring is discrete."""
    sizes = [col.count(c) for c in range(nc)]
    cells = [c for c in range(nc) if sizes[c] >= 2]
    if not cells:
        return -1, -1
    c = min(cells, key=lambda c: (sizes[c], c))
    return c, col.index(c)


def _lockstep_first(adj_l, col_l, adj_r, col_r, nc):
    n = len(adj_l)
    c, v = _lockstep_target(col_l, nc)
    if c < 0:
        where = {col_r[u]: u for u in range(n)}
        sigma = tuple(where[col_l[x]] for x in range(n))
        ok = all({sigma[y] for y in range(n) if adj_l[x] >> y & 1}
                 == {y for y in range(n) if adj_r[sigma[x]] >> y & 1} for x in range(n))
        return sigma if ok else None
    for u in [w for w in range(n) if col_r[w] == c]:
        cl = col_l.copy()
        cr = col_r.copy()
        cl[v] = nc
        cr[u] = nc
        nc2 = full_scan_refine(adj_l, cl, adj_r, cr, nc + 1, (nc,))
        if nc2 < 0:
            continue
        found = _lockstep_first(adj_l, cl, adj_r, cr, nc2)
        if found is not None:
            return found
    return None


def _lockstep_aut(adj, col_l, col_r, nc, base, depth, gens):
    n = len(adj)
    c, v = _lockstep_target(col_l, nc)
    if c < 0:
        return  # identity leaf
    base.append(v)
    cl = col_l.copy()
    cr = col_r.copy()
    cl[v] = cr[v] = nc
    nc2 = full_scan_refine(adj, cl, adj, cr, nc + 1, (nc,))
    _lockstep_aut(adj, cl, cr, nc2, base, depth + 1, gens)
    prefix = base[:depth]
    for u in [w for w in range(n) if col_r[w] == c]:
        if u == v or _lockstep_in_orbit(v, u, gens, prefix):
            continue
        cl = col_l.copy()
        cr = col_r.copy()
        cl[v] = nc
        cr[u] = nc
        nc2 = full_scan_refine(adj, cl, adj, cr, nc + 1, (nc,))
        if nc2 < 0:
            continue
        found = _lockstep_first(adj, cl, adj, cr, nc2)
        if found is not None:
            gens.append((found, v))


def _lockstep_in_orbit(v, u, gens, prefix):
    """Whether u lies in the orbit of v under the known generators that fix
    every point of ``prefix``."""
    useful = [g for g, _ in gens if all(g[b] == b for b in prefix)]
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for g in useful:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return u in seen


def cyclic_subgroup_classes_by_elements(elements, group, m: int):
    """The lockstep reference for ``cyclic_subgroup_classes``: one
    ``components`` walk over the elements themselves, each joined to its
    conjugate by every generator and to each coprime power, whichever of
    them are listed, with every conjugate and power computed afresh on the
    base points, by which an element is known."""
    position = {tuple(p.images[b] for b in group.base): i for i, p in enumerate(elements)}
    conjugators = [(s.images, [s.inverse()(b) for b in group.base]) for s in group.generators]
    coprime = [j for j in range(2, m) if gcd(j, m) == 1]

    def related(i):
        g = elements[i].images
        found = [tuple(s[g[x]] for x in preimages) for s, preimages in conjugators]
        cycles = []
        for b in group.base:
            cycle, x = [b], g[b]
            while x != b:
                cycle.append(x)
                x = g[x]
            cycles.append(cycle)
        found.extend(tuple(c[j % len(c)] for c in cycles) for j in coprime)
        return [k for k in map(position.get, found) if k is not None]

    return [[elements[i] for i in members]
            for members in components(len(elements), related)]


# ---------------------------------------------------------------------------
# the group walk the conjecture search once ran, kept as its oracle


def base_images(group, g: Permutation) -> tuple:
    """g's images of ``group``'s base points, which determine g in the group
    (only the identity fixes the whole base)."""
    images = g.images
    return tuple(images[b] for b in group.base)


def of_order(group, m: int, cap: int = symmetry.DEFAULT_GROUP_CAP) -> tuple[list, bool]:
    """The elements of order m among the first ``cap`` of ``group``'s walk,
    in walk order (u_0 * ... * u_{k-1}, level 0 slowest, as
    ``AutGroup._walk`` lists them), and whether those ``cap`` are the whole
    group (as ``closure`` says).

    g^t is the identity exactly when it fixes every base point, since only
    the identity fixes the whole base, so the order of g is the lcm of the
    lengths of the g-cycles through the base points alone.  Each run's tail
    factor t is applied lazily, g(x) = prefix[t[x]], and only those cycles
    are traced, dropping g once one is longer than m or of a length not
    dividing m; only a kept element's image tuple is built.  The identity
    alone has order 1, and it is the walk's first element, so m = 1 keeps it
    and m <= 0 keeps nothing, walking nothing.
    """
    if m < 2:
        whole = group._whole(cap)
        return ([Permutation._trusted(tuple(range(group.degree)))] if m == 1 else []), whole
    runs, whole = group._walk(cap)
    base = group.base
    steps = range(1, m + 1)
    kept = []
    for prefix, factors in runs:
        for t in factors:
            order = 1
            for b in base:
                x = b
                for length in steps:
                    x = prefix[t[x]]
                    if x == b:
                        break
                else:
                    break  # the cycle through b is longer than m
                if m % length:
                    break
                order = lcm(order, length)
            else:
                if order == m:
                    kept.append(Permutation._trusted(symmetry._compose(prefix, t)))
    return kept, whole


def cyclic_subgroup_classes(elements, group, m: int):
    """Partition order-m ``elements`` of ``group`` into classes under
    g ~ s g^j s^-1, with s in the group and gcd(j, m) = 1: the conjugacy
    classes of the cyclic subgroups the elements generate.

    The walk is over nodes, not elements.  A node is the part of
    ``elements`` inside one cyclic subgroup H: the first element not yet
    placed and those of its coprime powers listed, all found from one trace
    of its base cycles.  Under a generator s, a node leads to the node
    holding s g s^-1 for its first member g whose conjugate is listed;
    s g^j s^-1 = (s g s^-1)^j, so every listed conjugate of a node's members
    lies in that one node, and the members of a node reach each other by
    coprime powers.  So the classes are those of a walk over the elements
    that conjugates by the generators and takes coprime powers, passing only
    through ``elements``: when they are every order-m element of the group
    each class is exact, otherwise a class may split.  Classes come in the
    order of their first listed member, each listed in input order.  An
    element is known by its base images, so each conjugate and power is
    computed on the base points alone.
    """
    position = {base_images(group, p): i for i, p in enumerate(elements)}
    # (s g s^-1)(b) = s(g(s^-1(b))) for each base point b
    conjugators = [(s.images, [s.inverse()(b) for b in group.base]) for s in group.generators]
    coprime = [j for j in range(2, m) if gcd(j, m) == 1]
    node_of = [None] * len(elements)
    nodes = []
    for i, p in enumerate(elements):
        if node_of[i] is not None:
            continue
        g = p.images
        # g^j(b) lies j steps along the g-cycle through b
        cycles = []
        for b in group.base:
            cycle, x = [b], g[b]
            while x != b:
                cycle.append(x)
                x = g[x]
            cycles.append(cycle)
        powers = (position.get(tuple(c[j % len(c)] for c in cycles)) for j in coprime)
        members = [i, *(k for k in powers if k is not None)]
        n = len(nodes)
        for k in members:
            node_of[k] = n
        nodes.append(members)

    def conjugate_nodes(n):
        found = []
        for s, preimages in conjugators:
            for i in nodes[n]:
                g = elements[i].images
                k = position.get(tuple(s[g[x]] for x in preimages))
                if k is not None:
                    found.append(node_of[k])
                    break
        return found

    return [[elements[i] for i in sorted(i for n in component for i in nodes[n])]
            for component in components(len(nodes), conjugate_nodes)]


def from_cycle_string(n: int, text: str) -> Permutation:
    """The permutation of 0..n-1 that ``Permutation.cycle_string`` wrote
    as ``text``."""
    cycles = [tuple(map(int, c.split())) for c in text.strip("()").split(")(") if c]
    return from_cycles(n, cycles)


def walked_conjecture_classes(X, m: int):
    """The conjecture search's classes as the group walk found them: every
    order-m element of Aut(X) from ``of_order``, split by
    ``cyclic_subgroup_classes``, each class with its element set, whether it
    acts freely, and the quotient row (lift verified, base vertices, base
    edges, sorted stabilizer sizes) of its first member."""
    aut = automorphisms(X)
    elements, whole = of_order(aut, m)
    assert whole
    elements.sort(key=lambda p: p.images)
    rows = []
    for members in cyclic_subgroup_classes(elements, aut, m):
        cvg, rep = voltage.quotient_cyclic(X, members[0])
        rows.append(({p.images for p in members}, acts_freely(members[0], m),
                     (rep.passed, cvg.base.vertex_count, cvg.base.edge_count,
                      sorted(s.size for s in cvg.vertex_groups))))
    return rows
