import random
from functools import reduce
from itertools import islice, product
from math import factorial, prod

import pytest
from hypothesis import given, settings

from token_covers import search, symmetry
from token_covers.algebra import Permutation, Subgroup
from token_covers.graphs import (
    SimpleGraph,
    complete,
    complete_bipartite,
    cycle,
    path,
    srg_parameters,
    star,
)
from token_covers.symmetry import KernelResultError, automorphisms
from token_covers.tokens import johnson, token_graph

from helpers import (
    base_images,
    cosets,
    disjoint_union,
    from_cycles,
    graphs_or_doubles,
    identity,
    intersects,
    is_identity,
    kneser,
    members,
    of_order,
    reference_automorphism_generators,
    relabel,
    rook_4x4,
    shrikhande,
    subgroups,
    translate,
)


def test_cosets_of_3z6():
    H = Subgroup(6, 3)
    assert (H.index, H.size) == (3, 2)
    assert [list(H.members(r)) for r in range(H.index)] == [[0, 3], [1, 4], [2, 5]]
    assert H.members() == H.members(0) == range(0, 6, 3)


def test_trivial_and_full_subgroup_cosets():
    trivial = Subgroup(6, 6)
    assert (trivial.index, trivial.size) == (6, 1)
    assert [list(trivial.members(r)) for r in range(6)] == [[r] for r in range(6)]
    full = Subgroup(6, 1)
    assert (full.index, full.size) == (1, 6)
    assert set(full.members()) == set(range(6))


def test_subgroup_validation():
    with pytest.raises(ValueError):
        Subgroup(6, 4)
    with pytest.raises(ValueError):
        Subgroup(6, 0)
    with pytest.raises(ValueError):
        Subgroup(6, 12)
    with pytest.raises(ValueError):
        Subgroup(0, 1)


def test_coset_translate_examples():
    assert members(translate((6, 3, 0), 1)) == {1, 4}
    assert members(translate((6, 3, 1), 3)) == {1, 4}  # absorbed
    assert members(translate((6, 3, 2), 5)) == {1, 4}
    assert translate((6, 3, 0), 1) == (6, 3, 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_coset_partition(m):
    for H in subgroups(m):
        union = set()
        total = 0
        for r in range(H.index):
            coset = set(H.members(r))
            assert coset == members((m, H.index, r))
            assert not union & coset
            union |= coset
            total += len(coset)
        assert union == set(range(m)) and total == m


@pytest.mark.parametrize("m", range(1, 9))
def test_translate_compatibility(m):
    for H in subgroups(m):
        for K in cosets(m, H.index):
            for a in range(m):
                for b in range(m):
                    assert translate(translate(K, a), b) == translate(K, (a + b) % m)


@pytest.mark.parametrize("m", range(1, 13))
def test_coset_intersection_symmetry(m):
    # (K + v) meets H iff (H - v) meets K, for all subgroup pairs
    subs = subgroups(m)
    for H1 in subs:
        for H2 in subs:
            for K in cosets(m, H1.index):
                for H in cosets(m, H2.index):
                    for v in range(m):
                        assert intersects(translate(K, v), H) == intersects(translate(H, -v), K)


@pytest.mark.parametrize("m", range(1, 13))
def test_intersects_matches_set_oracle(m):
    subs = subgroups(m)
    for H1 in subs:
        for H2 in subs:
            for K in cosets(m, H1.index):
                for H in cosets(m, H2.index):
                    assert intersects(K, H) == bool(members(K) & members(H))


def test_intersects_rejects_mixed_groups():
    with pytest.raises(ValueError):
        intersects((6, 3, 0), (4, 2, 0))


def test_permutation_basics():
    p = from_cycles(5, [(0, 1, 2, 3, 4)])
    assert p.order() == 5
    assert identity(5).order() == 1
    q = from_cycles(5, [(0, 1), (2, 3, 4)])
    assert q.order() == 6
    assert is_identity(p * p.inverse())
    assert p.inverse()(p(3)) == 3
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))
    with pytest.raises(ValueError):
        Permutation((True, False))


def test_permutation_composition_convention():
    # (p * q)(x) = p(q(x))
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    assert (p * q).images == tuple(p(q(x)) for x in range(3))


def test_permutation_orbits_order():
    g = from_cycles(6, [(0, 2, 4), (1, 5)])
    assert g.orbits() == [(0, 2, 4), (1, 5), (3,)]
    assert g.cycles() == [(0, 2, 4), (1, 5)]
    assert g.fixed_points() == [3]
    assert g.cycle_string() == "(0 2 4)(1 5)"


def test_closure_symmetric_group():
    els = set(automorphisms(complete(4)).elements())
    assert len(els) == 24
    # closed under composition and inverse
    assert all(p.inverse() in els for p in els)
    sample = sorted(els, key=lambda p: p.images)[:6]
    assert all((p * q) in els for p in sample for q in sample)


# the smallest graphs with a trivial automorphism group have six vertices
ASYMMETRIC = SimpleGraph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])


def test_closure_empty_and_overflow():
    aut = automorphisms(ASYMMETRIC)
    assert aut.generators == () and aut.base == ()
    elements, whole = aut.closure()
    assert whole and list(elements) == [identity(6)]
    elements, whole = automorphisms(complete(4)).closure(10)
    assert not whole
    assert len(list(elements)) == 10
    # a cap below |Aut(C_6)| = 12 stops the walk and says so
    elements, whole = automorphisms(cycle(6)).closure(3)
    assert not whole
    assert len(list(elements)) == 3
    with pytest.raises(ValueError):
        automorphisms(complete(4)).closure(0)


@pytest.mark.parametrize("n, edges, walk, involutions", [
    (0, [], [()], []),
    (1, [], [(0,)], []),
    (2, [(0, 1)], [(0, 1), (1, 0)], [(1, 0)]),
])
def test_walk_of_the_smallest_graphs(n, edges, walk, involutions):
    """The walk on 0, 1 and 2 vertices, where the base is empty or one
    point and a permutation has at most one image to look up."""
    aut = automorphisms(SimpleGraph(n, edges))
    assert [p.images for p in aut.elements()] == walk
    elements, whole = aut.closure(1)
    assert [p.images for p in elements] == walk[:1] and whole == (len(walk) == 1)
    assert of_order(aut, 1) == ([Permutation(walk[0])], True)
    kept, whole = of_order(aut, 2)
    assert [p.images for p in kept] == involutions and whole


def test_closure_k33_automorphism_order():
    # part permutations plus the part swap: a group of order 2*(3!)^2
    elements, whole = automorphisms(complete_bipartite(3, 3)).closure()
    assert whole and len(set(elements)) == 72


def test_closure_domain_mismatch(monkeypatch):
    """A kernel generator on another vertex set is rejected before any
    chain is built from it."""
    monkeypatch.setattr(search, "automorphism_generators",
                        lambda masks, known=(): [((1, 0, 2), 0)])
    with pytest.raises(KernelResultError):
        automorphisms(complete(4))


@pytest.mark.parametrize("cap", [1, 2, 7, 60, 119, 120, 121])
def test_capped_closure_returns_cap_group_elements(cap):
    aut = automorphisms(complete(5))
    full = set(aut.elements())
    assert len(full) == 120
    elements, whole = aut.closure(cap)
    capped = list(elements)
    assert whole == (cap >= 120)
    assert len(capped) == len(set(capped)) == min(cap, 120)
    assert set(capped) <= full


def test_stabilizer_chain_k33():
    aut = automorphisms(complete_bipartite(3, 3))
    assert aut.order()[0] == prod(aut.orbit_lengths) == 72
    assert aut.base[0] == 0 and aut.orbit_lengths[0] == 6
    elements = list(aut.elements())
    assert elements[0] == identity(6)
    assert len(set(elements)) == 72


def _sympy_group(n, generators):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perms = [combinatorics.Permutation(list(g.images), size=n) for g in generators]
    return combinatorics.PermutationGroup(perms or [combinatorics.Permutation(list(range(n)))])


def _networkx_automorphism_count(X):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(X.vertex_count))
    G.add_edges_from(X.edges)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())


def _circulant(n, steps):
    return SimpleGraph(n, {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps})


def _paley(p):
    squares = {x * x % p for x in range(1, p)}
    return _circulant(p, squares)


# strongly regular graphs with their automorphism group orders
SRG_CORPUS = (
    ("Petersen", kneser(5, 2), 120),
    ("Paley 13", _paley(13), 78),
    ("Paley 17", _paley(17), 136),
    ("Shrikhande", shrikhande(), 192),
    ("4x4 rook's graph", rook_4x4(), 1152),
    ("T(6) = F_2(K_6)", token_graph(complete(6), 2), 720),
)


@pytest.mark.parametrize("name, X, order", SRG_CORPUS, ids=[c[0] for c in SRG_CORPUS])
def test_chain_order_on_strongly_regular_graphs(name, X, order):
    """The closed-form order, sympy's order on the kernel's generators, and
    for the relabelled double, the order of the wreath product."""
    assert srg_parameters(X) is not None
    aut = automorphisms(X)
    assert aut.order() == (order, True)
    assert _sympy_group(X.vertex_count, aut.generators).order() == order
    images = list(range(X.vertex_count))
    random.Random(name).shuffle(images)
    double = disjoint_union(X, relabel(X, images))
    aut = automorphisms(double)
    assert aut.order() == (2 * order * order, True)
    assert _sympy_group(double.vertex_count, aut.generators).order() == 2 * order * order


# every group named in this file with at most 10^4 elements, among them the
# trivial group (empty base) and Aut(P_3) (a one-point base)
SMALL_GROUPS = (
    ("asymmetric", ASYMMETRIC),
    ("P_3", path(3)),
    ("C_6", cycle(6)),
    ("K_4", complete(4)),
    ("K_5", complete(5)),
    ("K_33", complete_bipartite(3, 3)),
    *((name, X) for name, X, _ in SRG_CORPUS),
)


def test_small_groups_include_empty_and_one_point_bases():
    assert {len(automorphisms(X).base) for _, X in SMALL_GROUPS} >= {0, 1}


def _sympy_element_order(p):
    """The least t >= 1 with p^t the identity, in sympy's arithmetic (its
    ``order`` reads the same off a cycle form that is far slower to build)."""
    q, t = p, 1
    while not q.is_Identity:
        q, t = q * p, t + 1
    return t


def test_element_order_matches_sympy_on_aut_f5_star9():
    """The first 6,400 elements of the walk of Aut F_5(K_{1,9}) (order
    2 * 9!), among them its first order-18 ones: for every m, ``of_order``
    keeps those whose order in sympy is m."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    aut = automorphisms(token_graph(star(9), 5))
    assert aut.order()[0] == 2 * factorial(9)
    cap = 6400
    walked = list(islice(aut.elements(), cap))
    orders = [_sympy_element_order(combinatorics.Permutation(list(p.images))) for p in walked]
    assert 18 in orders
    for m in range(1, 19):
        kept, whole = of_order(aut, m, cap)
        assert not whole
        assert kept == [p for p, o in zip(walked, orders) if o == m]


# Aut F_k(K_{1,n}) for the (n, k) of the conjecture searches' smaller cases
STAR_TOKEN_GROUPS = tuple((f"F_{k}(K_1,{n})", token_graph(star(n), k))
                          for n, k in ((5, 2), (5, 3), (7, 2), (7, 4)))


@pytest.mark.parametrize("name, X", SMALL_GROUPS + STAR_TOKEN_GROUPS,
                         ids=[g[0] for g in SMALL_GROUPS + STAR_TOKEN_GROUPS])
def test_base_images_and_element_order_on_the_whole_walk(name, X):
    """Base images tell every element of the walk apart, and for every m in
    1..18 and caps on both sides of 1,000 and of |G|, ``of_order``, which
    reads each order off the base points' cycles, is the walk's first
    ``cap`` elements filtered by their order traced over every point, in
    walk order, with ``closure``'s flag."""
    aut = automorphisms(X)
    elements = list(aut.elements())
    keys = [base_images(aut, p) for p in elements]
    assert all(type(k) is tuple and len(k) == len(aut.base) for k in keys)
    size = len(elements)
    assert len(set(keys)) == size == aut.order()[0]
    orders = [p.order() for p in elements]
    for cap in sorted({1, 2, 3, 999, 1001, max(size - 1, 1), size, size + 1}):
        assert of_order(aut, 1, cap)[1] == aut.closure(cap)[1] == (cap >= size)
        for m in range(1, 19):
            kept, _ = of_order(aut, m, cap)
            assert kept == [p for p, o in zip(elements[:cap], orders) if o == m]
            assert all(type(p.images) is tuple for p in kept)


def test_of_order_on_the_empty_base_and_a_bad_cap():
    aut = automorphisms(ASYMMETRIC)
    assert aut.base == ()
    assert of_order(aut, 1) == ([identity(6)], True)
    assert of_order(aut, 2) == ([], True)
    # no element has an order below 1
    assert of_order(automorphisms(complete(4)), 0) == ([], True)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be positive"):
            of_order(automorphisms(complete(4)), 2, cap)


def test_of_order_1_stops_at_the_walks_first_element(monkeypatch):
    """Only the identity has order 1, and the walk starts with it: m = 1
    composes the one chain of prefixes down to it, not the prefixes of all
    10,080 elements of Aut F_4(K_{1,7}), and m <= 0 composes none."""
    aut = automorphisms(token_graph(star(7), 4))
    assert aut.orbit_lengths  # the transversals, built before counting
    compose = symmetry._compose
    calls = []
    monkeypatch.setattr(symmetry, "_compose", lambda p, q: calls.append(1) or compose(p, q))
    for m, cap, expected in ((1, 10080, ([identity(aut.degree)], True)),
                             (1, 1, ([identity(aut.degree)], False)),
                             (0, 10080, ([], True)), (-1, 1, ([], False))):
        calls.clear()
        assert of_order(aut, m, cap) == expected
        assert len(calls) <= (len(aut.base) + 1 if m == 1 else 0)


# the walk's precomposed tail is one level of Aut C_6 (orbit lengths 6, 2),
# four of the six of Aut F_4(K_{1,7}) (70, 4, 3, 2, 3, 2), and the whole
# chain of Aut(P_2 + P_3 + P_4) = Z_2^3, of order 8 on 9 points
TAIL_GROUPS = (
    ("C_6", cycle(6), 1),
    ("F_4(K_1,7)", token_graph(star(7), 4), 4),
    ("P_2+P_3+P_4", disjoint_union(disjoint_union(path(2), path(3)), path(4)), 3),
)


@pytest.mark.parametrize("name, X, tail_levels", TAIL_GROUPS, ids=[g[0] for g in TAIL_GROUPS])
def test_walk_is_the_product_of_the_transversals_level_0_slowest(name, X, tail_levels):
    """``elements``, ``closure`` and ``of_order`` follow the products
    u_0 * ... * u_{k-1} that ``itertools.product`` lists over the
    transversals, level 0 slowest, with caps below one tail run, inside a
    run, at a run boundary and at |G| - 1, |G| and |G| + 1."""
    aut = automorphisms(X)
    head, tail = aut._tail
    assert len(aut._transversals) - len(head) == tail_levels
    identity_images = tuple(range(aut.degree))
    reference = [reduce(lambda p, u: tuple(p[y] for y in u), factors, identity_images)
                 for factors in product(*aut._transversals)]
    size, run = len(reference), len(tail)
    assert [p.images for p in aut.elements()] == reference
    orders = [Permutation(g).order() for g in reference]
    caps = {max(run - 1, 1), run + run // 2, 2 * run, size - 1, size, size + 1}
    for cap in sorted(c for c in caps if c >= 1):
        elements, whole = aut.closure(cap)
        assert [p.images for p in elements] == reference[:cap]
        assert whole == (cap >= size)
        for m in sorted(set(orders)):
            kept, whole = of_order(aut, m, cap)
            assert [p.images for p in kept] == [g for g, o in zip(reference[:cap], orders) if o == m]
            assert whole == (cap >= size)


def test_of_order_counts_match_sympy_on_aut_f4_star7():
    """Per m, the number of order-m elements of Aut F_4(K_{1,7}) that
    ``of_order`` keeps is the number in sympy's own enumeration."""
    aut = automorphisms(token_graph(star(7), 4))
    group = _sympy_group(aut.degree, aut.generators)
    counts = {}
    for p in group.generate():
        order = _sympy_element_order(p)
        counts[order] = counts.get(order, 0) + 1
    assert sum(counts.values()) == 10080
    for m in range(1, max(counts) + 2):
        kept, whole = of_order(aut, m)
        assert whole and len(kept) == counts.get(m, 0)


@settings(max_examples=150, deadline=None)
@given(graphs_or_doubles(max_vertices=10))
def test_chain_order_matches_sympy(X):
    """The group's order is sympy's order of the group the kernel's
    generators generate, and on at most 8 vertices the number of
    self-isomorphisms networkx counts."""
    aut = automorphisms(X)
    order = aut.order()[0]
    assert order == _sympy_group(X.vertex_count, aut.generators).order()
    if X.vertex_count <= 8:
        assert order == _networkx_automorphism_count(X)


# at most 7 vertices keeps sympy's enumeration of S_n at 5040 elements
@settings(max_examples=60, deadline=None)
@given(graphs_or_doubles(max_vertices=7).filter(lambda X: X.vertex_count <= 7))
def test_closure_elements_match_sympy(X):
    aut = automorphisms(X)
    expected = {tuple(p.array_form) for p in _sympy_group(X.vertex_count, aut.generators).generate()}
    walked = [p.images for p in aut.elements()]
    assert len(walked) == aut.order()[0]
    assert aut.orbit_lengths == tuple(len(level) for level in aut._transversals)
    assert set(walked) == expected


def _seeded_graphs():
    """Every fifth graph of networkx's atlas on 2..7 vertices (Read & Wilson,
    *An Atlas of Graphs*, 1998), then token graphs with large groups."""
    nx = pytest.importorskip("networkx")
    graphs = [SimpleGraph(G.number_of_nodes(), G.edges())
              for G in nx.graph_atlas_g()[2::5]]
    graphs += [token_graph(X, k) for X, k in (
        (complete(6), 2), (complete(6), 3), (cycle(8), 3), (star(5), 3), (star(7), 4),
        (complete_bipartite(3, 3), 2), (path(6), 3))]
    return graphs


def test_seeded_search_proves_the_same_group():
    """Seeded with random products of a graph's own verified generators, the
    search proves the group it proves unseeded: the same order, which is
    sympy's order of the seeded generators.  Unseeded (``known=()``), the
    kernel's generators are the lockstep reference's.  Some seeds prune:
    they are returned among the generators."""
    used = 0
    for i, X in enumerate(_seeded_graphs()):
        adj = X.adjacency_masks
        assert search.automorphism_generators(adj, ()) == reference_automorphism_generators(adj)
        plain = automorphisms(X)
        gens = plain.generators or (identity(X.vertex_count),)
        rng = random.Random(i)
        known = [reduce(Permutation.__mul__, rng.choices(gens, k=rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 4))]
        seeded = automorphisms(X, known)
        assert seeded.order() == plain.order()
        assert _sympy_group(X.vertex_count, seeded.generators).order() == plain.order()[0]
        used += any(g in known for g in seeded.generators)
    assert used > 100


def test_seeded_search_rechecks_its_seeds():
    """P_4's first path individualizes vertex 0 alone.  A seed that is no
    automorphism and moves 0 merges orbits, so it is returned and fails the
    re-check; one that fixes 0 is dropped and changes nothing.  A seed on
    another vertex set is rejected before the search."""
    X = path(4)
    with pytest.raises(KernelResultError, match="invalid generator"):
        automorphisms(X, [from_cycles(4, [(0, 1)])])
    seeded = automorphisms(X, [from_cycles(4, [(1, 2)])])
    assert (seeded.generators, seeded.base) == (automorphisms(X).generators, (0,))
    with pytest.raises(ValueError, match="permute the graph's vertices"):
        automorphisms(X, [identity(5)])


def test_closed_form_orders_past_the_old_closure():
    assert automorphisms(token_graph(complete(9), 2)).order() == (factorial(9), True)
    assert automorphisms(johnson(8, 4)).order() == (2 * factorial(8), True)


def test_closure_elements_are_valid_automorphisms():
    """The walk wraps its products without re-validating them, so check
    every element here: a permutation of the vertex set that maps the
    edges onto the edges and compares equal to its validated twin."""
    X = token_graph(star(7), 4)
    edges = set(X.edges)
    n = X.vertex_count
    elements, whole = automorphisms(X).closure()
    assert whole
    walked = 0
    for p in elements:
        walked += 1
        assert type(p.images) is tuple and len(p.images) == n
        assert all(type(x) is int for x in p.images)
        assert sorted(p.images) == list(range(n))
        assert {(min(p.images[u], p.images[v]), max(p.images[u], p.images[v]))
                for u, v in edges} == edges
        assert Permutation(list(p.images)) == p
        assert hash(Permutation(list(p.images))) == hash(p)
    assert walked == 10080
