import random
import sys
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_covers import search, symmetry
from token_covers.algebra import Permutation
from token_covers.cli import main
from token_covers.graphs import (
    SimpleGraph,
    complete,
    complete_bipartite,
    cycle,
    family_size,
    is_connected,
    make_family,
    path,
    star,
)
from token_covers.symmetry import (
    KernelResultError,
    automorphisms,
    edge_orbits,
    is_automorphism,
    is_edge_transitive,
    is_isomorphic,
    is_vertex_transitive,
    vertex_orbits,
    zz_check,
    zz_checks,
)
from token_covers.tokens import induced_token_permutation, token_graph

from helpers import (
    automorphisms_by_matching,
    brute_force_automorphisms,
    brute_force_isomorphism,
    disjoint_union,
    edge_orbit_count,
    free_actions,
    graph_pairs,
    is_identity,
    kneser,
    random_simple_graph,
    relabel,
    simple_graphs,
    zz_reference,
)


def test_aut_order_k4():
    assert automorphisms(complete(4)).order() == (24, True)


def test_aut_order_k23():
    assert automorphisms(complete_bipartite(2, 3)).order() == (12, True)


def test_aut_order_c6_vs_brute_force():
    oracle = len(brute_force_automorphisms(cycle(6)))
    assert oracle == 12
    assert automorphisms(cycle(6)).order() == (12, True)


def test_generators_are_automorphisms():
    for g in (cycle(7), token_graph(star(4), 2), complete_bipartite(3, 4)):
        aut = automorphisms(g)
        assert all(is_automorphism(g, p) for p in aut.generators)
        assert not any(is_identity(p) for p in aut.generators)


def test_automorphisms_deterministic():
    a = automorphisms(token_graph(complete(5), 2)).generators
    b = automorphisms(token_graph(complete(5), 2)).generators
    assert a == b


def test_aut_past_200_vertices_takes_no_cap():
    """|Aut F_2(K_21)| = 21! on its 210 vertices: the search has no cap."""
    assert automorphisms(token_graph(complete(21), 2)).order()[0] == factorial(21)


def test_isomorphic_through_a_first_path_past_the_recursion_limit():
    """K_{1,1100}'s first path individualizes 1,099 leaves, one level each,
    deeper than the default recursion limit: the search walks a stack,
    so it still returns a witness."""
    X = star(1100)
    witness = is_isomorphic(X, X)
    assert witness is not None
    assert symmetry.maps_edges_into(X, X.adjacency_masks, witness.images)


def test_automorphisms_deeper_than_a_lowered_recursion_limit():
    """|Aut K_{1,200}| = 200! with the recursion limit lowered to 120, below
    the depth of the first path (199 leaves individualized one level at a
    time) and of the sibling search at its root."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        order = automorphisms(star(200)).order()[0]
    finally:
        sys.setrecursionlimit(limit)
    assert order == factorial(200)


def test_edge_transitive_families():
    assert is_edge_transitive(complete_bipartite(3, 5))
    assert is_edge_transitive(complete(6))
    assert is_edge_transitive(token_graph(complete(6), 2))
    assert not is_edge_transitive(path(4))
    assert len(edge_orbits(path(4))) == 2


def test_vertex_orbits_bipartition():
    orbits = vertex_orbits(complete_bipartite(3, 5))
    assert orbits == [[0, 1, 2], [3, 4, 5, 6, 7]]
    assert not is_vertex_transitive(complete_bipartite(3, 5))
    assert is_vertex_transitive(complete_bipartite(4, 4))


def test_token_star_orbits():
    F = token_graph(star(4), 2)
    assert not is_vertex_transitive(F)
    assert sorted(len(o) for o in vertex_orbits(F)) == [4, 6]


def test_two_orbit_rule_for_edge_transitive_not_vertex_transitive():
    for g in (complete_bipartite(2, 3), star(5), token_graph(star(4), 2)):
        assert is_edge_transitive(g)
        assert not is_vertex_transitive(g)
        assert len(vertex_orbits(g)) == 2


def test_isomorphic_petersen_complement():
    assert is_isomorphic(token_graph(complete(5), 2), kneser(5, 2)) is None
    witness = is_isomorphic(token_graph(complete(5), 2),
                            SimpleGraph(10, _complement_edges(kneser(5, 2))))
    assert witness is not None


def _complement_edges(g):
    n = g.vertex_count
    return [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]


def test_isomorphic_rejects_an_invalid_witness(monkeypatch):
    """A kernel witness that is a bijection but maps an edge onto a
    non-edge fails the re-check: C_6 onto a relabelled C_6 under the
    identity."""
    X = cycle(6)
    Y = relabel(X, [0, 2, 4, 1, 3, 5])
    monkeypatch.setattr(search, "isomorphism_witness", lambda a, b: tuple(range(6)))
    with pytest.raises(KernelResultError):
        is_isomorphic(X, Y)


def test_isomorphic_negative_degree_mismatch():
    assert is_isomorphic(cycle(6), complete_bipartite(3, 3)) is None


def test_isomorphic_matches_brute_force():
    rng = random.Random(7)
    pairs = [
        (cycle(6), complete_bipartite(3, 3)),
        (cycle(6), disjoint_union(cycle(3), cycle(3))),
        (path(4), star(3)),
        (complete(4), complete(4)),
        (token_graph(complete(4), 2), johnson_4_2_relabeled()),
    ]
    for _ in range(12):
        n = rng.randint(2, 8)
        a = random_simple_graph(rng, n, 0.5)
        images = list(range(n))
        rng.shuffle(images)
        pairs.append((a, relabel(a, images)))
        pairs.append((a, random_simple_graph(rng, n, 0.5)))
    for a, b in pairs:
        fast = is_isomorphic(a, b)
        slow = brute_force_isomorphism(a, b)
        assert (fast is None) == (slow is None)
        if fast is not None:
            mapped = {tuple(sorted((fast(u), fast(v)))) for u, v in a.edges}
            assert mapped == set(b.edges)


@settings(max_examples=150, deadline=None)
@given(simple_graphs(max_vertices=8))
def test_orbits_are_the_orbits_of_every_element(X):
    """Vertex and edge orbits, lists and order included, against the
    images of each vertex and edge under every element of Aut(X)."""
    aut = automorphisms(X)
    elements = list(aut.elements())
    vertex = {tuple(sorted({g(v) for g in elements})) for v in range(X.vertex_count)}
    assert vertex_orbits(X, aut.generators) == [list(o) for o in sorted(vertex)]
    edge = {tuple(sorted({tuple(sorted((g(u), g(v)))) for g in elements}))
            for u, v in X.edges}
    assert edge_orbits(X, aut.generators) == [list(o) for o in sorted(edge)]


def _networkx(nx, X):
    G = nx.Graph()
    G.add_nodes_from(range(X.vertex_count))
    G.add_edges_from(X.edges)
    return G


def _maps_edges_onto(witness, X, Y):
    return {(min(witness(u), witness(v)), max(witness(u), witness(v)))
            for u, v in X.edges} == set(Y.edges)


@settings(max_examples=150, deadline=None)
@given(simple_graphs(), st.data())
def test_isomorphic_to_relabelling(X, data):
    Y = relabel(X, data.draw(st.permutations(range(X.vertex_count))))
    witness = is_isomorphic(X, Y)
    assert witness is not None and _maps_edges_onto(witness, X, Y)


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_isomorphic_agrees_with_networkx(pair):
    nx = pytest.importorskip("networkx")
    X, Y = pair
    witness = is_isomorphic(X, Y)
    assert (witness is not None) == nx.is_isomorphic(_networkx(nx, X), _networkx(nx, Y))
    if witness is not None:
        assert _maps_edges_onto(witness, X, Y)


def johnson_4_2_relabeled():
    from token_covers.tokens import johnson

    g = johnson(4, 2)
    images = [3, 1, 4, 0, 5, 2]
    return relabel(g, images)


def test_free_actions_hexagon():
    # the two rotations of order 6; the reflections have fixed points or 2-cycles
    found = free_actions(cycle(6), 6)
    assert [g.images for g in found] == [(1, 2, 3, 4, 5, 0), (5, 0, 1, 2, 3, 4)]
    for g in found:
        assert g.order() == 6
        assert all(len(c) == 6 for c in g.orbits())


def test_free_actions_star_empty():
    # every automorphism of K_{1,3} fixes the centre
    assert free_actions(star(3), 2) == []


def test_free_actions_divisibility_short_circuit():
    # cycles of length 4 cannot partition 6 vertices
    assert free_actions(cycle(6), 4) == []


def test_free_actions_rejects_trivial_order():
    with pytest.raises(ValueError):
        free_actions(cycle(6), 1)


def test_zz_complete_instances():
    for k in (2, 3, 4):
        rep = zz_check("complete", (5,), k)
        assert rep.passed and rep.find("predicted_edge_transitive")


def test_zz_bipartite_instance():
    rep = zz_check("complete_bipartite", (2, 4), 3)
    assert rep.passed and rep.find("predicted_edge_transitive")


def test_zz_bipartite_negative_instances():
    # bipartite families away from the classified (2, k) and (n, n) cases
    rep = zz_check("complete_bipartite", (2, 3), 2)
    assert rep.passed and not rep.find("predicted_edge_transitive")
    rep = zz_check("complete_bipartite", (3, 5), 3)
    assert rep.passed and not rep.find("computed_edge_transitive")


def test_zz_negative_controls():
    rep = zz_check("path", (4,), 2)
    assert rep.passed and not rep.find("predicted_edge_transitive")
    rep = zz_check("cycle", (5,), 2)
    assert rep.passed and not rep.find("computed_edge_transitive")


def test_zz_reduction_to_base_graph():
    # F_1 and F_{|V|-1} are the graph itself
    rep = zz_check("complete", (4,), 1)
    assert rep.passed and rep.find("predicted_edge_transitive")
    rep = zz_check("path", (4,), 3)
    assert rep.passed and not rep.find("predicted_edge_transitive")


def test_zz_small_cycle_coincidences():
    # C_4 = K_{2,2}: its 2-token graph is edge-transitive
    rep = zz_check("cycle", (4,), 2)
    assert rep.passed and rep.find("predicted_edge_transitive")
    rep = zz_check("path", (3,), 2)
    assert rep.passed and rep.find("predicted_edge_transitive")


def test_zz_bad_k():
    with pytest.raises(ValueError):
        zz_check("complete", (4,), 5)


CLASSIFIED = ("complete", "star", "complete_bipartite")


def classified_as(X):
    """``_classification_family(X)``, or None for a graph of no listed family."""
    name, params = symmetry._classification_family(X)
    return (name, params) if name in CLASSIFIED else None


@pytest.mark.parametrize("X, family", [
    (complete(1), ("complete", (1,))),
    (complete(2), ("complete", (2,))),
    (complete(3), ("complete", (3,))),
    (path(3), ("star", (2,))),
    (cycle(4), ("complete_bipartite", (2, 2))),
    (star(5), ("star", (5,))),
    (complete_bipartite(5, 1), ("star", (5,))),
    (complete_bipartite(2, 5), ("complete_bipartite", (2, 5))),
    (complete_bipartite(3, 3), ("complete_bipartite", (3, 3))),
    (complete_bipartite(5, 3), ("complete_bipartite", (3, 5))),
    (path(4), None),
    (cycle(5), None),
    # biregular with side degrees (2, 2) and (3, 3), but 6 and 12 edges, not 4 and 9
    (cycle(6), None),
    (SimpleGraph(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1]),
     None),
    (SimpleGraph(5, [e for e in complete(5).edges if e != (0, 1)]), None),
], ids=["K1", "K2", "K3", "P3", "C4", "K1,5", "K5,1", "K2,5", "K3,3", "K5,3", "P4", "C5",
        "C6", "cube", "K5-e"])
def test_classification_family_is_read_off_the_graph(X, family):
    assert classified_as(X) == family


@pytest.mark.parametrize("tags, ks", [
    (["path:3", "star:2", "complete_bipartite:1:2", "complete_bipartite:2:1"], range(1, 3)),
    (["cycle:3", "complete:3"], range(1, 3)),
    (["cycle:4", "complete_bipartite:2:2"], range(1, 4)),
    (["complete_bipartite:3:5", "complete_bipartite:5:3"], range(1, 8)),
    (["complete_bipartite:1:6", "star:6"], range(1, 7)),
    (["path:2", "star:1", "complete:2", "complete_bipartite:1:1"], [1]),
])
def test_zz_prediction_does_not_depend_on_the_tag(tags, ks):
    """Tags that name one graph get one prediction, result and rule per k."""
    labels = ("predicted_edge_transitive", "computed_edge_transitive", "rule")
    seen = set()
    for tag in tags:
        family, *params = tag.split(":")
        reports = zz_checks(family, tuple(map(int, params)), ks)
        seen.add(tuple(tuple(r.find(label) for label in labels) for r in reports))
    assert len(seen) == 1


def test_classification_matches_the_atlas():
    """Every connected graph of networkx's atlas (Read & Wilson, *An Atlas
    of Graphs*, 1998) on 2..7 vertices, 995 graphs: its family is the one
    networkx's isomorphism test finds among K_n and K_{a,b}, and for every
    k, 5,785 pairs, ``zz``'s prediction is whether F_k is edge-transitive.
    On the 3,796 pairs with 2 <= k <= |V| - 2, the group Aut(X) induces
    (``zz``'s certificate) has one edge orbit exactly when Aut(F_k) does:
    all 24 edge-transitive F_k are certified.  Of the other 3,772, colour
    refinement separates 2,915: its edge colour pairs, never more than a
    search's edge orbits, are as many as the induced group's orbits, so
    those are Aut(F_k)'s.  ``zz`` searches the remaining 857, among them
    the 2 (C_6 with a long chord, k = 2 and 4) where the induced group has
    more orbits than Aut(F_k), so its count would be wrong there."""
    nx = pytest.importorskip("networkx")
    graphs = pairs = middle = certified = separated = 0
    searched, coarser = set(), set()
    disagreements = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n < 2 or not nx.is_connected(G):
            continue
        graphs += 1
        X = SimpleGraph(n, G.edges())
        expected = None
        if nx.is_isomorphic(G, nx.complete_graph(n)):
            expected = ("complete", (n,))
        else:
            for a in range(1, n // 2 + 1):
                if nx.is_isomorphic(G, nx.complete_bipartite_graph(a, n - a)):
                    expected = ("star", (n - 1,)) if a == 1 else ("complete_bipartite", (a, n - a))
        family = symmetry._classification_family(X)
        if classified_as(X) != expected:
            disagreements.append((sorted(G.edges()), family, expected))
        base = automorphisms(X).generators
        for k in range(1, n):
            pairs += 1
            F = token_graph(X, k)
            orbits = len(edge_orbits(F))
            predicted = (len(edge_orbits(X, base)) <= 1 if k in (1, n - 1)
                         else symmetry._in_classification(*family, k))
            if predicted != (orbits <= 1):
                disagreements.append((sorted(G.edges()), k, predicted))
            if 2 <= k <= n - 2:
                middle += 1
                induced = len(edge_orbits(F, symmetry._token_action(base, n, k, F)))
                colour_pairs = symmetry.edge_colour_pairs(F)
                case = (tuple(sorted(G.edges())), k)
                if (induced <= 1) != (orbits <= 1) or colour_pairs > orbits:
                    disagreements.append((*case, "certificate", induced, colour_pairs))
                if induced <= 1:
                    certified += 1
                elif colour_pairs == induced:
                    separated += 1
                    if colour_pairs != orbits:
                        disagreements.append((*case, "separated", colour_pairs, orbits))
                else:
                    searched.add(case)
                if induced > orbits:
                    coarser.add(case)
    assert (graphs, pairs) == (995, 5785)
    assert disagreements == []
    assert (middle, certified, separated, len(searched)) == (3796, 24, 2915, 857)
    assert len(coarser) == 2 and coarser <= searched
    # F_3(K_{2,4}) needs complementation: Aut(K_{2,4}) alone leaves two orbits
    X = complete_bipartite(2, 4)
    F = token_graph(X, 3)
    base = automorphisms(X).generators
    assert len(edge_orbits(F, [induced_token_permutation(g, 3) for g in base])) == 2
    assert len(edge_orbits(F, symmetry._token_action(base, 6, 3, F))) == 1


@settings(max_examples=40, deadline=None)
@given(simple_graphs(min_vertices=2, max_vertices=8).filter(is_connected))
def test_complementation_reverses_token_vertex_order(X):
    """F_1 is X, vertex i of F_k is the complement of the last-but-i vertex
    of F_{n-k}, and F_k's generators reversed generate Aut(F_{n-k}): they
    are automorphisms with the orbits of F_{n-k}'s own search."""
    n = X.vertex_count
    assert token_graph(X, 1).edges == X.edges
    for k in range(1, n):
        subsets = list(combinations(range(n), k))
        mirrored = list(combinations(range(n), n - k))
        assert [tuple(sorted(set(range(n)) - set(s))) for s in subsets] == mirrored[::-1]
        F = token_graph(X, k)
        G = token_graph(X, n - k)
        carried = symmetry._reversed(automorphisms(F).generators, G.vertex_count)
        assert all(is_automorphism(G, h) for h in carried)
        assert edge_orbits(G, carried) == edge_orbits(G)


@settings(max_examples=40, deadline=None)
@given(simple_graphs(min_vertices=4, max_vertices=7).filter(is_connected), st.data())
def test_reversed_induced_action_is_the_mirror_induced_action(X, data):
    """The group Aut(X) induces on F_k, reversed, is the one it induces on
    F_{n-k}, generator for generator: g sends V minus A to V minus g(A),
    and complementation reverses the vertex order.  So a mirror F_{n-k}
    loses nothing by taking F_k's induced generators reversed."""
    n = X.vertex_count
    k = data.draw(st.integers(2, n - 2))
    gens = automorphisms(X).generators
    F, G = token_graph(X, k), token_graph(X, n - k)
    assert (symmetry._reversed(symmetry._token_action(gens, n, k, F), F.vertex_count)
            == symmetry._token_action(gens, n, n - k, G))


# the ``symmetry`` benchmark ranges and four more with their mirrors
ZZ_RANGES = [
    ("complete", (6,), range(1, 6)),
    ("star", (6,), range(1, 6)),
    ("complete_bipartite", (2, 6), range(1, 8)),
    ("complete_bipartite", (3, 3), range(1, 6)),
    ("complete", (8,), range(2, 5)),
    ("star", (8,), range(2, 8)),
    ("path", (6,), range(1, 6)),
    ("cycle", (6,), range(1, 6)),
    ("complete_bipartite", (3, 5), range(1, 8)),
    ("path", (7,), range(1, 7)),
    ("cycle", (8,), range(1, 8)),
    ("cycle", (9,), range(1, 9)),
]

# the F_k, by vertex count, that a range searches after X, one per pair
# {k, |V| - k} neither certified nor separated: only F_3(C_9), whose mirror
# F_6 takes its generators reversed
SEARCHED_TOKEN_GRAPHS = {("cycle", (9,)): [84]}


@pytest.mark.parametrize("family, params, ks", ZZ_RANGES)
def test_zz_checks_match_one_search_per_k(family, params, ks, monkeypatch):
    """A range's reports are those of a search on every F_k, from one
    search on the base graph X (F_1), first, and one per pair {k, |V| - k},
    2 <= k <= |V| - 2, that is neither certified nor separated: an
    edge-transitive F_k is certified by the group Aut(X) induces on it, and
    an F_k whose edge colour pairs are as many as that group's edge orbits
    is separated, both with no search.  That group is built once per such
    pair the range reaches: the mirror takes its generators reversed."""
    calls, induced = [], []
    kernel, token_action = search.automorphism_generators, symmetry._token_action

    def counted(adj, known=()):
        calls.append(len(adj))
        return kernel(adj, known)

    def counted_action(generators, n, k, F):
        induced.append(k)
        return token_action(generators, n, k, F)

    monkeypatch.setattr(search, "automorphism_generators", counted)
    monkeypatch.setattr(symmetry, "_token_action", counted_action)
    reports = zz_checks(family, params, ks)
    n_x, _ = family_size(family, *params)
    assert calls == [n_x, *SEARCHED_TOKEN_GRAPHS.get((family, params), [])]
    assert sorted(min(k, n_x - k) for k in induced) == sorted(
        {min(k, n_x - k) for k in ks if 2 <= k <= n_x - 2})
    assert [r.to_json() for r in reports] == [zz_reference(family, params, k).to_json()
                                             for k in ks]


@pytest.mark.parametrize("family, params, ks", ZZ_RANGES)
def test_zz_reports_do_not_depend_on_the_order_of_ks(family, params, ks):
    """``ks`` in reverse, or one k at a time, gives the range's reports,
    though each k may then take another route: in reverse, F_{|V|-1} takes
    X's generators reversed and a pair's higher k is the one certified,
    separated or searched; alone, no k finds its mirror in the table."""
    expected = [r.to_json() for r in zz_checks(family, params, ks)]
    assert [r.to_json() for r in zz_checks(family, params, ks[::-1])] == expected[::-1]
    assert [zz_checks(family, params, [k])[0].to_json() for k in ks] == expected


@pytest.mark.parametrize("family, params, ks", [
    ("path", (7,), range(1, 7)),
    ("complete_bipartite", (2, 6), range(1, 8)),
    ("cycle", (9,), range(1, 9)),
])
def test_zz_checks_disagreement_witnesses_match(family, params, ks, monkeypatch):
    """With the classification negated, the failing reports name the least
    edges of the first two edge orbits, on separated pairs and on reversed
    generators, induced (F_5(C_9)) or searched (F_6(C_9)), too."""
    rule = symmetry._in_classification
    monkeypatch.setattr(symmetry, "_in_classification", lambda *args: not rule(*args))
    reports = zz_checks(family, params, ks)
    n_x, _ = family_size(family, *params)
    # k > |V| - k: F_k takes F_{|V|-k}'s generators reversed
    assert any(e.label == "disagreement" and isinstance(e.value, list)
               for k, r in zip(ks, reports) if n_x - k < k for e in r.evidence)
    assert [r.to_json() for r in reports] == [zz_reference(family, params, k).to_json()
                                             for k in ks]


def assert_zz_fails_on_a_broken_generator(family, params, ks, tmp_path, capsys):
    """``zz_checks`` raises KernelResultError, and ``zz`` exits 1 with
    nothing written."""
    with pytest.raises(KernelResultError):
        zz_checks(family, params, ks)
    out = tmp_path / "out"
    tag = ":".join([family, *map(str, params)])
    assert main(["zz", "--family", tag, "--k", f"{ks[0]}..{ks[-1]}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def swap_first_and_last(h):
    return Permutation((h.images[-1], *h.images[1:-1], h.images[0]))


def test_zz_checks_rejects_a_broken_reversal(tmp_path, monkeypatch, capsys):
    """A reversed generator that is not an automorphism ends the check,
    whether it was searched or induced.  Colour refinement does not
    separate F_3(C_9), so F_3 is searched and F_6 takes its generators
    reversed; swapping the first and last vertex of F_6, the arcs {0..5}
    and {3..8}, whose neighbourhoods differ, breaks every one.  F_4 is
    separated, so in the range 3..6 F_5 first takes F_4's induced
    generators reversed, and the same swap breaks them."""
    reverse = symmetry._reversed
    monkeypatch.setattr(symmetry, "_reversed", lambda generators, degree: [
        swap_first_and_last(h) for h in reverse(generators, degree)])
    for ks in ([3, 6], [4, 5]):
        with pytest.raises(KernelResultError):
            zz_checks("cycle", (9,), ks)
    assert_zz_fails_on_a_broken_generator("cycle", (9,), range(3, 7), tmp_path, capsys)


def test_zz_checks_rejects_a_broken_induced_generator(tmp_path, monkeypatch, capsys):
    """An automorphism of X whose action on F_k is not an automorphism of
    F_k ends the check.  Swapping the first and last vertex of F_k(K_{1,8})
    (one holds the centre, the other not: degrees 9 - k and k) breaks every
    induced generator."""
    induced = symmetry.induced_token_permutation
    monkeypatch.setattr(symmetry, "induced_token_permutation",
                        lambda p, k: swap_first_and_last(induced(p, k)))
    assert_zz_fails_on_a_broken_generator("star", (8,), range(2, 8), tmp_path, capsys)


@settings(max_examples=60, deadline=None)
@given(simple_graphs(min_vertices=2, max_vertices=6).filter(is_connected), st.data())
def test_edge_colour_pairs_are_label_free_and_bound_the_edge_orbits(X, data):
    """On a connected X and a token graph F_k of it (at most 20 vertices):
    relabelling F_k at random keeps its edge colour-pair count, and the
    count never exceeds the edge orbits of Aut(F_k), which networkx's
    matcher lists whole, independent of the search kernel."""
    F = token_graph(X, data.draw(st.integers(1, X.vertex_count - 1)))
    pairs = symmetry.edge_colour_pairs(F)
    images = data.draw(st.permutations(range(F.vertex_count)))
    assert symmetry.edge_colour_pairs(relabel(F, images)) == pairs
    assert pairs <= edge_orbit_count(F, automorphisms_by_matching(F))


@pytest.mark.parametrize("family, params", [
    ("complete", (5,)), ("star", (4,)), ("star", (5,)), ("path", (6,)), ("cycle", (6,)),
    ("complete_bipartite", (2, 3)), ("complete_bipartite", (3, 3)),
])
def test_zz_edge_orbit_counts_match_networkx(family, params):
    """Every F_k here has at most 20 vertices, so networkx's matcher lists
    its whole automorphism group, independent of the search kernel."""
    n_x, _ = family_size(family, *params)
    X = make_family(family, *params)
    for report in zz_checks(family, params, range(1, n_x)):
        F = token_graph(X, report.find("k"))
        assert F.vertex_count <= 20
        assert report.find("edge_orbit_count") == edge_orbit_count(F, automorphisms_by_matching(F))
