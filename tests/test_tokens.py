from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_covers.algebra import Permutation
from token_covers.graphs import (SimpleGraph, complete, complete_bipartite, cycle, path, star,
                                 to_json)
from token_covers.symmetry import is_automorphism, is_isomorphic
from token_covers.tokens import (
    PRINTED_DIGITS,
    binomial,
    check_vertex_cap,
    induced_token_permutation,
    inclusion_bigraph,
    johnson,
    ksubsets,
    line_graph,
    subdivision,
    subset_label,
    token_graph,
)

from helpers import (
    assert_mask_built,
    brute_force_token_graph,
    complement,
    from_cycles,
    kneser,
    random_simple_graph,
    simple_graphs,
    token_degree_oracle,
)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8) for k in range(1, n)])
def test_token_vertex_count(n, k):
    assert token_graph(complete(n), k).vertex_count == comb(n, k)


@pytest.mark.parametrize("family", [
    complete(2), complete(6), cycle(7), path(5), star(4), star(7),
    complete_bipartite(2, 4), complete_bipartite(3, 3),
])
def test_token_graph_equals_validated_construction(family):
    """token_graph skips SimpleGraph's checks; the validated constructor
    must accept its output and give the same graph."""
    for k in range(1, family.vertex_count):
        g = token_graph(family, k)
        checked = SimpleGraph(g.vertex_count, g.edges, labels=g.labels)
        assert (g, g.edges, g.adjacency_masks, g.labels) == \
            (checked, checked.edges, checked.adjacency_masks, checked.labels)


def test_token_graph_matches_brute_force_on_the_atlas():
    """Every connected graph on up to 7 vertices in networkx's atlas and
    every k in 1..n-1: the mask-built token graph against the brute-force
    edges (k-subsets whose symmetric difference is an edge) through the
    validating constructor."""
    nx = pytest.importorskip("networkx")
    count = 0
    for A in nx.graph_atlas_g():
        n = A.number_of_nodes()
        if n < 2 or not nx.is_connected(A):
            continue
        X = SimpleGraph(n, A.edges())
        for k in range(1, n):
            edges, labels = brute_force_token_graph(X, k)
            assert_mask_built(token_graph(X, k), len(labels), edges, labels)
            count += 1
    assert count == 5785


def test_token_k_range():
    with pytest.raises(ValueError):
        token_graph(complete(4), 0)
    with pytest.raises(ValueError):
        token_graph(complete(4), 4)


@pytest.mark.parametrize("n, k", [(-1, 2), (0, 1), (0, 0), (-3, -3)])
def test_johnson_names_a_bad_n_before_k(n, k):
    with pytest.raises(ValueError) as info:
        johnson(n, k)
    assert str(info.value) == f"n={n} out of range: need n >= 1"


def test_one_token_graph_is_the_graph():
    g = path(3)
    assert token_graph(g, 1).edges == g.edges


def test_token_star3_is_hexagon():
    assert is_isomorphic(token_graph(star(3), 2), cycle(6)) is not None


def test_token_k5_is_petersen_complement():
    assert is_isomorphic(token_graph(complete(5), 2), complement(kneser(5, 2))) is not None


def test_johnson_4_2():
    g = johnson(4, 2)
    assert g.vertex_count == 6
    assert set(g.degrees()) == {4}


@pytest.mark.parametrize("n", range(2, 7))
def test_johnson_k1_complete(n):
    assert johnson(n, 1).edges == complete(n).edges


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 9) for k in range(1, n)])
def test_johnson_is_token_complete(n, k):
    """J(n, k) is F_k(K_n), vertex for vertex and label for label, and its
    edges are the pairs of k-subsets meeting in k - 1 elements."""
    J = johnson(n, k)
    assert J == token_graph(complete(n), k)
    assert to_json(J) == to_json(token_graph(complete(n), k))
    subs = ksubsets(n, k)
    assert J.edges == tuple((i, j) for i, j in combinations(range(len(subs)), 2)
                            if len(set(subs[i]) & set(subs[j])) == k - 1)


@pytest.mark.parametrize("n", range(1, 5))
def test_johnson_k_n_is_one_vertex(n):
    J = johnson(n, n)
    assert (J.vertex_count, J.edge_count) == (1, 0)
    assert J.labels == (subset_label(range(n)),)


def test_line_graph_triangle():
    assert is_isomorphic(line_graph(complete(3)), complete(3)) is not None


@pytest.mark.parametrize("n", range(3, 9))
def test_line_graph_complete_is_two_token(n):
    # the map edge {i, j} -> token {i, j} is the identity on sorted pairs
    L = line_graph(complete(n))
    F = token_graph(complete(n), 2)
    assert complete(n).edges == tuple(ksubsets(n, 2))
    assert L.edges == F.edges


@pytest.mark.parametrize("n", range(2, 6))
def test_line_graph_star(n):
    assert is_isomorphic(line_graph(star(n)), complete(n)) is not None


def test_subdivision_examples():
    assert is_isomorphic(subdivision(complete(3)), cycle(6)) is not None
    assert is_isomorphic(subdivision(path(2)), path(3)) is not None


@pytest.mark.parametrize("n", range(3, 7))
def test_subdivision_complete_is_star_two_token(n):
    assert is_isomorphic(subdivision(complete(n)), token_graph(star(n), 2)) is not None


def test_subdivision_explicit_map():
    # branch vertex i -> token {0, i+1}; subdivision vertex of edge ij ->
    # token {i+1, j+1} (star center is 0, leaf i+1 plays original vertex i)
    n = 5
    S = subdivision(complete(n))
    F = token_graph(star(n), 2)
    pairs = ksubsets(n + 1, 2)
    position = {p: i for i, p in enumerate(pairs)}
    images = [position[(0, i + 1)] for i in range(n)]
    images += [position[(u + 1, v + 1)] for u, v in complete(n).edges]
    mapped = {tuple(sorted((images[u], images[v]))) for u, v in S.edges}
    assert mapped == set(F.edges)


def test_inclusion_bigraph_tiny():
    g = inclusion_bigraph(2, 0, 2)
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_inclusion_bigraph_hexagon():
    g = inclusion_bigraph(3, 1, 2)
    assert is_isomorphic(g, cycle(6)) is not None
    assert is_isomorphic(g, token_graph(star(3), 2)) is not None


@pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (7, 4)])
def test_inclusion_bigraph_is_star_token(n, k):
    assert is_isomorphic(inclusion_bigraph(n, k - 1, k),
                         token_graph(star(n), k)) is not None


def test_inclusion_bigraph_range():
    with pytest.raises(ValueError):
        inclusion_bigraph(3, 2, 2)
    with pytest.raises(ValueError):
        inclusion_bigraph(3, 1, 4)


@pytest.mark.parametrize("X", [complete(5), star(4), path(5), cycle(6),
                               complete(7), star(6)])
def test_token_complement_symmetry(X):
    n = X.vertex_count
    for k in range(1, n // 2 + 1):
        a = token_graph(X, k)
        b = token_graph(X, n - k)
        assert is_isomorphic(a, b) is not None


@given(st.integers(3, 7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_token_degree_formula(n, rng):
    X = random_simple_graph(rng, n, 0.5)
    for k in (1, 2):
        F = token_graph(X, k)
        for i, sub in enumerate(combinations(range(n), k)):
            assert F.degree(i) == token_degree_oracle(X, sub)


@given(simple_graphs(max_vertices=8))
@settings(max_examples=150, deadline=None)
def test_token_graph_matches_definition(X):
    """Every k: k-subsets adjacent exactly when their symmetric difference
    is an edge of X; vertices and labels in lexicographic subset order."""
    for k in range(1, X.vertex_count):
        edges, labels = brute_force_token_graph(X, k)
        assert_mask_built(token_graph(X, k), len(labels), edges, labels)


def test_induced_token_permutation():
    g = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    F = token_graph(complete(6), 2)
    induced = induced_token_permutation(g, 2)
    assert induced.order() == 6
    assert is_automorphism(F, induced)
    # non-automorphisms of X induce non-automorphisms of F_k(X) in general
    h = from_cycles(4, [(0, 1)])
    P = path(4)
    assert not is_automorphism(token_graph(P, 2), induced_token_permutation(h, 2))


def sorted_tuple_induced_permutation(p, k):
    """The reference action: each k-subset's image sorted and looked up."""
    subs = ksubsets(p.degree, k)
    index = {s: i for i, s in enumerate(subs)}
    return tuple(index[tuple(sorted(p(v) for v in s))] for s in subs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.integers(0, n + 1))))
def test_induced_token_permutation_matches_sorted_tuples(case):
    """The bitmask lookup gives the sorted-tuple action for every k, 0 and
    past n included (one subset, and none)."""
    images, k = case
    p = Permutation(tuple(images))
    assert induced_token_permutation(p, k).images == sorted_tuple_induced_permutation(p, k)


def test_binomial_is_exact_until_past_the_cap_and_printable_size():
    """Every count up to the cap or PRINTED_DIGITS digits is C(n, k) itself
    (0 for k outside 0..n); a larger one is a lower bound past both, never
    computed in full."""
    for n in range(-2, 40):
        for k in range(-2, 42):
            assert binomial(n, k, 10) == (comb(n, k) if 0 <= k <= n else 0)
    assert binomial(2 * 10**6, 10**6, 200) >= 10**PRINTED_DIGITS
    assert binomial(10**6, 3, 200) == comb(10**6, 3)
    big = comb(20000, 10000)
    assert big >= 10**PRINTED_DIGITS  # too large for str()
    assert 10**PRINTED_DIGITS <= binomial(20000, 10000, 200) < big
    assert binomial(20000, 10000, big) == big


def test_check_vertex_cap_is_the_one_cap_message():
    check_vertex_cap("g", 200, 200)
    with pytest.raises(ValueError, match=r"^g: 201 vertices exceed the cap 200$"):
        check_vertex_cap("g", 201, 200)
    # a count str() cannot print is written as its bound
    with pytest.raises(ValueError, match=rf"^g: at least 10\^{PRINTED_DIGITS} vertices "
                                         r"exceed the cap 200$"):
        check_vertex_cap("g", binomial(20000, 10000, 200), 200)
    with pytest.raises(ValueError, match=rf"^g: {10**PRINTED_DIGITS - 1} vertices"):
        check_vertex_cap("g", 10**PRINTED_DIGITS - 1, 200)
