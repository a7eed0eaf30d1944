from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_covers.algebra import (
    Coset,
    CyclicGroup,
    Permutation,
    StabilizerChain,
    Subgroup,
    coset_translate,
    cosets,
    group_closure,
    permutation_order,
)
from token_covers.graphs import complete, star
from token_covers.symmetry import automorphisms
from token_covers.tokens import johnson, token_graph


def test_cosets_of_3z6():
    H = Subgroup(CyclicGroup(6), 3)
    ks = cosets(H)
    assert [k.rep for k in ks] == [0, 1, 2]
    assert [set(k.members()) for k in ks] == [{0, 3}, {1, 4}, {2, 5}]


def test_trivial_and_full_subgroup_cosets():
    G = CyclicGroup(6)
    assert len(cosets(G.trivial_subgroup())) == 6
    assert all(len(list(k.members())) == 1 for k in cosets(G.trivial_subgroup()))
    full = Subgroup(G, 1)
    assert len(cosets(full)) == 1
    assert set(cosets(full)[0].members()) == set(range(6))


def test_subgroup_validation():
    with pytest.raises(ValueError):
        Subgroup(CyclicGroup(6), 4)
    with pytest.raises(ValueError):
        Subgroup(CyclicGroup(6), 0)
    with pytest.raises(ValueError):
        CyclicGroup(0)


def test_coset_translate_examples():
    H = Subgroup(CyclicGroup(6), 3)
    assert set(Coset(H, 0).translate(1).members()) == {1, 4}
    assert set(Coset(H, 1).translate(3).members()) == {1, 4}  # absorbed
    assert set(Coset(H, 2).translate(5).members()) == {1, 4}
    assert coset_translate(Coset(H, 0), 1) == Coset(H, 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_coset_partition(m):
    G = CyclicGroup(m)
    for H in G.subgroups():
        ks = cosets(H)
        assert len(ks) == H.index
        union = set()
        total = 0
        for k in ks:
            members = set(k.members())
            assert not union & members
            union |= members
            total += len(members)
        assert union == set(range(m)) and total == m


@pytest.mark.parametrize("m", range(1, 9))
def test_translate_compatibility(m):
    G = CyclicGroup(m)
    for H in G.subgroups():
        for K in cosets(H):
            for a in range(m):
                for b in range(m):
                    assert K.translate(a).translate(b) == K.translate((a + b) % m)


@pytest.mark.parametrize("m", range(1, 13))
def test_coset_intersection_symmetry(m):
    # (K + v) meets H iff (H - v) meets K, for all subgroup pairs
    G = CyclicGroup(m)
    subs = G.subgroups()
    for H1 in subs:
        for H2 in subs:
            for K in cosets(H1):
                for H in cosets(H2):
                    for v in range(m):
                        assert K.translate(v).intersects(H) == H.translate(-v).intersects(K)


@pytest.mark.parametrize("m", range(1, 13))
def test_intersects_matches_set_oracle(m):
    G = CyclicGroup(m)
    subs = G.subgroups()
    for H1 in subs:
        for H2 in subs:
            for K in cosets(H1):
                for H in cosets(H2):
                    truth = bool(set(K.members()) & set(H.members()))
                    assert K.intersects(H) == truth


def test_intersects_rejects_mixed_groups():
    K = Coset(Subgroup(CyclicGroup(6), 3), 0)
    H = Coset(Subgroup(CyclicGroup(4), 2), 0)
    with pytest.raises(ValueError):
        K.intersects(H)


def test_permutation_basics():
    p = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert permutation_order(p) == 5
    assert permutation_order(Permutation.identity(5)) == 1
    q = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert permutation_order(q) == 6
    assert (p * p.inverse()).is_identity
    assert p.inverse()(p(3)) == 3
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 2))


def test_permutation_composition_convention():
    # (p * q)(x) = p(q(x))
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    assert (p * q).images == tuple(p(q(x)) for x in range(3))


def test_permutation_orbits_order():
    g = Permutation.from_cycles(6, [(0, 2, 4), (1, 5)])
    assert g.orbits() == [(0, 2, 4), (1, 5), (3,)]
    assert g.cycles() == [(0, 2, 4), (1, 5)]
    assert g.fixed_points() == [3]
    assert g.cycle_string() == "(0 2 4)(1 5)"


def test_closure_symmetric_group():
    gens = [Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(0, 1, 2, 3)])]
    cl = group_closure(gens)
    assert cl.complete and len(cl.elements) == 24
    # closed under composition and inverse
    els = cl.elements
    assert all(p.inverse() in els for p in els)
    sample = sorted(els, key=lambda p: p.images)[:6]
    assert all((p * q) in els for p in sample for q in sample)


def test_closure_empty_and_overflow():
    cl = group_closure([], degree=5)
    assert cl.complete and cl.elements == frozenset({Permutation.identity(5)})
    partial = group_closure(
        [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])],
        cap=10)
    assert not partial.complete
    assert len(partial.elements) == 10


def test_closure_k33_automorphism_order():
    # part permutations plus the part swap generate a group of order 2*(3!)^2
    gens = [
        Permutation.from_cycles(6, [(0, 1)]),
        Permutation.from_cycles(6, [(0, 1, 2)]),
        Permutation.from_cycles(6, [(3, 4)]),
        Permutation.from_cycles(6, [(3, 4, 5)]),
        Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
    ]
    cl = group_closure(gens)
    assert cl.complete and len(cl.elements) == 72


def test_closure_domain_mismatch():
    with pytest.raises(ValueError):
        group_closure([Permutation.identity(3), Permutation.identity(4)])


@pytest.mark.parametrize("cap", [1, 2, 7, 60, 119, 120, 121])
def test_capped_closure_returns_cap_group_elements(cap):
    gens = [Permutation.from_cycles(5, [(0, 1)]), Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])]
    full = group_closure(gens)
    assert full.complete and len(full.elements) == 120
    capped = group_closure(gens, cap)
    assert capped.complete == (cap >= 120)
    assert len(capped.elements) == min(cap, 120)
    assert capped.elements <= full.elements


def test_stabilizer_chain_k33():
    gens = [
        Permutation.from_cycles(6, [(0, 1)]),
        Permutation.from_cycles(6, [(0, 1, 2)]),
        Permutation.from_cycles(6, [(3, 4)]),
        Permutation.from_cycles(6, [(3, 4, 5)]),
        Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
    ]
    chain = StabilizerChain(gens)
    assert chain.order == prod(chain.orbit_lengths) == 72
    assert chain.base[0] == 0 and chain.orbit_lengths[0] == 6
    elements = list(chain.elements())
    assert elements[0] == Permutation.identity(6)
    assert len(set(elements)) == 72


def _generators(degree_max):
    """Up to four random permutations of one degree in 1..degree_max."""
    return st.integers(1, degree_max).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(range(n)), max_size=4)))


def _sympy_group(n, images):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perms = [combinatorics.Permutation(list(g), size=n) for g in images]
    return combinatorics.PermutationGroup(perms or [combinatorics.Permutation(list(range(n)))])


@settings(max_examples=150, deadline=None)
@given(_generators(9))
def test_chain_order_matches_sympy(case):
    n, images = case
    chain = StabilizerChain([Permutation(tuple(g)) for g in images], degree=n)
    assert chain.order == _sympy_group(n, images).order()


# degree <= 7 keeps sympy's full enumeration of S_n at 5040 elements
@settings(max_examples=60, deadline=None)
@given(_generators(7))
def test_closure_elements_match_sympy(case):
    n, images = case
    closure = group_closure([Permutation(tuple(g)) for g in images], degree=n)
    expected = {tuple(p.array_form) for p in _sympy_group(n, images).generate()}
    assert closure.complete
    assert {p.images for p in closure.elements} == expected


def test_closed_form_orders_past_the_old_closure():
    assert automorphisms(token_graph(complete(9), 2)).order() == (factorial(9), True)
    assert automorphisms(johnson(8, 4)).order() == (2 * factorial(8), True)


def test_closure_elements_are_valid_automorphisms():
    """The chain wraps its products without re-validating them, so check
    every element here: a permutation of the vertex set that maps the
    edges onto the edges and compares equal to its validated twin."""
    X = token_graph(star(7), 4)
    edges = set(X.edges)
    n = X.vertex_count
    closure = automorphisms(X).closure()
    assert closure.complete and len(closure.elements) == 10080
    for p in closure.elements:
        assert type(p.images) is tuple and len(p.images) == n
        assert all(type(x) is int for x in p.images)
        assert sorted(p.images) == list(range(n))
        assert {(min(p.images[u], p.images[v]), max(p.images[u], p.images[v]))
                for u, v in edges} == edges
        assert Permutation(list(p.images)) == p
        assert hash(Permutation(list(p.images))) == hash(p)
