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
)
from token_covers.graphs import complete, star
from token_covers.symmetry import AutGroup, automorphisms
from token_covers.tokens import johnson, token_graph


def test_cosets_of_3z6():
    H = Subgroup(CyclicGroup(6), 3)
    ks = H.cosets()
    assert [k.rep for k in ks] == [0, 1, 2]
    assert [set(k.members()) for k in ks] == [{0, 3}, {1, 4}, {2, 5}]


def test_trivial_and_full_subgroup_cosets():
    G = CyclicGroup(6)
    assert len(G.trivial_subgroup().cosets()) == 6
    assert all(len(list(k.members())) == 1 for k in G.trivial_subgroup().cosets())
    full = Subgroup(G, 1)
    assert len(full.cosets()) == 1
    assert set(full.cosets()[0].members()) == set(range(6))


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
    assert Coset(H, 0).translate(1) == Coset(H, 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_coset_partition(m):
    G = CyclicGroup(m)
    for H in G.subgroups():
        ks = H.cosets()
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
        for K in H.cosets():
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
            for K in H1.cosets():
                for H in H2.cosets():
                    for v in range(m):
                        assert K.translate(v).intersects(H) == H.translate(-v).intersects(K)


@pytest.mark.parametrize("m", range(1, 13))
def test_intersects_matches_set_oracle(m):
    G = CyclicGroup(m)
    subs = G.subgroups()
    for H1 in subs:
        for H2 in subs:
            for K in H1.cosets():
                for H in H2.cosets():
                    truth = bool(set(K.members()) & set(H.members()))
                    assert K.intersects(H) == truth


def test_intersects_rejects_mixed_groups():
    K = Coset(Subgroup(CyclicGroup(6), 3), 0)
    H = Coset(Subgroup(CyclicGroup(4), 2), 0)
    with pytest.raises(ValueError):
        K.intersects(H)


def test_permutation_basics():
    p = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert p.order() == 5
    assert Permutation.identity(5).order() == 1
    q = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert q.order() == 6
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


def _s_n_generators(n):
    return [Permutation.from_cycles(n, [(0, 1)]), Permutation.from_cycles(n, [tuple(range(n))])]


def test_closure_symmetric_group():
    els = set(StabilizerChain(_s_n_generators(4)).elements())
    assert len(els) == 24
    # closed under composition and inverse
    assert all(p.inverse() in els for p in els)
    sample = sorted(els, key=lambda p: p.images)[:6]
    assert all((p * q) in els for p in sample for q in sample)


def test_closure_empty_and_overflow():
    elements, whole = AutGroup(5, []).closure()
    assert whole and list(elements) == [Permutation.identity(5)]
    elements, whole = AutGroup(4, _s_n_generators(4)).closure(10)
    assert not whole
    assert len(list(elements)) == 10
    with pytest.raises(ValueError):
        AutGroup(4, _s_n_generators(4)).closure(0)


def test_closure_k33_automorphism_order():
    # part permutations plus the part swap generate a group of order 2*(3!)^2
    gens = [
        Permutation.from_cycles(6, [(0, 1)]),
        Permutation.from_cycles(6, [(0, 1, 2)]),
        Permutation.from_cycles(6, [(3, 4)]),
        Permutation.from_cycles(6, [(3, 4, 5)]),
        Permutation.from_cycles(6, [(0, 3), (1, 4), (2, 5)]),
    ]
    elements, whole = AutGroup(6, gens).closure()
    assert whole and len(set(elements)) == 72


def test_closure_domain_mismatch():
    with pytest.raises(ValueError):
        StabilizerChain([Permutation.identity(3), Permutation.identity(4)])
    with pytest.raises(ValueError):
        AutGroup(4, [Permutation.identity(3)]).closure()


@pytest.mark.parametrize("cap", [1, 2, 7, 60, 119, 120, 121])
def test_capped_closure_returns_cap_group_elements(cap):
    aut = AutGroup(5, _s_n_generators(5))
    full = set(aut.chain.elements())
    assert len(full) == 120
    elements, whole = aut.closure(cap)
    capped = list(elements)
    assert whole == (cap >= 120)
    assert len(capped) == len(set(capped)) == min(cap, 120)
    assert set(capped) <= full


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
    chain = StabilizerChain([Permutation(tuple(g)) for g in images], degree=n)
    expected = {tuple(p.array_form) for p in _sympy_group(n, images).generate()}
    walked = [p.images for p in chain.elements()]
    assert len(walked) == chain.order
    assert set(walked) == expected


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
