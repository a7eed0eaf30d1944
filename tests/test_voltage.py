import random
from collections import Counter
from functools import cached_property, reduce
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from token_covers import symmetry, voltage
from token_covers.algebra import Permutation, Subgroup
from token_covers.graphs import (
    Multigraph,
    SimpleGraph,
    complete,
    cycle,
    path,
    star,
    underlying_simple,
)
from token_covers.symmetry import acts_freely, automorphisms, is_isomorphic
from token_covers.tokens import induced_token_permutation, ksubsets, token_graph
from token_covers.voltage import (
    CombinedVoltageGraph,
    conjecture_search,
    cover_token,
    lift,
    quotient_cyclic,
    quotient_free,
    theorem1_base,
    verify_theorem1,
)

from helpers import (
    cosets,
    cyclic_subgroup_classes,
    cyclic_subgroup_classes_by_elements,
    disjoint_union,
    fiber_offsets,
    free_actions,
    from_cycle_string,
    from_cycles,
    identity,
    intersects,
    of_order,
    random_multigraph,
    subgroups,
    translate,
    walked_conjecture_classes,
)


def single_loop_graph(m, voltage):
    return CombinedVoltageGraph(Multigraph(1, [(0, 0)]), m, (voltage,), (Subgroup(m, m),))


def test_cvg_validation():
    loop = Multigraph(1, [(0, 0)])
    with pytest.raises(ValueError):
        CombinedVoltageGraph(loop, 4, (), (Subgroup(4, 4),))
    with pytest.raises(ValueError):
        CombinedVoltageGraph(loop, 4, (5,), (Subgroup(4, 4),))
    with pytest.raises(ValueError):
        CombinedVoltageGraph(loop, 4, (1,), (Subgroup(5, 5),))
    with pytest.raises(ValueError):
        CombinedVoltageGraph(Multigraph(0, []), 0, (), ())


def test_lift_single_loop_is_cycle():
    cover = lift(single_loop_graph(6, 1))
    assert is_isomorphic(underlying_simple(cover.graph), cycle(6)) is not None


def test_lift_zero_voltage_edge_is_matching():
    cvg = CombinedVoltageGraph(Multigraph(2, [(0, 1)]), 3, (0,),
                               (Subgroup(3, 3), Subgroup(3, 3)))
    cover = lift(cvg)
    assert cover.graph.vertex_count == 6
    assert cover.graph.edge_count == 3
    assert all(cover.graph.degree(v) == 1 for v in range(6))


def test_lift_mixed_fiber_degrees():
    # trivial fiber on one side, index-3 subgroup of Z_6 on the other:
    # every (x, {a}) gains one edge, every (y, H) gains two
    cvg = CombinedVoltageGraph(Multigraph(2, [(0, 1)]), 6, (0,),
                               (Subgroup(6, 6), Subgroup(6, 3)))
    cover = lift(cvg)
    assert cover.graph.vertex_count == 6 + 3
    degrees = [cover.graph.degree(v) for v in range(cover.graph.vertex_count)]
    assert degrees[:6] == [1] * 6
    assert degrees[6:] == [2, 2, 2]


def random_trivial_fiber_voltage_graphs():
    """Twelve voltage graphs over Z_m (2 <= m <= 8) with up to four
    vertices, each carrying the trivial subgroup, from a fixed seed."""
    rng = random.Random(11)
    for _ in range(12):
        m = rng.randint(2, 8)
        n = rng.randint(1, 4)
        base = random_multigraph(rng, n, rng.randint(1, 6))
        yield CombinedVoltageGraph(
            base, m, tuple(rng.randrange(m) for _ in range(base.edge_count)),
            tuple(Subgroup(m, m) for _ in range(n)))


def test_lift_fiber_sizes():
    """Cover vertex (x, r) sits at index offset[x] + r, as ``lift``
    documents, and the fiber over x has [Z_m : H_x] vertices."""
    for cvg in (theorem1_base(6), theorem1_base(8), *random_trivial_fiber_voltage_graphs()):
        cover, offset = lift(cvg), fiber_offsets(cvg)
        for i, (x, r) in enumerate(cover.vertices):
            assert i == offset[x] + r
        for x, H in enumerate(cvg.vertex_groups):
            assert sum(y == x for y, _ in cover.vertices) == H.index


def test_lift_loop_with_involution_voltage():
    # voltage m/2 pairs the fibers up: half as many lifted edges
    cover = lift(single_loop_graph(6, 3))
    assert cover.graph.edge_count == 3
    cover = lift(single_loop_graph(6, 2))
    assert cover.graph.edge_count == 6


def test_lift_loop_in_stabilizer_gives_cover_loops():
    cvg = CombinedVoltageGraph(Multigraph(1, [(0, 0)]), 6, (3,), (Subgroup(6, 3),))
    cover = lift(cvg)
    assert cover.graph.vertex_count == 3
    assert sum(u == v for u, v in cover.graph.edges) == 3


def test_lift_degree_conservation_trivial_fibers():
    # with trivial fibers, cover degree equals base degree (loops twice),
    # except that a loop whose voltage has order 2 contributes one edge
    # instead of two (its coset pairs coincide)
    rng = random.Random(17)
    for _ in range(15):
        m = rng.randint(2, 8)
        base = random_multigraph(rng, rng.randint(1, 4), rng.randint(1, 6))
        volts = tuple(rng.randrange(m) for _ in range(base.edge_count))
        cvg = CombinedVoltageGraph(
            base, m, volts, tuple(Subgroup(m, m) for _ in range(base.vertex_count)))
        cover = lift(cvg)
        involution_loops = [0] * base.vertex_count
        for (u, v), w in zip(base.edges, volts):
            if u == v and w != 0 and (2 * w) % m == 0:
                involution_loops[u] += 1
        for i, (x, _) in enumerate(cover.vertices):
            assert cover.graph.degree(i) == base.degree(x) - involution_loops[x]


def test_lift_edge_rule_orientation_independent():
    # the coset rule gives the same pair set read from either endpoint,
    # with the voltage negated when the edge is read from v to u
    cvg = theorem1_base(6)
    m = cvg.modulus
    d = [H.index for H in cvg.vertex_groups]
    for eid, (u, v) in enumerate(cvg.base.edges):
        if u == v:
            continue
        w = cvg.voltages[eid]
        back = (-w) % m
        forward_pairs = {
            (K[2], H[2])
            for K in cosets(m, d[u])
            for H in cosets(m, d[v])
            if intersects(translate(K, w), H)
        }
        backward_pairs = {
            (K[2], H[2])
            for H in cosets(m, d[v])
            for K in cosets(m, d[u])
            if intersects(translate(H, back), K)
        }
        assert forward_pairs == backward_pairs


def oracle_lift(cvg):
    """Reference lift by set-wise coset intersection: (vertices, labels,
    edges) with every coset pair of every base edge tested, and a loop's
    pairs deduplicated as unordered pairs.  The coset r + dZ_m is the
    member set range(r, m, d)."""
    base, m = cvg.base, cvg.modulus
    d = [H.index for H in cvg.vertex_groups]
    vertices = [(x, r) for x in range(base.vertex_count) for r in range(d[x])]
    index = {xr: i for i, xr in enumerate(vertices)}
    labels = []
    for x, r in vertices:
        name = base.labels[x] if base.labels is not None else str(x)
        labels.append(f"({name},{{{','.join(map(str, range(r, m, d[x])))}}})")
    edges = []
    for (u, v), w in zip(base.edges, cvg.voltages):
        seen = set()
        for r in range(d[u]):
            shifted = {(t + w) % m for t in range(r, m, d[u])}
            for s in range(d[v]):
                if not shifted & set(range(s, m, d[v])):
                    continue
                if u == v:
                    pair = frozenset((r, s))
                    if pair in seen:
                        continue
                    seen.add(pair)
                a, b = index[(u, r)], index[(v, s)]
                edges.append((a, b) if a <= b else (b, a))
    return vertices, labels, edges


def assert_lift_matches_oracle(cvg):
    cover = lift(cvg)
    vertices, labels, edges = oracle_lift(cvg)
    assert cover.vertices == tuple(vertices)
    assert cover.graph.vertex_count == len(vertices)
    assert cover.graph.labels == tuple(labels)
    assert cover.graph.edges == tuple(edges)


@st.composite
def _voltage_graphs(draw):
    """Z_m (m <= 12), a subgroup of any index at each vertex, and up to 8
    edges drawn with repetition, so parallel edges and loops occur; half
    the voltages are 0 or m // 2 (the involution when m is even)."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    indices = [d for d in range(1, m + 1) if m % d == 0]
    vertex_groups = [Subgroup(m, draw(st.sampled_from(indices))) for _ in range(n)]
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(min(a, b), max(a, b)) for a, b in draw(st.lists(ends, max_size=8))]
    voltage = st.one_of(st.sampled_from([0, m // 2]), st.integers(0, m - 1))
    volts = [draw(voltage) for _ in edges]
    labels = draw(st.one_of(st.none(), st.just([f"v{x}" for x in range(n)])))
    return CombinedVoltageGraph(Multigraph(n, edges, labels=labels), m, volts,
                                vertex_groups)


@settings(max_examples=300, deadline=None)
@given(_voltage_graphs())
def test_lift_matches_set_oracle(cvg):
    assert_lift_matches_oracle(cvg)


@settings(max_examples=300, deadline=None)
@given(_voltage_graphs())
@example(CombinedVoltageGraph(
    Multigraph(3, [(0, 0)] * 5 + [(0, 1)] * 3 + [(1, 1), (1, 2)] + [(2, 2)] * 2),
    12, (2, 4, 1, 3, 7, 1, 5, 2, 3, 0, 0, 0),
    (Subgroup(12, 4), Subgroup(12, 6), Subgroup(12, 12))))
def test_lift_masks_and_counts_match_the_multigraph(cvg):
    """``lift`` reads the simple graph and the multigraph's counts off the
    voltage residues, listing no edge.  They are the underlying simple
    graph of ``Cover.graph`` (the lifted multigraph, pinned edge by edge
    by the set oracle), unlabelled, and its edge count, the number of
    vertex pairs two or more of its edges join and the most edges joining
    one pair, counted here over its edges.  The drawn graphs have loops,
    zero voltages, voltages of order 2 in their fiber and fibers of
    different sizes (gcd(d_u, d_v) < d_v); the example has each at once:
    loops over Z_4 of voltage 2 (order 2), 4 (zero), 1, 3 and 7 (the pair
    {r, r + 1} three times), three edges 0-1 whose voltages 1 and 5 agree
    mod gcd(4, 6) = 2, a loop of order 2 in Z_6 and two zero loops."""
    cover = lift(cvg)
    multiplicity = Counter(cover.graph.edges)
    simple = underlying_simple(cover.graph)
    assert cover.simple == simple and cover.simple.edge_count == simple.edge_count
    assert cover.simple.labels is None
    assert cover.vertices == tuple((x, r) for x, H in enumerate(cvg.vertex_groups)
                                   for r in range(H.index))
    assert cover.edge_count == cover.graph.edge_count
    assert cover.parallel_classes == sum(c > 1 for c in multiplicity.values())
    assert cover.max_multiplicity == max(multiplicity.values(), default=0)


@pytest.mark.parametrize("n", range(4, 31, 2))
def test_theorem1_lift_matches_set_oracle(n):
    assert_lift_matches_oracle(theorem1_base(n))


@pytest.mark.parametrize("w, edges", [
    (2, ((0, 2), (1, 3))),
    (6, ((0, 2), (1, 3))),
    (10, ((0, 2), (1, 3))),
    (4, ((0, 0), (1, 1), (2, 2), (3, 3))),
])
def test_lift_loop_halves_by_voltage_order_in_the_fiber(w, edges):
    """A loop over Z_12 at a vertex of fiber size 4 reads its voltage in
    Z_4: 2 and 10 have order 2 there (but 6 in Z_12), so like 6 they lift
    to one edge per pair {r, r + 2}, and 4 = 0 in Z_4 lifts to cover loops."""
    cvg = CombinedVoltageGraph(Multigraph(1, [(0, 0)]), 12, (w,), (Subgroup(12, 4),))
    assert lift(cvg).graph.edges == edges
    assert_lift_matches_oracle(cvg)


def test_theorem1_base_n4_structure():
    cvg = theorem1_base(4)
    assert cvg.base.vertex_count == 2
    assert cvg.base.edges.count((0, 0)) == 1
    pair_voltages = sorted(w for (u, v), w in zip(cvg.base.edges, cvg.voltages) if u != v)
    assert pair_voltages == [0, 1, 2, 3]
    assert set(cvg.vertex_groups[1].members()) == {0, 2}
    assert cvg.vertex_groups[0].size == 1


def test_theorem1_base_n6_counts():
    cvg = theorem1_base(6)
    assert cvg.base.vertex_count == 3
    assert cvg.base.edge_count == 14
    assert sum(u == v for u, v in cvg.base.edges) == 2
    assert cvg.vertex_groups[2].index == 3  # fiber of the half-index vertex


def test_theorem1_lift_edge_counts_n6():
    # per vertex pair: 4 voltages x 6 satisfying coset pairs = 24 lifted
    # edges; per loop: 6; total 3*24 + 2*6 = 84, collapsing to the 60 edges
    # of the 8-regular token graph on 15 vertices
    cover = lift(theorem1_base(6))
    assert cover.graph.edge_count == cover.edge_count == 84
    simple = underlying_simple(cover.graph)
    assert simple.edge_count == 60
    assert set(simple.degrees()) == {8}
    assert cover.simple == simple


def test_theorem1_base_rejects_bad_n():
    with pytest.raises(ValueError):
        theorem1_base(5)
    with pytest.raises(ValueError):
        theorem1_base(2)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_vertex_count_identity(n):
    cvg = theorem1_base(n)
    assert cvg.cover_vertex_count() == comb(n, 2)
    assert lift(cvg).graph.vertex_count == comb(n, 2)


def test_cover_token_examples():
    cvg = theorem1_base(6)
    cover, offset = lift(cvg), fiber_offsets(cvg)
    assert cover_token(6, cover.vertices[offset[0] + 0]) == (1, 2)
    assert cover_token(6, cover.vertices[offset[2] + 0]) == (1, 4)
    assert cover_token(6, cover.vertices[offset[1] + 5]) == (2, 6)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_cover_token_bijective(n):
    cover = lift(theorem1_base(n))
    images = {cover_token(n, cv) for cv in cover.vertices}
    assert len(images) == comb(n, 2)
    assert all(1 <= a < b <= n for a, b in images)


def test_cover_token_malformed():
    # the base of n = 6 has x_1, x_2 (fibers of 6) and x_3 (a fiber of 3)
    for x in (-1, 3, 5):
        with pytest.raises(ValueError, match="outside the base"):
            cover_token(6, (x, 0))
    for v in ((0, -1), (0, 6), (1, 6), (2, 3), (2, 5)):
        with pytest.raises(ValueError, match="outside the fiber"):
            cover_token(6, v)
    assert cover_token(6, (2, 2)) == (3, 6)


@pytest.mark.parametrize("n", [4, 6])
def test_verify_theorem1_passes(n):
    report = verify_theorem1(n)
    assert report.passed
    assert report.find("cover_vertices") == comb(n, 2)
    assert report.find("explicit_map_bijective")
    assert report.find("explicit_map_isomorphism")
    assert report.find("independent_search_agrees")


def test_verify_theorem1_flags_a_map_that_breaks_an_edge(monkeypatch):
    """Swapping the tokens {1, 2} and {3, 4} (not twins in F_2(K_6)) keeps
    the explicit map bijective but maps some edge onto a non-edge."""
    real = voltage.cover_token

    def swapped(n, cv):
        token = real(n, cv)
        return {(1, 2): (3, 4), (3, 4): (1, 2)}.get(token, token)

    monkeypatch.setattr(voltage, "cover_token", swapped)
    report = verify_theorem1(6)
    assert report.find("explicit_map_bijective") is True
    assert report.find("explicit_map_isomorphism") is False
    assert report.find("independent_search_agrees") is True
    assert not report.passed


def test_lifts_are_checked_from_masks(monkeypatch):
    """Theorem 1's cover, the F_2(K_n) it is checked against and a
    quotient's lift are checked from their adjacency masks: no edge tuple of
    theirs is built, nor the lifted multigraph (``Cover.graph``).  Only the
    quotiented graph's edge tuples are, for its edge orbits."""
    read = []
    edges = SimpleGraph.edges
    monkeypatch.setattr(SimpleGraph, "edges",
                        property(lambda self: read.append(self) or edges.fget(self)))
    lifted = []
    graph = voltage.Cover.graph
    monkeypatch.setattr(voltage.Cover, "graph",
                        property(lambda self: lifted.append(self) or graph.func(self)))
    assert verify_theorem1(20).passed and read == []
    X = token_graph(star(7), 4)
    assert quotient_cyclic(X, induced_token_permutation(
        voltage._leaf_permutation(7, (7,)), 4))[1].passed
    assert read and all(G is X for G in read)
    assert lifted == []


def test_each_permutation_walks_its_cycles_once(monkeypatch):
    """``orbits``, ``cycles``, ``cycle_string``, ``order`` and
    ``acts_freely`` read one walk of a permutation's images, kept on it;
    ``orbits`` returns a new list each time, so a caller's edit changes
    nothing.  A conjecture run walks no permutation twice: each class's
    representative is tested for freeness, quotiented and reported from
    one walk."""
    walked = []
    orbits = Permutation._orbits
    counting = cached_property(lambda self: walked.append(self) or orbits.func(self))
    counting.__set_name__(Permutation, "_orbits")
    monkeypatch.setattr(Permutation, "_orbits", counting)
    g = from_cycles(6, [(0, 2, 4), (1, 5)])
    g.orbits().clear()
    assert g.orbits() == [(0, 2, 4), (1, 5), (3,)]
    assert g.cycles() == [(0, 2, 4), (1, 5)] and g.cycle_string() == "(0 2 4)(1 5)"
    assert g.order() == 6 and not acts_freely(g, 6)
    assert walked == [g]
    walked.clear()
    report = conjecture_search("star_half", 7)
    assert len(walked) > report.find("order_m_classes")
    assert len({id(p) for p in walked}) == len(walked)


@pytest.mark.parametrize("n", [22, 26, 30])
def test_theorem1_explicit_map_past_workload_sizes(n):
    # the explicit map alone, without the capped isomorphism search
    cover = lift(theorem1_base(n))
    assert cover.graph.vertex_count == comb(n, 2)
    position = {p: i for i, p in enumerate(ksubsets(n, 2))}
    to_token = [position[(a - 1, b - 1)]
                for a, b in (cover_token(n, cv) for cv in cover.vertices)]
    assert sorted(to_token) == list(range(comb(n, 2)))
    simple = underlying_simple(cover.graph)
    tokens = token_graph(complete(n), 2)
    mapped = {tuple(sorted((to_token[u], to_token[v]))) for u, v in simple.edges}
    assert simple.edge_count == tokens.edge_count
    assert mapped == set(tokens.edges)


def test_verify_theorem1_rejects_oversized_cover(monkeypatch):
    with pytest.raises(ValueError, match="^theorem1-n8: 28 vertices exceed the cap 27$"):
        verify_theorem1(8, max_vertices=27)
    assert verify_theorem1(8, max_vertices=28).passed

    def never(n):
        raise AssertionError("the base must not be built past the vertex cap")

    monkeypatch.setattr(voltage, "theorem1_base", never)
    with pytest.raises(ValueError, match="^theorem1-n40: 780 vertices exceed the cap 200$"):
        verify_theorem1(40)


def test_verify_theorem1_rejects_odd():
    with pytest.raises(ValueError):
        verify_theorem1(5)


def test_quotient_free_rotation():
    q, report = quotient_free(cycle(6), from_cycles(6, [(0, 1, 2, 3, 4, 5)]))
    assert q.base.vertex_count == 1
    assert q.base.edges == ((0, 0),)
    assert q.voltages == (1,)
    assert report.passed


def test_quotient_free_rotation_squared():
    g = from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    q, report = quotient_free(cycle(6), g)
    assert q.modulus == 3
    assert q.base.vertex_count == 2
    assert report.passed
    assert all(s.size == 1 for s in q.vertex_groups)


def test_quotient_free_rejections():
    with pytest.raises(ValueError, match="not free"):  # center is a fixed point
        quotient_free(star(3), from_cycles(4, [(1, 2)]))
    with pytest.raises(ValueError, match="not an automorphism"):  # free, but {0, 3} is no edge
        quotient_free(path(4), from_cycles(4, [(0, 1), (2, 3)]))


def test_quotient_free_is_quotient_cyclic_on_a_free_action(monkeypatch):
    """The free quotient returns quotient_cyclic's pair, and each call
    checks the automorphism once."""
    X, g = cycle(6), from_cycles(6, [(0, 2, 4), (1, 3, 5)])
    checks = []
    real = voltage.is_automorphism
    monkeypatch.setattr(voltage, "is_automorphism", lambda *a: checks.append(a) or real(*a))
    assert quotient_free(X, g) == quotient_cyclic(X, g)
    assert len(checks) == 2


@pytest.mark.parametrize("n,m", [(4, 2), (4, 4), (6, 2), (6, 3), (6, 6), (8, 2), (8, 4), (8, 8)])
def test_quotient_free_cycle_round_trip(n, m):
    found = free_actions(cycle(n), m)
    assert found
    for g in found:
        q, report = quotient_free(cycle(n), g)
        assert report.passed
        assert is_isomorphic(underlying_simple(lift(q).graph), cycle(n)) is not None


def test_quotient_free_random_voltage_round_trip():
    for cvg in random_trivial_fiber_voltage_graphs():
        m, offset = cvg.modulus, fiber_offsets(cvg)
        cover = lift(cvg)
        X = underlying_simple(cover.graph)
        # (x, r) -> (x, r + 1): the generator of Z_m acting on the cover
        shift = Permutation(tuple(offset[x] + (r + 1) % m for x, r in cover.vertices))
        q, report = quotient_free(X, shift)
        assert report.passed


def test_quotient_cyclic_identity():
    X = cycle(6)
    cvg, report = quotient_cyclic(X, identity(6))
    assert report.passed
    assert cvg.base.vertex_count == 6
    assert all(w == 0 for w in cvg.voltages)
    assert all(s.size == 1 for s in cvg.vertex_groups)


def test_quotient_cyclic_reflection():
    refl = from_cycles(6, [(1, 5), (2, 4)])
    cvg, report = quotient_cyclic(cycle(6), refl)
    assert report.passed
    assert sorted(s.index for s in cvg.vertex_groups) == [1, 1, 2, 2]


def test_quotient_cyclic_reads_a_loop_the_short_way_round_a_short_orbit():
    """Over Z_6 the triangle is an orbit of span 3, (0 2 1), and its least
    edge (0, 1) joins positions 0 and 2: the loop's voltage is 1, the
    shorter way round the orbit, where Z_6 alone would read 2."""
    X = disjoint_union(cycle(3), cycle(6))
    g = from_cycles(9, [(0, 2, 1), (3, 4, 5, 6, 7, 8)])
    cvg, report = quotient_cyclic(X, g)
    assert cvg.modulus == 6
    assert cvg.base.edges == ((0, 0), (1, 1))
    assert cvg.voltages == (1, 1)
    assert [s.index for s in cvg.vertex_groups] == [3, 6]
    assert report.passed


@pytest.mark.parametrize("n", [4, 6])
def test_quotient_cyclic_reconstructs_half_base(n):
    F = token_graph(complete(n), 2)
    g = induced_token_permutation(
        from_cycles(n, [tuple(range(n))]), 2)
    cvg, report = quotient_cyclic(F, g)
    assert report.passed
    assert cvg.base.vertex_count == n // 2
    stab_sizes = sorted(s.size for s in cvg.vertex_groups)
    assert stab_sizes == [1] * (n // 2 - 1) + [2]


def _projection_cases():
    """(X, g) pairs for the projection test.  For each conjecture family and
    odd n <= 11, F = F_k(K_{1,n}) with three leaf cycle types, (n), (n-2, 2)
    and (2, ..., 2), the middle one also composed with complementation when
    2k = n + 1.  Then 20 random products of 1-5 of Aut(F)'s generators on
    each F_k of C_8, K_6, C_10 and K_7, k = 2, 3."""
    cases = []
    for n in (3, 5, 7, 9, 11):
        for k in sorted({(n + 1) // 2, 2}):
            X = token_graph(star(n), k)
            leaves = [voltage._leaf_permutation(n, t) for t in ((n,), (n - 2, 2), (2,) * (n // 2))]
            cases += [(X, induced_token_permutation(p, k)) for p in leaves]
            if 2 * k == n + 1:
                flip = Permutation(tuple(range(X.vertex_count - 1, -1, -1)))
                cases.append((X, flip * induced_token_permutation(leaves[1], k)))
    rng = random.Random(36)
    for base in (cycle(8), complete(6), cycle(10), complete(7)):
        for k in (2, 3):
            X = token_graph(base, k)
            gens = automorphisms(X).generators
            cases += [(X, reduce(Permutation.__mul__, rng.choices(gens, k=rng.randint(1, 5))))
                      for _ in range(20)]
    return cases


def test_quotient_verdict_is_the_projection():
    """On 192 quotients, free actions and non-free alike, ``quotient_cyclic``'s
    verdict, read off the covering projection (A, r) -> orbit A's r-th point,
    agrees with an isomorphism search, and on the 184 with at most 130
    vertices with networkx's VF2++ (which takes seconds on F_5(K_{1,9})); its
    witness is that projection, and it maps the lift's edges onto X's."""
    nx = pytest.importorskip("networkx")
    cases = _projection_cases()
    kinds, compared = set(), 0
    for X, g in cases:
        cvg, report = quotient_cyclic(X, g)
        cover = lift(cvg)
        simple = underlying_simple(cover.graph)
        assert report.passed  # every cyclic quotient's lift is X (Gross & Tucker)
        assert report.passed == (is_isomorphic(simple, X) is not None)
        if X.vertex_count <= 130:
            compared += 1
            assert report.passed == nx.vf2pp_is_isomorphic(_networkx(nx, simple), _networkx(nx, X))
        orbits = g.orbits()
        projection = Permutation(tuple(orbits[A][r] for A, r in cover.vertices))
        assert report.find("witness") == projection.cycle_string()
        assert {tuple(sorted((projection(u), projection(v))))
                for u, v in simple.edges} == set(X.edges)
        kinds.add(acts_freely(g, g.order()))
    assert (len(cases), compared, kinds) == (192, 184, {True, False})


def _networkx(nx, X):
    G = nx.Graph()
    G.add_nodes_from(range(X.vertex_count))
    G.add_edges_from(X.edges)
    return G


def test_quotient_cyclic_rejects_non_automorphism():
    with pytest.raises(ValueError):
        quotient_cyclic(path(3), from_cycles(3, [(0, 1)]))


def test_conjecture_search_builds_one_chain_per_group(monkeypatch):
    """The order is read off the basic orbit lengths, computed once per
    group, and no transversal is built: the certificate needs no group
    element."""
    counted, built = [], []
    orbit_lengths = symmetry.AutGroup._build_orbit_lengths
    transversals = symmetry.AutGroup._build_transversals
    monkeypatch.setattr(symmetry.AutGroup, "_build_orbit_lengths",
                        lambda self: counted.append(self) or orbit_lengths(self))
    monkeypatch.setattr(symmetry.AutGroup, "_build_transversals",
                        lambda self: built.append(self) or transversals(self))
    report = conjecture_search("star_half", 5)
    assert report.status == "completed"
    assert len(counted) == 1 and built == []


def _validated_underlying_simple(G):
    """The simple reduction through the validating constructor."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in G.edges if u != v})
    return SimpleGraph(G.vertex_count, edges, labels=G.labels)


def test_underlying_simple_matches_validated_constructor():
    covers = [lift(theorem1_base(n)).graph for n in range(4, 21, 2)]
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 6)
        base = random_multigraph(rng, rng.randint(1, 4), rng.randint(1, 8))
        volts = tuple(rng.randrange(m) for _ in range(base.edge_count))
        vertex_groups = tuple(rng.choice(subgroups(m)) for _ in range(base.vertex_count))
        covers.append(lift(CombinedVoltageGraph(base, m, volts, vertex_groups)).graph)
    assert any(u == v for C in covers for u, v in C.edges)
    assert any(len(set(C.edges)) < C.edge_count for C in covers)
    for C in covers:
        got, want = underlying_simple(C), _validated_underlying_simple(C)
        assert got == want
        assert got.labels == want.labels
        assert got.adjacency_masks == want.adjacency_masks


def test_conjecture_star_half_3():
    report = conjecture_search("star_half", 3)
    assert report.passed and report.status == "completed"
    candidates = report.find("verified_candidates")
    assert candidates
    assert all(c["base_vertices"] == 1 for c in candidates)
    assert all(c["base_size_matches"]["binom(2k,k)/(2n)"] for c in candidates)


def test_conjecture_star_two_5():
    report = conjecture_search("star_two", 5)
    assert report.status == "completed"
    candidates = report.find("verified_candidates")
    assert candidates
    assert all(c["base_vertices"] == 3 for c in candidates)
    assert all(c["base_size_matches"]["n-2"] for c in candidates)
    assert not any(c["base_size_matches"]["(n-1)/2"] for c in candidates)


def test_conjecture_preconditions():
    with pytest.raises(ValueError):
        conjecture_search("star_half", 4)
    with pytest.raises(ValueError):
        conjecture_search("star_two", 4)
    with pytest.raises(ValueError):
        conjecture_search("unknown", 3)


@pytest.mark.parametrize("group_order", [-6, 0])
def test_conjecture_rejects_a_group_order_below_1(monkeypatch, group_order):
    def never(*args):
        raise AssertionError("nothing may be checked or built for a bad group order")

    monkeypatch.setattr(voltage, "check_vertex_cap", never)
    monkeypatch.setattr(voltage, "token_graph", never)
    with pytest.raises(ValueError, match="^group_order must be positive$"):
        conjecture_search("star_half", 3, group_order=group_order)


def test_conjecture_group_order_1_keeps_the_identity():
    report = conjecture_search("star_half", 3, group_order=1)
    assert report.status == "completed"
    assert report.find("group_modulus") == 1
    assert report.find("order_m_elements") == 1
    assert report.find("order_m_classes") == 1
    assert [c["automorphism"] for c in report.find("verified_candidates")] == ["()"]


@pytest.mark.parametrize("family, n, k, m", [("star_half", 5, 3, 10), ("star_two", 5, 2, 5)])
def test_free_actions_oracle_agrees_with_conjecture_search(family, n, k, m):
    """The test filter over every element of Aut(F_k(K_{1,n})) finds as
    many free order-m actions as the conjecture search reports."""
    report = conjecture_search(family, n)
    assert report.status == "completed" and report.find("group_modulus") == m
    found = free_actions(token_graph(star(n), k), m)
    assert found and len(found) == report.find("free_actions")


def _quotient_row(X, p):
    cvg, rep = quotient_cyclic(X, p)
    return (rep.passed, cvg.base.vertex_count, cvg.base.edge_count,
            tuple(sorted(s.size for s in cvg.vertex_groups)))


@pytest.mark.parametrize("family, n", [("star_half", 3), ("star_half", 5), ("star_two", 5)])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 10])
def test_conjecture_classes_match_exhaustive_verification(family, n, m):
    """One verified representative per class gives the same rows as
    quotienting and verifying every order-m automorphism on its own."""
    X = token_graph(star(n), (n + 1) // 2 if family == "star_half" else 2)
    aut = automorphisms(X)
    elements, whole = aut.closure()
    assert whole
    elements = list(elements)
    group = [p.images for p in elements]
    of_order = sorted((p for p in elements if p.order() == m),
                      key=lambda p: (not acts_freely(p, m), p.images))
    classes = cyclic_subgroup_classes(of_order, aut, m)
    assert sorted(p.images for c in classes for p in c) == sorted(p.images for p in of_order)

    rows = set()
    for members in classes:
        # exact class: every s g^j s^-1 over the whole group and coprime j
        g = members[0].images
        powers = [g]
        while len(powers) < m - 1:
            powers.append(tuple(g[x] for x in powers[-1]))
        expected = set()
        for j, h in enumerate(powers, 1):
            if gcd(j, m) == 1:
                for s in group:
                    conj = [0] * len(s)
                    for y, sy in enumerate(s):
                        conj[sy] = s[h[y]]
                    expected.add(tuple(conj))
        assert {p.images for p in members} == expected
        outcomes = {_quotient_row(X, p) for p in members}
        assert len(outcomes) == 1, outcomes
        rows |= outcomes

    report = conjecture_search(family, n, group_order=m)
    listed = report.find("verified_candidates")
    assert report.find("order_m_elements") == len(of_order)
    assert report.find("order_m_classes") == len(classes)
    assert sum(c["class_elements"] for c in listed) == len(of_order)
    assert {(True, c["base_vertices"], c["base_edges"], tuple(c["stabilizer_sizes"]))
            for c in listed} == rows
    # each listed representative lies in its own class, of the listed size
    where = {p.images: i for i, members in enumerate(classes) for p in members}
    hit = [where[from_cycle_string(X.vertex_count, c["automorphism"]).images] for c in listed]
    assert sorted(hit) == list(range(len(classes)))
    assert [c["class_elements"] for c in listed] == [len(classes[i]) for i in hit]


def test_cyclic_subgroup_classes_split_only_when_elements_are_missing():
    X = token_graph(star(5), 3)
    aut = automorphisms(X)
    of_order = sorted((p for p in aut.closure()[0] if p.order() == 10),
                      key=lambda p: p.images)
    (whole,) = cyclic_subgroup_classes(of_order, aut, 10)
    assert whole[0] == of_order[0] and len(whole) == 24
    # a third of the elements: the walk cannot pass through the missing
    # ones, so the class splits, each part led by its first listed member
    kept = of_order[::3]
    parts = cyclic_subgroup_classes(kept, aut, 10)
    assert len(parts) > 1
    assert sorted(p.images for c in parts for p in c) == [p.images for p in kept]
    assert [kept.index(c[0]) for c in parts] == sorted(kept.index(c[0]) for c in parts)
    assert all(kept.index(c[0]) == min(kept.index(p) for p in c) for c in parts)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 10, 14])
@pytest.mark.parametrize("n, k", [(5, 2), (5, 3), (7, 2), (7, 4)])
def test_cyclic_subgroup_classes_match_the_element_walk(n, k, m):
    """The walk over cyclic-subgroup nodes splits every input as the walk
    over the elements themselves does: the whole order-m list, every r-th
    element of it and seeded random subsets, each sorted by images, so the
    partial inputs split classes as a cap on the walk would."""
    aut = automorphisms(token_graph(star(n), k))
    order_m = sorted(of_order(aut, m)[0], key=lambda p: p.images)
    rng = random.Random(1000 * n + 10 * k + m)
    inputs = [order_m, *(order_m[::r] for r in (2, 3, 5))]
    inputs += [sorted(rng.sample(order_m, rng.randint(0, len(order_m))),
                      key=lambda p: p.images) for _ in range(4)]
    for elements in inputs:
        assert (cyclic_subgroup_classes(elements, aut, m)
                == cyclic_subgroup_classes_by_elements(elements, aut, m))


# the cases the walk oracle covers: every star token graph of the two
# families at n = 3, 5, 7, for every group order m in 2..14
CONJECTURE_GRAPHS = [(family, n) for family in ("star_half", "star_two") for n in (3, 5, 7)]


@pytest.mark.parametrize("m", range(2, 15))
@pytest.mark.parametrize("family, n", CONJECTURE_GRAPHS)
def test_conjecture_cycle_types_match_the_group_walk(family, n, m):
    """The classes read off cycle types are those the walk over every
    order-m element of Aut(F) finds: the same element, class and free
    counts, and each listed representative lies in its own walked class,
    with that class's size, freeness and quotient row; the unlisted classes
    are exactly those whose quotient does not verify.  Listed classes come
    free first, then by cycle type in reverse lexicographic order,
    uncomplemented first, each type of order m."""
    k = (n + 1) // 2 if family == "star_half" else 2
    X = token_graph(star(n), k)
    walked = walked_conjecture_classes(X, m)
    report = conjecture_search(family, n, group_order=m)
    assert report.status == "completed" and report.passed
    assert report.find("order_m_elements") == sum(len(e) for e, _, _ in walked)
    assert report.find("free_actions") == sum(len(e) for e, free, _ in walked if free)
    assert report.find("order_m_classes") == len(walked)
    listed = report.find("verified_candidates")
    hit = []
    for c in listed:
        images = from_cycle_string(X.vertex_count, c["automorphism"]).images
        (i,) = [i for i, (elements, _, _) in enumerate(walked) if images in elements]
        hit.append(i)
        elements, free, (passed, base_vertices, base_edges, stabilizers) = walked[i]
        assert (c["class_elements"], c["free"], c["base_vertices"], c["base_edges"],
                c["stabilizer_sizes"]) == (len(elements), free, base_vertices, base_edges,
                                           stabilizers)
        assert sum(c["cycle_type"]) == n and c["cycle_type"] == sorted(c["cycle_type"])[::-1]
        assert lcm(*c["cycle_type"], 2 if c["complemented"] else 1) == m
        assert c["complemented"] is False or 2 * k == n + 1
    assert sorted(hit) == [i for i, (_, _, row) in enumerate(walked) if row[0]]
    assert listed == sorted(listed, key=lambda c: (not c["free"], [-x for x in c["cycle_type"]],
                                                   c["complemented"]))


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_class_sizes_match_sympy(n):
    """``_partitions`` lists every partition of n once, in reverse
    lexicographic order, and n!/z_λ is the number of permutations of
    cycle type λ in sympy's enumeration of Sym(n)."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    counts = {}
    for p in combinatorics.SymmetricGroup(n).generate():
        cycle_type = tuple(sorted((len(c) for c in p.full_cyclic_form), reverse=True))
        counts[cycle_type] = counts.get(cycle_type, 0) + 1
    found = list(voltage._partitions(n, list(range(n, 0, -1))))
    assert found == sorted(counts, reverse=True)
    for cycle_type in found:
        assert factorial(n) // voltage._centralizer_order(cycle_type) == counts[cycle_type]


def test_partitions_into_divisors_keep_only_those_parts():
    assert list(voltage._partitions(6, [4, 2, 1])) == [
        (4, 2), (4, 1, 1), (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1,) * 6]
    assert list(voltage._partitions(0, [3, 1])) == [()]


def test_leaf_permutation_runs_each_cycle_over_consecutive_leaves():
    assert voltage._leaf_permutation(6, (3, 2, 1)).cycle_string() == "(1 2 3)(4 5)"
    assert voltage._leaf_permutation(4, (1, 1, 1, 1)).cycle_string() == "()"
    assert voltage._leaf_permutation(4, (4,)).images == (0, 2, 3, 4, 1)


def test_conjecture_certificate_needs_complementation(monkeypatch):
    """At 2k = n + 1 Aut(F) is twice the group the leaves induce: without
    complementation the certificate fails, and the search raises."""
    real = voltage._token_action

    def leaves_only(generators, n, k, F):
        return real(generators, n, k, F)[:len(generators)]

    monkeypatch.setattr(voltage, "_token_action", leaves_only)
    with pytest.raises(symmetry.KernelResultError, match="leaf permutations induce"):
        conjecture_search("star_half", 5)
    # at 2k != n + 1 there is no complementation to drop
    assert conjecture_search("star_two", 5).status == "completed"
