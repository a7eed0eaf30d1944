import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_covers.graphs import (
    Multigraph,
    SimpleGraph,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    family_size,
    from_json,
    is_biregular,
    make_family,
    path,
    srg_parameters,
    star,
    to_dot,
    to_json,
    underlying_simple,
)
from token_covers.tokens import token_graph

from helpers import (
    assert_mask_built,
    brute_force_biregular,
    disjoint_union,
    graph_unions,
    relabel,
    simple_graphs,
)


def test_complete_4():
    g = complete(4)
    assert g.edge_count == 6
    assert g.degrees() == [3, 3, 3, 3]


def test_star_5():
    g = star(5)
    assert g.vertex_count == 6
    assert g.edge_count == 5
    assert g.degrees() == [5, 1, 1, 1, 1, 1]


def test_complete_bipartite_2_4():
    g = complete_bipartite(2, 4)
    assert g.edge_count == 8
    assert sorted(g.degrees()) == [2, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_edge_formula(n):
    assert complete(n).edge_count == n * (n - 1) // 2


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 3), (4, 2)])
def test_bipartite_edge_formula(m, n):
    assert complete_bipartite(m, n).edge_count == m * n


def test_family_dispatch_and_errors():
    assert make_family("cycle", 5) == cycle(5)
    assert make_family("complete_bipartite", 2, 3) == complete_bipartite(2, 3)
    with pytest.raises(ValueError):
        make_family("complete", 0)
    with pytest.raises(ValueError):
        make_family("torus", 3)
    with pytest.raises(ValueError):
        make_family("complete", 3, 3)
    with pytest.raises(ValueError):
        cycle(2)


@pytest.mark.parametrize("name, params", [
    ("complete", (n,)) for n in range(1, 9)] + [
    ("star", (n,)) for n in range(1, 9)] + [
    ("path", (n,)) for n in range(1, 9)] + [
    ("cycle", (n,)) for n in range(3, 9)] + [
    ("complete_bipartite", (m, n)) for m in range(1, 5) for n in range(1, 5)])
def test_family_size_matches_the_built_graph(name, params):
    G = make_family(name, *params)
    assert family_size(name, *params) == (G.vertex_count, G.edge_count)


def test_family_size_errors():
    with pytest.raises(ValueError):
        family_size("torus", 3)
    with pytest.raises(ValueError):
        family_size("complete", 3, 3)
    with pytest.raises(ValueError):
        star(0)


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 2)])


@pytest.mark.parametrize("cls", [Multigraph, SimpleGraph])
@pytest.mark.parametrize("args, message", [
    ((-1,), "vertex_count must be non-negative"),
    ((2, [(0, 2)]), "edge (0,2) out of range for 2 vertices"),
    ((2, [(-1, 1)]), "edge (-1,1) out of range for 2 vertices"),
    ((2, [(0, 1)], ["a"]), "labels length must equal vertex_count"),
])
def test_each_single_fault_has_its_message(cls, args, message):
    """Both constructors name a fault of the count, the edges or the labels
    alike: ``Multigraph`` checks them for both."""
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("edges, labels, message", [
    ([(0, 1), (2, 2)], None, "loop at 2 not allowed in a simple graph"),
    ([(0, 1), (1, 0)], None, "duplicate edge (0, 1)"),
    ([(1, 2), (0, 1), (2, 1), (0, 0)], None, "duplicate edge (1, 2)"),
    ([(0, 0), (1, 2), (2, 1)], None, "loop at 0 not allowed in a simple graph"),
    # the labels are checked before loops and parallel edges
    ([(1, 1)], ["a"], "labels length must equal vertex_count"),
])
def test_simple_graph_rejects_loops_and_parallel_edges(edges, labels, message):
    """The first loop or parallel edge in the given order is named, while a
    multigraph takes them."""
    with pytest.raises(ValueError) as info:
        SimpleGraph(3, edges, labels)
    assert str(info.value) == message
    assert Multigraph(3, edges).edge_count == len(edges)


def test_a_simple_graph_is_a_multigraph_but_never_equal_to_one():
    simple, multi = SimpleGraph(2, [(0, 1)]), Multigraph(2, [(0, 1)])
    assert isinstance(SimpleGraph(1), Multigraph)
    assert simple != multi and multi != simple
    for same in (SimpleGraph(2, [(1, 0)]), SimpleGraph._from_masks(2, [2, 1], None)):
        assert simple == same and hash(simple) == hash(same)
    same = Multigraph(2, [(1, 0)])
    assert multi == same and hash(multi) == hash(same)
    # a simple graph sorts its edges; a multigraph keeps their order as ids
    assert SimpleGraph(3, [(1, 2), (0, 1)]) == SimpleGraph(3, [(0, 1), (1, 2)])
    assert Multigraph(3, [(1, 2), (0, 1)]) != Multigraph(3, [(0, 1), (1, 2)])
    assert repr(simple) == "SimpleGraph(2 vertices, 1 edges)"
    assert repr(Multigraph(3, [(0, 0), (0, 0)])) == "Multigraph(3 vertices, 2 edges)"


def test_multigraph_loop_counts_twice():
    g = Multigraph(2, [(0, 1), (1, 1)])
    assert g.degree(1) == 3
    assert g.degrees() == [1, 3]


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_multigraph_degree_sum(n, data):
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    g = Multigraph(n, edges)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count


def test_underlying_simple_examples():
    lonely_loop = Multigraph(2, [(1, 1)])
    assert underlying_simple(lonely_loop).edge_count == 0
    doubled = Multigraph(2, [(0, 1), (0, 1)])
    assert underlying_simple(doubled).edges == ((0, 1),)


@given(st.integers(0, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_underlying_simple_matches_validated_construction(n, data):
    """Loops dropped and parallel edges collapsed, in either orientation and
    any order: the mask-built reduction is the simple graph of the distinct
    non-loop pairs, with the multigraph's labels."""
    vertex = st.integers(0, max(n - 1, 0))
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=30 if n else 0))
    labels = data.draw(st.one_of(st.none(), st.just([f"v{v}" for v in range(n)])))
    simple = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    assert_mask_built(underlying_simple(Multigraph(n, edges, labels)), n, sorted(simple), labels)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_underlying_simple_idempotent(n, data):
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    g = Multigraph(n, edges)
    once = underlying_simple(g)
    again = underlying_simple(Multigraph(n, once.edges))
    assert once == again


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_multigraph(n, data):
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    g = Multigraph(n, edges, labels=[f"v{v}" for v in range(n)])
    back = from_json(to_json(g))
    assert back == g
    assert back.labels == g.labels


def test_json_round_trip_simple():
    g = token_graph(star(3), 2)
    parsed = from_json(to_json(g))
    back = SimpleGraph(parsed.vertex_count, parsed.edges, labels=parsed.labels)
    assert back == g
    assert back.labels == g.labels


def test_dot_single_vertex():
    text = to_dot(SimpleGraph(1))
    lines = text.strip().splitlines()
    assert lines[0].startswith("graph")
    assert len(lines) == 3  # header, one node, closer


_DOT_LABEL = re.compile(r'label="((?:[^"\\]|\\.)*)"')


def dot_labels(text):
    """The quoted labels of a DOT text, read as DOT reads them: a quote
    ends the string unless a backslash escapes it."""
    return [re.sub(r"\\(.)", r"\1", raw) for raw in _DOT_LABEL.findall(text)]


def test_dot_escapes_quotes_and_backslashes():
    G = Multigraph(2, [(0, 1)], labels=['a"b', "c\\d"])
    text = to_dot(G, edge_labels={0: 'say "\\hi"'})
    assert '  0 [label="a\\"b"];' in text
    assert '  1 [label="c\\\\d"];' in text
    assert '  0 -- 1 [label="say \\"\\\\hi\\""];' in text
    assert dot_labels(text) == ['a"b', "c\\d", 'say "\\hi"']


def test_dot_escapes_labels_read_from_json():
    # from_json takes any strings as labels
    text = json.dumps({"vertices": 3, "labels": ['x" color="red', "end\\", "plain"],
                       "edges": [{"id": 0, "u": 0, "v": 1}]})
    G = from_json(text)
    assert dot_labels(to_dot(G)) == ['x" color="red', "end\\", "plain"]


def test_json_cycle3():
    payload = json.loads(to_json(cycle(3)))
    assert payload["vertices"] == 3
    assert len(payload["edges"]) == 3


def test_from_json_rejects_missing_edges_and_bad_ids():
    with pytest.raises(ValueError):
        from_json('{"vertices": 2}')
    with pytest.raises(ValueError):
        from_json('{"vertices": 1, "labels": null, "edges": [{"id": 5, "u": 0, "v": 0}]}')


@pytest.mark.parametrize("edge_record", [
    '{"u": 0, "v": 1}',
    '{"id": "0", "u": 0, "v": 1}',
    '[0, 1]',
    '{"id": 0, "u": "a", "v": 1}',
])
def test_from_json_rejects_malformed_edge_records(edge_record):
    with pytest.raises(ValueError, match="malformed graph JSON"):
        from_json(f'{{"vertices": 2, "labels": null, "edges": [{edge_record}]}}')


@pytest.mark.parametrize("text", [
    '{"vertices": 2.0, "labels": null, "edges": []}',
    '{"vertices": true, "labels": null, "edges": []}',
    '{"vertices": "2", "labels": null, "edges": []}',
    '{"vertices": 2, "labels": null, "edges": [{"id": true, "u": 0, "v": 1}]}',
    '{"vertices": 2, "labels": null, "edges": [{"id": false, "u": 0, "v": 1}]}',
    '{"vertices": 2, "labels": null, "edges": [{"id": 0.0, "u": 0, "v": 1}]}',
    '{"vertices": 2, "labels": null, "edges": [{"id": 0, "u": 0.0, "v": 1}]}',
    '{"vertices": 2, "labels": null, "edges": [{"id": 0, "u": 0, "v": 1.0}]}',
    '{"vertices": 2, "labels": null, "edges": [{"id": 0, "u": false, "v": 1}]}',
    '{"vertices": 2, "labels": null, "edges": [{"id": 0, "u": 0, "v": true}]}',
])
def test_from_json_rejects_non_integer_counts_ids_and_endpoints(text):
    with pytest.raises(ValueError, match="must be an integer"):
        from_json(text)


@pytest.mark.parametrize("text", [
    '{"vertices": 2, "labels": "ab", "edges": []}',
    '{"vertices": 2, "labels": [1, null], "edges": []}',
    '{"vertices": 2, "labels": null, "edges": {}}',
])
def test_from_json_rejects_non_list_labels_and_edges(text):
    with pytest.raises(ValueError, match="malformed graph JSON"):
        from_json(text)


def test_export_deterministic():
    g = token_graph(complete(5), 2)
    assert to_json(g) == to_json(token_graph(complete(5), 2))
    assert to_dot(g) == to_dot(token_graph(complete(5), 2))


def test_connected_components():
    g = disjoint_union(cycle(3), path(2))
    assert connected_components(g) == [[0, 1, 2], [3, 4]]


@settings(max_examples=200, deadline=None)
@given(simple_graphs(0, 6), simple_graphs(0, 6), st.data())
def test_connected_components_match_networkx(A, B, data):
    """Components of a relabelled disjoint union, against networkx's."""
    nx = pytest.importorskip("networkx")
    X = disjoint_union(A, B)
    X = relabel(X, data.draw(st.permutations(range(X.vertex_count))))
    G = nx.Graph()
    G.add_nodes_from(range(X.vertex_count))
    G.add_edges_from(X.edges)
    assert connected_components(X) == sorted(sorted(c) for c in nx.connected_components(G))


def test_biregular_star():
    assert is_biregular(star(5)) == (5, 1)


def test_biregular_odd_cycle_absent():
    assert is_biregular(cycle(5)) is None


def test_biregular_even_cycle():
    assert is_biregular(cycle(4)) == (2, 2)


def test_biregular_token_star():
    # parts of F_2(K_{1,4}): the four center+leaf tokens have degree 3 and
    # include vertex 0 = {0,1}; the six leaf-pair tokens have degree 2
    g = token_graph(star(4), 2)
    part_of_zero = {0}
    frontier = {0}
    side = {0: 0}
    while frontier:
        nxt = set()
        for v in frontier:
            for w in g.neighbors(v):
                if w not in side:
                    side[w] = side[v] ^ 1
                    nxt.add(w)
        frontier = nxt
    deg0 = {g.degree(v) for v, s in side.items() if s == 0}
    deg1 = {g.degree(v) for v, s in side.items() if s == 1}
    assert deg0 == {3} and deg1 == {2}
    assert is_biregular(g) == (3, 2)


def test_biregular_disconnected():
    assert is_biregular(disjoint_union(star(3), star(3))) == (3, 1)
    assert is_biregular(disjoint_union(star(3), path(2))) is None
    assert is_biregular(disjoint_union(star(3), star(5))) is None
    assert is_biregular(SimpleGraph(3)) == (0, 0)
    # an isolated vertex forces a degree-0 side
    assert is_biregular(disjoint_union(star(3), SimpleGraph(1))) is None
    assert is_biregular(disjoint_union(path(2), SimpleGraph(1))) is None


def test_biregular_not_bipartite_component():
    assert is_biregular(disjoint_union(cycle(3), path(2))) is None


@settings(max_examples=300, deadline=None)
@given(graph_unions())
def test_biregular_matches_brute_force(X):
    assert is_biregular(X) == brute_force_biregular(X)


def test_srg_token_complete():
    assert srg_parameters(token_graph(complete(5), 2)) == (10, 6, 3, 4)
    assert srg_parameters(token_graph(complete(6), 2)) == (15, 8, 4, 4)


def test_srg_absent():
    assert srg_parameters(path(4)) is None  # not regular
    assert srg_parameters(complete(4)) is None  # no non-adjacent pairs
    assert srg_parameters(cycle(6)) is None  # common neighbors not constant


def test_srg_pentagon():
    assert srg_parameters(cycle(5)) == (5, 2, 0, 1)
