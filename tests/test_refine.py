"""The search kernel against the references it replaced: its one-sided
refinement against the full-scan lockstep refinement
(``helpers.full_scan_refine``), and the whole search against the lockstep
search built on it (``helpers.reference_*``)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import token_covers
from token_covers import search
from token_covers.graphs import SimpleGraph, complete, star
from token_covers.tokens import token_graph

from helpers import (
    full_scan_refine,
    graph_pairs,
    graphs_or_doubles,
    kernel_corpus,
    kernel_witness_pairs,
    reference_automorphism_generators,
    reference_isomorphism_witness,
    relabel,
)


def _refine_both(adj_l, col_l, adj_r, col_r, ncolors, seeds):
    """Refine the left side recording its trace, then the right side
    against it, on copies of the colorings.  Require what the lockstep
    full scan gives: the same color count or -1 verdict and the same right
    coloring (where the scan stopped, on -1), and the left coloring of a
    full scan of the left side alone.  Returns the lockstep result."""
    trace = []
    left = search._refine(adj_l, cl := list(col_l), ncolors, trace, seeds)
    assert (left, cl) == (full_scan_refine(adj_l, a := list(col_l), adj_l, list(col_l),
                                           ncolors, seeds), a)
    got = search._refine(adj_r, cr := list(col_r), ncolors, trace)
    want = (full_scan_refine(adj_l, wl := list(col_l), adj_r, wr := list(col_r),
                             ncolors, seeds), wl, wr)
    assert (got, cr) == (want[0], wr)
    if got >= 0:
        assert cl == wl
    return want


@settings(max_examples=300, deadline=None)
@given(graph_pairs(max_vertices=16), st.data())
def test_refine_matches_full_scan(pair, data):
    """Initial refinement of a pair (isomorphic or not, often equal in
    degrees so that they diverge only after the first pop), then
    individualise one left and one right vertex of a common class per
    level, as the search does, down to a discrete coloring or a -1
    verdict."""
    X, Y = pair
    adj_l, adj_r = X.adjacency_masks, Y.adjacency_masks
    n = X.vertex_count
    nc, col_l, col_r = _refine_both(adj_l, [0] * n, adj_r, [0] * n, 1, (0,))
    while nc >= 0:
        cells = [c for c in range(nc) if col_l.count(c) > 1]
        if not cells:
            break
        c = data.draw(st.sampled_from(cells))
        v = data.draw(st.sampled_from([w for w in range(n) if col_l[w] == c]))
        u = data.draw(st.sampled_from([w for w in range(n) if col_r[w] == c]))
        col_l[v] = col_r[u] = nc
        nc, col_l, col_r = _refine_both(adj_l, col_l, adj_r, col_r, nc + 1, (c, nc))


def test_refine_rejects_after_matching_first_pop():
    """P_5 and K_3 + K_2 have the same degrees, so the first pop's groups
    agree; the second pop (the degree-1 class) tells them apart."""
    X = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    Y = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    trace = []
    search._refine(X.adjacency_masks, [0] * 5, 1, trace, (0,))
    assert len(trace) > 1
    first = search._splitter_hits(Y.adjacency_masks, 0b11111, [0] * 5, 6)
    assert {k: m.bit_count() for k, m in first.items()} == trace[0][1]
    assert search._refine(Y.adjacency_masks, [0] * 5, 1, trace) == -1
    _refine_both(X.adjacency_masks, [0] * 5, Y.adjacency_masks, [0] * 5, 1, (0,))


def _relabelled_order_graphs():
    """The order graphs of the ``symmetry`` benchmark, relabelled."""
    rng = random.Random(7)
    for X, k in ((complete(8), 2), (complete(8), 3), (star(7), 4)):
        g = token_graph(X, k)
        images = list(range(g.vertex_count))
        rng.shuffle(images)
        yield g, relabel(g, images)


def test_search_matches_lockstep_reference():
    """Generator lists (order and base points included) and witnesses are
    the lockstep search's, on the kernel corpus, the witness pairs and the relabelled
    order graphs."""
    assert token_covers.SEARCH_BACKEND == "python"
    graphs = [g.adjacency_masks for g in kernel_corpus()]
    pairs = kernel_witness_pairs()
    for g, h in _relabelled_order_graphs():
        graphs.append(h.adjacency_masks)
        pairs.append((g.adjacency_masks, h.adjacency_masks))
    for adj in graphs:
        assert search.automorphism_generators(adj) == reference_automorphism_generators(adj)
    for a, b in pairs:
        assert search.isomorphism_witness(a, b) == reference_isomorphism_witness(a, b)


@settings(max_examples=200, deadline=None)
@given(graphs_or_doubles(), st.data())
def test_search_matches_lockstep_reference_on_drawn_graphs(X, data):
    """Generator lists (order and base points included) and witnesses are
    the lockstep search's on drawn graphs, each paired with a relabelling of itself."""
    adj = X.adjacency_masks
    assert search.automorphism_generators(adj) == reference_automorphism_generators(adj)
    other = relabel(X, data.draw(st.permutations(range(X.vertex_count)))).adjacency_masks
    assert search.isomorphism_witness(adj, other) == reference_isomorphism_witness(adj, other)
