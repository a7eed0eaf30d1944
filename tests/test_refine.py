"""The cell-indexed refinement of the search kernel against the full-scan
refinement it replaced (``helpers.full_scan_refine``)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import token_covers
from token_covers import search

from helpers import full_scan_refine, graph_pairs, kernel_corpus, kernel_witness_pairs


def _refine_both(adj_l, col_l, adj_r, col_r, ncolors, seeds):
    """Run both refinements on copies of the colorings and require the same
    color count (or -1 verdict) and the same colorings; return the result."""
    got = (search._refine(adj_l, cl := list(col_l), adj_r, cr := list(col_r),
                          ncolors, seeds), cl, cr)
    want = (full_scan_refine(adj_l, cl := list(col_l), adj_r, cr := list(col_r),
                             ncolors, seeds), cl, cr)
    assert got == want
    return got


@settings(max_examples=300, deadline=None)
@given(graph_pairs(max_vertices=16), st.data())
def test_refine_matches_full_scan(pair, data):
    """Initial refinement of a pair (isomorphic or not), then individualise
    one left and one right vertex of a common class per level, as the
    search does, down to a discrete coloring or a -1 verdict."""
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


def _kernel_outputs():
    generators = [search.automorphism_generators(g.adjacency_masks)
                  for g in kernel_corpus()]
    witnesses = [search.isomorphism_witness(a, b) for a, b in kernel_witness_pairs()]
    return generators, witnesses


def test_search_outputs_match_full_scan_refinement(monkeypatch):
    assert token_covers.SEARCH_BACKEND == "python"
    outputs = _kernel_outputs()
    monkeypatch.setattr(search, "_refine", full_scan_refine)
    assert _kernel_outputs() == outputs
