"""The search kernel against the references it replaced: its one-sided
refinement against the full-scan lockstep refinement
(``helpers.full_scan_refine``), and the whole search against the lockstep
search built on it (``helpers.reference_*``)."""

import random
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import token_covers
from token_covers import search
from token_covers.graphs import SimpleGraph, complete, cycle, star, underlying_simple
from token_covers.tokens import token_graph
from token_covers.voltage import lift, theorem1_base

from helpers import (
    dense_or_sparse_graphs,
    disjoint_union,
    full_scan_refine,
    graph_pairs,
    graphs_or_doubles,
    kernel_corpus,
    kernel_witness_pairs,
    reference_automorphism_generators,
    reference_isomorphism_witness,
    regular_pairs,
    relabel,
)


def _cells(col):
    """The kernel's form of a per-vertex coloring: one class member mask
    per vertex, class c's at index c, the entries past the last class 0."""
    cells = [0] * len(col)
    for v, c in enumerate(col):
        cells[c] |= 1 << v
    return cells


def _col(cells):
    """The per-vertex coloring of the kernel's class masks ``cells``."""
    col = [0] * len(cells)
    for c, members in enumerate(cells):
        for v in range(len(cells)):
            if members >> v & 1:
                col[v] = c
    return col


def _assert_partition(cells, ncolors):
    """The first ``ncolors`` masks are non-empty, pairwise disjoint and
    cover every vertex; the rest are 0."""
    assert all(cells[:ncolors]) and not any(cells[ncolors:])
    union = 0
    for members in cells[:ncolors]:
        assert not union & members
        union |= members
    assert union == (1 << len(cells)) - 1


def _refine_both(adj_l, col_l, adj_r, col_r, ncolors, seeds):
    """Refine the left side recording its trace, then the right side
    against it, on the class masks of the colorings.  Require what the
    lockstep full scan gives: the same color count or -1 verdict and the
    same right coloring (where the scan stopped, on -1), and the left
    coloring of a full scan of the left side alone, which the recording's
    color lookup also holds.  Returns the lockstep result."""
    trace = []
    lookup = list(col_l)
    left = search._refine(adj_l, cl := _cells(col_l), ncolors, trace, seeds, lookup)
    assert (left, _col(cl)) == (full_scan_refine(adj_l, a := list(col_l), adj_l, list(col_l),
                                                 ncolors, seeds), a)
    got = search._refine(adj_r, cr := _cells(col_r), ncolors, trace)
    want = (full_scan_refine(adj_l, wl := list(col_l), adj_r, wr := list(col_r),
                             ncolors, seeds), wl, wr)
    assert (got, _col(cr)) == (want[0], wr)
    assert lookup == _col(cl)
    if got >= 0:
        assert _col(cl) == wl
    return want


@settings(max_examples=300, deadline=None)
@given(graph_pairs(max_vertices=16), st.data())
def test_refine_matches_full_scan(pair, data):
    """Initial refinement of a pair (isomorphic or not, often equal in
    degrees so that they diverge only after the first pop), then
    individualise one left and one right vertex of a common class per
    level, as the search does, down to a discrete coloring or a -1
    verdict.  The queue starts from the new singleton alone, as the search
    seeds it, or from the singleton and the class it left, which is then
    queued and so gives up no part of its later splits."""
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
        seeds = data.draw(st.sampled_from([(nc,), (c, nc)]))
        nc, col_l, col_r = _refine_both(adj_l, col_l, adj_r, col_r, nc + 1, seeds)


def test_refine_rejects_after_matching_first_pop():
    """P_5 and K_3 + K_2 have the same degrees, so the first pop's groups
    agree; the second pop (the degree-1 class) tells them apart."""
    X = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    Y = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    trace = []
    search._refine(X.adjacency_masks, _cells([0] * 5), 1, trace, (0,), [0] * 5)
    assert len(trace) > 1
    first = search._splitter_hits(Y.adjacency_masks, 0b11111, [0b11111, 0, 0, 0, 0], 1,
                                  [0] * 5, 6)
    assert {k: m.bit_count() for k, m in first.items()} == trace[0][1]
    assert search._refine(Y.adjacency_masks, _cells([0] * 5), 1, trace) == -1
    _refine_both(X.adjacency_masks, [0] * 5, Y.adjacency_masks, [0] * 5, 1, (0,))


@settings(max_examples=300, deadline=None)
@given(dense_or_sparse_graphs(max_vertices=16), st.data())
def test_counts_and_splitter_hits_match_brute_force(X, data):
    """``_counts`` holds every vertex's number of neighbours in the splitter,
    and ``_splitter_hits`` groups the reached vertices by class and count as
    a brute-force scan does, under a drawn coloring, the one-class coloring
    and the discrete one.  An isolated vertex is added, which no splitter
    reaches, so the discrete coloring has more classes than reached
    vertices (the per-vertex path) and the one-class coloring, once the
    splitter reaches anything, no more (the digit-mask path).  Each check
    runs on the drawn splitter and on its least member alone,
    whose counts the per-vertex path takes as 1 with no popcount."""
    X = disjoint_union(X, SimpleGraph(1))
    adj = X.adjacency_masks
    n = X.vertex_count
    drawn_splitter = data.draw(st.integers(1, (1 << n) - 1))
    drawn = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    ids = {c: i for i, c in enumerate(dict.fromkeys(drawn))}
    for splitter in (drawn_splitter, drawn_splitter & -drawn_splitter):
        digits = search._counts(adj, splitter)
        assert not digits or digits[-1]
        want_counts = [(a & splitter).bit_count() for a in adj]
        assert [sum((d >> v & 1) << i for i, d in enumerate(digits))
                for v in range(n)] == want_counts
        reached = sum(c > 0 for c in want_counts)
        paths = set()
        for col in ([ids[c] for c in drawn], [0] * n, list(range(n))):
            ncolors = max(col) + 1
            cells = _cells(col)
            want = {}
            for v in range(n):
                if want_counts[v]:
                    key = col[v] * (n + 1) + want_counts[v]
                    want[key] = want.get(key, 0) | 1 << v
            assert search._splitter_hits(adj, splitter, cells, ncolors, col, n + 1) == want
            paths.add("digits" if ncolors <= reached else "vertices")
        assert paths == ({"digits", "vertices"} if reached else {"vertices"})


def test_no_split_replay_rejects_a_non_regular_graph():
    """C_6's first pop splits nothing (every degree is 2), so its replay
    is the digit-mask check of ``_replayed`` with no group moved.  A
    triangle with a pendant path has as many vertices and edges but
    degrees 1, 2 and 3: the replay rejects at that pop, and accepts a
    relabelled C_6."""
    X = cycle(6)
    Y = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert Y.edge_count == X.edge_count
    trace = []
    assert search._refine(X.adjacency_masks, _cells([0] * 6), 1, trace, (0,), [0] * 6) == 1
    assert trace == [(0, {2: 6}, [])]
    everyone = [0b111111, 0, 0, 0, 0, 0]
    assert search._replayed(search._counts(Y.adjacency_masks, 0b111111), everyone, 1,
                            trace[0][1], [], 7) == -1
    assert search._refine(Y.adjacency_masks, _cells([0] * 6), 1, trace) == -1
    Z = relabel(X, [3, 0, 5, 1, 4, 2])
    assert search._replayed(search._counts(Z.adjacency_masks, 0b111111), everyone, 1,
                            trace[0][1], [], 7) == 1
    assert everyone == [0b111111, 0, 0, 0, 0, 0]
    assert search._refine(Z.adjacency_masks, _cells([0] * 6), 1, trace) == 1
    _refine_both(X.adjacency_masks, [0] * 6, Y.adjacency_masks, [0] * 6, 1, (0,))
    _refine_both(X.adjacency_masks, [0] * 6, Z.adjacency_masks, [0] * 6, 1, (0,))


def test_no_split_replay_rejects_counts_past_the_top_digit():
    """K_6's first pop records count 5 = 0b101 for every vertex.  In a
    perfect matching every count is 1, a single digit that agrees with 5
    in its low bit: the replay must still reject."""
    trace = []
    assert search._refine(complete(6).adjacency_masks, _cells([0] * 6), 1, trace, (0,),
                          [0] * 6) == 1
    assert trace == [(0, {5: 6}, [])]
    matching = SimpleGraph(6, [(0, 1), (2, 3), (4, 5)]).adjacency_masks
    assert search._counts(matching, 0b111111) == [0b111111]
    assert search._replayed([0b111111], _cells([0] * 6), 1, trace[0][1], [], 7) == -1
    assert search._refine(matching, _cells([0] * 6), 1, trace) == -1


@settings(max_examples=300, deadline=None)
@given(dense_or_sparse_graphs(max_vertices=16), st.data())
def test_replayed_matches_brute_force_grouping(X, data):
    """``_replayed`` accepts a recorded pop exactly when a brute-force
    grouping of the reached vertices by class and count has the recorded
    keys and sizes, and then splits off the moved groups; on -1 it leaves
    the class masks as they were.  The recorded sizes are the pop's own,
    another drawn pop's, or the pop's own with one key dropped, added or
    resized, or with two sizes swapped (so that they still add up to the
    reached count)."""
    adj = X.adjacency_masks
    n = X.vertex_count
    stride = n + 1

    def grouping(col, splitter):
        hits = {}
        for v in range(n):
            count = (adj[v] & splitter).bit_count()
            if count:
                key = col[v] * stride + count
                hits[key] = hits.get(key, 0) | 1 << v
        return hits

    def coloring():
        drawn = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        ids = {c: i for i, c in enumerate(dict.fromkeys(drawn))}
        return [ids[c] for c in drawn]

    splitters = st.integers(1, (1 << n) - 1)
    col, splitter = coloring(), data.draw(splitters)
    hits = grouping(col, splitter)
    sizes = {key: members.bit_count() for key, members in hits.items()}
    want = dict(sizes)
    how = data.draw(st.sampled_from(["same", "other", "drop", "add", "resize", "swap"]))
    if how == "other":
        want = {key: members.bit_count()
                for key, members in grouping(coloring(), data.draw(splitters)).items()}
    elif how == "drop" and want:
        del want[data.draw(st.sampled_from(sorted(want)))]
    elif how == "add":
        want[data.draw(st.integers(0, n - 1)) * stride + data.draw(st.integers(1, n))] = \
            data.draw(st.integers(1, n))
    elif how == "resize" and want:
        key = data.draw(st.sampled_from(sorted(want)))
        want[key] = max(1, want[key] + data.draw(st.sampled_from([-1, 1])))
    elif how == "swap" and len(want) > 1:
        a, b = data.draw(st.lists(st.sampled_from(sorted(want)), min_size=2, max_size=2,
                                  unique=True))
        want[a], want[b] = want[b], want[a]
    moves = [key for key in sorted(want) if data.draw(st.booleans())]
    cells = _cells(col)
    # as in a recording, no class gives up all its members
    for c in {key // stride for key in moves}:
        keys = [key for key in moves if key // stride == c]
        if sum(sizes.get(key, 0) for key in keys) == cells[c].bit_count():
            moves.remove(keys[0])
    ncolors = max(col) + 1
    got = search._replayed(search._counts(adj, splitter), cells, ncolors, want, moves, stride)
    expected = _cells(col)
    if want != sizes:
        assert got == -1
    else:
        for key in moves:
            expected[key // stride] ^= hits[key]
            expected[ncolors] = hits[key]
            ncolors += 1
        assert got == ncolors
    assert cells == expected


def test_cells_stay_a_partition(monkeypatch):
    """After every ``_refine`` call of the searches on the kernel corpus
    (each graph's automorphisms), the witness pairs and the regular pairs
    (whose branches replays reject deep in the search), recording a
    first-path level or replaying a trace, the class masks partition the
    vertices: the first ``ncolors`` are non-empty, pairwise disjoint and
    cover every vertex, and the rest are 0.  A rejected replay leaves its
    masks a partition into the classes it had reached, and a recording
    leaves its color lookup in step with its masks."""
    refine = search._refine
    calls = Counter()

    def checking(adj, cells, ncolors, trace, seeds=None, col=None):
        got = refine(adj, cells, ncolors, trace, seeds, col)
        _assert_partition(cells, got if got >= 0 else len(cells) - cells.count(0))
        if seeds is not None:
            assert col == _col(cells)
        calls["recorded" if seeds is not None else "accepted" if got >= 0 else "rejected"] += 1
        return got

    monkeypatch.setattr(search, "_refine", checking)
    for g in kernel_corpus():
        search.automorphism_generators(g.adjacency_masks)
    for a, b in kernel_witness_pairs():
        search.isomorphism_witness(a, b)
    for X, Y in regular_pairs():
        search.isomorphism_witness(X.adjacency_masks, Y.adjacency_masks)
    assert min(calls["recorded"], calls["accepted"], calls["rejected"]) > 100, calls


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
    the lockstep search's, on the kernel corpus, the witness pairs, the
    relabelled order graphs and the theorem-1 pairs: the simple graph of
    the cover against F_2(K_n), and Aut F_2(K_n), for even n in 6..20."""
    assert token_covers.SEARCH_BACKEND == "python"
    graphs = [g.adjacency_masks for g in kernel_corpus()]
    pairs = kernel_witness_pairs()
    for g, h in _relabelled_order_graphs():
        graphs.append(h.adjacency_masks)
        pairs.append((g.adjacency_masks, h.adjacency_masks))
    for n in range(6, 21, 2):
        tokens = token_graph(complete(n), 2).adjacency_masks
        graphs.append(tokens)
        pairs.append((underlying_simple(lift(theorem1_base(n)).graph).adjacency_masks, tokens))
    for adj in graphs:
        assert search.automorphism_generators(adj) == reference_automorphism_generators(adj)
    for a, b in pairs:
        assert search.isomorphism_witness(a, b) == reference_isomorphism_witness(a, b)


def test_search_matches_lockstep_reference_on_regular_pairs():
    """Generator lists and witnesses are the lockstep search's on regular
    pairs, where the replay of a branch's trace rejects it or certifies
    its leaf with no help from degrees.  The Shrikhande and rook's graphs
    share their parameters but are not isomorphic; a relabelled pair is."""
    for i, (X, Y) in enumerate(regular_pairs()):
        a, b = X.adjacency_masks, Y.adjacency_masks
        for adj in (a, b):
            assert search.automorphism_generators(adj) == reference_automorphism_generators(adj)
        witness = search.isomorphism_witness(a, b)
        assert witness == reference_isomorphism_witness(a, b)
        if i < 2:
            assert witness is None
        elif i % 2:
            assert witness is not None


@settings(max_examples=200, deadline=None)
@given(graphs_or_doubles(), st.data())
def test_search_matches_lockstep_reference_on_drawn_graphs(X, data):
    """Generator lists (order and base points included) and witnesses are
    the lockstep search's on drawn graphs, each paired with a relabelling of itself."""
    adj = X.adjacency_masks
    assert search.automorphism_generators(adj) == reference_automorphism_generators(adj)
    other = relabel(X, data.draw(st.permutations(range(X.vertex_count)))).adjacency_masks
    assert search.isomorphism_witness(adj, other) == reference_isomorphism_witness(adj, other)


def _quotient(adj, col):
    """The quotient matrix of ``col`` on ``adj`` by brute-force counting,
    ``{(c, d): neighbours in class d of each member of class c}``, or None
    if some class has members with different counts (not equitable)."""
    n = len(adj)
    quotient = {}
    for v in range(n):
        counts = {}
        for u in range(n):
            if adj[v] >> u & 1:
                counts[col[u]] = counts.get(col[u], 0) + 1
        for d in set(col):
            if quotient.setdefault((col[v], d), counts.get(d, 0)) != counts.get(d, 0):
                return None
    return quotient


def _assert_queue_rule(trace, col, ncolors, seeds):
    """The splitters of a recorded ``trace`` are those the queue rule pops,
    from ``seeds`` and the classes of ``col`` (``ncolors`` of them): a
    split class already queued queues each new part; any other queues
    each part but its first largest (its own part first, then the new ids
    in allocation order); and the queue ends empty."""
    size = Counter(col)
    stride = len(col) + 1
    queue = list(seeds)
    for s, hits, moves in trace:
        assert queue.pop(0) == s
        parts = {}
        for key in moves:
            parts.setdefault(key // stride, []).append((ncolors, hits[key]))
            ncolors += 1
        for c, new in sorted(parts.items()):
            new.insert(0, (c, size[c] - sum(p for _, p in new)))
            for x, p in new:
                size[x] = p
            sizes = [p for _, p in new]
            del new[0 if c in queue else sizes.index(max(sizes))]
            queue += [x for x, _ in new]
    assert not queue


def test_refinement_ends_equitable_on_both_sides(monkeypatch):
    """Every level of the first path is equitable, by brute-force counting
    on the kernel corpus, and its trace pops what the queue rule says; and
    on the witness pairs, every right side a replay accepts (at level 0,
    and each ``_children`` yield the search reaches) has the quotient
    matrix of the left level it is aligned with.  The queue leaves one
    part of most splits unpopped, and the search's soundness rests on this
    holding all the same."""
    for g in kernel_corpus():
        adj = g.adjacency_masks
        col, ncolors, seeds = [0] * len(adj), 1, (0,)
        for level in search._first_path(adj):
            _assert_queue_rule(level.trace, col, ncolors, seeds)
            col = _col(level.cells)
            assert _quotient(adj, col) is not None
            col[level.vertex] = level.ncolors
            ncolors, seeds = level.ncolors + 1, (level.ncolors,)
    children = search._children
    seen = []

    def checking(adj_r, path, depth, cells_r, members):
        for cr in children(adj_r, path, depth, cells_r, members):
            assert _quotient(adj_r, _col(cr)) == left[depth + 1]
            seen.append(depth)
            yield cr

    monkeypatch.setattr(search, "_children", checking)
    for a, b in kernel_witness_pairs():
        if len(a) != len(b) or not a:
            continue
        path = search._first_path(a)
        left = [_quotient(a, _col(level.cells)) for level in path]
        cells = _cells([0] * len(b))
        if search._refine(b, cells, 1, path[0].trace) >= 0:
            assert _quotient(b, _col(cells)) == left[0]
            search.isomorphism_witness(a, b)
    assert len(seen) > 100


def test_isomorphism_witness_agrees_with_networkx():
    """An oracle that shares nothing with the kernel's queue rule: on
    seeded random d-regular pairs (d = 3..6, n = 10..40), half of them a
    graph and its relabelling, the witness exists exactly when networkx's
    ``is_isomorphic`` says so, and maps the edges of one graph onto the
    other's."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(27)
    isomorphic = 0
    for i in range(40):
        d, n = rng.randint(3, 6), rng.randint(10, 40)
        n -= d * n % 2
        X = SimpleGraph(n, nx.random_regular_graph(d, n, seed=rng.randrange(2**32)).edges)
        if i % 2:
            Y = relabel(X, rng.sample(range(n), n))
        else:
            Y = SimpleGraph(n, nx.random_regular_graph(d, n, seed=rng.randrange(2**32)).edges)
        witness = search.isomorphism_witness(X.adjacency_masks, Y.adjacency_masks)
        G, H = (nx.Graph(list(Z.edges)) for Z in (X, Y))
        assert (witness is not None) == nx.is_isomorphic(G, H)
        if witness is not None:
            isomorphic += 1
            assert sorted(witness) == list(range(n))
            assert {tuple(sorted((witness[u], witness[v]))) for u, v in X.edges} == set(Y.edges)
    assert isomorphic >= 20
