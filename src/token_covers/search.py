"""Search kernel: equitable refinement plus backtracking.

Adjacency comes in as a sequence of per-vertex integer bitmasks.  The two
entry points are ``automorphism_generators`` (a generating set of the
automorphism group, found by walking the identity path of the search tree
and harvesting one generator per new orbit point) and
``isomorphism_witness`` (first color-preserving bijection found, or None).

Refinement is the classic splitter-queue procedure run on both sides in
lockstep: for a splitter class ``s``, every class is partitioned by the
number of neighbors its members have inside ``s``.  New color ids are
allocated by ascending count within ascending class id (the smallest count
keeps the old id), so two sides that stay compatible always carry
structurally aligned colorings; a mismatch in any class's count multiset
proves no color-preserving isomorphism extends the current branch.

The refinement is cell-indexed (McKay & Piperno, "Practical graph
isomorphism, II", 2014): each call builds one member bitmask per class,
and a splitter pop visits only the splitter's members and their
neighbors.  Classes with no neighbor in the splitter cannot split; a
touched class's zero-count members number its size minus its touched
members, and only vertices that change class are recolored.  One pop
therefore costs O(|s| + |N(s)|) big-integer operations on masks of n
bits, instead of three passes over all n vertices.
"""

from __future__ import annotations

from collections import deque


def _refine(adj_l, col_l, adj_r, col_r, ncolors, seeds):
    """Refine both colorings to a common equitable partition.

    Mutates ``col_l``/``col_r``; returns the new color count or -1 when the
    sides are incompatible.  ``seeds`` primes the splitter queue.  Both
    colorings must have the same class sizes, which every caller keeps.
    """
    n = len(adj_l)
    # member mask of every class, built once per call; a class's size is
    # the popcount of its mask
    cell_l = [0] * n
    cell_r = [0] * n
    for v, c in enumerate(col_l):
        cell_l[c] |= 1 << v
    for v, c in enumerate(col_r):
        cell_r[c] |= 1 << v
    in_queue = bytearray(n + 1)
    queue = deque()
    for s in seeds:
        if not in_queue[s]:
            in_queue[s] = 1
            queue.append(s)
    stride = n + 1
    while queue:
        s = queue.popleft()
        in_queue[s] = 0
        hits_l = _splitter_hits(adj_l, cell_l[s], col_l, stride)
        hits_r = _splitter_hits(adj_r, cell_r[s], col_r, stride)
        # untouched classes have all-zero counts on both sides; touched ones
        # must agree on every (class, count) group size
        if len(hits_l) != len(hits_r):
            return -1
        for key, mask in hits_l.items():
            other = hits_r.get(key)
            if other is None or mask.bit_count() != other.bit_count():
                return -1
        # keys sort by class, then count: the allocation order of new ids
        keys = sorted(hits_l)
        end = 0
        while end < len(keys):
            start = end
            c = keys[start] // stride
            touched = 0
            while end < len(keys) and keys[end] // stride == c:
                touched += hits_l[keys[end]].bit_count()
                end += 1
            if touched == cell_l[c].bit_count():
                start += 1  # no zero-count members: the smallest count keeps c
            if start == end:
                continue
            if not in_queue[c]:
                in_queue[c] = 1
                queue.append(c)
            for key in keys[start:end]:
                new = ncolors
                ncolors += 1
                moved_l = hits_l[key]
                moved_r = hits_r[key]
                cell_l[c] ^= moved_l
                cell_r[c] ^= moved_r
                cell_l[new] = moved_l
                cell_r[new] = moved_r
                while moved_l:
                    low = moved_l & -moved_l
                    col_l[low.bit_length() - 1] = new
                    moved_l ^= low
                while moved_r:
                    low = moved_r & -moved_r
                    col_r[low.bit_length() - 1] = new
                    moved_r ^= low
                in_queue[new] = 1
                queue.append(new)
    return ncolors


def _splitter_hits(adj, splitter, col, stride):
    """Group the neighbours of the ``splitter`` mask by class and by their
    number of neighbours inside it: ``{class * stride + count: members}``,
    member sets as bitmasks.  Visits only the splitter and its neighbours."""
    reach = 0
    rest = splitter
    while rest:
        low = rest & -rest
        reach |= adj[low.bit_length() - 1]
        rest ^= low
    hits = {}
    while reach:
        low = reach & -reach
        v = low.bit_length() - 1
        reach ^= low
        key = col[v] * stride + (adj[v] & splitter).bit_count()
        hits[key] = hits.get(key, 0) | low
    return hits


def _target_cell(col, ncolors, n):
    """Smallest non-singleton class, ties to the lowest id; -1 if discrete."""
    sizes = [0] * ncolors
    for v in range(n):
        sizes[col[v]] += 1
    best = -1
    best_size = n + 1
    for c in range(ncolors):
        if 2 <= sizes[c] < best_size:
            best = c
            best_size = sizes[c]
    return best


def _extract(col_l, col_r, n):
    """Read the bijection off two discrete aligned colorings."""
    where = [0] * n
    for u in range(n):
        where[col_r[u]] = u
    return tuple(where[col_l[v]] for v in range(n))


def _preserves(adj_l, adj_r, sigma, n):
    """Exact adjacency check of a candidate bijection (both directions,
    since image masks are compared for equality)."""
    for v in range(n):
        mapped = 0
        rest = adj_l[v]
        while rest:
            low = rest & -rest
            mapped |= 1 << sigma[low.bit_length() - 1]
            rest ^= low
        if mapped != adj_r[sigma[v]]:
            return False
    return True


def _members(col, c, n):
    return [v for v in range(n) if col[v] == c]


def isomorphism_witness(adj1, adj2):
    """First adjacency-preserving bijection in canonical search order."""
    adj1 = tuple(adj1)
    adj2 = tuple(adj2)
    n = len(adj1)
    if len(adj2) != n:
        return None
    if n == 0:
        return ()
    col_l = [0] * n
    col_r = [0] * n
    nc = _refine(adj1, col_l, adj2, col_r, 1, (0,))
    if nc < 0:
        return None
    return _iso_search(adj1, col_l, adj2, col_r, nc)


def _iso_search(adj_l, col_l, adj_r, col_r, nc):
    n = len(adj_l)
    c = _target_cell(col_l, nc, n)
    if c < 0:
        sigma = _extract(col_l, col_r, n)
        return sigma if _preserves(adj_l, adj_r, sigma, n) else None
    v = min(_members(col_l, c, n))
    for u in _members(col_r, c, n):
        cl = col_l.copy()
        cr = col_r.copy()
        cl[v] = nc
        cr[u] = nc
        nc2 = _refine(adj_l, cl, adj_r, cr, nc + 1, (c, nc))
        if nc2 < 0:
            continue
        found = _iso_search(adj_l, cl, adj_r, cr, nc2)
        if found is not None:
            return found
    return None


def automorphism_generators(adj):
    """Generating set of the automorphism group, deterministic order.

    The identity path individualizes, at each level, the least vertex of
    the target cell mapped to itself.  Sibling branches map it to other
    members of the cell; each sibling subtree is searched for a single
    automorphism, and siblings already reachable from known generators
    fixing the current base prefix are pruned (Schreier-style generation,
    so the harvested set generates the full group).
    """
    adj = tuple(adj)
    n = len(adj)
    gens = []
    if n <= 1:
        return gens
    col_l = [0] * n
    col_r = [0] * n
    nc = _refine(adj, col_l, adj, col_r, 1, (0,))
    _aut_search(adj, col_l, col_r, nc, [], 0, gens)
    return gens


def _aut_search(adj, col_l, col_r, nc, base, depth, gens):
    n = len(adj)
    c = _target_cell(col_l, nc, n)
    if c < 0:
        return  # identity leaf
    v = min(_members(col_l, c, n))
    base.append(v)
    # identity branch first: deeper stabilizer generators must exist before
    # the sibling orbit pruning below consults them
    cl = col_l.copy()
    cr = col_r.copy()
    cl[v] = nc
    cr[v] = nc
    nc2 = _refine(adj, cl, adj, cr, nc + 1, (c, nc))
    _aut_search(adj, cl, cr, nc2, base, depth + 1, gens)
    prefix = base[:depth]
    for u in _members(col_r, c, n):
        if u == v or _in_orbit(v, u, gens, prefix):
            continue
        cl = col_l.copy()
        cr = col_r.copy()
        cl[v] = nc
        cr[u] = nc
        nc2 = _refine(adj, cl, adj, cr, nc + 1, (c, nc))
        if nc2 < 0:
            continue
        found = _first_automorphism(adj, cl, cr, nc2)
        if found is not None:
            gens.append(found)


def _first_automorphism(adj, col_l, col_r, nc):
    n = len(adj)
    c = _target_cell(col_l, nc, n)
    if c < 0:
        sigma = _extract(col_l, col_r, n)
        return sigma if _preserves(adj, adj, sigma, n) else None
    v = min(_members(col_l, c, n))
    for u in _members(col_r, c, n):
        cl = col_l.copy()
        cr = col_r.copy()
        cl[v] = nc
        cr[u] = nc
        nc2 = _refine(adj, cl, adj, cr, nc + 1, (c, nc))
        if nc2 < 0:
            continue
        found = _first_automorphism(adj, cl, cr, nc2)
        if found is not None:
            return found
    return None


def _in_orbit(v, u, gens, prefix):
    """Whether u lies in the orbit of v under the known generators that fix
    every base point in ``prefix``."""
    useful = [g for g in gens if all(g[b] == b for b in prefix)]
    if not useful:
        return False
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for g in useful:
            y = g[x]
            if y == u:
                return True
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False
