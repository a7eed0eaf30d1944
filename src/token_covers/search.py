"""Search kernel: equitable refinement plus backtracking.

Adjacency comes in as a sequence of per-vertex integer bitmasks.  The two
entry points are ``automorphism_generators`` (a strong generating set of
the automorphism group relative to the first path's base, found by walking
that path and harvesting one generator per new orbit point, each with the
base point it moves) and ``isomorphism_witness`` (first color-preserving
bijection found, or None).

Refinement is the classic splitter-queue procedure: for a splitter class
``s``, every class is partitioned by the number of neighbors its members
have inside ``s``.  New color ids are allocated by ascending count within
ascending class id (the smallest count keeps the old id).  The queue
follows McKay's rule ("Practical graph isomorphism", 1981), Hopcroft's
for automata: a class split while queued queues each new part, and a
class split while off the queue queues each part but its first largest
(its own part first, then the new ids in allocation order).  It is
cell-indexed (McKay & Piperno, "Practical graph isomorphism, II", 2014):
each call builds one member bitmask per class.  The counts are bit
sliced: a pop adds the adjacency masks of the splitter's |s| members
into a binary counter held as one mask per binary digit.  When the
coloring has no more classes than the pop reaches vertices, its groups
come from those digit masks and the class masks, with no vertex visited;
otherwise each reached vertex is visited once, its count a popcount.

Every branch of the search pairs the same left side with a different right
side.  The left side is the *first path*: the initial refinement, then at
each level the least vertex of the target cell individualized and the
coloring refined again, down to a discrete coloring.  ``_first_path``
builds it whole, each level with its split trace: per splitter pop, the
size of each (class, count) group and the keys that received new ids.  A
right side is never refined on its own; ``_children``, the one
individualize-and-replay step, replays that trace on its own graph, and
the first pop whose groups differ in keys or sizes proves that no
color-preserving isomorphism extends the branch.  ``_descend`` walks an
explicit stack of ``_children`` generators, so no search recurses.  A
matching replay allocates the same ids as the left, so the two colorings
stay structurally aligned down to a discrete leaf, and the bijection read
off that leaf is an isomorphism: the kernel checks no edge itself (the
proof, which also shows the parts the queue leaves out need no pop, is
in ``_descend``).
A recorded pop that split nothing (most of them, on token graphs) is
replayed on the digit masks alone: each recorded class must lie inside
its count's digit pattern and the classes must cover the reached set,
so no vertex is visited.
"""

from __future__ import annotations

from collections import deque, namedtuple


def _refine(adj, col, ncolors, trace, seeds=None):
    """Refine ``col`` (mutated) on one graph; return the new color count.

    With ``seeds`` this refines a level of the first path: the splitter
    queue starts from ``seeds`` (the one class at level 0, then the
    individualized singleton: every other class starts settled, in the
    sense of ``_descend``), takes the parts of each split by the module's
    queue rule, and each pop is appended to ``trace`` as
    ``(splitter, {key: group size}, moved keys)`` over the pop's
    ``_splitter_hits``.  Without, this refines a right side against that
    ``trace``: it pops the recorded splitters in order and returns -1 on
    the first pop whose hits differ from the recorded ones in key set or
    group sizes.  The queue depends only on those keys and on class sizes,
    which then agree pop by pop, so a replay needs no queue and pops
    exactly as often as the recording.  ``col`` must have the class sizes
    of the coloring the trace was recorded from.

    A replayed pop that moved nothing on the left is checked by
    ``_uniform`` on the splitter's ``_counts`` alone; any other pop groups
    its hits by ``_splitter_hits``, which takes the digit masks or visits
    the reached vertices, whichever the coloring makes cheaper.
    """
    n = len(adj)
    stride = n + 1
    # member mask of every class, built once per call; a class's size is
    # the popcount of its mask
    cells = [0] * n
    for v, c in enumerate(col):
        cells[c] |= 1 << v
    if seeds is None:
        for s, want, moves in trace:
            if not moves:
                if not _uniform(_counts(adj, cells[s]), cells, want, stride):
                    return -1
                continue
            hits = _splitter_hits(adj, cells[s], cells, ncolors, col, stride)
            if len(hits) != len(want):
                return -1
            for key, size in want.items():
                other = hits.get(key)
                if other is None or other.bit_count() != size:
                    return -1
            ncolors = _split(cells, col, ncolors, hits, moves, stride)
        return ncolors
    in_queue = bytearray(n + 1)
    queue = deque()
    for s in seeds:
        if not in_queue[s]:
            in_queue[s] = 1
            queue.append(s)
    while queue:
        s = queue.popleft()
        in_queue[s] = 0
        hits = _splitter_hits(adj, cells[s], cells, ncolors, col, stride)
        sizes = {key: mask.bit_count() for key, mask in hits.items()}
        # keys sort by class, then count: the allocation order of new ids
        keys = sorted(sizes)
        moves = []
        end = 0
        while end < len(keys):
            start = end
            c = keys[start] // stride
            touched = 0
            while end < len(keys) and keys[end] // stride == c:
                touched += sizes[keys[end]]
                end += 1
            size = cells[c].bit_count()
            if touched == size:
                start += 1  # no zero-count members: the smallest count keeps c
            if start == end:
                continue
            new = ncolors + len(moves)
            moves += keys[start:end]
            parts = [sizes[key] for key in keys[start:end]]
            queued = [c, *range(new, new + len(parts))]
            if in_queue[c]:
                del queued[0]
            else:
                # c is off the queue, so its first largest part (c's own
                # first, then the new ids) needs no pop (see ``_descend``)
                parts.insert(0, size - sum(parts))
                del queued[parts.index(max(parts))]
            for x in queued:
                in_queue[x] = 1
                queue.append(x)
        ncolors = _split(cells, col, ncolors, hits, moves, stride)
        trace.append((s, sizes, moves))
    return ncolors


def _counts(adj, splitter):
    """Every vertex's number of neighbours in the ``splitter`` mask, bit
    sliced: digit masks d_0, d_1, ... with vertex v's count the sum of
    2^i over the d_i holding v.  Each member's adjacency mask is added in
    with a ripple carry; the digits' union is the set of reached
    vertices."""
    digits = []
    while splitter:
        low = splitter & -splitter
        splitter ^= low
        carry = adj[low.bit_length() - 1]
        for i, d in enumerate(digits):
            digits[i] = d ^ carry
            carry &= d
            if not carry:
                break
        else:
            if carry:
                digits.append(carry)
    return digits


def _splitter_hits(adj, splitter, cells, ncolors, col, stride):
    """Group the neighbours of the ``splitter`` mask by class and by their
    number of neighbours inside it: ``{class * stride + count: members}``,
    member sets as bitmasks; ``cells`` holds the member mask of each of
    the ``ncolors`` classes.

    With no more classes than reached vertices, the reached set is split
    by count along the splitter's ``_counts`` digits, and each count group
    by class through the ``cells`` masks; otherwise each reached vertex is
    visited and its count taken as a popcount."""
    reach = 0
    rest = splitter
    while rest:
        low = rest & -rest
        reach |= adj[low.bit_length() - 1]
        rest ^= low
    hits = {}
    if ncolors <= reach.bit_count():
        digits = _counts(adj, splitter)
        groups = [(0, reach)]
        for i, d in enumerate(digits):
            split = []
            for count, members in groups:
                high = members & d
                if high:
                    split.append((count | 1 << i, high))
                if high != members:
                    split.append((count, members ^ high))
            groups = split
        for c in range(ncolors):
            rest = cells[c] & reach
            if not rest:
                continue
            key = c * stride
            for count, members in groups:
                part = rest & members
                if part:
                    hits[key + count] = part
                    rest ^= part
                    if not rest:
                        break
        return hits
    while reach:
        low = reach & -reach
        v = low.bit_length() - 1
        reach ^= low
        key = col[v] * stride + (adj[v] & splitter).bit_count()
        hits[key] = hits.get(key, 0) | low
    return hits


def _uniform(digits, cells, want, stride):
    """Whether a pop that split nothing on the left splits nothing here
    either, with the same hits: each recorded class lies wholly inside
    its count's digit pattern (in ``digits``, the pop's ``_counts``), and
    the reached set is the union of those classes.  With class sizes equal
    on both sides, this holds exactly when ``_splitter_hits`` would give
    the recorded keys and group sizes."""
    reach = 0
    for d in digits:
        reach |= d
    top = len(digits)
    patterns = {}
    union = 0
    for key in want:
        c, count = divmod(key, stride)
        pattern = patterns.get(count)
        if pattern is None:
            pattern = 0 if count >> top else reach
            for i, d in enumerate(digits):
                pattern &= d if count >> i & 1 else ~d
            patterns[count] = pattern
        members = cells[c]
        if members & pattern != members:
            return False
        union |= members
    return union == reach


def _split(cells, col, ncolors, hits, moves, stride):
    """Give each moved key's members the next new id; only vertices that
    change class are recolored.  Returns the new color count."""
    for key in moves:
        moved = hits[key]
        cells[key // stride] ^= moved
        cells[ncolors] = moved
        while moved:
            low = moved & -moved
            col[low.bit_length() - 1] = ncolors
            moved ^= low
        ncolors += 1
    return ncolors


_Level = namedtuple("_Level", "col ncolors cell vertex trace")


def _first_path(adj):
    """The whole first path, one ``_Level`` per level down to a discrete
    coloring: the coloring, its color count, the target cell (smallest
    non-singleton class, ties to the lowest id) and its least member,
    individualized in the next level (both -1 at the discrete level), and
    the trace that refined the coloring."""
    col = [0] * len(adj)
    trace = []
    ncolors = _refine(adj, col, 1, trace, (0,))
    path = []
    while True:
        sizes = [0] * ncolors
        for c in col:
            sizes[c] += 1
        cells = [c for c in range(ncolors) if sizes[c] >= 2]
        cell = min(cells, key=sizes.__getitem__) if cells else -1
        vertex = col.index(cell) if cells else -1
        path.append(_Level(col, ncolors, cell, vertex, trace))
        if not cells:
            return path
        col = col.copy()
        col[vertex] = ncolors
        trace = []
        ncolors = _refine(adj, col, ncolors + 1, trace, (ncolors,))


def _extract(col_l, col_r, n):
    """Read the bijection off two discrete aligned colorings."""
    where = [0] * n
    for u in range(n):
        where[col_r[u]] = u
    return tuple(where[col_l[v]] for v in range(n))


def _members(col, c, n):
    return [v for v in range(n) if col[v] == c]


def _children(adj_r, path, depth, col_r, members):
    """The one individualize-and-replay step: for each u of ``members``,
    read lazily, the right side ``col_r`` (aligned with level ``depth``)
    with u individualized, yielded when level ``depth + 1``'s trace
    replays on it."""
    nc = path[depth].ncolors
    trace = path[depth + 1].trace
    for u in members:
        cr = col_r.copy()
        cr[u] = nc
        if _refine(adj_r, cr, nc + 1, trace) >= 0:
            yield cr


def isomorphism_witness(adj1, adj2):
    """First adjacency-preserving bijection in canonical search order."""
    adj1 = tuple(adj1)
    adj2 = tuple(adj2)
    n = len(adj1)
    if len(adj2) != n:
        return None
    if n == 0:
        return ()
    path = _first_path(adj1)
    col = [0] * n
    if _refine(adj2, col, 1, path[0].trace) < 0:
        return None
    return _descend(path, 0, adj2, col)


def _descend(path, depth, adj_r, col_r):
    """First bijection below a right side ``col_r`` aligned with the first
    path's level ``depth``: each member of the target cell on the right is
    individualized against the first path's vertex, in order, by one
    ``_children`` generator per level on a stack, so no depth recurses.

    The bijection extracted at a discrete leaf is an isomorphism, so no
    edge is checked here.  Name vertex sets by class ids, so that one name
    means a set on each side, and call such a set *settled* when every
    class has one count of neighbours in it, the same on both sides:

    - Each class of the previous level's coloring starts a ``_refine``
      call settled: that coloring is equitable, and its replay matched.
    - A popped splitter is settled by its pop: the replay matched its
      keys, which are the per-class counts, and the group sizes.
    - The part left out of a split of a settled class has the class's
      counts minus its siblings' counts, so it is settled once those
      siblings are popped.
    - Classes only get finer, so a settled set stays settled.
    - So every class off the queue is a settled set less some disjoint
      sets, each settled or a union of queued classes (the target cell
      less its individualized vertex starts so, and a split off the
      queue keeps it so), and when the queue empties, every class is
      settled: the two colorings have equal quotient matrices (McKay,
      "Practical graph isomorphism", 1981).

    At a discrete leaf the quotient matrix is the adjacency matrix read
    in color order, so mapping each vertex to the right vertex of its
    color preserves adjacency both ways.
    """
    n = len(col_r)
    stack = []
    while True:
        level = depth + len(stack)
        if level == len(path) - 1:
            return _extract(path[level].col, col_r, n)
        stack.append(_children(adj_r, path, level, col_r, _members(col_r, path[level].cell, n)))
        while (col_r := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None


def automorphism_generators(adj):
    """Strong generating set of the automorphism group relative to the
    first path's base, deterministic order: a list of ``(generator, base
    point)`` pairs, deepest base point first.

    The first path individualizes, at each level d, the least vertex v_d
    of the target cell; mapped to itself, it is the identity.  Sibling
    branches map v_d to other members of the cell; each sibling subtree is
    searched for a single automorphism, and siblings already in the orbit
    of v_d under the known generators are pruned.  One orbit partition
    serves every level, each generator merged into it as it is found; the
    siblings are read lazily, so each is pruned against every generator
    found before it.  Levels are visited deepest first, and a generator found at depth d
    fixes v_0..v_{d-1} (singleton cells on both sides) and moves v_d, its
    base point; so every generator known at level d lies in the pointwise
    stabilizer G_d of v_0..v_{d-1}, whose orbits the pruning needs.

    The generators of depth >= d generate G_d (McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  By induction from the discrete leaf,
    where G_d is trivial: those of depth > d generate G_{d+1}, the
    stabilizer of v_d in G_d, since refinement commutes with automorphisms
    and G_d is the group of the level-d coloring.  Every sibling u in the
    G_d-orbit of v_d is either pruned, so already reached from v_d, or
    searched, and the search finds a generator mapping v_d to u.  So the
    group the depth >= d generators generate contains G_{d+1} and has the
    orbit of v_d under G_d: it is G_d.  The pairs are therefore a base
    (their base points, shallowest first) and a strong generating set, and
    |Aut| is the product of the basic orbit lengths.
    """
    adj = tuple(adj)
    n = len(adj)
    gens = []
    if n <= 1:
        return gens
    parent = list(range(n))  # orbit partition under ``gens``, as a forest
    path = _first_path(adj)
    for depth in reversed(range(len(path) - 1)):
        col, _, c, v, _ = path[depth]
        siblings = (u for u in _members(col, c, n) if _root(parent, u) != _root(parent, v))
        for cr in _children(adj, path, depth, col, siblings):
            found = _descend(path, depth + 1, adj, cr)
            if found is not None:
                gens.append((found, v))
                for x, y in enumerate(found):
                    x, y = _root(parent, x), _root(parent, y)
                    if x != y:
                        parent[y] = x
    return gens


def _root(parent, x):
    """The root of ``x``'s tree in the orbit forest, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x
