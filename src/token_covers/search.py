"""Search kernel: equitable refinement plus backtracking.

Adjacency comes in as a sequence of per-vertex integer bitmasks, and a
coloring is a list ``cells`` of class member bitmasks, one entry per
vertex: the first ``ncolors`` entries are the classes, the rest 0 (the
cell-indexed partitions of McKay & Piperno, "Practical graph isomorphism,
II", 2014, with no per-vertex color array).  The two entry points are
``automorphism_generators`` (a strong generating set of the automorphism
group relative to the first path's base, found by walking that path and
harvesting one generator per new orbit point, each with the base point it
moves, after the automorphisms the caller already knows) and
``isomorphism_witness`` (first color-preserving bijection found, or None).

Refinement is the classic splitter-queue procedure: for a splitter class
``s``, every class is partitioned by the number of neighbors its members
have inside ``s``.  New color ids are allocated by ascending count within
ascending class id (the smallest count keeps the old id), and a split only
moves mask bits from the old class to the new ones.  The queue follows
McKay's rule ("Practical graph isomorphism", 1981), Hopcroft's for
automata: a class split while queued queues each new part, and a class
split while off the queue queues each part but its first largest (its own
part first, then the new ids in allocation order).  The counts are bit
sliced: a pop adds the adjacency masks of the splitter's |s| members into
a binary counter held as one mask per binary digit (``_counts``), so the
vertices of one count are one pattern of those digits, and a (class,
count) group is a class mask and'ed with that pattern.

Every branch of the search pairs the same left side with a different right
side.  The left side is the *first path*: the initial refinement, then at
each level the least vertex of the target cell individualized and the
coloring refined again, down to a discrete coloring.  ``_first_path``
builds it whole, each level with its split trace: per splitter pop, the
size of each (class, count) group and the keys that received new ids.
Recording groups a pop's hits by ``_splitter_hits``: with no more classes
than the pop reaches vertices, from the digit masks and the class masks
with no vertex visited; otherwise by visiting each reached vertex once,
its class read from a per-vertex color lookup.  That lookup is an index
for recording alone: ``_first_path`` keeps one for the whole path and
writes only the vertices that change class, since one built from the
masks per level costs O(n) a level, O(n^2) on a star.  A recorded pop
that reaches each class whole at a single count splits nothing (616 of
the 714 pops on the first paths of F_2(K_n), even n in 4..20) and is
appended with no sort.

A right side is never refined on its own; ``_children``, the one
individualize-and-replay step, replays the trace on its own graph, and
each pop is checked one way, by ``_replayed``: each recorded group, read
off the digit masks, must have its recorded size and the groups must
cover the reached set, so no vertex is visited; the moved groups are then
split off.  The first pop that fails proves that no color-preserving
isomorphism extends the branch.  ``_descend`` walks an explicit stack of
``_children`` generators, so no search recurses.  A matching replay
allocates the same ids as the left, so the two colorings stay structurally
aligned down to a discrete leaf, and the bijection read off that leaf is
an isomorphism: the kernel checks no edge itself (the proof, which also
shows the parts the queue leaves out need no pop, is in ``_descend``).
"""

from __future__ import annotations

from collections import deque, namedtuple


def _refine(adj, cells, ncolors, trace, seeds=None, col=None):
    """Refine the coloring ``cells`` (mutated) on one graph; return the new
    color count.

    With ``seeds`` (and ``col``, the coloring's color lookup, kept current
    here) this refines a level of the first path: the splitter queue
    starts from ``seeds`` (the one class at level 0, then the
    individualized singleton: every other class starts settled, in the
    sense of ``_descend``), takes the parts of each split by the module's
    queue rule, and each pop is appended to ``trace`` as
    ``(splitter, {key: group size}, moved keys)`` over the pop's
    ``_splitter_hits``.  A pop that reaches each class whole at one count
    splits nothing and skips the sort and the queue rule.  Without, this
    refines a right side against that ``trace``: it pops the recorded
    splitters in order, checks each pop by ``_replayed`` and returns -1 on
    the first whose groups differ from the recorded ones in key set or
    sizes.  The queue depends only on those keys and on class sizes, which
    then agree pop by pop, so a replay needs no queue and pops exactly as
    often as the recording.  ``cells`` must have the class sizes of the
    coloring the trace was recorded from.
    """
    n = len(adj)
    stride = n + 1
    if seeds is None:
        for s, want, moves in trace:
            ncolors = _replayed(_counts(adj, cells[s]), cells, ncolors, want, moves, stride)
            if ncolors < 0:
                return -1
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
        for key, mask in hits.items():
            if mask != cells[key // stride]:
                break
        else:
            # each class reached whole at one count: nothing splits
            trace.append((s, sizes, []))
            continue
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
        first = ncolors
        ncolors = _split(cells, ncolors, hits, moves, stride)
        for c in range(first, ncolors):  # only moved vertices change class
            for v in _members(cells[c]):
                col[v] = c
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
    visited, its count taken as a popcount (1 for a one-member splitter)
    and its class read from the color lookup ``col``."""
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
    single = not splitter & (splitter - 1)  # then every count is 1
    while reach:
        low = reach & -reach
        v = low.bit_length() - 1
        reach ^= low
        key = col[v] * stride + (1 if single else (adj[v] & splitter).bit_count())
        hits[key] = hits.get(key, 0) | low
    return hits


def _replayed(digits, cells, ncolors, want, moves, stride):
    """Replay one recorded pop on the right side: the new color count, or
    -1 if its hits differ from the recorded ones.  ``digits`` are the
    splitter's ``_counts`` and ``want`` the recorded ``{key: group size}``.

    Each recorded (class c, count) group is ``cells[c]`` and'ed with the
    count's digit pattern and must have the recorded size.  The groups are
    disjoint and lie in the reached set, so they cover it exactly when the
    recorded sizes add up to its size.  Then every reached vertex is in a
    recorded group and every recorded group is non-empty, so the pop's
    ``_splitter_hits`` has the recorded keys and sizes.  The groups of the
    moved keys are then split off (``cells`` is left as it was on -1)."""
    reach = 0
    for d in digits:
        reach |= d
    if sum(want.values()) != reach.bit_count():
        return -1
    top = len(digits)
    patterns = {}
    for key, size in want.items():
        c, count = divmod(key, stride)
        pattern = patterns.get(count)
        if pattern is None:
            pattern = 0 if count >> top else reach
            for i, d in enumerate(digits):
                pattern &= d if count >> i & 1 else ~d
            patterns[count] = pattern
        if (cells[c] & pattern).bit_count() != size:
            return -1
    hits = {key: cells[key // stride] & patterns[key % stride] for key in moves}
    return _split(cells, ncolors, hits, moves, stride)


def _split(cells, ncolors, hits, moves, stride):
    """Give each moved key's members the next new id, moving their bits out
    of their old class mask.  Returns the new color count."""
    for key in moves:
        moved = hits[key]
        cells[key // stride] ^= moved
        cells[ncolors] = moved
        ncolors += 1
    return ncolors


_Level = namedtuple("_Level", "cells ncolors cell vertex trace")


def _first_path(adj):
    """The whole first path, one ``_Level`` per level down to a discrete
    coloring: the coloring, its color count, the target cell (smallest
    non-singleton class, ties to the lowest id) and its least member, the
    low bit of its mask, individualized in the next level (both -1 at the
    discrete level), and the trace that refined the coloring."""
    n = len(adj)
    cells = [0] * n
    cells[0] = (1 << n) - 1
    col = [0] * n
    trace = []
    ncolors = _refine(adj, cells, 1, trace, (0,), col)
    path = []
    while True:
        cell, vertex, best = -1, -1, n + 1
        for c in range(ncolors):
            size = cells[c].bit_count()
            if 1 < size < best:
                cell, best = c, size
        if cell >= 0:
            vertex = (cells[cell] & -cells[cell]).bit_length() - 1
        path.append(_Level(cells, ncolors, cell, vertex, trace))
        if cell < 0:
            return path
        cells = _individualized(cells, cell, vertex, ncolors)
        col[vertex] = ncolors
        trace = []
        ncolors = _refine(adj, cells, ncolors + 1, trace, (ncolors,), col)


def _individualized(cells, c, v, ncolors):
    """A copy of ``cells`` with vertex ``v`` of class ``c`` moved to the new
    class ``ncolors``."""
    cells = cells.copy()
    cells[c] ^= 1 << v
    cells[ncolors] = 1 << v
    return cells


def _extract(cells_l, cells_r, n):
    """Read the bijection off two discrete aligned colorings."""
    images = [0] * n
    for c in range(n):
        images[cells_l[c].bit_length() - 1] = cells_r[c].bit_length() - 1
    return tuple(images)


def _members(mask):
    """The vertices of ``mask``, ascending, read lazily."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _children(adj_r, path, depth, cells_r, members):
    """The one individualize-and-replay step: for each u of ``members``,
    read lazily, the right side ``cells_r`` (aligned with level ``depth``)
    with u individualized, yielded when level ``depth + 1``'s trace
    replays on it."""
    _, nc, c, _, _ = path[depth]
    trace = path[depth + 1].trace
    for u in members:
        cr = _individualized(cells_r, c, u, nc)
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
    cells = [0] * n
    cells[0] = (1 << n) - 1
    if _refine(adj2, cells, 1, path[0].trace) < 0:
        return None
    return _descend(path, 0, adj2, cells)


def _descend(path, depth, adj_r, cells_r):
    """First bijection below a right side ``cells_r`` aligned with the first
    path's level ``depth``: each member of the target cell on the right is
    individualized against the first path's vertex, in order, by one
    ``_children`` generator per level on a stack, so no depth recurses.

    The bijection extracted at a discrete leaf is an isomorphism, so no
    edge is checked here.  Name vertex sets by class ids, so that one name
    means a set on each side, and call such a set *settled* when every
    class has one count of neighbours in it, the same on both sides:

    - Each class of the previous level's coloring starts a ``_refine``
      call settled: that coloring is equitable, and its replay matched.
    - A popped splitter is settled by its pop: ``_replayed`` matched its
      keys, which are the per-class counts, and the group sizes.  This
      covers every replayed pop alike, whether the left split a class at
      it (its moved groups then split off on both sides) or not.
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
    n = len(cells_r)
    stack = []
    while True:
        level = depth + len(stack)
        if level == len(path) - 1:
            return _extract(path[level].cells, cells_r, n)
        members = _members(cells_r[path[level].cell])
        stack.append(_children(adj_r, path, level, cells_r, members))
        while (cells_r := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None


def automorphism_generators(adj, known=()):
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
    found before it.  Levels are visited deepest first, and a generator
    found at depth d fixes v_0..v_{d-1} (singleton cells on both sides) and
    moves v_d, its base point; so every generator known at level d lies in
    the pointwise stabilizer G_d of v_0..v_{d-1}, whose orbits the pruning
    needs.

    ``known`` holds image tuples of automorphisms the caller has already
    verified.  Each is placed at the first level d whose vertex v_d it
    moves, so it fixes v_0..v_{d-1} and lies in G_d; an automorphism fixing
    every path vertex fixes the discrete leaf's coloring, so it is the
    identity, and such a seed is dropped.  At level d its seeds are merged
    into the orbit partition before any sibling is read, and a seed joins
    the result, as ``(seed, v_d)``, only when it merged two orbits: the
    partition is then always the orbits of the returned generators, and a
    seed that merges nothing changes no pruning.  Known automorphisms prune
    as soundly as found ones (McKay & Piperno 2014).  A seed that is no
    automorphism but merges orbits is returned, so the caller's re-check of
    every returned generator catches it.

    The generators of depth >= d generate G_d (McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  By induction from the discrete leaf,
    where G_d is trivial: those of depth > d generate G_{d+1}, the
    stabilizer of v_d in G_d, since refinement commutes with automorphisms
    and G_d is the group of the level-d coloring.  Every sibling u in the
    G_d-orbit of v_d is either pruned, so already reached from v_d by the
    generators of depth >= d, seeds included, or searched, and the search
    finds a generator mapping v_d to u.  So the group the depth >= d
    generators generate contains G_{d+1} and has the orbit of v_d under
    G_d: it is G_d.  The pairs are therefore a base (their base points,
    shallowest first) and a strong generating set, and |Aut| is the product
    of the basic orbit lengths.
    """
    adj = tuple(adj)
    n = len(adj)
    gens = []
    if n <= 1:
        return gens
    parent = list(range(n))  # orbit partition under ``gens``, as a forest
    path = _first_path(adj)
    base = [level.vertex for level in path[:-1]]
    seeds = [[] for _ in base]
    for g in known:
        d = next((d for d, v in enumerate(base) if g[v] != v), None)
        if d is not None:
            seeds[d].append(g)
    for depth in reversed(range(len(base))):
        cells, _, c, v, _ = path[depth]
        for g in seeds[depth]:
            if _merged(parent, g):
                gens.append((g, v))
        siblings = (u for u in _members(cells[c]) if _root(parent, u) != _root(parent, v))
        for cr in _children(adj, path, depth, cells, siblings):
            found = _descend(path, depth + 1, adj, cr)
            if found is not None:
                gens.append((found, v))
                _merged(parent, found)
    return gens


def _merged(parent, g):
    """Merge the orbit forest's trees along the permutation ``g``; whether
    any two trees merged."""
    merged = False
    for x, y in enumerate(g):
        x, y = _root(parent, x), _root(parent, y)
        if x != y:
            parent[y] = x
            merged = True
    return merged


def _root(parent, x):
    """The root of ``x``'s tree in the orbit forest, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x
