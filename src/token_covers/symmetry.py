"""Automorphism groups, orbits, transitivity predicates, isomorphism
testing, the free-action test, colour refinement, and the
edge-transitive token-graph classification checker.

The heavy lifting (equitable refinement + backtracking) lives in the
search kernel, which checks no edge itself; everything returned by it is
re-verified here by ``is_automorphism`` or ``maps_edges_into``, the
program's adjacency-preservation checks, independent of the search path.
``edge_colour_pairs``, a colour refinement, is a label-free invariant kept
outside the kernel: ``zz_checks`` reads an F_k's edge orbits off the group
X's automorphisms induce on it when its edge colour pairs are as many as
that group's edge orbits, and searches Aut(F_k) only when they are not.  The
searches take no vertex cap: a command compares its graph's size with its
one cap once, from its parameters, through ``tokens.check_vertex_cap``,
before it builds anything (``zz_checks`` checks every k).
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import itemgetter
from typing import Iterator

from . import search
from .algebra import Permutation
from .graphs import (SimpleGraph, components, family_size, is_biregular, is_connected,
                     make_family)
from .report import Evidence, VerificationReport
from .tokens import (binomial, check_vertex_cap, induced_token_permutation, shown_count,
                     token_graph)

DEFAULT_VERTEX_CAP = 200
DEFAULT_GROUP_CAP = 10**6


def maps_edges_into(X: SimpleGraph, target_adj, images) -> bool:
    """Whether the vertex map ``images`` sends every edge of X onto an edge
    of the target graph, given by its ``adjacency_masks``.  Checked one way
    only: when ``images`` is a bijection onto the target's vertices and
    both graphs have as many edges, this holds exactly when the map is an
    isomorphism, so the caller must have checked both.

    Each edge u-v, u < v, is read as bit v of u's mask, as ``X.edges``
    lists them, but no edge tuple is built."""
    for u, mask in enumerate(X.adjacency_masks):
        row = target_adj[images[u]]
        mask >>= u + 1  # bit i is now neighbour v = u + 1 + i
        v = u
        while mask:
            step = (mask & -mask).bit_length()
            v += step
            if not row >> images[v] & 1:
                return False
            mask >>= step
    return True


def is_automorphism(X: SimpleGraph, p: Permutation) -> bool:
    """Plain adjacency re-check, independent of the search kernel.  Unlike
    ``maps_edges_into`` it walks ``X.edges``, built on first read and kept:
    a graph is re-checked against each generator of its group, and reading
    kept tuples is about twice as fast as reading the masks' bits."""
    if p.degree != X.vertex_count:
        return False
    adj, images = X.adjacency_masks, p.images
    return all(adj[images[u]] >> images[v] & 1 for u, v in X.edges)


class KernelResultError(RuntimeError):
    """The search kernel returned a generator, base point or witness that
    fails the independent re-check."""


def _compose(p: tuple, q: tuple) -> tuple:
    """Image tuple of p * q, that is x -> p(q(x)).  itemgetter returns a
    bare item for one index and fails on none, so degrees 0 and 1 loop."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(p[x] for x in q)


def _products(prefixes, level):
    """p * u for each p of ``prefixes`` and u of ``level``, u varying
    fastest: a walk's prefixes one level deeper."""
    return (_compose(p, u) for p in prefixes for u in level)


class AutGroup:
    """Aut(X) as ``automorphisms`` returns it: the search kernel's strong
    generators and the base of its first path, so no Schreier-Sims is run.
    The order needs only the basic orbits (``orbit_lengths``); the
    transversals along the base are built on first use, by the walk alone.

    ``generators`` are strong relative to ``base``: for each i, those fixing
    ``base[:i]`` pointwise generate the pointwise stabilizer of ``base[:i]``
    (see ``search.automorphism_generators``).  Level i holds base point
    ``base[i]`` and a transversal taking each point y of the orbit of
    ``base[i]`` under those generators to a coset representative u with
    u(base[i]) = y.  Each group element is then exactly one product
    u_0 * u_1 * ... * u_{k-1} with u_i from transversal i, and the order is
    the product of the orbit lengths (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4).

    No generator fixes every base point, so the pointwise stabilizer of the
    base is trivial: only the identity fixes every base point, and two
    elements with the same base images are equal (g^-1 h fixes the base).

    ``elements`` and ``closure`` walk the group element by element; no
    command does, as the order alone is read off the chain.
    """

    def __init__(self, degree: int, generators, base):
        self.degree = degree
        self.generators = tuple(generators)
        self.base = tuple(base)

    def _levels(self) -> list:
        """Per base point base[i], the pair (base[i], the image tuples of
        the generators of the level-i group, those fixing base[:i])."""
        gens = [g.images for g in self.generators]
        # each generator's first moved base point: it lies in the level-i
        # group (fixes base[:i]) exactly when that index is i or more
        moved = [next((i for i, b in enumerate(self.base) if g[b] != b), len(self.base))
                 for g in gens]
        return [(b, [g for g, j in zip(gens, moved) if j >= i]) for i, b in enumerate(self.base)]

    orbit_lengths = cached_property(lambda self: self._build_orbit_lengths())

    def _build_orbit_lengths(self) -> tuple:
        """Basic orbit lengths |orbit of base[i] under the level-i group|,
        each by a breadth-first search over points: the Schreier-Sims orbit
        step with no transversal kept, so no group element is built."""
        lengths = []
        for b, strong in self._levels():
            orbit = {b}
            queue = [b]
            for y in queue:
                for s in strong:
                    z = s[y]
                    if z not in orbit:
                        orbit.add(z)
                        queue.append(z)
            lengths.append(len(orbit))
        return tuple(lengths)

    _transversals = cached_property(lambda self: self._build_transversals())

    def _build_transversals(self) -> tuple:
        """Per base point, the representatives of its transversal, in
        breadth-first orbit discovery order (the identity first)."""
        identity = tuple(range(self.degree))
        levels = []
        for b, strong in self._levels():
            trans = {b: identity}
            queue = [b]
            for y in queue:
                u = trans[y]
                for s in strong:
                    z = s[y]
                    if z not in trans:
                        trans[z] = _compose(s, u)
                        queue.append(z)
            levels.append(tuple(trans.values()))
        return tuple(levels)

    def order(self):
        """(order, True): the order is exact, the product of the basic orbit
        lengths; the flag is kept for callers that unpack it."""
        return prod(self.orbit_lengths), True

    _tail = cached_property(lambda self: self._build_tail())

    def _build_tail(self) -> tuple[tuple, tuple]:
        """(head, tail): the transversals split where the longest suffix
        whose orbit lengths multiply to at most the degree begins, and that
        suffix precomposed, the products u_j * ... * u_{k-1} with the last
        factor varying fastest.  The tail then holds no more tuples than
        one transversal can, and an empty base has the identity alone."""
        levels = self._transversals
        j, size = len(levels), 1
        while j and size * len(levels[j - 1]) <= self.degree:
            j -= 1
            size *= len(levels[j])
        tail = [tuple(range(self.degree))]
        for level in levels[j:]:
            tail = list(_products(tail, level))
        return levels[:j], tuple(tail)

    def _whole(self, cap: int) -> bool:
        """Whether the walk's first ``cap`` elements are the whole group."""
        if cap < 1:
            raise ValueError("cap must be positive")
        return prod(self.orbit_lengths) <= cap

    def _walk(self, cap: int) -> tuple[Iterator[tuple[tuple, tuple]], bool]:
        """The first ``cap`` elements of the group's one walk, as runs
        (prefix, factors) standing for the elements prefix * t, t in
        factors, and whether those ``cap`` are the whole group.

        The elements are the products u_0 * ... * u_{k-1}, the level-0
        factor varying slowest and each transversal in orbit discovery
        order, so the identity comes first.  A prefix is the product over
        the head levels, built once, lazily, from the one a level up; its
        factors are the precomposed tail (``_build_tail``), cut short where
        the cap ends the walk.  The prefixes start from the identity alone,
        so a chain that is all tail walks the one prefix.
        """
        whole = self._whole(cap)
        head, tail = self._tail
        prefixes = [tuple(range(self.degree))]
        for level in head:
            prefixes = _products(prefixes, level)
        # the run starting at walk position ``start`` keeps cap - start at most
        runs = ((prefix, tail[:cap - start])
                for start, prefix in zip(range(0, cap, len(tail)), prefixes))
        return runs, whole

    def elements(self) -> Iterator[Permutation]:
        """Every group element once, in walk order, identity first."""
        return self.closure(prod(self.orbit_lengths))[0]

    def closure(self, cap: int = DEFAULT_GROUP_CAP) -> tuple[Iterator[Permutation], bool]:
        """A stream of the first ``cap`` elements of the walk and whether
        they are the whole group.

        The stream holds no elements; a caller keeps only those it selects.
        """
        runs, whole = self._walk(cap)
        trusted = Permutation._trusted
        return (trusted(_compose(prefix, t)) for prefix, factors in runs for t in factors), whole

    def __repr__(self):
        return f"AutGroup(degree={self.degree}, generators={len(self.generators)})"


def automorphisms(X: SimpleGraph, known=()) -> AutGroup:
    """Aut(X) from the search kernel, deterministic for a given graph and
    ``known``, of any size (a caller that caps its input checks the cap
    itself).

    ``known`` lists automorphisms of X the caller has verified, as
    Permutations of X's vertices; the kernel prunes with them from the
    start and returns those it needed among its generators
    (``search.automorphism_generators``).  The group is Aut(X) whatever
    they are, and with none the generators are the kernel's own.

    Each generator is re-checked against X, and against its base point:
    it must move that point and fix every shallower one, which is what
    makes the generators fixing a prefix of the base the ones
    ``AutGroup``'s orbits and transversals take for that prefix's
    stabilizer.  So a ``known`` entry that is no automorphism raises
    KernelResultError when it merges orbits in the kernel, as it then
    could prune, and is ignored when it merges none.
    """
    known = [g.images for g in known]
    if any(len(g) != X.vertex_count for g in known):
        raise ValueError("known automorphisms must permute the graph's vertices")
    found = search.automorphism_generators(X.adjacency_masks, known)
    # found deepest level first: the base is their points, shallowest first
    base = tuple(dict.fromkeys(b for _, b in reversed(found)))
    gens = []
    for images, b in found:
        g = Permutation(images)
        if not is_automorphism(X, g):
            raise KernelResultError("search kernel returned an invalid generator")
        fixed = set(g.fixed_points())
        if (b not in range(X.vertex_count) or b in fixed
                or not fixed.issuperset(base[:base.index(b)])):
            raise KernelResultError("search kernel returned a generator off its base point")
        gens.append(g)
    return AutGroup(X.vertex_count, gens, base)


def vertex_orbits(X: SimpleGraph, generators=None):
    """Orbits on vertices of the group ``generators`` generate (by default
    Aut(X)), each sorted, ordered by minimum."""
    if generators is None:
        generators = automorphisms(X).generators
    gens = [g.images for g in generators]
    return components(X.vertex_count, lambda v: [g[v] for g in gens])


def edge_orbits(X: SimpleGraph, generators=None):
    """Orbits on edges of the group ``generators`` generate (by default
    Aut(X)), each in sorted edge order, ordered by least edge (generator
    closure, no full enumeration)."""
    if generators is None:
        generators = automorphisms(X).generators
    gens = [g.images for g in generators]
    edges = X.edges
    index = {e: i for i, e in enumerate(edges)}

    def images(i):
        u, v = edges[i]
        return [index[(g[u], g[v]) if g[u] < g[v] else (g[v], g[u])] for g in gens]

    return [[edges[i] for i in orbit] for orbit in components(len(edges), images)]


def edge_colour_pairs(X: SimpleGraph) -> int:
    """The number of unordered colour pairs over X's edges, with vertices
    coloured by colour refinement, outside the search kernel: degrees
    first, then, round by round, a vertex's colour with the sorted multiset
    of its neighbours' colours, until the class count stops growing.  Each
    round numbers its signatures in sorted order, so no vertex label enters
    a colour, and an isomorphism sends each vertex to one of the same
    colour: every automorphism fixes each class, a cell of the coarsest
    equitable partition finer than the degrees (McKay & Piperno 2014), and
    keeps each edge's colour pair.  So the count is at most the number of
    Aut(X)-orbits on edges."""
    colours = X.degrees()
    count = len(set(colours))
    while True:
        around = [[] for _ in colours]
        for u, v in X.edges:
            around[u].append(colours[v])
            around[v].append(colours[u])
        signatures = [(c, tuple(sorted(a))) for c, a in zip(colours, around)]
        ids = {s: i for i, s in enumerate(sorted(set(signatures)))}
        if len(ids) == count:
            break
        colours, count = [ids[s] for s in signatures], len(ids)
    return len({(min(colours[u], colours[v]), max(colours[u], colours[v])) for u, v in X.edges})


def is_vertex_transitive(X: SimpleGraph) -> bool:
    return len(vertex_orbits(X)) <= 1


def is_edge_transitive(X: SimpleGraph) -> bool:
    """Single Aut-orbit on edges (vacuously true for edgeless graphs)."""
    return len(edge_orbits(X)) <= 1


def is_isomorphic(X: SimpleGraph, Y: SimpleGraph):
    """A vertex bijection X -> Y preserving adjacency both ways, or None,
    for graphs of any size (no vertex cap).

    The witness is deterministic (first found in canonical search order)
    and re-verified edge-by-edge before being returned.
    """
    if X.vertex_count != Y.vertex_count or X.edge_count != Y.edge_count:
        return None
    raw = search.isomorphism_witness(X.adjacency_masks, Y.adjacency_masks)
    if raw is None:
        return None
    p = Permutation(raw)
    if not maps_edges_into(X, Y.adjacency_masks, p.images):
        raise KernelResultError("search kernel returned an invalid witness")
    return p


def acts_freely(p: Permutation, m: int) -> bool:
    """Every cycle of p has length exactly m (so <p> acts freely)."""
    return all(len(c) == m for c in p.orbits())


# ---------------------------------------------------------------------------
# classification checker


def _classification_family(X: SimpleGraph):
    """The classification family of the connected graph X, read off its
    edge count: ``complete`` (n,) when every pair is an edge, else ``star``
    (b,) or ``complete_bipartite`` (a, b), a <= b, when X is biregular with
    side degrees a and b and has a * b edges (each side then meets the
    whole other side), else a name ``_in_classification`` does not list."""
    n, e = X.vertex_count, X.edge_count
    if 2 * e == n * (n - 1):
        return "complete", (n,)
    sides = is_biregular(X)
    if sides is not None and e == sides[0] * sides[1]:
        a, b = sorted(sides)
        return ("star", (b,)) if a == 1 else ("complete_bipartite", (a, b))
    return "unclassified", ()


def _in_classification(name, params, k):
    """Whether (family, k) is one of the edge-transitive cases.  On
    2 <= k <= |V| - 2 each holds for k exactly when it does for |V| - k."""
    if name == "complete":
        n = params[0]
        return 2 <= k <= n - 1
    if name == "star":
        n = params[0]
        return 2 <= k <= n
    if name == "complete_bipartite":
        m, n = params
        if m == n:
            return k == 2 or k == 2 * (n - 1)
        if m == 2:
            return 2 * k == n + 2
        return False
    return False


def _reversed(generators, degree: int):
    """Generators acting on F_{n-k} carried to F_k by complementation,
    which sends vertex i of one to vertex ``degree - 1 - i`` of the other:
    each g becomes j -> degree - 1 - g(degree - 1 - j)."""
    last = degree - 1
    return [Permutation._trusted(tuple(last - g.images[last - j] for j in range(degree)))
            for g in generators]


def _token_action(generators, n: int, k: int, F: SimpleGraph) -> list:
    """Generators of the group Aut(X) induces on F = F_k(X), for X on n
    vertices with ``generators`` generating Aut(X): each acting on the
    k-subsets, and, when 2k = n, complementation, which reverses F's vertex
    order (see ``zz_checks``).  Each is re-checked on F (a failure raises
    KernelResultError).  Their group lies in Aut(F), so every Aut(F)-orbit
    on edges is a union of theirs, and one orbit of theirs is exact."""
    action = [induced_token_permutation(g, k) for g in generators]
    if 2 * k == n:
        action.append(Permutation._trusted(tuple(range(F.vertex_count - 1, -1, -1))))
    if not all(is_automorphism(F, h) for h in action):
        raise KernelResultError("an automorphism of the base graph does not act on "
                                "the token graph as one")
    return action


def zz_checks(family: str, params, ks, *,
              max_vertices: int = DEFAULT_VERTEX_CAP) -> list[VerificationReport]:
    """One ``zz_check`` report per k of ``ks``, in order, from one base
    graph X, one automorphism search on X, and one per pair {k, |V| - k}
    whose F_k neither the certificate nor colour refinement settles.

    The family's parameters, every k's range (1..|V|-1) and every token-graph
    size (C(|V|, k), through ``tokens.check_vertex_cap``) are checked before
    X is built, so a failing range raises its ValueError having built nothing.
    The prediction is read off X (``_classification_family``); the tag only
    names the reports, and no edge orbit is computed from the prediction.

    The edge orbits come from one table, ``found``, taking k to generators
    whose edge orbits on F_k are Aut(F_k)'s.  It starts with X's own
    generators, for k = 1 (F_1(X) is X: vertex i is {i}, with the same
    edges), and each k of the range takes the first route that applies:

    - k is in the table (k = 1, or a k met before).
    - |V| - k is in the table: F_k takes its generators reversed
      (``_reversed``), each re-checked on F_k (a failure raises
      KernelResultError).  This covers k = |V| - 1 and the mirror of every
      pair met before, however its generators were found.
    - Otherwise H, the group X's automorphisms induce on F_k, with
      complementation when 2k = |V| (``_token_action``, each generator
      re-checked on F_k), lies in Aut(F_k), so every Aut(F_k)-orbit on
      edges is a union of H-orbits.  F_k is *certified* when H leaves one
      edge orbit, and *separated* when ``edge_colour_pairs`` counts as many
      as H's: every automorphism keeps each edge's colour pair, so
      (colour pairs) <= (Aut(F_k)-orbits) <= (H-orbits), and with the
      outer two equal H's orbits are Aut(F_k)'s.  This rests only on
      re-checked automorphisms and a label-free invariant, not on X's
      generators generating all of Aut(X).  Otherwise Aut(F_k) is
      *searched*, the search seeded with H's generators (``automorphisms``'
      ``known``).

    Complementation, S to V minus S, is an isomorphism F_k(X) -> F_{|V|-k}(X),
    and under the lexicographic order of ``token_graph``'s vertices it
    reverses the order: for k-subsets A, B, A < B exactly when the least
    element of A ^ B lies in A, and complementing both keeps A ^ B but
    moves that element to the other side.  So vertex i of F_k is the
    complement of vertex C(|V|, k) - 1 - i of F_{|V|-k}, and generators
    with Aut(F_{|V|-k})'s edge orbits, reversed, have Aut(F_k)'s.  H for
    F_k reversed is H for F_{|V|-k}, permutation for permutation, as g
    sends V minus A to V minus g(A).  ``edge_orbits`` orders its orbits
    canonically, so whatever route a k takes, and in whatever order ``ks``
    lists it, its report is that of a search on F_k.
    """
    n_x, _ = family_size(family, *params)
    family_tag = ":".join([family, *map(str, params)])
    for k in ks:
        if not 1 <= k <= n_x - 1:
            raise ValueError(f"k={k} out of range 1..{shown_count(n_x - 1)}")
        check_vertex_cap(f"zz-{family_tag}-k{k}", binomial(n_x, k, max_vertices), max_vertices)
    X = make_family(family, *params)
    if not is_connected(X):
        raise ValueError("classification check requires a connected graph")
    name, norm = _classification_family(X)
    found = {1: automorphisms(X).generators}  # k -> generators with Aut(F_k)'s edge orbits
    reports = []
    for k in ks:
        F = token_graph(X, k)
        if k not in found and n_x - k in found:
            found[k] = _reversed(found[n_x - k], F.vertex_count)
            if not all(is_automorphism(F, g) for g in found[k]):
                raise KernelResultError("a generator carried over by complementation "
                                        "is not an automorphism")
        if k in found:
            orbits = edge_orbits(F, found[k])
        else:
            found[k] = _token_action(found[1], n_x, k, F)
            orbits = edge_orbits(F, found[k])
            if len(orbits) > 1 and edge_colour_pairs(F) != len(orbits):
                found[k] = automorphisms(F, found[k]).generators
                orbits = edge_orbits(F, found[k])
        if k == 1 or k == n_x - 1:
            predicted = len(edge_orbits(X, found[1])) <= 1
            rule = "k reduces the token graph to the base graph"
        else:
            predicted = _in_classification(name, norm, k)
            rule = f"classification case for {name}{norm}" if predicted else "no classification case matches"
        computed = len(orbits) <= 1
        passed = computed == predicted
        evidence = [
            Evidence("family", family_tag),
            Evidence("k", k),
            Evidence("token_vertices", F.vertex_count),
            Evidence("token_edges", F.edge_count),
            Evidence("predicted_edge_transitive", predicted),
            Evidence("computed_edge_transitive", computed),
            Evidence("edge_orbit_count", len(orbits)),
            Evidence("rule", rule, kind="note"),
        ]
        if not passed:
            if len(orbits) > 1:
                witness = [list(orbits[0][0]), list(orbits[1][0])]
            else:
                witness = "token graph has a single edge orbit"
            evidence.append(Evidence("disagreement", witness, kind="counterexample"))
        reports.append(VerificationReport.from_outcome(f"zz-{family_tag}-k{k}", passed, evidence))
    return reports


def zz_check(family: str, params, k: int, *,
             max_vertices: int = DEFAULT_VERTEX_CAP) -> VerificationReport:
    """Compare computed edge-transitivity of a token graph against the
    classification's prediction for the family's graph.

    k = 1 and k = |V| - 1 reduce to the base graph itself and are predicted
    by its own edge-transitivity (outside the classification's k-range).
    """
    return zz_checks(family, params, [k], max_vertices=max_vertices)[0]
