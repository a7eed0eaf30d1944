"""Combined voltage graphs, covering lifts, the explicit base-graph
construction whose cover is the 2-token graph of an even complete graph,
and cyclic quotient constructions.

A combined voltage graph is a multigraph with a voltage in Z_m (an int
in 0..m-1) per edge and a subgroup dZ_m per vertex.  A voltage w is read
along its edge's stored (min, max) orientation; read the other way it is
-w, and the cover's edge relation is the same either way.  The fiber over
a vertex x is the coset space of its subgroup, one cover vertex (x, r)
per coset, and a base edge x-y with voltage w lifts to one edge per coset
pair (K, H) with (K + w) meeting H.
Over Z_m the cosets of the index-d subgroup are r + dZ_m (0 <= r < d), and
r + w + d_x Z_m meets s + d_y Z_m exactly when r + w = s mod
gcd(d_x, d_y), so ``lift`` lists the matching s for each r instead of
testing every pair: its cost is that of the cover it returns, and its
edges come ordered by base edge, then r, then s.  Loops follow the same
rule (gcd(d_x, d_x) = d_x); one whose voltage has order 2 in Z_{d_x} meets
each pair from both ends, so it lifts once per r < d_x / 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb, factorial, gcd, lcm, prod
from typing import NamedTuple, Optional

from .algebra import Permutation, Subgroup
from .graphs import Multigraph, SimpleGraph, complete, star, to_dot, to_json, underlying_simple
from .report import STATUS_COMPLETED, Evidence, VerificationReport
from .symmetry import (
    DEFAULT_VERTEX_CAP,
    KernelResultError,
    _token_action,
    acts_freely,
    automorphisms,
    edge_orbits,
    is_automorphism,
    is_isomorphic,
    maps_edges_into,
)
from .tokens import binomial, check_vertex_cap, induced_token_permutation, ksubsets, token_graph


@dataclass(frozen=True)
class CombinedVoltageGraph:
    """Base multigraph + per-edge voltage in Z_modulus + per-vertex subgroup."""

    base: Multigraph
    modulus: int
    voltages: tuple
    vertex_groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "voltages", tuple(self.voltages))
        object.__setattr__(self, "vertex_groups", tuple(self.vertex_groups))
        if len(self.voltages) != self.base.edge_count:
            raise ValueError("one voltage per edge required")
        if len(self.vertex_groups) != self.base.vertex_count:
            raise ValueError("one subgroup per vertex required")
        m = self.modulus
        if m < 1:
            raise ValueError("modulus must be positive")
        if any(not 0 <= w < m for w in self.voltages):
            raise ValueError("voltages must be canonical group elements")
        if any(s.modulus != m for s in self.vertex_groups):
            raise ValueError("vertex subgroups must belong to the voltage group")

    def cover_vertex_count(self) -> int:
        return sum(s.index for s in self.vertex_groups)

    def _vertex_label(self, v: int) -> str:
        base = self.base.labels[v] if self.base.labels is not None else str(v)
        members = ",".join(map(str, self.vertex_groups[v].members()))
        return f"{base} {{{members}}}"

    def to_dot(self, *, name: str = "base") -> str:
        labelled = Multigraph(
            self.base.vertex_count,
            self.base.edges,
            labels=[self._vertex_label(v) for v in range(self.base.vertex_count)],
        )
        return to_dot(labelled, name=name,
                      edge_labels={e: str(w) for e, w in enumerate(self.voltages)})

    def to_json(self) -> str:
        payload = {
            "graph": json.loads(to_json(self.base)),
            "group_modulus": self.modulus,
            "voltages": list(self.voltages),
            "vertex_subgroup_generators": [s.index for s in self.vertex_groups],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class Cover(NamedTuple):
    """A lifted multigraph and its vertices, the (base vertex, coset
    representative) pairs (x, r), in ``lift``'s order."""

    graph: Multigraph
    vertices: tuple


def lift(cvg: CombinedVoltageGraph) -> Cover:
    """Covering graph of a combined voltage graph.

    Vertices are the pairs (x, r) of a base vertex and a coset
    representative 0 <= r < d_x, in order, so (x, r) has index
    offset[x] + r, with offset[x] the total fiber size of the base
    vertices before x.  A base edge u-v of voltage w lifts to one edge per
    coset pair (K_r, H_s) with K_r + w meeting H_s, which holds exactly
    when r + w = s mod gcd(d_u, d_v) for fiber sizes d_u, d_v; the
    matching s are listed directly, so the cost is that of the output.
    Edges come ordered by base edge, then r, then s.  A loop follows the
    same rule, joining r to r + w mod d_u; when w has order 2 in the fiber
    group Z_{d_u} (not necessarily in Z_m) each pair is met from both ends,
    so that loop takes only r < d_u / 2.
    """
    base = cvg.base
    sizes = [H.index for H in cvg.vertex_groups]
    offset = list(accumulate(sizes, initial=0))
    verts = []
    labels = []
    for x, H in enumerate(cvg.vertex_groups):
        name = base.labels[x] if base.labels is not None else str(x)
        for r in range(H.index):
            verts.append((x, r))
            members = ",".join(map(str, H.members(r)))
            labels.append(f"({name},{{{members}}})")
    edges = []
    for (u, v), w in zip(base.edges, cvg.voltages):
        du, dv, ou, ov = sizes[u], sizes[v], offset[u], offset[v]
        g = gcd(du, dv)
        # a loop whose voltage has order 2 in Z_{d_u} meets each pair twice
        rs = range(du // 2) if u == v and w % du and not 2 * w % du else range(du)
        edges.extend((ou + r, ov + s) for r in rs for s in range((r + w) % g, dv, g))
    return Cover(Multigraph(len(verts), edges, labels=labels), tuple(verts))


# ---------------------------------------------------------------------------
# the explicit even-n base graph and its cover-to-token map


def theorem1_base(n: int) -> CombinedVoltageGraph:
    """Base graph on n/2 vertices over Z_n whose cover is F_2(K_n), n even.

    Vertices x_1..x_{n/2} (labels are 1-based); every vertex except the
    last carries the trivial subgroup, the last carries {0, n/2}.  For each
    pair i < j there are four parallel edges with voltages 0, i, n-j+i, and
    n-j, and each x_i with i < n/2 carries a single loop of voltage i (the
    fiber over x_i holds the token pairs at circular distance i, whose
    in-fiber neighbors sit i steps away).
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 4")
    h = n // 2
    edges = []
    volts = []
    for i, j in combinations(range(1, h + 1), 2):
        for w in (0, i, (n - j + i) % n, (n - j) % n):
            edges.append((i - 1, j - 1))
            volts.append(w)
    for i in range(1, h):
        edges.append((i - 1, i - 1))
        volts.append(i)
    vertex_groups = [Subgroup(n, n)] * (h - 1) + [Subgroup(n, h)]
    base = Multigraph(h, edges, labels=[f"x{i}" for i in range(1, h + 1)])
    return CombinedVoltageGraph(base, n, tuple(volts), tuple(vertex_groups))


def cover_token(n: int, v):
    """Token (2-subset of 1..n) carried by the cover vertex v = (x, j) of
    ``lift(theorem1_base(n))``: coset representative j at base vertex
    x_i, i = x + 1, maps to {1 + j, 1 + j + i} mod n, residues normalized
    into 1..n.  The fiber over x_i holds n cosets for i < n/2 and n/2 for
    the last vertex; a pair outside the base or its fiber is rejected."""
    h = n // 2
    x, j = v
    i = x + 1
    if not 1 <= i <= h:
        raise ValueError("cover vertex outside the base graph")
    if not 0 <= j < (n if i < h else h):
        raise ValueError("coset representative outside the fiber")
    a = (1 + j) % n or n
    b = (1 + j + i) % n or n
    return (a, b) if a < b else (b, a)


def verify_theorem1(n: int, *, max_vertices: int = DEFAULT_VERTEX_CAP) -> VerificationReport:
    """Machine check that the lifted base graph is F_2(K_n) for even n:
    vertex count, bijectivity of the explicit map, edge-preservation in
    both directions on underlying simple graphs, and an independent
    isomorphism search.  A cover of more than ``max_vertices`` vertices is
    rejected before anything is built (``tokens.check_vertex_cap``); the
    isomorphism search itself takes no cap."""
    name = f"theorem1-n{n}"
    check_vertex_cap(name, binomial(n, 2, max_vertices), max_vertices)
    cvg = theorem1_base(n)
    target = comb(n, 2)
    cover = lift(cvg)
    count_ok = cover.graph.vertex_count == target

    index = {pair: i for i, pair in enumerate(ksubsets(n, 2))}
    to_token = [index.get((a - 1, b - 1))
                for a, b in (cover_token(n, cv) for cv in cover.vertices)]
    bijective = len(to_token) == target and set(to_token) == set(range(target))

    simple = underlying_simple(cover.graph)
    tokens = token_graph(complete(n), 2)
    iso_ok = (bijective and simple.edge_count == tokens.edge_count
              and maps_edges_into(simple, tokens.adjacency_masks, to_token))

    witness = is_isomorphic(simple, tokens)

    multiplicity = {}
    for u, v in cover.graph.edges:
        multiplicity[(u, v)] = multiplicity.get((u, v), 0) + 1
    parallel_classes = sum(1 for c in multiplicity.values() if c > 1)

    passed = count_ok and bijective and iso_ok and witness is not None
    evidence = [
        Evidence("n", n),
        Evidence("cover_vertices", cover.graph.vertex_count),
        Evidence("expected_vertices", target),
        Evidence("cover_multi_edges", cover.graph.edge_count),
        Evidence("cover_simple_edges", simple.edge_count),
        Evidence("parallel_edge_classes", parallel_classes),
        Evidence("max_edge_multiplicity", max(multiplicity.values(), default=0)),
        Evidence("explicit_map_bijective", bijective),
        Evidence("explicit_map_isomorphism", iso_ok),
        Evidence("independent_search_agrees", witness is not None),
        Evidence("loop_rule",
                 "one loop of voltage i per vertex x_i below the half index: "
                 "a doubled loop would overshoot every fiber-internal degree "
                 "by 2, and the explicit map forces the in-fiber step to be i",
                 kind="note"),
    ]
    if witness is not None:
        evidence.append(Evidence("independent_witness", witness.cycle_string(),
                                 kind="witness"))
    if not passed:
        evidence.append(Evidence(
            "mismatch",
            {
                "vertex_count_ok": count_ok,
                "bijective": bijective,
                "edge_preserving": iso_ok,
                "independent_search": witness is not None,
            },
            kind="counterexample",
        ))
    return VerificationReport.from_outcome(name, passed, evidence)


# ---------------------------------------------------------------------------
# cyclic quotients


def quotient_free(X: SimpleGraph, g: Permutation):
    """Quotient by a free cyclic action: trivial subgroups everywhere.

    Rejects an action that is not free, then returns ``quotient_cyclic``'s
    (base graph, report) pair.
    """
    if not acts_freely(g, g.order()):
        raise ValueError("action is not free: some cycle is shorter than the order")
    return quotient_cyclic(X, g)


def quotient_cyclic(X: SimpleGraph, g: Permutation):
    """Quotient of X by <g>, with voltages from a fixed transversal and
    subgroups recording the orbit stabilizers.

    One base vertex per orbit (transversal = minimal vertex, identified
    with coset 0 of the orbit stabilizer); one base edge per edge orbit,
    its voltage read off the representative edge's transversal positions,
    a loop's the shorter way round its orbit.
    Rejects a g that is not an automorphism of X.  Returns the candidate
    base graph and a report stating whether its lift reconstructs X
    (failure is reported, not raised).  That is decided by the covering
    projection, with no isomorphism search: cover vertex (A, r), coset r of
    orbit A's stabilizer, goes to ``g.orbits()[A][r]``, the point r steps
    round orbit A from its transversal point (Gross & Tucker, *Topological
    Graph Theory*).  The lift has X's vertex count, that map is a bijection
    onto X's vertices, and it proves the lift is X when the lift's
    underlying simple graph has X's edge count and the map sends each of its
    edges onto an edge of X (``maps_edges_into``); it is the report's
    witness.
    """
    if not is_automorphism(X, g):
        raise ValueError("g is not an automorphism of X")
    m = g.order()
    orbits = g.orbits()
    orbit_of = {}
    position = {}
    for oi, orb in enumerate(orbits):
        for t, x in enumerate(orb):
            orbit_of[x] = oi
            position[x] = t
    vertex_groups = tuple(Subgroup(m, len(orb)) for orb in orbits)

    edges = []
    volts = []
    # one base edge per edge orbit of <g>, represented by its least edge
    for (u, v), *_ in edge_orbits(X, (g,)):
        A, B = orbit_of[u], orbit_of[v]
        if A > B:
            A, B, u, v = B, A, v, u
        w = (position[v] - position[u]) % m
        if A == B:
            span = len(orbits[A])
            w = min(w % span, -w % span)
        edges.append((A, B))
        volts.append(w)
    base = Multigraph(len(orbits), edges,
                      labels=[str(orb[0]) for orb in orbits])
    cvg = CombinedVoltageGraph(base, m, tuple(volts), vertex_groups)
    cover = lift(cvg)
    simple = underlying_simple(cover.graph)
    projection = tuple(orbits[A][r] for A, r in cover.vertices)
    passed = (simple.edge_count == X.edge_count
              and maps_edges_into(simple, X.adjacency_masks, projection))
    evidence = [
        Evidence("automorphism", g.cycle_string()),
        Evidence("group_modulus", m),
        Evidence("base_vertices", cvg.base.vertex_count),
        Evidence("base_edges", cvg.base.edge_count),
        Evidence("stabilizer_sizes", sorted(s.size for s in cvg.vertex_groups)),
        Evidence("lift_vertices", cover.graph.vertex_count),
        Evidence("lift_simple_edges", simple.edge_count),
        Evidence("lift_matches", passed),
    ]
    if passed:
        evidence.append(Evidence("witness", Permutation(projection).cycle_string(),
                                 kind="witness"))
    else:
        evidence.append(Evidence(
            "mismatch",
            {"lift": (simple.vertex_count, simple.edge_count),
             "target": (X.vertex_count, X.edge_count)},
            kind="counterexample",
        ))
    report = VerificationReport.from_outcome(
        f"cyclic-quotient-order{m}", passed, evidence)
    return cvg, report


# ---------------------------------------------------------------------------
# conjecture search harness

CONJECTURE_FAMILIES = ("star_half", "star_two")


def _leaf_permutation(n: int, cycle_type) -> Permutation:
    """The permutation of K_{1,n}'s vertices (centre 0, leaves 1..n) whose
    cycles have the lengths of ``cycle_type``, in order, each over
    consecutive leaves, the first from leaf 1; leaves past them are fixed."""
    images = list(range(n + 1))
    start = 1
    for length in cycle_type:
        end = start + length - 1
        images[start:end] = range(start + 1, end + 1)
        images[end] = start
        start = end + 1
    return Permutation(tuple(images))


def _partitions(n: int, parts):
    """The partitions of n into members of ``parts``, which must list
    distinct parts in decreasing order, 1 last: each a tuple of parts in
    non-increasing order, in reverse lexicographic order."""
    first, rest = parts[0], parts[1:]
    if not rest:
        yield (first,) * n
        return
    for count in range(n // first, -1, -1):
        for tail in _partitions(n - count * first, rest):
            yield (first,) * count + tail


def _centralizer_order(cycle_type) -> int:
    """z_λ = ∏ i^{a_i} a_i! for the partition λ = ``cycle_type`` with a_i
    parts equal to i: the order of the centralizer in Sym(n) of a
    permutation of cycle type λ, so n!/z_λ permutations have that type
    (Sagan, *The Symmetric Group*, 2001, Prop. 1.1.1)."""
    return prod(i ** cycle_type.count(i) * factorial(cycle_type.count(i))
                for i in set(cycle_type))


def conjecture_search(family: str, n: int, *, group_order: Optional[int] = None,
                      max_vertices: int = DEFAULT_VERTEX_CAP) -> VerificationReport:
    """Search for a cyclic quotient base of a star token graph.

    ``star_half`` targets F = F_{(n+1)/2}(K_{1,n}) over Z_{2n} (n odd);
    ``star_two`` targets F = F_2(K_{1,n}) over Z_n (n dividing C(n+1, 2)).
    The classes of cyclic subgroups of order m are read off cycle types, and
    no group element is enumerated.

    The certificate.  Let H be the group Sym(leaves) induces on F, with
    complementation when 2k = n + 1 (``symmetry._token_action`` on a leaf
    transposition and a leaf n-cycle, each generator re-checked on F).  The
    action on the k-subsets of n + 1 >= 4 points is faithful, and
    complementation commutes with it without being induced, so
    |H| = n! * (2 if complemented).  H lies in Aut(F), so H = Aut(F) exactly
    when the search's exact order of Aut(F) equals |H|; a mismatch raises
    KernelResultError, and nothing is reported.  The search starts from H:
    it is seeded (``automorphisms``' ``known``) with those generators and
    with the adjacent leaf transpositions (i i+1), 2 <= i <= n - 1, each the
    conjugate of the one before by the n-cycle, so it prunes H's orbits at
    every level of its path and has only to find that nothing lies outside
    H.  A seed changes the search's generators, never the group it proves:
    the order is still read off the basic orbits of what the search
    returns, each generator re-checked on F.

    The classes.  In H = Sym(n) x Z_2^c an element (s, c) has order
    lcm(s's cycle lengths, 2^c), and its coprime powers (s^j, c) keep both s's
    cycle type and c (j is odd when m is even, and c = 0 when m is odd).  All
    permutations of one type are conjugate, so the classes of order-m cyclic
    subgroups are the pairs (λ, c), λ a partition of n into divisors of m
    with lcm(λ, 2^c) = m, and each class has n!/z_λ generators of order m
    (``_centralizer_order``).  A class's representative is the leaf
    permutation with cycles of type λ over consecutive leaves
    (``_leaf_permutation``), carried to F by ``induced_token_permutation``
    and composed with complementation when c = 1; it tells whether the
    whole class acts freely (``acts_freely``).  Classes come free first,
    then by λ in reverse lexicographic order (parts largest first), c = 0
    before c = 1.

    Verifying one member verifies its class: <g^j> = <g> for gcd(j, m) = 1,
    so g^j has the same orbits, and its voltages are those of g under the
    automorphism t -> j^-1 t of Z_m; an automorphism s of F carries the
    orbits of <g> onto those of <s g s^-1> and F onto itself, so that
    quotient is the same base graph with a different transversal, that is a
    voltage switching (Gross & Tucker, *Topological Graph Theory*).  Either
    way the lift is the same graph up to isomorphism, with the same base
    size and stabilizers.  Every class whose representative's quotient
    verifies (``quotient_cyclic``, by its covering projection) is listed
    with its cycle type, its size and its base size compared to the
    conjectured count(s).

    A search that finds nothing still completes.  No group element is
    walked, so ``max_vertices``, checked before anything is built, bounds
    the run's time and memory whatever |Aut(F)| is.  A ``group_order``
    below 1 is rejected before anything is built.
    """
    if group_order is not None and group_order < 1:
        raise ValueError("group_order must be positive")
    if family == "star_half":
        if n < 3 or n % 2 == 0:
            raise ValueError("star_half requires odd n >= 3")
        k = (n + 1) // 2
        m = group_order if group_order is not None else 2 * n
    elif family == "star_two":
        if n < 2 or comb(n + 1, 2) % n != 0:
            raise ValueError("star_two requires n >= 2 dividing C(n+1, 2)")
        k = 2
        m = group_order if group_order is not None else n
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {CONJECTURE_FAMILIES}")
    # checked before the token graph, or any count it could not hold, is built
    name = f"conjecture-{family}-n{n}"
    check_vertex_cap(name, binomial(n + 1, k, max_vertices), max_vertices)
    if family == "star_half":
        quot, rem = divmod(comb(2 * k, k), 2 * n)
        size_readings = {"binom(2k,k)/(2n)": quot if rem == 0 else None}
    else:
        size_readings = {"n-2": n - 2, "(n-1)/2": (n - 1) // 2}

    X = token_graph(star(n), k)
    leaves = [_leaf_permutation(n, (2,) + (1,) * (n - 2)), _leaf_permutation(n, (n,))]
    action = _token_action(leaves, n + 1, k, X)
    # _token_action appends complementation, the reversal of F's vertex order
    complemented = len(action) > len(leaves)
    # the adjacent leaf transpositions (i i+1), i = 2..n-1, each c t c^-1 of
    # the one before, t = (1 2) and c = (1 2 ... n) as they act on F
    t, c = action[0], action[1]
    c_inverse = c.inverse()
    known = list(action)
    for _ in range(n - 2):
        t = c * t * c_inverse
        known.append(t)
    aut_order, aut_order_exact = automorphisms(X, known).order()
    evidence = [
        Evidence("family", family),
        Evidence("n", n),
        Evidence("k", k),
        Evidence("group_modulus", m),
        Evidence("token_vertices", X.vertex_count),
        Evidence("aut_order", aut_order),
        Evidence("aut_order_exact", aut_order_exact),
    ]
    if aut_order != factorial(n) * (2 if complemented else 1):
        raise KernelResultError(f"|Aut(F)| = {aut_order} is not the order of the group "
                                "the leaf permutations induce")
    classes = []
    divisors = [d for d in range(min(m, n), 0, -1) if m % d == 0]
    for cycle_type in _partitions(n, divisors):
        order = lcm(*cycle_type)
        for c in (False, True) if complemented else (False,):
            if lcm(order, 2 if c else 1) == m:
                g = induced_token_permutation(_leaf_permutation(n, cycle_type), k)
                if c:
                    g = action[-1] * g
                size = factorial(n) // _centralizer_order(cycle_type)
                classes.append((acts_freely(g, m), cycle_type, c, size, g))
    classes.sort(key=lambda cls: not cls[0])
    candidates = []
    for is_free, cycle_type, c, size, g in classes:
        cvg, rep = quotient_cyclic(X, g)
        if rep.passed:
            candidates.append({
                "automorphism": g.cycle_string(),
                "cycle_type": list(cycle_type),
                "complemented": c,
                "class_elements": size,
                "free": is_free,
                "base_vertices": cvg.base.vertex_count,
                "base_edges": cvg.base.edge_count,
                "stabilizer_sizes": sorted(s.size for s in cvg.vertex_groups),
                "base_size_matches": {
                    label: (cvg.base.vertex_count == want)
                    for label, want in size_readings.items() if want is not None
                },
            })

    evidence += [
        Evidence("order_m_elements", sum(size for _, _, _, size, _ in classes)),
        Evidence("free_actions", sum(size for free, _, _, size, _ in classes if free)),
        Evidence("order_m_classes", len(classes)),
        Evidence("conjectured_base_sizes", size_readings),
        Evidence("verified_candidates", candidates, kind="witness" if candidates else "info"),
    ]
    if not candidates:
        evidence.append(Evidence(
            "note", "no class of order-m automorphisms has a verifying quotient", kind="note"))
    return VerificationReport(name, True, STATUS_COMPLETED, tuple(evidence))
