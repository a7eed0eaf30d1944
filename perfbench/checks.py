"""Correctness checks for every benchmark operation.

Each check compares a program output against a computation made here, from
the paper's definitions, or against a property the method must have; none
compares against a stored copy of an earlier output.  The reference graphs
are built by this module alone and never by ``token_covers``.  A failed
check raises ``CheckError``.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm
from pathlib import Path


class CheckError(AssertionError):
    """An output that contradicts its reference computation."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reference constructions (vertex orders follow the program's documented
# conventions: families as in ``graphs``, k-subsets in lexicographic order)


def family_graph(name, params):
    """(vertex count, edges) of a named family: ``star:n`` is K_{1,n} with
    centre 0, ``complete_bipartite:m:n`` has parts 0..m-1 and m..m+n-1."""
    if name == "complete":
        (n,) = params
        return n, [(u, v) for u, v in combinations(range(n), 2)]
    if name == "star":
        (n,) = params
        return n + 1, [(0, i) for i in range(1, n + 1)]
    if name == "complete_bipartite":
        m, n = params
        return m + n, [(u, m + v) for u in range(m) for v in range(n)]
    if name == "path":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)]
    if name == "cycle":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    raise ValueError(f"unknown family {name!r}")


def parse_family(tag):
    """'complete_bipartite:2:6' -> ('complete_bipartite', (2, 6))."""
    name, *params = tag.split(":")
    return name, tuple(int(p) for p in params)


@lru_cache(maxsize=None)
def token_graph(name, params, k):
    """F_k of a family: k-subsets adjacent when their symmetric difference
    is an edge.  Returns (vertex count, frozenset of sorted edges)."""
    n, base_edges = family_graph(name, params)
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edge_set = {frozenset(e) for e in base_edges}
    edges = set()
    for i, a in enumerate(subsets):
        for b_elem in range(n):
            if b_elem in a:
                continue
            for a_elem in a:
                if frozenset((a_elem, b_elem)) in edge_set:
                    j = index[tuple(sorted(set(a) - {a_elem} | {b_elem}))]
                    edges.add((i, j) if i < j else (j, i))
    return len(subsets), frozenset(edges)


@lru_cache(maxsize=None)
def theorem1_cover(n):
    """Simple graph of the lift of the paper's even-n base graph, built from
    the definitions: base vertices x_1..x_h (h = n/2) over Z_n, subgroup {0}
    at x_i for i < h and {0, h} at x_h; four parallel edges x_i x_j (i < j)
    with voltages 0, i, n-j+i, n-j; one loop of voltage i at x_i for i < h.
    A cover vertex is a (base vertex, coset) pair, numbered by base vertex
    then coset representative; a base edge of voltage w joins K and H when
    the coset K + w meets H as a set.  Returns (vertex count, edge set)."""
    h = n // 2
    index = [n] * (h - 1) + [h]      # [Z_n : subgroup] per base vertex
    offset = [sum(index[:i]) for i in range(h)]

    def coset(i, r):
        return frozenset(range(r, n, index[i]))

    edges = set()
    for i, j in combinations(range(h), 2):
        for w in (0, i + 1, (n - (j + 1) + i + 1) % n, (n - (j + 1)) % n):
            for r in range(index[i]):
                shifted = frozenset((x + w) % n for x in coset(i, r))
                for s in range(index[j]):
                    if shifted & coset(j, s):
                        edges.add((offset[i] + r, offset[j] + s))
    for i in range(h - 1):
        for r in range(index[i]):
            u, v = offset[i] + r, offset[i] + (r + i + 1) % n
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return offset[-1] + index[-1], frozenset(edges)


# ---------------------------------------------------------------------------
# permutations


def parse_cycles(text, degree):
    """Image list of a permutation written as disjoint cycles, '(0 3 1)(2 4)'
    or '()'; points not in any cycle are fixed."""
    require(re.fullmatch(r"(\((\d+( \d+)*)?\))*", text) is not None,
            f"malformed cycle string {text[:40]!r}")
    images = list(range(degree))
    seen = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        cycle = [int(x) for x in body.split()]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            require(a < degree and a not in seen, f"point {a} repeated or out of range")
            seen.add(a)
            images[a] = b
    return images


def orbits(images):
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if not seen[start]:
            cycle = [start]
            seen[start] = True
            x = images[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = images[x]
            out.append(cycle)
    return out


def maps_edges_onto(images, edges, target):
    """Whether the vertex map sends the edge set ``edges`` onto ``target``."""
    mapped = {(images[u], images[v]) if images[u] < images[v] else (images[v], images[u])
              for u, v in edges}
    return len(images) == len(set(images)) and mapped == set(target)


def sympy_order(generators, degree):
    """Group order by sympy's Schreier-Sims, a method the program lacks."""
    from sympy.combinatorics import Permutation, PermutationGroup

    if not generators:
        return 1
    return int(PermutationGroup([Permutation(list(g), size=degree) for g in generators]).order())


def induced_on_subsets(point_images, degree, k):
    """Action of a point permutation on the k-subsets of range(degree)."""
    subsets = list(combinations(range(degree), k))
    index = {s: i for i, s in enumerate(subsets)}
    return [index[tuple(sorted(point_images[x] for x in s))] for s in subsets]


@lru_cache(maxsize=None)
def star_token_aut_order(n, k):
    """|Aut F_k(K_{1,n})| from generators built here: the leaf permutations
    (a transposition and an n-cycle, centre 0 fixed) and, when 2k = n + 1,
    complementation S -> V \\ S.  F_k(K_{1,n}) is the inclusion graph of the
    (k-1)- and k-subsets of the n leaves, so these generate its whole
    group: n!, doubled when complementation swaps the two levels.  Both
    sympy's order and the closed form are required to agree."""
    degree, edges = token_graph("star", (n,), k)
    swap = [0, 2, 1] + list(range(3, n + 1))
    rotate = [0] + list(range(2, n + 1)) + [1]
    generators = [induced_on_subsets(p, n + 1, k) for p in (swap, rotate)]
    closed_form = factorial(n)
    if 2 * k == n + 1:
        subsets = list(combinations(range(n + 1), k))
        index = {s: i for i, s in enumerate(subsets)}
        generators.append([index[tuple(sorted(set(range(n + 1)) - set(s)))] for s in subsets])
        closed_form *= 2
    for g in generators:
        require(maps_edges_onto(g, edges, edges), "reference generator is not an automorphism")
    order = sympy_order(generators, degree)
    require(order == closed_form, f"sympy order {order} != closed form {closed_form}")
    return order


# ---------------------------------------------------------------------------
# report access


def load_report(path):
    require(Path(path).is_file(), f"missing report {Path(path).name}")
    return json.loads(Path(path).read_text())


def evidence(report):
    return {e["label"]: e["value"] for e in report["evidence"]}


# ---------------------------------------------------------------------------
# checks, one per operation kind


def check_theorem1(report, n):
    """The report passes, its counts are the identities C(n,2) and
    n(n-1)(n-2)/2, and its independent witness maps the cover built here
    onto F_2(K_n) built here."""
    ev = evidence(report)
    require(report["passed"] is True and report["status"] == "pass", f"n={n}: report does not pass")
    vertices = comb(n, 2)
    require(ev["cover_vertices"] == vertices,
            f"n={n}: cover_vertices {ev['cover_vertices']} != C(n,2) = {vertices}")
    simple_edges = n * (n - 1) * (n - 2) // 2
    require(ev["cover_simple_edges"] == simple_edges,
            f"n={n}: cover_simple_edges {ev['cover_simple_edges']} != {simple_edges}")
    cover_n, cover_edges = theorem1_cover(n)
    token_n, token_edges = token_graph("complete", (n,), 2)
    require(cover_n == token_n == vertices and len(token_edges) == simple_edges,
            f"n={n}: reference constructions disagree with the identities")
    witness = parse_cycles(ev["independent_witness"], vertices)
    require(maps_edges_onto(witness, cover_edges, token_edges),
            f"n={n}: independent_witness does not map the cover onto F_2(K_n)")


# Edge-transitive k for each zz instance, from the classification of
# edge-transitive token graphs (PAPER.md): F_k(K_n) for 2 <= k <= n-1,
# F_k(K_{1,n}) for 2 <= k <= n, F_k(K_{2,n}) for k = (n+2)/2, F_k(K_{n,n})
# for k = 2 and its mirror 2n-2; k = 1 and k = |V|-1 give the base graph
# itself, edge-transitive for K_n, stars, K_{m,n} and cycles, not for paths.
EDGE_TRANSITIVE_K = {
    "complete:6": {1, 2, 3, 4, 5},
    "star:6": {1, 2, 3, 4, 5},
    "complete_bipartite:2:6": {1, 4, 7},
    "complete_bipartite:3:3": {1, 2, 4, 5},
    "complete:8": {2, 3, 4},
    "star:8": {2, 3, 4, 5, 6, 7},
    "path:6": set(),
    "cycle:6": {1, 5},
}


def check_zz(report, family, k):
    """Verdict equals the classification table; sizes equal F_k built here."""
    ev = evidence(report)
    expected = k in EDGE_TRANSITIVE_K[family]
    name, params = parse_family(family)
    require(report["passed"] is True and report["status"] == "pass",
            f"{family} k={k}: report does not pass")
    require(ev["computed_edge_transitive"] is expected and ev["predicted_edge_transitive"] is expected,
            f"{family} k={k}: verdict differs from the classification ({expected})")
    require((ev["edge_orbit_count"] == 1) is expected,
            f"{family} k={k}: {ev['edge_orbit_count']} edge orbits contradict the verdict")
    vertices, edges = token_graph(name, params, k)
    require(ev["token_vertices"] == vertices,
            f"{family} k={k}: token_vertices {ev['token_vertices']} != {vertices}")
    require(ev["token_edges"] == len(edges),
            f"{family} k={k}: token_edges {ev['token_edges']} != {len(edges)}")


def check_order(result, graph, closed_form):
    """``automorphisms(X).order()`` is exact, equals sympy's order on the
    same generators and the closed form; every generator is a non-identity
    automorphism of the graph the benchmark passed in."""
    degree, edges = graph
    order, exact = result["order"]
    generators = result["generators"]
    require(exact is True, "order is only a lower bound")
    for g in generators:
        require(len(g) == degree and sorted(g) == list(range(degree)),
                "generator is not a permutation of the vertex set")
        require(g != list(range(degree)), "identity listed as a generator")
        require(maps_edges_onto(g, edges, edges), "generator is not an automorphism")
    reference = sympy_order(generators, degree)
    require(order == reference, f"order {order} != sympy order {reference} on the same generators")
    require(order == closed_form, f"order {order} != closed form {closed_form}")


def check_conjecture(report, which, n):
    """At least one verified candidate; each is an automorphism of order m
    of F_k(K_{1,n}) built here whose orbits match the listed stabilizers,
    with sum of m/s over the stabilizer sizes s equal to the vertex count;
    aut_order equals sympy's order.  Independent of how many candidates are
    listed."""
    ev = evidence(report)
    k, m = ((n + 1) // 2, 2 * n) if which == 1 else (2, n)
    vertices, edges = token_graph("star", (n,), k)
    require(report["status"] == "completed", f"conjecture {which} n={n}: search incomplete")
    require(ev["token_vertices"] == vertices,
            f"conjecture {which} n={n}: token_vertices {ev['token_vertices']} != {vertices}")
    require(ev["group_modulus"] == m, f"conjecture {which} n={n}: group modulus is not {m}")
    require(ev["aut_order_exact"] is True, f"conjecture {which} n={n}: aut_order inexact")
    reference = star_token_aut_order(n, k)
    require(ev["aut_order"] == reference,
            f"conjecture {which} n={n}: aut_order {ev['aut_order']} != sympy order {reference}")
    candidates = ev["verified_candidates"]
    require(len(candidates) >= 1, f"conjecture {which} n={n}: no verified candidate")
    for cand in candidates:
        images = parse_cycles(cand["automorphism"], vertices)
        require(maps_edges_onto(images, edges, edges),
                f"conjecture {which} n={n}: candidate is not an automorphism")
        lengths = [len(c) for c in orbits(images)]
        require(lcm(*lengths) == m, f"conjecture {which} n={n}: candidate order is not {m}")
        sizes = cand["stabilizer_sizes"]
        require(sorted(sizes) == sorted(m // ell for ell in lengths),
                f"conjecture {which} n={n}: stabilizer sizes do not match the orbits")
        require(sum(m // s for s in sizes) == vertices,
                f"conjecture {which} n={n}: sum of m/s over stabilizers != {vertices}")
        require(cand["base_vertices"] == len(lengths),
                f"conjecture {which} n={n}: base_vertices is not the orbit count")
        require(cand["free"] is all(ell == m for ell in lengths),
                f"conjecture {which} n={n}: free flag contradicts the cycle type")


def check_operation(op, output, out_dir):
    """Run the checks for one operation of a round; raises CheckError."""
    kind, params = op.check
    if kind == "theorem1":
        (n,) = params
        check_theorem1(load_report(Path(out_dir) / f"theorem1_n{n}.json"), n)
    elif kind == "zz":
        family, ks = params
        name, values = parse_family(family)
        stem = name + "_".join(map(str, values))
        for k in ks:
            check_zz(load_report(Path(out_dir) / f"zz_{stem}_k{k}.json"), family, k)
    elif kind == "order":
        (closed_form,) = params
        check_order(output, op.graph, closed_form)
    elif kind == "conjecture":
        which, n = params
        check_conjecture(load_report(Path(out_dir) / f"conjecture{which}_n{n}.json"), which, n)
    else:
        raise ValueError(f"unknown check {kind!r}")
