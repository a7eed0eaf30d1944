"""Acceptance suite: every criterion is an exact combinatorial check and
prints one pass/fail line (run with ``pytest -s`` to see them inline)."""

import random
from contextlib import contextmanager
from math import comb, factorial

import pytest

from token_covers.algebra import Permutation, Subgroup
from token_covers.cli import main as cli_main
from token_covers.graphs import (
    complete,
    complete_bipartite,
    cycle,
    path,
    srg_parameters,
    star,
    underlying_simple,
)
from token_covers.symmetry import (
    automorphisms,
    is_isomorphic,
    zz_check,
)
from token_covers.tokens import (
    induced_token_permutation,
    inclusion_bigraph,
    johnson,
    line_graph,
    subdivision,
    token_graph,
)
from token_covers.voltage import (
    CombinedVoltageGraph,
    conjecture_search,
    lift,
    quotient_cyclic,
    quotient_free,
    theorem1_base,
    verify_theorem1,
)

from helpers import (
    brute_force_isomorphism,
    complement,
    cosets,
    fiber_offsets,
    free_actions,
    from_cycles,
    intersects,
    kneser,
    members,
    random_multigraph,
    random_simple_graph,
    relabel,
    subgroups,
    translate,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"acceptance criterion {num:2d}: FAIL ({description})")
        raise
    print(f"acceptance criterion {num:2d}: PASS ({description})")


def test_criterion_01_theorem1_end_to_end():
    with criterion(1, "even-n cover construction verifies for n in {4,6,8,10}"):
        for n in (4, 6, 8, 10):
            report = verify_theorem1(n)
            assert report.passed, f"n={n}"
            assert report.find("cover_vertices") == comb(n, 2)
            assert report.find("explicit_map_bijective")
            assert report.find("explicit_map_isomorphism")
            assert report.find("independent_search_agrees")


def test_criterion_02_srg_parameters():
    with criterion(2, "srg parameters of 2-token complete graphs, n in 4..10"):
        for n in range(4, 11):
            got = srg_parameters(token_graph(complete(n), 2))
            assert got == (comb(n, 2), 2 * (n - 2), n - 2, 4), f"n={n}"


def test_criterion_03_johnson_and_line_identities():
    with criterion(3, "token/Johnson/line-graph identities"):
        for n in range(2, 8):
            for k in range(1, n // 2 + 1):
                assert is_isomorphic(token_graph(complete(n), k),
                                     johnson(n, k)) is not None, (n, k)
        for n in range(3, 9):
            assert is_isomorphic(token_graph(complete(n), 2),
                                 line_graph(complete(n))) is not None, n
        assert is_isomorphic(token_graph(complete(5), 2),
                             complement(kneser(5, 2))) is not None


def test_criterion_04_classification_instances():
    with criterion(4, "edge-transitivity classification instances and controls"):
        cases = []
        for n in range(3, 7):
            cases += [("complete", (n,), k) for k in range(2, n)]
        for n in range(2, 7):
            cases += [("star", (n,), k) for k in range(2, n + 1)]
        for n in (2, 4, 6):
            cases.append(("complete_bipartite", (2, n), (n + 2) // 2))
        for n in (2, 3, 4):
            cases.append(("complete_bipartite", (n, n), 2))
        for family, params, k in cases:
            report = zz_check(family, params, k)
            assert report.passed, (family, params, k)
            assert report.find("predicted_edge_transitive"), (family, params, k)
        for family, params, k in (("path", (4,), 2), ("path", (4,), 3),
                                  ("cycle", (5,), 2)):
            report = zz_check(family, params, k)
            assert report.passed, (family, params, k)
            assert not report.find("computed_edge_transitive")


def test_criterion_05_star_identities():
    with criterion(5, "star token graphs: subdivisions and inclusion bigraphs"):
        for n in range(3, 7):
            assert is_isomorphic(token_graph(star(n), 2),
                                 subdivision(complete(n))) is not None, n
        for n, k in ((3, 2), (5, 3), (7, 4)):
            assert is_isomorphic(token_graph(star(n), k),
                                 inclusion_bigraph(n, k - 1, k)) is not None, (n, k)
        assert is_isomorphic(token_graph(star(3), 2), cycle(6)) is not None


def test_criterion_06_quotient_round_trip():
    with criterion(6, "free quotient then lift returns the original graph"):
        corpus = []
        for n in (4, 6, 8):
            X = cycle(n)
            for m in (2, n // 2, n):
                if m >= 2 and n % m == 0:
                    corpus += [(X, g) for g in free_actions(X, m)]
        hexagon = token_graph(star(3), 2)
        for m in (2, 3, 6):
            corpus += [(hexagon, g) for g in free_actions(hexagon, m)]
        rng = random.Random(23)
        for _ in range(10):
            m = rng.randint(2, 8)
            base = random_multigraph(rng, rng.randint(1, 4), rng.randint(1, 6))
            cvg = CombinedVoltageGraph(
                base, m,
                tuple(rng.randrange(m) for _ in range(base.edge_count)),
                tuple(Subgroup(m, m) for _ in range(base.vertex_count)))
            cover, offset = lift(cvg), fiber_offsets(cvg)
            X = underlying_simple(cover.graph)
            shift = Permutation(tuple(offset[x] + (r + 1) % m for x, r in cover.vertices))
            corpus.append((X, shift))
        assert len(corpus) >= 20
        for X, g in corpus:
            q, report = quotient_free(X, g)
            assert report.passed, (X, g.cycle_string())
            assert is_isomorphic(underlying_simple(lift(q).graph), X) is not None


def test_criterion_07_reverse_engineering_half_base():
    with criterion(7, "cyclic quotient of 2-token complete graphs recovers a half-size base"):
        for n in (4, 6):
            F = token_graph(complete(n), 2)
            g = induced_token_permutation(
                from_cycles(n, [tuple(range(n))]), 2)
            cvg, report = quotient_cyclic(F, g)
            assert report.passed, n
            assert cvg.base.vertex_count == n // 2
            stabilizers = sorted(s.size for s in cvg.vertex_groups)
            assert stabilizers.count(2) == 1 and stabilizers.count(1) == n // 2 - 1


def test_criterion_08_conjecture_harness(tmp_path):
    with criterion(8, "conjecture searches: verified bases and honest completion"):
        out = tmp_path / "conj"
        assert cli_main(["conjecture", "1", "--n", "3", "--out", str(out)]) == 0
        report = conjecture_search("star_half", 3)
        found = report.find("verified_candidates")
        assert report.status == "completed" and found
        assert all(c["base_vertices"] == 1 for c in found)
        assert report.find("group_modulus") == 6

        report = conjecture_search("star_half", 5)
        assert report.status == "completed"
        found = report.find("verified_candidates")
        for cand in found:
            assert cand["base_vertices"] == 2 == comb(6, 3) // 10
        assert found, "search over the 3-token star graph found no candidate"


def test_criterion_09_automorphism_order_table():
    with criterion(9, "automorphism group orders of complete and bipartite families"):
        for n in range(2, 7):
            assert automorphisms(complete(n)).order() == (factorial(n), True), n
        for m in range(1, 6):
            for n in range(m + 1, 6):
                got = automorphisms(complete_bipartite(m, n)).order()
                assert got == (factorial(m) * factorial(n), True), (m, n)
        for n in range(1, 5):
            got = automorphisms(complete_bipartite(n, n)).order()
            assert got == (2 * factorial(n) ** 2, True), n


def test_criterion_10_property_suites():
    with criterion(10, "coset identities, fiber sizes, oracle-checked isomorphism"):
        # exhaustive coset identities for every modulus up to 12
        for m in range(1, 13):
            subs = subgroups(m)
            for H1 in subs:
                for H2 in subs:
                    for K in cosets(m, H1.index):
                        for H in cosets(m, H2.index):
                            assert intersects(K, H) == bool(members(K) & members(H))
                            for v in range(m):
                                assert (intersects(translate(K, v), H)
                                        == intersects(translate(H, -v), K))

        # fiber sizes on every constructed cover, including nontrivial fibers
        covers = [theorem1_base(n) for n in (4, 6, 8, 10)]
        rng = random.Random(41)
        for _ in range(8):
            m = rng.randint(2, 8)
            base = random_multigraph(rng, rng.randint(1, 4), rng.randint(1, 6))
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            covers.append(CombinedVoltageGraph(
                base, m,
                tuple(rng.randrange(m) for _ in range(base.edge_count)),
                tuple(Subgroup(m, rng.choice(divisors))
                      for _ in range(base.vertex_count))))
        for cvg in covers:
            fibers = [x for x, _ in lift(cvg).vertices]
            for x in range(cvg.base.vertex_count):
                assert fibers.count(x) == cvg.vertex_groups[x].index

        # isomorphism decisions agree with the all-permutations oracle
        rng = random.Random(9)
        pairs = [
            (cycle(6), complete_bipartite(3, 3)),
            (token_graph(complete(4), 2), johnson(4, 2)),
            (path(4), star(3)),
            (subdivision(complete(3)), cycle(6)),
        ]
        for _ in range(10):
            n = rng.randint(2, 8)
            a = random_simple_graph(rng, n, 0.5)
            images = list(range(n))
            rng.shuffle(images)
            pairs.append((a, relabel(a, images)))
            pairs.append((a, random_simple_graph(rng, n, 0.5)))
        for a, b in pairs:
            assert (is_isomorphic(a, b) is None) == (brute_force_isomorphism(a, b) is None)
