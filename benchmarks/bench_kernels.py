#!/usr/bin/env python3
"""Time the search kernel.

Runs the automorphism-generator search and the isomorphism-witness search
on representative token/Johnson/line-graph workloads, some of them
relabelled, and prints the best per-case timing over ``--repeat`` runs.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from token_covers import search  # noqa: E402
from token_covers.graphs import complete, complete_bipartite, star, underlying_simple  # noqa: E402
from token_covers.tokens import johnson, line_graph, subdivision, token_graph  # noqa: E402
from token_covers.voltage import lift, theorem1_base  # noqa: E402

# perfbench's kernel gate reads this attribute and skips when it is None;
# it stays until a benchmark change drops the gate.
compiled = None


def relabeled(graph, seed):
    rng = random.Random(seed)
    images = list(range(graph.vertex_count))
    rng.shuffle(images)
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[images[u]] |= 1 << images[v]
        masks[images[v]] |= 1 << images[u]
    return tuple(masks)


def workloads():
    yield ("aut F_2(K_10), 45v", "aut",
           (token_graph(complete(10), 2).adjacency_masks,))
    yield ("aut F_2(K_12), 66v", "aut",
           (token_graph(complete(12), 2).adjacency_masks,))
    yield ("aut J(9,3), 84v", "aut", (johnson(9, 3).adjacency_masks,))
    yield ("aut F_4(K_{2,6}), 70v", "aut",
           (token_graph(complete_bipartite(2, 6), 4).adjacency_masks,))
    yield ("aut subdivision(K_7), 28v", "aut",
           (subdivision(complete(7)).adjacency_masks,))
    # relabelled, as the order graphs of perfbench's symmetry workload are:
    # their searches refine many sibling branches
    yield ("aut F_3(K_8) relabeled, 56v", "aut",
           (relabeled(token_graph(complete(8), 3), 2),))
    yield ("aut F_4(K_{1,7}) relabeled, 70v", "aut",
           (relabeled(token_graph(star(7), 4), 3),))
    f2k10 = token_graph(complete(10), 2)
    yield ("iso F_2(K_10) ~ L(K_10), 45v", "iso",
           (f2k10.adjacency_masks, line_graph(complete(10)).adjacency_masks))
    j84 = johnson(8, 4)
    yield ("iso J(8,4) ~ relabeling, 70v", "iso",
           (j84.adjacency_masks, relabeled(j84, 1)))
    f3k7 = token_graph(complete(7), 3)
    yield ("iso F_3(K_7) ~ J(7,3), 35v", "iso",
           (f3k7.adjacency_masks, johnson(7, 3).adjacency_masks))
    # the largest pair of perfbench's theorem1 workload, and its target's group
    f2k20 = token_graph(complete(20), 2)
    cover = underlying_simple(lift(theorem1_base(20)).graph)
    yield ("iso theorem-1 cover ~ F_2(K_20), 190v", "iso",
           (cover.adjacency_masks, f2k20.adjacency_masks))
    yield ("aut F_2(K_20), 190v", "aut", (f2k20.adjacency_masks,))
    # 1,099 leaves individualized one level at a time: a first path deeper
    # than the default recursion limit
    k1_1100 = star(1100)
    yield ("iso K_{1,1100} ~ relabeling, 1101v", "iso",
           (k1_1100.adjacency_masks, relabeled(k1_1100, 4)))


def best_time(func, args, repeat):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        func(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    header = f"{'workload':38s} {'time':>10s}"
    print(header)
    print("-" * len(header))
    for name, kind, payload in workloads():
        fn = search.automorphism_generators if kind == "aut" else search.isomorphism_witness
        print(f"{name:38s} {best_time(fn, payload, args.repeat) * 1e3:8.2f}ms")


if __name__ == "__main__":
    main()
