#!/usr/bin/env python3
"""Benchmark the compiled search kernel against the pure-Python twin.

Runs the automorphism-generator search and the isomorphism-witness search
on representative token/Johnson/line-graph workloads and prints per-case
timings with the speedup factor.  Works (and says so) when the compiled
extension is unavailable.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from token_covers import _search_py as pure  # noqa: E402
from token_covers.graphs import complete, complete_bipartite  # noqa: E402
from token_covers.tokens import johnson, line_graph, subdivision, token_graph  # noqa: E402

try:
    from token_covers import _search_c as compiled
except ImportError:
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
    f2k10 = token_graph(complete(10), 2)
    yield ("iso F_2(K_10) ~ L(K_10), 45v", "iso",
           (f2k10.adjacency_masks, line_graph(complete(10)).adjacency_masks))
    j84 = johnson(8, 4)
    yield ("iso J(8,4) ~ relabeling, 70v", "iso",
           (j84.adjacency_masks, relabeled(j84, 1)))
    f3k7 = token_graph(complete(7), 3)
    yield ("iso F_3(K_7) ~ J(7,3), 35v", "iso",
           (f3k7.adjacency_masks, johnson(7, 3).adjacency_masks))


def best_time(func, args, repeat):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if compiled is None:
        print("compiled kernel not available; timing the pure backend only\n")
    header = f"{'workload':38s} {'python':>10s} {'compiled':>10s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for name, kind, payload in workloads():
        py_fn = pure.automorphism_generators if kind == "aut" else pure.isomorphism_witness
        py_t, py_out = best_time(py_fn, payload, args.repeat)
        if compiled is not None:
            c_fn = (compiled.automorphism_generators if kind == "aut"
                    else compiled.isomorphism_witness)
            c_t, c_out = best_time(c_fn, payload, args.repeat)
            if py_out != c_out:
                raise SystemExit(f"backend disagreement on {name!r}")
            print(f"{name:38s} {py_t * 1e3:8.2f}ms {c_t * 1e3:8.2f}ms {py_t / c_t:7.1f}x")
        else:
            print(f"{name:38s} {py_t * 1e3:8.2f}ms {'-':>10s} {'-':>8s}")


if __name__ == "__main__":
    main()
