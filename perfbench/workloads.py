"""The operation list of each workload.

An operation is one CLI invocation (``argv`` for ``token_covers.cli.main``)
or one library call (``automorphisms(X).order()`` on ``graph``), together
with the check that ``checks.check_operation`` runs on its output.  Every
repetition of a workload runs the same list; only the vertex relabellings
of the order graphs depend on the seed, and group orders do not depend on
labelling, so the checks are the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

import checks

WORKLOADS = ("theorem1", "symmetry", "conjecture")

# N = 20 is the largest even n whose F_2(K_n) (190 vertices) fits under the
# CLI's default 200-vertex cap.
THEOREM1_N = tuple(range(4, 21, 2))

# Edge-transitive classification instances plus path/cycle negative
# controls; verdicts are held in checks.EDGE_TRANSITIVE_K.
ZZ_RUNS = (
    ("complete:6", range(1, 6)),
    ("star:6", range(1, 6)),
    ("complete_bipartite:2:6", range(1, 8)),
    ("complete_bipartite:3:3", range(1, 6)),
    ("complete:8", range(2, 5)),
    ("star:8", range(2, 8)),
    ("path:6", range(1, 6)),
    ("cycle:6", range(1, 6)),
)

# (label, family, k, |Aut|): n! for F_k(K_n) with k != n/2; F_4(K_{1,7}) is
# the inclusion graph of the 3- and 4-subsets of 7 leaves, |Aut| = 2 * 7!.
ORDER_GRAPHS = (
    ("F_2(K_8)", "complete:8", 2, factorial(8)),
    ("F_3(K_8)", "complete:8", 3, factorial(8)),
    ("F_4(K_{1,7})", "star:7", 4, 2 * factorial(7)),
)

CONJECTURE_RUNS = ((1, 5), (1, 7), (2, 5), (2, 7))


@dataclass(frozen=True)
class Operation:
    label: str
    check: tuple            # (kind, params) for checks.check_operation
    argv: tuple = ()        # a CLI operation
    graph: tuple = None     # (vertex count, edges) for an order operation


def relabelled_token_graph(family, k, rng):
    """F_k of a family, built by the benchmark, under a random relabelling."""
    name, params = checks.parse_family(family)
    vertices, edges = checks.token_graph(name, params, k)
    images = list(range(vertices))
    rng.shuffle(images)
    return vertices, sorted((min(images[u], images[v]), max(images[u], images[v]))
                            for u, v in edges)


def operations(workload, seed):
    """The operation list one repetition of ``workload`` runs."""
    if workload == "theorem1":
        return [Operation(f"verify-theorem1 --n {n}", ("theorem1", (n,)),
                          argv=("verify-theorem1", "--n", str(n)))
                for n in THEOREM1_N]
    if workload == "symmetry":
        ops = [Operation(f"zz --family {family} --k {ks[0]}..{ks[-1]}", ("zz", (family, tuple(ks))),
                         argv=("zz", "--family", family, "--k", f"{ks[0]}..{ks[-1]}"))
               for family, ks in ZZ_RUNS]
        rng = random.Random(seed)
        for label, family, k, order in ORDER_GRAPHS:
            ops.append(Operation(f"order {label}", ("order", (order,)),
                                 graph=relabelled_token_graph(family, k, rng)))
        return ops
    if workload == "conjecture":
        return [Operation(f"conjecture {which} --n {n}", ("conjecture", (which, n)),
                          argv=("conjecture", str(which), "--n", str(n)))
                for which, n in CONJECTURE_RUNS]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
