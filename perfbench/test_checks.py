"""The benchmark's checks accept real outputs and reject corrupted ones.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import copy
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from token_covers.algebra import Permutation  # noqa: E402
from token_covers.graphs import SimpleGraph  # noqa: E402
from token_covers.symmetry import automorphisms, zz_check  # noqa: E402
from token_covers.voltage import conjecture_search, verify_theorem1  # noqa: E402


def cycle_string(images):
    return Permutation(tuple(images)).cycle_string()


def set_evidence(report, label, value):
    for item in report["evidence"]:
        if item["label"] == label:
            item["value"] = value
            return report
    raise KeyError(label)


@pytest.fixture(scope="module")
def theorem1_report():
    return verify_theorem1(8).to_dict()


@pytest.fixture(scope="module")
def conjecture_report():
    return conjecture_search("star_half", 5).to_dict()


@pytest.fixture(scope="module")
def order_case():
    graph = workloads.relabelled_token_graph("complete:5", 2, random.Random(7))
    aut = automorphisms(SimpleGraph(*graph))
    result = {"order": list(aut.order()), "generators": [list(g.images) for g in aut.generators]}
    return graph, result


def test_real_outputs_pass(theorem1_report, conjecture_report, order_case):
    checks.check_theorem1(theorem1_report, 8)
    checks.check_conjecture(conjecture_report, 1, 5)
    graph, result = order_case
    checks.check_order(result, graph, 120)
    for k in range(1, 6):
        checks.check_zz(zz_check("cycle", (6,), k).to_dict(), "cycle:6", k)


def test_wrong_group_order_rejected(order_case, conjecture_report):
    graph, result = order_case
    wrong = copy.deepcopy(result)
    wrong["order"][0] += 1
    with pytest.raises(checks.CheckError, match="sympy order"):
        checks.check_order(wrong, graph, 120)
    report = set_evidence(copy.deepcopy(conjecture_report), "aut_order", 120)
    with pytest.raises(checks.CheckError, match="aut_order"):
        checks.check_conjecture(report, 1, 5)


def test_witness_with_two_images_swapped_rejected(theorem1_report):
    report = copy.deepcopy(theorem1_report)
    witness = checks.parse_cycles(checks.evidence(report)["independent_witness"], 28)
    witness[3], witness[17] = witness[17], witness[3]
    set_evidence(report, "independent_witness", cycle_string(witness))
    with pytest.raises(checks.CheckError, match="independent_witness"):
        checks.check_theorem1(report, 8)


def test_generator_that_is_not_an_automorphism_rejected(order_case):
    graph, result = order_case
    wrong = copy.deepcopy(result)
    g = wrong["generators"][0]
    g[0], g[1] = g[1], g[0]
    with pytest.raises(checks.CheckError, match="not an automorphism"):
        checks.check_order(wrong, graph, 120)


def test_candidate_that_is_not_an_automorphism_rejected(conjecture_report):
    report = copy.deepcopy(conjecture_report)
    candidate = checks.evidence(report)["verified_candidates"][0]
    images = checks.parse_cycles(candidate["automorphism"], 20)
    # conjugating by a transposition of two non-adjacent points keeps the
    # cycle type (so order and stabilizers still fit) but breaks adjacency
    t = list(range(20))
    t[0], t[1] = 1, 0
    candidate["automorphism"] = cycle_string([t[images[t[x]]] for x in range(20)])
    with pytest.raises(checks.CheckError, match="not an automorphism"):
        checks.check_conjecture(report, 1, 5)


def test_vertex_count_off_by_one_rejected(theorem1_report, conjecture_report):
    report = set_evidence(copy.deepcopy(theorem1_report), "cover_vertices", 29)
    with pytest.raises(checks.CheckError, match="cover_vertices"):
        checks.check_theorem1(report, 8)
    report = set_evidence(copy.deepcopy(conjecture_report), "token_vertices", 21)
    with pytest.raises(checks.CheckError, match="token_vertices"):
        checks.check_conjecture(report, 1, 5)


def test_flipped_verdict_rejected():
    report = zz_check("cycle", (6,), 3).to_dict()
    set_evidence(report, "computed_edge_transitive", True)
    set_evidence(report, "predicted_edge_transitive", True)
    with pytest.raises(checks.CheckError, match="classification"):
        checks.check_zz(report, "cycle:6", 3)


def test_layer_self_time_excludes_children():
    spans_list = [
        ["voltage.lift", "voltage", 0.0, 1.0, None, 0.75, 0],
        ["search.isomorphism_witness", "search", 0.25, 1.0, 0, 0.0, 0],
    ]
    values = spans.layer_metrics(spans_list, {"voltage.lift_pairs": 3})
    assert values["voltage.lift_s"] == 1.0
    assert values["voltage.self_s"] == 0.25
    assert values["search.iso_s"] == 0.75
    assert values["search.iso_calls"] == 1
    assert values["voltage.lift_pairs"] == 3
