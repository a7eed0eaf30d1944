import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_covers import cli, search, symmetry, voltage
from token_covers.cli import main
from token_covers.graphs import FAMILY_BUILDERS


def run(*args):
    return main(list(args))


def test_build_token_star(tmp_path):
    assert run("build", "--token", "star:5", "--k", "3", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "token_star5_k3.json").read_text())
    assert payload["vertices"] == 20
    assert (tmp_path / "token_star5_k3.dot").exists()


def test_build_johnson(tmp_path):
    assert run("build", "--johnson", "4", "2", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "johnson_4_2.json").read_text())
    assert payload["vertices"] == 6


def test_build_token_dot_only(tmp_path):
    assert run("build", "--token", "complete:6", "--k", "2",
               "--format", "dot", "--out", str(tmp_path)) == 0
    text = (tmp_path / "token_complete6_k2.dot").read_text()
    node_lines = [l for l in text.splitlines() if "[label=" in l and "--" not in l]
    assert len(node_lines) == 15
    assert not (tmp_path / "token_complete6_k2.json").exists()


def test_build_theorem1_base_dot(tmp_path):
    assert run("build", "--theorem1-base", "6", "--format", "dot",
               "--out", str(tmp_path)) == 0
    text = (tmp_path / "theorem1_base_6.dot").read_text()
    edge_lines = [l for l in text.splitlines() if "--" in l]
    node_lines = [l for l in text.splitlines() if "[label=" in l and "--" not in l]
    assert len(node_lines) == 3
    assert len(edge_lines) == 14
    assert all("label=" in l for l in edge_lines)  # voltage labels


GOLDEN = Path(__file__).parent / "golden"


def test_build_theorem1_files_are_pinned(tmp_path, capsys):
    """``build --theorem1-base 6 --theorem1-cover 6`` writes these exact
    bytes: the base's vertex labels (``x3 {0,3}``) and subgroup indices
    (``vertex_subgroup_generators``), and the cover's (x, {coset}) labels."""
    golden = GOLDEN / "build_theorem1_6"
    assert run("build", "--theorem1-base", "6", "--theorem1-cover", "6",
               "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
    names = ["theorem1_base_6.dot", "theorem1_base_6.json",
             "theorem1_cover_6.dot", "theorem1_cover_6.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("name, argv, code", [
    ("conjecture1_n5", ("conjecture", "1", "--n", "5"), 0),
    ("conjecture1_n7", ("conjecture", "1", "--n", "7"), 0),
    ("conjecture2_n5", ("conjecture", "2", "--n", "5"), 0),
    ("conjecture2_n7", ("conjecture", "2", "--n", "7"), 0),
    ("conjecture2_n11", ("conjecture", "2", "--n", "11"), 0),
    ("conjecture1_n11", ("conjecture", "1", "--n", "11", "--max-vertices", "1000"), 0),
])
def test_conjecture_reports_are_pinned(tmp_path, capsys, name, argv, code):
    """``conjecture`` writes these exact reports and stdout, with its exit
    code: the class counts and each class's first member, whatever walk and
    class partition produce them.  ``conjecture2_n11`` and
    ``conjecture1_n11`` have 11! and 2*11! automorphisms: only the vertex
    cap bounds a run, however large its group."""
    golden = GOLDEN / "conjecture" / name
    assert run(*argv, "--out", str(tmp_path)) == code
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
    names = sorted(p.name for p in golden.iterdir() if p.name != "stdout.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for report in names:
        assert (tmp_path / report).read_bytes() == (golden / report).read_bytes(), report


@pytest.mark.parametrize("name, family, ks", [
    ("complete_bipartite_2_6", "complete_bipartite:2:6", "1..7"),
    ("cycle_4", "cycle:4", "1..3"),
    ("path_3", "path:3", "1..2"),
    ("star_6", "star:6", "1..5"),
    ("path_6", "path:6", "1..5"),
    ("complete_6", "complete:6", "1..5"),
    ("complete_bipartite_3_3", "complete_bipartite:3:3", "1..5"),
    ("complete_8", "complete:8", "2..4"),
    ("star_8", "star:8", "2..7"),
    ("cycle_6", "cycle:6", "1..5"),
    ("cycle_9", "cycle:9", "1..8"),
])
def test_zz_reports_are_pinned(tmp_path, capsys, name, family, ks):
    """``zz`` writes these exact reports and stdout: K_{2,6}, a star, two
    tags that name a classification graph under another family's name
    (``cycle:4`` is K_{2,2}, ``path:3`` is K_{1,2}), the negative
    control ``path:6``, the rest of the ``symmetry`` benchmark's ranges
    (``complete:8 2..4`` and ``star:8 2..7`` leave out k = 1), and
    ``cycle:9``, which takes every route: F_1 and F_8 from X's
    generators, k = 2, 4, 5, 7 separated by colour refinement, k = 3
    searched and k = 6 from k = 3's generators reversed."""
    golden = GOLDEN / "zz" / name
    assert run("zz", "--family", family, "--k", ks, "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == (golden / "stdout.txt").read_text()
    names = sorted(p.name for p in golden.iterdir() if p.name != "stdout.txt")
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for report in names:
        assert (tmp_path / report).read_bytes() == (golden / report).read_bytes(), report


def test_build_requires_a_target(tmp_path):
    assert run("build", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("argv, message", [
    (("--k", "3", "--family", "star:3"), "--k requires --token"),
    (("--token", "star:3"), "--token requires --k"),
])
def test_build_token_and_k_come_together(tmp_path, capsys, argv, message):
    assert run("build", *argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_build_johnson_names_a_bad_n(tmp_path, capsys):
    """A bad n is named before k is checked against it."""
    assert run("build", "--johnson", "-1", "2", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: n=-1 out of range: need n >= 1\n"
    assert not list(tmp_path.iterdir())


def test_build_bad_family(tmp_path):
    assert run("build", "--family", "torus:3", "--out", str(tmp_path)) == 2


def test_verify_theorem1_single(tmp_path):
    assert run("verify-theorem1", "--n", "6", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "theorem1_n6.json").read_text())
    assert payload["passed"] is True
    assert payload["schema_version"] == 1


def test_verify_theorem1_range(tmp_path):
    assert run("verify-theorem1", "--n", "4..10", "--out", str(tmp_path)) == 0
    names = sorted(p.name for p in tmp_path.glob("theorem1_n*.json"))
    assert names == ["theorem1_n10.json", "theorem1_n4.json",
                     "theorem1_n6.json", "theorem1_n8.json"]


def test_verify_theorem1_odd_rejected(tmp_path):
    assert run("verify-theorem1", "--n", "7", "--out", str(tmp_path)) == 2


def test_verify_theorem1_over_cap_fails_before_lifting(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("lift must not run past the vertex cap")

    monkeypatch.setattr(voltage, "lift", never)
    assert run("verify-theorem1", "--n", "40", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: theorem1-n40: 780 vertices exceed the cap 200\n"
    assert not list(tmp_path.iterdir())


def _never(*args, **kwargs):
    raise AssertionError("no graph may be built past the vertex cap")


@pytest.mark.parametrize("flags, builder, message", [
    (("--token", "complete:40", "--k", "3"), "token_graph",
     "token_complete40_k3: 9880 vertices exceed the cap 200"),
    (("--johnson", "16", "8"), "johnson", "johnson_16_8: 12870 vertices exceed the cap 200"),
    (("--line", "complete:21"), "line_graph", "line_complete21: 210 vertices exceed the cap 200"),
    (("--subdivision", "complete:20"), "subdivision",
     "subdivision_complete20: 210 vertices exceed the cap 200"),
    (("--inclusion", "12", "2", "3"), "inclusion_bigraph",
     "inclusion_12_2_3: 286 vertices exceed the cap 200"),
    (("--family", "complete:2000"), "make_family",
     "complete2000: 2000 vertices exceed the cap 200"),
    # a job within the cap is not built before a later job's cap fails
    (("--token", "star:5", "--k", "3", "--johnson", "16", "8"), "johnson",
     "johnson_16_8: 12870 vertices exceed the cap 200"),
    # the Theorem 1 base has N/2 vertices, and its cover C(N, 2)
    (("--theorem1-base", "1000", "--max-vertices", "10"), "voltage.theorem1_base",
     "theorem1_base_1000: 500 vertices exceed the cap 10"),
    (("--theorem1-cover", "800", "--max-vertices", "10"), "voltage.theorem1_base",
     "theorem1_cover_800: 319600 vertices exceed the cap 10"),
])
def test_build_over_cap_fails_before_building(tmp_path, monkeypatch, capsys,
                                              flags, builder, message):
    # the family graph under a token, line or subdivision graph is not built either
    monkeypatch.setattr(cli, "make_family", _never)
    monkeypatch.setattr(f"token_covers.cli.{builder}", _never)
    assert run("build", *flags, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_build_theorem1_cover_over_cap_fails_before_lifting(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(voltage, "lift", _never)
    assert run("build", "--theorem1-cover", "22", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: theorem1_cover_22: 231 vertices exceed the cap 200\n"
    assert not list(tmp_path.iterdir())


def test_zz_over_cap_fails_before_building(tmp_path, monkeypatch, capsys):
    for name in ("make_family", "is_connected", "token_graph"):
        monkeypatch.setattr(symmetry, name, _never)
    assert run("zz", "--family", "complete:40", "--k", "3", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: zz-complete:40-k3: 9880 vertices exceed the cap 200\n"
    assert not list(tmp_path.iterdir())


def test_conjecture_over_cap_fails_before_building(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(voltage, "token_graph", _never)
    assert run("conjecture", "1", "--n", "9", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == ("error: conjecture-star_half-n9: 252 vertices "
                                       "exceed the cap 200\n")
    assert not list(tmp_path.iterdir())


NINES = "9" * 2500  # a family size whose edge count str() cannot print


@pytest.mark.parametrize("argv, message", [
    (("zz", "--family", "complete:200000", "--k", "100000"),
     "zz-complete:200000-k100000: at least 10^4300 vertices exceed the cap 200"),
    (("conjecture", "1", "--n", "200001"),
     "conjecture-star_half-n200001: at least 10^4300 vertices exceed the cap 200"),
    (("build", "--token", "complete:200000", "--k", "100000"),
     "token_complete200000_k100000: at least 10^4300 vertices exceed the cap 200"),
    (("build", "--line", f"complete:{NINES}"),
     f"line_complete{NINES}: at least 10^4300 vertices exceed the cap 200"),
    (("build", "--subdivision", f"complete:{NINES}"),
     f"subdivision_complete{NINES}: at least 10^4300 vertices exceed the cap 200"),
], ids=["zz", "conjecture", "build", "build-line", "build-subdivision"])
def test_count_too_large_to_print_is_named_against_the_cap(tmp_path, capsys, argv, message):
    """A cap check stops counting C(n, k) once the count is past the cap and
    too large to print, and a count too large to print (C(n, k) or an edge
    count) is written as its bound."""
    assert run(*argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_k_range_of_a_base_too_large_to_print_is_named(tmp_path, capsys):
    """|V| - 1 of a family past 4,300 digits is written as its bound in the
    k-range message, as in a cap message."""
    nines = "9" * 4300
    assert run("zz", "--family", f"complete_bipartite:{nines}:{nines}", "--k", "0",
               "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: k=0 out of range 1..at least 10^4300\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("budget", ["0", "-1", "x"])
def test_config_budget_is_an_unknown_key(tmp_path, capsys, budget):
    """No command reads a config file's ``budget``: whatever its value, the
    line is an unknown key, named by file and line, and every command ends
    with exit 2 and nothing written."""
    cfg = tmp_path / "caps.conf"
    cfg.write_text(f"budget={budget}\n")
    out = tmp_path / "out"
    for argv in (("conjecture", "1", "--n", "3"), ("zz", "--family", "complete:4", "--k", "2"),
                 ("verify-theorem1", "--n", "4"), ("build", "--family", "cycle:3")):
        assert run(*argv, "--config", str(cfg), "--out", str(out)) == 2, argv
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'budget'\n", argv
        assert not out.exists(), argv


@pytest.mark.parametrize("argv", [
    ("verify-theorem1", "--n", "4"),
    ("zz", "--family", "complete:5", "--k", "2"),
    ("build", "--family", "cycle:3"),
])
def test_budget_is_a_usage_error_outside_conjecture(tmp_path, capsys, argv):
    assert run(*argv, "--budget", "5", "--out", str(tmp_path)) == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (("zz", "--family", "complete:40", "--k", "1..3"),
     "zz-complete:40-k2: 780 vertices exceed the cap 200"),
    (("zz", "--family", "complete:5", "--k", "3..5"), "k=5 out of range 1..4"),
    (("verify-theorem1", "--n", "18..22"), "theorem1-n22: 231 vertices exceed the cap 200"),
    # ends far past what a list of the range's values could hold
    (("zz", "--family", "star:3", "--k", f"1..{10**16}"), "k=4 out of range 1..3"),
    (("verify-theorem1", "--n", f"4..{10**16}"),
     f"theorem1-n{10**16}: {comb(10**16, 2)} vertices exceed the cap 200"),
], ids=["zz-over-cap", "zz-k-out-of-range", "theorem1-over-cap", "zz-huge-range",
        "theorem1-huge-range"])
def test_range_that_fails_part_way_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    """Every value's cap and range is checked before the first is built, so
    the values before the failing one are neither built, written nor
    printed.  ``zz_checks`` checks its range itself, so its builders are
    the ones that must not run."""
    monkeypatch.setattr(voltage, "verify_theorem1", _never)
    for name in ("make_family", "token_graph", "automorphisms"):
        monkeypatch.setattr(symmetry, name, _never)
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("flags", [
    ("--theorem1-cover", "22"),
    # within the cap, but rejected by its builder
    ("--family", "cycle:2"),
    ("--token", "star:3", "--k", "0"),
], ids=["over-cap", "bad-family", "bad-k"])
def test_build_theorem1_base_is_not_written_when_a_later_job_is_over_cap(tmp_path, capsys,
                                                                          flags):
    out = tmp_path / "out"
    assert run("build", "--theorem1-base", "6", *flags, "--out", str(out)) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_zz_complete(tmp_path):
    assert run("zz", "--family", "complete:5", "--k", "2..4", "--out", str(tmp_path)) == 0
    assert len(list(tmp_path.glob("zz_complete5_k*.json"))) == 3


def test_zz_past_200_vertices_under_a_raised_cap(tmp_path):
    """The cap is checked once, from the parameters: the 210-vertex
    F_2(K_21) runs under --max-vertices 210."""
    assert run("zz", "--family", "complete:21", "--k", "2", "--max-vertices", "210",
               "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "zz_complete21_k2.json").read_text())
    found = {e["label"]: e["value"] for e in payload["evidence"]}
    assert found["token_vertices"] == 210
    assert found["computed_edge_transitive"] is True and payload["passed"] is True


def test_no_hidden_cap_on_the_token_graph_base(tmp_path):
    """--max-vertices is the only vertex cap: a 65-vertex base, past the
    64 that token_graph once allowed, builds under a raised cap."""
    assert run("zz", "--family", "complete:65", "--k", "1", "--max-vertices", "1000",
               "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "zz_complete65_k1.json").read_text())
    assert payload["passed"] is True
    assert run("build", "--token", "complete:65", "--k", "1", "--max-vertices", "100",
               "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "token_complete65_k1.json").read_text())
    assert payload["vertices"] == 65 and len(payload["edges"]) == 65 * 64 // 2


@pytest.mark.parametrize("text", ["9" * 4301, "x", "", "4..", "..4", "4..x"],
                         ids=["4301-digits", "x", "empty", "no-end", "no-start", "bad-end"])
@pytest.mark.parametrize("argv", [
    ("zz", "--family", "complete:5", "--k"),
    ("verify-theorem1", "--n"),
], ids=["zz", "verify-theorem1"])
def test_bad_range_is_named(tmp_path, capsys, argv, text):
    """A range int() rejects exits 2 with a message naming the text, not
    int()'s own (which for 4,301 digits is the digit-limit message)."""
    assert run(*argv, text, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad range {text!r}; expected N or A..B\n"
    assert "int()" not in err and "Exceeds the limit" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text, expected", [
    ("4", range(4, 5)), ("4..10", range(4, 11)), (" 4 .. 10 ", range(4, 11)),
    ("+4..1_0", range(4, 11)), ("-3..-1", range(-3, 0)),
])
def test_valid_ranges_parse_as_int_reads_them(text, expected):
    assert cli.parse_range(text) == expected


# each family one below its least size, with its builder's message
@pytest.mark.parametrize("family, message", [
    ("complete:0", "complete(n) requires n >= 1"),
    ("complete:-3", "complete(n) requires n >= 1"),
    ("star:0", "star(n) requires n >= 1"),
    ("path:0", "path(n) requires n >= 1"),
    ("cycle:2", "cycle(n) requires n >= 3"),
    ("complete_bipartite:0:3", "complete_bipartite(m, n) requires m, n >= 1"),
])
@pytest.mark.parametrize("argv", [
    ("zz", "--family"),
    ("build", "--token"),
    ("build", "--family"),
    ("build", "--line"),
], ids=["zz", "build-token", "build-family", "build-line"])
def test_family_parameters_are_checked_first(tmp_path, monkeypatch, capsys,
                                             family, message, argv):
    """A family's own size check comes before its k range and cap, and
    nothing is built."""
    for module in (cli, symmetry):
        monkeypatch.setattr(module, "make_family", _never)
    assert run(*argv, family, "--k", "2", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_zz_star(tmp_path):
    assert run("zz", "--family", "star:4", "--k", "2..4", "--out", str(tmp_path)) == 0


def test_zz_negative_control(tmp_path):
    assert run("zz", "--family", "path:4", "--k", "2", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "zz_path4_k2.json").read_text())
    predicted = [e for e in payload["evidence"]
                 if e["label"] == "predicted_edge_transitive"][0]["value"]
    assert predicted is False and payload["passed"] is True


def test_conjecture_1(tmp_path):
    assert run("conjecture", "1", "--n", "3", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "conjecture1_n3.json").read_text())
    assert payload["status"] == "completed"


def test_conjecture_1_n5(tmp_path):
    assert run("conjecture", "1", "--n", "5", "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "conjecture1_n5.json").read_text())
    assert payload["status"] == "completed"
    candidates = [e for e in payload["evidence"]
                  if e["label"] == "verified_candidates"][0]["value"]
    assert candidates and all(c["base_vertices"] == 2 for c in candidates)


def test_conjecture_summary_lists_classes(tmp_path, capsys):
    assert run("conjecture", "1", "--n", "5", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == (
        "conjecture 1 n=5: COMPLETED, 1 of 1 class(es) verified\n"
        "  class of 24: base 2 vertices (free=True, stabilizers=[1, 1])\n")


def test_conjecture_2_divisibility(tmp_path):
    assert run("conjecture", "2", "--n", "4", "--out", str(tmp_path)) == 2


def test_conjecture_budget_exit_code(tmp_path, capsys):
    """``conjecture`` takes no ``--budget``: the vertex cap is the one bound
    on a run, so the flag is a usage error that writes nothing."""
    assert run("conjecture", "1", "--n", "5", "--budget", "5",
               "--out", str(tmp_path)) == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", [11, 13, 15, 17, 19])
def test_conjecture_2_completes_for_odd_n_under_the_default_cap(tmp_path, n):
    """F_2(K_{1,n}) for odd n in 11..19 has at most 190 vertices and n!
    automorphisms: the run completes with the one class of (n-1)! free
    order-n actions, the leaf n-cycles, whose base has (n+1)/2 vertices
    (n = 15 also verifies four classes of non-free actions)."""
    assert run("conjecture", "2", "--n", str(n), "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / f"conjecture2_n{n}.json").read_text())
    found = {e["label"]: e["value"] for e in payload["evidence"]}
    assert payload["status"] == "completed" and payload["passed"] is True
    assert found["aut_order"] == factorial(n)
    assert found["free_actions"] == factorial(n - 1)
    free = [(c["cycle_type"], c["class_elements"], c["base_vertices"])
            for c in found["verified_candidates"] if c["free"]]
    assert free == [([n], factorial(n - 1), (n + 1) // 2)]
    assert len(found["verified_candidates"]) == (5 if n == 15 else 1)


def test_conjecture_failed_certificate_exits_1_writing_nothing(tmp_path, monkeypatch, capsys):
    """When the search's |Aut(F)| is not the order expected of the group the
    leaf permutations induce, that group is not all of Aut(F), and the run
    ends with exit 1 and no report."""
    real = voltage.factorial
    monkeypatch.setattr(voltage, "factorial", lambda n: 2 * real(n))
    assert run("conjecture", "2", "--n", "5", "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: |Aut(F)| = 120 is not the order of the group "
                            "the leaf permutations induce\n")
    assert not any(tmp_path.iterdir())


def test_invalid_kernel_generator_exits_1(tmp_path, monkeypatch, capsys):
    # swapping the end vertex and its neighbour is not an automorphism of P_4
    monkeypatch.setattr(search, "automorphism_generators",
                        lambda masks, known=(): [((1, 0) + tuple(range(2, len(masks))), 0)])
    assert run("zz", "--family", "path:4", "--k", "1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: search kernel returned an invalid generator\n"
    assert not list(tmp_path.iterdir())


# Aut(K_{1,3}) with centre 0: leaf swaps, each valid as an automorphism
@pytest.mark.parametrize("found", [
    [((0, 2, 1, 3), 3)],  # its base point is a point it fixes
    [((0, 2, 1, 3), 1), ((0, 1, 3, 2), 2)],  # base (2, 1): (1 2) moves 2
    [((0, 2, 1, 3), 4)],  # its base point is no vertex
], ids=["fixed", "shallower-moved", "out-of-range"])
def test_wrong_kernel_base_point_exits_1(tmp_path, monkeypatch, capsys, found):
    monkeypatch.setattr(search, "automorphism_generators", lambda masks, known=(): found)
    assert run("zz", "--family", "star:3", "--k", "1", "--out", str(tmp_path)) == 1
    assert (capsys.readouterr().err
            == "error: search kernel returned a generator off its base point\n")
    assert not list(tmp_path.iterdir())


def test_keyboard_interrupt_exits_130(tmp_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(voltage, "conjecture_search", interrupted)
    assert run("conjecture", "1", "--n", "5", "--out", str(tmp_path)) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_group_cap_flag_removed(tmp_path):
    assert run("zz", "--family", "complete:4", "--k", "2", "--group-cap", "5",
               "--out", str(tmp_path)) == 2


def test_usage_error_exit_code():
    assert run("no-such-command") == 2


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("verify-theorem1", "--n", "6", "--out", str(out)) == 0
        assert run("zz", "--family", "complete:4", "--k", "2", "--out", str(out)) == 0
        assert run("build", "--token", "star:4", "--k", "2", "--out", str(out)) == 0
        assert run("conjecture", "1", "--n", "3", "--out", str(out)) == 0
    for name in ("theorem1_n6.json", "zz_complete4_k2.json",
                 "token_star4_k2.json", "token_star4_k2.dot",
                 "conjecture1_n3.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# (argv, exit code); each writes into ./out when it writes anything
REUSED_PARSER_CALLS = [
    (("zz", "--family", "star:6", "--k", "1..5", "--out", "out"), 0),
    (("build", "--token", "complete:4", "--k", "2", "--format", "xml", "--out", "out"), 2),
    (("--help",), 0),
    (("verify-theorem1", "--n", "4..8", "--out", "out"), 0),
    (("conjecture", "2", "--n", "11", "--out", "out"), 0),
    (("zz", "--family", "star:6", "--k", "1..5", "--out", "out"), 0),
]


def _written(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_reused_parser_leaks_no_state(tmp_path, monkeypatch):
    """``main`` builds its parser on the first call and reuses it: a usage
    error, ``--help`` and every command run in one process give the exit
    code, stdout, stderr and files the same call gives in a fresh
    interpreter, and the parser is built once."""
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
    fresh_main = "import sys; from token_covers.cli import main; sys.exit(main(sys.argv[1:]))"
    for i, (argv, code) in enumerate(REUSED_PARSER_CALLS):
        here, fresh = tmp_path / "reused" / str(i), tmp_path / "fresh" / str(i)
        here.mkdir(parents=True)
        fresh.mkdir(parents=True)
        monkeypatch.chdir(here)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            got = main(list(argv))
        ran = subprocess.run([sys.executable, "-c", fresh_main, *argv], cwd=fresh, env=env,
                             capture_output=True, text=True, timeout=120)
        assert got == ran.returncode == code, argv
        assert (out.getvalue(), err.getvalue()) == (ran.stdout, ran.stderr), argv
        assert _written(here) == _written(fresh), argv
    assert built == [1]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("# caps\nmax_vertices=5\n")
    assert run("build", "--token", "complete:6", "--k", "2",
               "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert run("build", "--token", "complete:6", "--k", "2",
               "--config", str(cfg), "--max-vertices", "50",
               "--out", str(tmp_path)) == 0


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("mystery=1\n")
    assert run("build", "--family", "cycle:3", "--config", str(cfg),
               "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("content, argv, message", [
    (b"# caps\nmax_vertices=abc\n", ("zz", "--family", "complete:4", "--k", "2"),
     "{cfg}:2: bad value for max_vertices: 'abc'"),
    (b"budget=" + b"9" * 4400 + b"\n", ("conjecture", "1", "--n", "3"),
     "{cfg}:1: unknown key 'budget'"),
    (b"max_vertices=5\n\xff=1\n", ("zz", "--family", "complete:4", "--k", "2"),
     "{cfg}: not UTF-8 text (byte 15)"),
    (b"max_vertices=" + b"9" * 4400 + b"\n", ("conjecture", "1", "--n", "3"),
     "{cfg}:1: bad value for max_vertices: '" + "9" * 4400 + "'"),
])
def test_bad_config_value_is_named_by_file_and_line(tmp_path, capsys, content, argv, message):
    """A config value ``int`` rejects (one past its digit limit among them)
    and a file that is not UTF-8 are named by the file (and line), not by
    Python's own error text.  A key no command reads, such as ``budget``, is
    named as unknown before its value is read."""
    cfg = tmp_path / "caps.conf"
    cfg.write_bytes(content)
    out = tmp_path / "out"
    assert run(*argv, "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: " + message.format(cfg=cfg) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("cap, content, message", [
    ("0", None, "--max-vertices must be positive"),
    ("-3", None, "--max-vertices must be positive"),
    (None, "# cap\nmax_vertices=0\n", "{cfg}:2: max_vertices must be positive"),
])
def test_non_positive_cap_is_named_by_its_source(tmp_path, capsys, cap, content, message):
    """A cap below 1 is named as the flag, or by the config file and line it
    came from; the run exits 2 and writes nothing."""
    cfg = tmp_path / "caps.conf"
    argv = ["zz", "--family", "complete:4", "--k", "2", "--out", str(tmp_path / "out")]
    if cap is not None:
        argv += ["--max-vertices", cap]
    if content is not None:
        cfg.write_text(content)
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: " + message.format(cfg=cfg) + "\n"
    assert not (tmp_path / "out").exists()


def test_repeated_config_key_names_both_lines(tmp_path, capsys):
    """A key set twice ends the run naming both lines; the later line does
    not silently win (here it would lift the cap 5 to 300)."""
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_vertices=5\n# raised\nmax_vertices=300\n")
    out = tmp_path / "out"
    assert run("build", "--token", "complete:6", "--k", "2",
               "--config", str(cfg), "--out", str(out)) == 2
    assert (capsys.readouterr().err
            == f"error: {cfg}:3: repeated key max_vertices (first at {cfg}:1)\n")
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "no-such.conf"
    assert run("zz", "--family", "complete:5", "--k", "2", "--config", str(missing),
               "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert run("zz", "--family", "complete:5", "--k", "2",
               "--out", str(blocker / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TOKEN_COVER_OUT", str(tmp_path / "envout"))
    assert run("build", "--family", "cycle:3") == 0
    assert (tmp_path / "envout" / "cycle3.json").exists()


def test_out_dir_precedence(tmp_path, monkeypatch):
    """``--out`` beats the config file's ``out_dir``, which beats
    ``$TOKEN_COVER_OUT``."""
    monkeypatch.setenv("TOKEN_COVER_OUT", str(tmp_path / "envout"))
    config = tmp_path / "run.conf"
    config.write_text(f"out_dir = {tmp_path / 'cfgout'}\n")
    assert run("build", "--family", "cycle:3", "--config", str(config)) == 0
    assert (tmp_path / "cfgout" / "cycle3.json").exists()
    assert run("build", "--family", "cycle:4", "--config", str(config),
               "--out", str(tmp_path / "flagout")) == 0
    assert (tmp_path / "flagout" / "cycle4.json").exists()
    assert not (tmp_path / "envout").exists()
    assert not (tmp_path / "cfgout" / "cycle4.json").exists()


# small sizes build, huge ones (up to 10^6) must fail on their caps at once
huge = st.integers(7, 10**6)
sizes = st.one_of(st.integers(-2, 6), huge)
families = st.sampled_from(sorted(FAMILY_BUILDERS)).flatmap(
    lambda name: st.lists(sizes, min_size=len(FAMILY_BUILDERS[name][1]),
                          max_size=len(FAMILY_BUILDERS[name][1]))
    .map(lambda sizes: ":".join([name, *map(str, sizes)])))
numbers = st.integers(-2, 12)
# a huge end must cost nothing: its range's values can never all be listed
ends = st.one_of(numbers, st.just(10**16))
values = st.one_of(numbers.map(str),
                   st.tuples(ends, ends).map(lambda r: f"{r[0]}..{r[1]}"))


@st.composite
def family_and_k(draw, ks):
    """A family and a k, drawn from ``ks`` or near |V|/2, where C(|V|, k)
    is largest (read off the family's size rule, as ``family_size``
    rejects the sizes its builder rejects)."""
    family = draw(families)
    name, *params = family.split(":")
    half = FAMILY_BUILDERS[name][-1](*map(int, params))[0] // 2
    return family, draw(st.one_of(ks, st.integers(half - 2, half + 2).map(str)))


@st.composite
def cli_argv(draw):
    """argv for ``zz``, ``verify-theorem1``, ``build`` or ``conjecture``:
    families of size -2..10^6 with k near |V|/2 among the draws, values and
    ranges (reversed ones and huge ends among them), and caps in -1..30, so
    that every graph built stays small."""
    command = draw(st.sampled_from(["zz", "verify-theorem1", "build", "conjecture"]))
    caps = st.integers(-1, 30).map(str)
    if command == "zz":
        family, k = draw(family_and_k(values))
        argv = ["zz", "--family", family, "--k", k]
    elif command == "verify-theorem1":
        argv = ["verify-theorem1", "--n", draw(values)]
    elif command == "conjecture":
        n = draw(st.one_of(numbers, huge))
        argv = ["conjecture", draw(st.sampled_from("12")), "--n", str(n)]
    else:
        argv = ["build"]
        if draw(st.booleans()):
            family, k = draw(family_and_k(numbers.map(str)))
            argv += ["--token", family, "--k", k]
        if draw(st.booleans()):
            argv += ["--family", draw(families)]
        for flag in ("--theorem1-base", "--theorem1-cover"):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.one_of(numbers, huge)))]
    return [*argv, "--max-vertices", draw(caps)]


# config values: small caps (those <= 0 among them), empty values and text
# int() rejects; lines: every key, an unknown one, comments and no "="
config_values = st.one_of(st.integers(-2, 30).map(str),
                          st.sampled_from(["", " ", "x", "1.5", "0x10", "1e3"]))
config_lines = st.one_of(
    st.tuples(st.sampled_from([*cli.CONFIG_KEYS, "mystery"]), config_values).map("=".join),
    st.sampled_from(["# comment", "", "no equals sign", "=5"]))


@st.composite
def config_files(draw):
    """A ``--config`` argument: the bytes of a file, or ``"dir"`` for a
    directory.  A file ends with a ``max_vertices`` line, so that with no
    ``--max-vertices`` flag its value is the cap and every graph built stays
    small; non-UTF-8 bytes may follow."""
    if draw(st.booleans()):
        return "dir"
    lines = [*draw(st.lists(config_lines, max_size=3)), f"max_vertices={draw(config_values)}"]
    return "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n\xff\xfe=1\n"]))


@settings(max_examples=200, deadline=None)
@given(cli_argv(), st.one_of(st.none(), config_files()), st.booleans())
def test_fuzzed_arguments_keep_the_exit_code_contract(argv, config, cap_flag):
    """Every run ends with a documented exit code and no traceback, and a
    run that exits 2 has written nothing.  With a config file the
    ``--max-vertices`` flag may be left out, so the file's cap is read."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if config is not None:
            path = Path(tmp) / "caps.conf"
            if config == "dir":
                path.mkdir()
            else:
                path.write_bytes(config)
            argv = [*(argv if cap_flag else argv[:-2]), "--config", str(path)]
        printed = io.StringIO()
        with redirect_stdout(printed), redirect_stderr(printed):
            code = main([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in printed.getvalue()
        if code == 2:
            assert not out.exists() or not any(out.iterdir())
