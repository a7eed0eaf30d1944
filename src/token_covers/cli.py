"""Command-line front end for reproducible verification runs.

Exit codes: 0 success/completed, 1 verification failure, 2 usage or
precondition error, 130 interrupted (Ctrl-C; the interrupted command
writes no further report).  Identical invocations write byte-identical
files (reports carry no timestamps and all orderings are canonical).  A
command that exits 2 writes nothing: every value's cap and range is
checked before anything is built, and a range (or a ``build``) builds
every report (or graph) before it writes the first.  ``--max-vertices``
is the one vertex cap and the one bound on a run's size, checked by
``tokens.check_vertex_cap``: ``<name>: <count> vertices exceed the cap <cap>``.
The argument parser is built once per process, on the first ``main`` call,
and each later call parses with it again: parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import voltage
from .graphs import family_size, make_family, to_dot, to_json
from .symmetry import DEFAULT_VERTEX_CAP, KernelResultError, zz_checks
from .tokens import (binomial, check_vertex_cap, inclusion_bigraph, johnson, line_graph,
                     subdivision, token_graph)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

CONFIG_KEYS = ("out_dir", "max_vertices")


def parse_family(text: str):
    """'complete:6' -> ('complete', (6,)); bipartite takes two sizes."""
    parts = text.split(":")
    name = parts[0]
    try:
        params = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"bad family parameters in {text!r}") from None
    if not params:
        raise ValueError(f"family {text!r} is missing its size, e.g. 'complete:6'")
    return name, params


def parse_range(text: str) -> range:
    """'4' -> range(4, 5); '4..10' -> range(4, 11), 4..10 inclusive.  A
    ``range``, not a list, so a huge end costs nothing until its values
    are checked.  Text ``int`` rejects (a bound past its digit limit among
    it) is named in the error, as in ``parse_family``."""
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected N or A..B") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def read_config(path):
    """key -> (value text, ``<path>:<line>``, which names it in an error);
    a key may appear once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: repeated key {key} "
                             f"(first at {values[key][1]})")
        values[key] = (val.strip(), f"{path}:{lineno}")
    return values


def _pick(flag_value, cfg, key, default):
    """The flag's value, else the config file's ``key`` as an int, else
    ``default``; with the name an error about the value gives it: the
    flag, or ``<path>:<line>: <key>``."""
    if flag_value is not None:
        return flag_value, "--" + key.replace("_", "-")
    if key not in cfg:
        return default, key
    text, where = cfg[key]
    try:
        return int(text), f"{where}: {key}"
    except ValueError:
        raise ValueError(f"{where}: bad value for {key}: {text!r}") from None


def resolve_settings(args):
    """Flags win over config file values, which win over defaults."""
    cfg = read_config(args.config) if args.config else {}
    out_dir = (args.out
               or cfg.get("out_dir", ("",))[0]
               or os.environ.get("TOKEN_COVER_OUT")
               or "out")
    max_vertices, source = _pick(args.max_vertices, cfg, "max_vertices", DEFAULT_VERTEX_CAP)
    if max_vertices < 1:
        raise ValueError(f"{source} must be positive")
    return Path(out_dir), max_vertices


def write_file(directory: Path, name: str, content: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    target.write_text(content)
    return target


def cmd_build(args) -> int:
    out_dir, max_vertices = resolve_settings(args)
    jobs = []

    def add(stem, vertices, build):
        """Queue a graph of ``vertices`` vertices once its count is within
        the cap; nothing is built until every job's cap holds, so an
        oversized graph (or its base family graph) is never built, nor
        anything before it.  A builder still rejects parameters a count
        cannot, such as an odd Theorem 1 n, with its own error.  ``build``
        binds its arguments as defaults, as later flags rebind the names."""
        check_vertex_cap(stem, vertices, max_vertices)
        jobs.append((stem, build))

    if args.theorem1_base is not None:
        # queued first, so it is printed first
        n = args.theorem1_base
        add(f"theorem1_base_{n}", n // 2, lambda n=n: voltage.theorem1_base(n))
    if args.token:
        name, params = parse_family(args.token)
        if args.k is None:
            raise ValueError("--token requires --k")
        vertices, _ = family_size(name, *params)
        add(f"token_{name}{'_'.join(map(str, params))}_k{args.k}",
            binomial(vertices, args.k, max_vertices),
            lambda name=name, params=params: token_graph(make_family(name, *params), args.k))
    if args.johnson:
        n, k = args.johnson
        add(f"johnson_{n}_{k}", binomial(n, k, max_vertices), lambda n=n, k=k: johnson(n, k))
    if args.line:
        name, params = parse_family(args.line)
        _, edges = family_size(name, *params)
        add(f"line_{name}{'_'.join(map(str, params))}", edges,
            lambda name=name, params=params: line_graph(make_family(name, *params)))
    if args.subdivision:
        name, params = parse_family(args.subdivision)
        add(f"subdivision_{name}{'_'.join(map(str, params))}", sum(family_size(name, *params)),
            lambda name=name, params=params: subdivision(make_family(name, *params)))
    if args.inclusion:
        n, a, b = args.inclusion
        vertices = (binomial(n, a, max_vertices) + binomial(n, b, max_vertices)
                    if 0 <= a < b <= n else 0)
        add(f"inclusion_{n}_{a}_{b}", vertices, lambda n=n, a=a, b=b: inclusion_bigraph(n, a, b))
    if args.family:
        name, params = parse_family(args.family)
        vertices, _ = family_size(name, *params)
        add(f"{name}{'_'.join(map(str, params))}", vertices,
            lambda name=name, params=params: make_family(name, *params))
    if args.theorem1_cover is not None:
        # the cover of theorem1_base(n) is F_2(K_n), with C(n, 2) vertices
        n = args.theorem1_cover
        add(f"theorem1_cover_{n}", binomial(n, 2, max_vertices),
            lambda n=n: voltage.lift(voltage.theorem1_base(n)).graph)
    # checked after the jobs, so a family's own size error is named first
    if args.k is not None and not args.token:
        raise ValueError("--k requires --token")
    if not jobs:
        raise ValueError("nothing to build; pass --token/--johnson/--line/"
                         "--subdivision/--inclusion/--family/--theorem1-base/--theorem1-cover")
    # a builder may still reject its parameters: build every job before writing
    built = [(stem, build()) for stem, build in jobs]
    for stem, graph in built:
        voltages = isinstance(graph, voltage.CombinedVoltageGraph)  # the Theorem 1 base
        if args.format in ("dot", "both"):
            write_file(out_dir, f"{stem}.dot", graph.to_dot() if voltages else to_dot(graph))
        if args.format in ("json", "both"):
            write_file(out_dir, f"{stem}.json", graph.to_json() if voltages else to_json(graph))
        shape = graph.base if voltages else graph
        print(f"{stem}: {shape.vertex_count} vertices, {shape.edge_count} edges")
    return EXIT_OK


def cmd_verify_theorem1(args) -> int:
    out_dir, max_vertices = resolve_settings(args)
    values = parse_range(args.n)
    # a single value, tested without len(), which a range past sys.maxsize lacks
    if values[0] == values[-1] and values[0] % 2 != 0:
        raise ValueError(f"n must be even, got {values[0]}")
    low = max(values[0], 4)
    evens = range(low + low % 2, values[-1] + 1, 2)
    if not evens:
        raise ValueError(f"no even n >= 4 in {args.n!r}")
    # every cap is checked before the first build (C(n, 2) grows with n, so
    # the largest n's cap is every n's), and every report built before the
    # first is written: a failing range exits with nothing written
    check_vertex_cap(f"theorem1-n{evens[-1]}", binomial(evens[-1], 2, max_vertices),
                     max_vertices)
    reports = [voltage.verify_theorem1(n, max_vertices=max_vertices) for n in evens]
    for n, report in zip(evens, reports):
        write_file(out_dir, f"theorem1_n{n}.json", report.to_json())
        print(f"n={n}: {report.status.upper()} "
              f"({report.find('cover_vertices')} vertices, "
              f"{report.find('cover_simple_edges')} simple edges)")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION_FAILED


def cmd_zz(args) -> int:
    out_dir, max_vertices = resolve_settings(args)
    name, params = parse_family(args.family)
    stem_family = f"{name}{'_'.join(map(str, params))}"
    ks = parse_range(args.k)
    # zz_checks checks the whole range before it builds any of it
    reports = zz_checks(name, params, ks, max_vertices=max_vertices)
    for k, report in zip(ks, reports):
        write_file(out_dir, f"zz_{stem_family}_k{k}.json", report.to_json())
        print(f"{stem_family} k={k}: {report.status.upper()} "
              f"(predicted={report.find('predicted_edge_transitive')}, "
              f"computed={report.find('computed_edge_transitive')})")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION_FAILED


def cmd_conjecture(args) -> int:
    out_dir, max_vertices = resolve_settings(args)
    family = {1: "star_half", 2: "star_two"}[args.which]
    report = voltage.conjecture_search(family, args.n, max_vertices=max_vertices)
    write_file(out_dir, f"conjecture{args.which}_n{args.n}.json", report.to_json())
    found = report.find("verified_candidates")
    print(f"conjecture {args.which} n={args.n}: {report.status.upper()}, "
          f"{len(found)} of {report.find('order_m_classes')} class(es) verified")
    for cand in found:
        print(f"  class of {cand['class_elements']}: base {cand['base_vertices']} vertices "
              f"(free={cand['free']}, stabilizers={cand['stabilizer_sizes']})")
    return EXIT_OK


def add_common(parser):
    parser.add_argument("--out", help="output directory (default: the config file's "
                                      "out_dir, else $TOKEN_COVER_OUT, else ./out)")
    parser.add_argument("--config", help="key=value config file; flags win")
    parser.add_argument("--max-vertices", type=int, dest="max_vertices")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="token-covers",
        description="Token graphs, covering lifts, and verification runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write graphs as DOT/JSON files")
    p.add_argument("--token", metavar="FAMILY", help="token graph of a family, e.g. star:5")
    p.add_argument("--k", type=int, help="token count for --token")
    p.add_argument("--johnson", nargs=2, type=int, metavar=("N", "K"))
    p.add_argument("--line", metavar="FAMILY")
    p.add_argument("--subdivision", metavar="FAMILY")
    p.add_argument("--inclusion", nargs=3, type=int, metavar=("N", "A", "B"))
    p.add_argument("--family", metavar="FAMILY", help="the family graph itself")
    p.add_argument("--theorem1-base", type=int, metavar="N", dest="theorem1_base")
    p.add_argument("--theorem1-cover", type=int, metavar="N", dest="theorem1_cover")
    p.add_argument("--format", choices=("dot", "json", "both"), default="both")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify-theorem1", help="verify the even-n cover construction")
    p.add_argument("--n", required=True, help="even n or range a..b (odd values in a range are skipped)")
    add_common(p)
    p.set_defaults(func=cmd_verify_theorem1)

    p = sub.add_parser("zz", help="edge-transitivity classification instances")
    p.add_argument("--family", required=True, help="e.g. complete:5, star:4, path:4")
    p.add_argument("--k", required=True, help="k or range a..b")
    add_common(p)
    p.set_defaults(func=cmd_zz)

    p = sub.add_parser("conjecture", help="search for cyclic quotient bases")
    p.add_argument("which", type=int, choices=(1, 2))
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_conjecture)

    return parser


# built by the first ``main`` call, not at import, and reused by later calls
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # OSError: an unreadable --config or an unwritable output directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KernelResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
