"""One repetition of a workload in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``token_covers``, builds the inputs, stamps the moment it is ready (the end
of set-up, on the system-wide monotonic clock the parent also reads), runs
the operation list once, and prints one JSON line: the ready stamp, the
wall time of the operation list, peak RSS, each operation's output and,
when traced, the per-layer values.  Correctness checks run in the parent,
so they neither take time nor memory here.

``--probe`` stops right after set-up; ``--kernel-gate`` instead runs the
backend-disagreement check of ``benchmarks/bench_kernels.py`` when a
compiled kernel is importable.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def kernel_gate():
    """Compare the compiled and pure kernels on bench_kernels' corpus."""
    import token_covers

    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    result = {"backend": token_covers.SEARCH_BACKEND}
    if bench_kernels.compiled is None:
        result["kernel_gate"] = "skipped: no compiled kernel importable"
        return result
    sys.argv = ["bench_kernels.py", "--repeat", "1"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            bench_kernels.main()
    except SystemExit as exc:
        if exc.code not in (None, 0):
            result["kernel_gate"] = f"failed: {exc.code}"
            return result
    result["kernel_gate"] = "passed"
    return result


def peak_rss_kb():
    """Peak resident set of this process image.  ``ru_maxrss`` would also
    count the parent's pages copied at fork, so VmHWM is read first."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_operation(op, graph, out_dir, cli, automorphisms):
    if op.argv:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*op.argv, "--out", str(out_dir)])
        return {"exit": code, "stderr": err.getvalue()[-500:]}
    aut = automorphisms(graph)
    order = aut.order()
    return {"exit": 0, "order": list(order), "generators": [list(g.images) for g in aut.generators]}


def repetition(args):
    import workloads
    from token_covers import cli
    from token_covers.graphs import SimpleGraph
    from token_covers.symmetry import automorphisms

    ops = workloads.operations(args.workload, args.seed)
    graphs = [SimpleGraph(*op.graph) if op.graph else None for op in ops]
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    ready = time.monotonic()
    if args.probe:
        return {"ready": ready}

    outputs = []
    start = time.perf_counter()
    for i, (op, graph) in enumerate(zip(ops, graphs)):
        if recorder is not None:
            recorder.operation = i
        try:
            outputs.append(run_operation(op, graph, args.out, cli, automorphisms))
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append({"exit": None, "error": f"{type(exc).__name__}: {exc}"})
    run_s = time.perf_counter() - start
    result = {
        "ready": ready,
        "run_s": run_s,
        "peak_rss_kb": peak_rss_kb(),
        "outputs": outputs,
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans, recorder.counts)
        (Path(args.out) / "spans.json").write_text(json.dumps(recorder.spans))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--kernel-gate", action="store_true", dest="kernel_gate")
    args = parser.parse_args()
    result = kernel_gate() if args.kernel_gate else repetition(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
