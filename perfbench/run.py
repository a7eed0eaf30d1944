#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the token-covers CLI and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload theorem1|symmetry|conjecture \\
        --seed N --seconds S --trace 0|1

Each repetition of the workload runs in a fresh interpreter (``worker.py``),
as a user pays for one CLI process per run, so no in-memory cache carries
over between repetitions.  Repetitions run one at a time, and a new one
starts while less than ``--seconds`` have passed, so every run attempts
whole repetitions; each is checked by ``checks.py`` before the next
starts.  Set-up is also sampled by a few probe processes that stop when
set-up ends.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and ``metrics``, the medians over
the run of the end-to-end metrics (``--trace 0``) or of the per-layer
metrics (``--trace 1``).  The line before it records the context: kernel
backend, Python version, core count, commit, source digest, seed and
sample counts.  Results and, for traced runs, the spans of the last
repetition are written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, a worker crash)."""


def spawn(argv):
    """Run one worker; returns (spawn time on the monotonic clock, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def context(args, gate):
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": gate["backend"],
        "kernel_gate": gate["kernel_gate"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(args):
    if not (ROOT / "src" / "token_covers" / "__init__.py").is_file():
        raise BenchmarkError(f"no token_covers sources under {ROOT / 'src'}")
    ops = workloads.operations(args.workload, args.seed)
    work = STATE / f"work-{os.getpid()}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        base.append("--trace")
    STATE.mkdir(exist_ok=True)
    start = time.monotonic()
    try:
        return sample(args, ops, base, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def sample(args, ops, base, work, start):
    """Gate, set-up probes and repetitions until ``args.seconds`` pass."""
    _, gate = spawn(["--kernel-gate"])
    info = context(args, gate)
    correct = not gate["kernel_gate"].startswith("failed")

    setup, run_s, rss, layers = [], [], [], []
    for _ in range(SETUP_PROBES):
        spawned, probe = spawn([*base, "--probe"])
        setup.append(probe["ready"] - spawned)

    attempted = failed = 0
    last_spans = None
    while time.monotonic() - start < args.seconds or not run_s:
        out_dir = work / f"round-{len(run_s)}"
        out_dir.mkdir(parents=True)
        spawned, rep = spawn([*base, "--out", str(out_dir)])
        setup.append(rep["ready"] - spawned)
        run_s.append(rep["run_s"])
        rss.append(rep["peak_rss_kb"] / 1024)
        if "layers" in rep:
            layers.append(rep["layers"])
            last_spans = (out_dir / "spans.json").read_text()
        for op, output in zip(ops, rep["outputs"], strict=True):
            attempted += 1
            if output["exit"] != 0:
                failed += 1
                print(f"failed: {op.label}: {output.get('error') or output.get('stderr')}",
                      file=sys.stderr)
                continue
            try:
                checks.check_operation(op, output, out_dir)
            except (checks.CheckError, LookupError, TypeError, ValueError) as exc:
                # a malformed output (a missing evidence label, a wrong
                # type) is as incorrect as a wrong value
                correct = False
                print(f"check failed: {op.label}: {exc}", file=sys.stderr)
        shutil.rmtree(out_dir)

    if args.trace:
        metrics = {}
        for name, (unit, _how, _names) in spans.METRICS.items():
            values = [layer[name] for layer in layers]
            if unit == "s":
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            else:
                metrics[name] = {"value": values[0], "unit": unit}
                if len(set(values)) != 1:
                    print(f"warning: count {name} varies between repetitions: {values}",
                          file=sys.stderr)
    else:
        medians = {"setup_s": statistics.median(setup),
                   "run_s": statistics.median(run_s),
                   "peak_rss_mb": statistics.median(rss)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in medians.items()}
    info["samples"] = {"setup_s": len(setup), "run_s": len(run_s), "peak_rss_mb": len(rss)}
    info["run_s"] = statistics.median(run_s)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"context": info, "result": result,
              "samples": {"setup_s": setup, "run_s": run_s, "peak_rss_mb": rss}}
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (STATE / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if last_spans is not None:
        (STATE / f"{stem}.spans.json").write_text(last_spans)
    return info, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        info, result = measure(args)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("context " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
