"""strongstable benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload solve --seed 3 --seconds 10 --trace 0

Workloads (see README.md): ``solve`` (``solve(g)`` on claw-free innocent
graphs), ``prescribed`` (``solve(g, z)`` with a validated prescribed set)
and ``certify`` (``strongstable check --json`` through ``cli.main``).

A run materialises the seed's corpus under ``perfbench/out/``, times the
set-up of several fresh worker processes, then lets one worker time whole
passes over the corpus for ``--seconds``. Every output is checked here,
apart from the program, and the checker must reject forged answers. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. A file of
results per workload is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from worker import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run ends within this, workers killed if need be


def worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; return its set-up time (start to ready) and its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - t0, result


def materialise(workload: str, seed: int, where: Path) -> list[list[str]]:
    from corpus import corpus_lines, write

    lines = corpus_lines(seed, workload)
    where.mkdir(parents=True)
    write(where, seed, workload, lines)
    if workload == "certify":
        (where / "certify").mkdir()
        for i, line in enumerate(lines):
            (where / "certify" / f"{i:04d}.g6").write_text(line.split()[0] + "\n")
    return [line.split() for line in lines]


def check_outputs(workload: str, inputs, passes):
    """Check every output of every pass.

    Returns the failures per pass, the reasons, and the checker with one
    verified answer to forge from.
    """
    from check import Checker

    checker = Checker()
    verdicts: dict[tuple[int, str], str | None] = {}
    failed, reasons, sample = [], [], None
    for outputs in passes:
        failed.append(0)
        for i, (parts, out) in enumerate(zip(inputs, outputs)):
            key = (i, json.dumps(out))
            if key not in verdicts:
                if workload == "certify":
                    verdicts[key] = checker.certificate(parts[0], parts[1], out[0], out[1])
                    if verdicts[key] is None and sample is None and parts[1] != "innocent":
                        sample = ("certify", (parts[0], json.loads(out[1])["witness"]))
                else:
                    z = [int(v) for v in parts[1].split(",")] if len(parts) > 1 else []
                    verdicts[key] = checker.strong_stable_set(parts[0], z, out[0], out[1])
                    if verdicts[key] is None and sample is None:
                        sample = ("solve", (parts[0], z, frozenset(out[1])))
                if verdicts[key] is not None:
                    reasons.append({"input": i, "graph6": parts[0], "why": verdicts[key]})
            if verdicts[key] is not None:
                failed[-1] += 1
    return failed, reasons, checker, sample


def quantile(values, q: int) -> float:
    """The q-th decile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(result: dict, setups: list[float]) -> dict:
    passes = result["latency_ns"]
    per_input = [statistics.median(ts) / 1e6 for ts in zip(*passes)]
    total_s = sum(map(sum, passes)) / 1e9
    attempted = sum(map(len, passes))
    return {
        "graphs_per_s": {"value": attempted / total_s, "unit": "1/s"},
        "p50_ms": {"value": quantile(per_input, 5), "unit": "ms"},
        "p90_ms": {"value": quantile(per_input, 9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(result: dict) -> tuple[dict, dict]:
    from layers import BRANCHES, span_names

    traced = len(result["latency_ns"])
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = {
            "value": result["calls"].get(name, 0) / traced, "unit": "count"}
        metrics[f"{name}.self_ms"] = {
            "value": result["self_ns"].get(name, 0) / traced / 1e6, "unit": "ms"}
    branches = result["branches"]
    for b in BRANCHES:
        metrics[f"solver.branch.{b}.applied"] = {
            "value": branches.get(b, 0) / traced, "unit": "count"}
    metrics["solver.verify_failed"] = {
        "value": branches.get("verify-failed", 0) / traced, "unit": "count"}
    solves = result["calls"].get("solver.solve", 0)
    verifies = result["calls"].get("core.is_strong_stable_set", 0)
    metrics["solver.verify_per_solve"] = {
        "value": verifies / solves if solves else 0.0, "unit": "calls/solve"}
    traced_pass = statistics.median(map(sum, result["latency_ns"]))
    untraced_pass = statistics.median(result["untraced_pass_ns"])
    overhead = {
        "untraced_pass_s": untraced_pass / 1e9,
        "traced_pass_s": traced_pass / 1e9,
        "overhead": traced_pass / untraced_pass - 1,
        "unknown_branches": sorted(set(branches) - set(BRANCHES) - {"verify-failed"}),
    }
    return metrics, overhead


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="strongstable benchmark")
    p.add_argument("--workload", choices=("solve", "prescribed", "certify"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "strongstable" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'strongstable'} is missing",
              file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_LIMIT_S
    where = OUT / f"run-{os.getpid()}"
    try:
        inputs = materialise(args.workload, args.seed, where)
        common = ["--workload", args.workload, "--corpus", str(where)]
        setups = [worker(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        setup, result = worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(setup)
    finally:
        shutil.rmtree(where, ignore_errors=True)

    failed, reasons, checker, sample = check_outputs(
        args.workload, inputs, result["outputs"])
    # a traced run alternates untraced and traced passes: all checked, the
    # traced ones counted
    counted = failed[1::2] if args.trace else failed
    forged = checker.forgeries_accepted(sample)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": len(inputs),
              "pass_s": [sum(lat) / 1e9 for lat in result["latency_ns"]],
              "failures": reasons[:20], "forgeries_accepted": forged,
              "setup_s": setups}
    if args.trace:
        metrics, report["tracing"] = per_layer(result)
    else:
        metrics = end_to_end(result, setups)
    report["metrics"] = metrics
    name = f"trace-{args.workload}.json" if args.trace else f"{args.workload}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": not forged, "attempted": len(counted) * len(inputs),
                      "failed": sum(counted), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
