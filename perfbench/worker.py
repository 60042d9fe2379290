"""The measured process: set up one workload, time whole passes over it.

Started by ``run.py``; not meant to be run by hand. It imports only the
standard library and the package from ``src/`` of the same checkout, so its
set-up time and peak memory are the program's. It prints one JSON object:
the monotonic time at which set-up ended, per-input latencies of every
pass, every output (for ``run.py`` to check) and, when traced, the
per-layer counts and self times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def monotonic() -> float:
    # CLOCK_MONOTONIC is one clock for every process, so run.py can
    # subtract its own start time from this process's end of set-up.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load(workload: str, corpus: Path):
    """Import the package and read the corpus: the set-up users pay for."""
    sys.path.insert(0, str(SRC))
    import strongstable

    if Path(strongstable.__file__).resolve().parent != SRC / "strongstable":
        raise SystemExit(f"strongstable was imported from {strongstable.__file__}")
    lines = [
        line.split()
        for line in (corpus / f"{workload}.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if workload == "certify":
        from strongstable import cli

        argv = ["check", "--json", "--budget-vertices", "64", "--budget-enum", "5000000"]
        files = sorted((corpus / "certify").iterdir())
        if len(files) != len(lines):
            raise SystemExit("certify corpus and its graph6 files disagree")
        return [argv + [str(f)] for f in files], cli
    from strongstable.graphio import decode_graph6

    budget = strongstable.Budget(64, 5_000_000)
    items = []
    for parts in lines:
        z = frozenset(int(v) for v in parts[1].split(",")) if len(parts) > 1 else frozenset()
        items.append((decode_graph6(parts[0]), z, budget))
    return items, strongstable


def operation(workload: str, module):
    if workload == "certify":

        def check(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = module.main(argv)
            return [rc, out.getvalue()], None

        return check

    def solve(item):
        g, z, budget = item
        res = module.solve(g, z, budget=budget)
        out = [res.status.value, None if res.s is None else sorted(res.s)]
        return out, res.trace

    return solve


def run_pass(op, items, branches):
    latencies, outputs = [], []
    for item in items:
        t0 = time.perf_counter_ns()
        try:
            out, trace = op(item)
        except Exception as exc:  # a crash is a failed input, not a failed run
            out, trace = ["error", repr(exc)], None
        latencies.append(time.perf_counter_ns() - t0)
        outputs.append(out)
        if branches is not None and trace is not None:
            for record in trace:
                branches[record.branch] = branches.get(record.branch, 0) + 1
    return latencies, outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    items, module = load(args.workload, args.corpus)
    op = operation(args.workload, module)
    ready = monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "latency_ns": [], "outputs": []}
    deadline = time.perf_counter() + args.seconds
    tracer = branches = None
    if args.trace:
        from layers import Tracer

        tracer, branches = Tracer(), {}
        result["untraced_pass_ns"] = []
    while True:
        if tracer is not None:
            # an untraced pass before each traced one: the tracing overhead's base
            tracer.uninstall()
            lat, outs = run_pass(op, items, None)
            result["untraced_pass_ns"].append(sum(lat))
            result["outputs"].append(outs)
            tracer.install()  # op looks its function up on the module: traced too
        lat, outs = run_pass(op, items, branches)
        result["latency_ns"].append(lat)
        result["outputs"].append(outs)
        if time.perf_counter() >= deadline:
            break
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["calls"] = dict(tracer.calls)
        result["self_ns"] = dict(tracer.self_ns)
        result["branches"] = branches
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
