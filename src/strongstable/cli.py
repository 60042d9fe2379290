"""Command-line interface.

Subcommands: ``check`` (claw-freeness + innocence certificates), ``solve``
(strong stable set, optionally through prescribed vertices), ``generate``
(family generators), ``decompose`` (report found decompositions), and
``roundtrip`` (line-graph root recovery).

Exit codes: 0 for a definitive answer, 1 for usage or input errors, 2 when a
budget was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

# only what argument parsing and ``check`` need; every other command imports
# its modules when it runs, so ``check`` never loads the solver
from . import __version__
from .core import (
    Budget,
    BudgetExceededError,
    DEFAULT_BUDGET,
    Graph,
    GraphError,
    Multigraph,
    _meter,
    line_graph,
)
from .forbidden import Innocent, innocence_certificate
from .graphio import (
    FormatError,
    certificate_json,
    encode_graph6,
    format_edgelist,
    parse_graph,
)
from .recognizers import find_claw


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise CliUsageError(message)


@functools.cache  # parse_args keeps no state, so one parser serves every call
def _build_parser() -> _Parser:
    p = _Parser(prog="strongstable", description=__doc__)
    p.add_argument("--version", action="version", version=f"strongstable {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, searches=True):
        if searches:  # every command but generate reads a graph and searches it
            sp.add_argument("input", nargs="?", default="-", help="path or - for stdin")
            sp.add_argument(
                "--format", choices=("auto", "graph6", "edgelist"), default="auto"
            )
            sp.add_argument("--budget-enum", type=int, default=DEFAULT_BUDGET.max_enumerations,
                            help="enumeration cap of the whole command (default %(default)s)")
            sp.add_argument("--json", action="store_true", help="emit a JSON certificate")
        sp.add_argument("--output", default="-", help="output path (default stdout)")

    sp = sub.add_parser("check", help="claw-freeness and innocence certificates")
    common(sp)
    # check reads no vertex cap; the flag stays because perfbench/worker.py passes it
    sp.add_argument("--budget-vertices", type=int, help=argparse.SUPPRESS)

    sp = sub.add_parser("solve", help="strong stable set computation")
    common(sp)
    sp.add_argument("--budget-vertices", type=int, default=DEFAULT_BUDGET.max_vertices,
                    help="vertex cap of the brute-force fallback (default %(default)s)")
    sp.add_argument("--require", default="", help="comma-separated prescribed vertices")
    sp.add_argument(
        "--trusted", action="store_true", help="skip validating the prescribed set"
    )

    sp = sub.add_parser("generate", help="family generators")
    common(sp, searches=False)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--c1", type=int)
    sp.add_argument("--c2", type=int)
    sp.add_argument("--path", type=int)
    sp.add_argument("--paths", help="comma-separated path lengths")
    sp.add_argument("--variant", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--base-size", type=int)
    sp.add_argument("--size", type=int)
    sp.add_argument("--rate", type=float)
    sp.add_argument("--sizes", help="comma-separated peculiar part sizes")
    sp.add_argument("--seed", type=int)
    sp.add_argument(
        "--out-format", choices=("edgelist", "graph6"), default="edgelist"
    )

    sp = sub.add_parser("decompose", help="report found decompositions")
    common(sp)

    sp = sub.add_parser("roundtrip", help="line-graph root recovery report")
    common(sp)
    return p


def _read_input(args) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
        return parse_graph(text, args.format)
    return parse_graph(Path(args.input).read_text(), args.format, name=args.input)


def _budget(args) -> Budget:
    # only solve reaches brute force, the one search that reads the vertex cap
    vcap = args.budget_vertices if args.command == "solve" else DEFAULT_BUDGET.max_vertices
    return Budget(vcap, args.budget_enum)


def _emit(args, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)


def _tool_block(args, budget: Budget) -> dict:
    caps = {"max_enumerations": budget.max_enumerations}
    if args.command == "solve":
        caps["max_vertices"] = budget.max_vertices
    return {"tool": {"name": "strongstable", "version": __version__}, "budget": caps}


def _witness_block(w) -> dict:
    return {
        "kind": w.kind.value,
        "vertices": sorted(w.vertices),
        "anatomy": {key: value for key, value in w.anatomy.items()},
    }


def _cmd_check(args) -> int:
    g = _read_input(args)
    budget = _budget(args)
    claw = find_claw(g)
    cert = innocence_certificate(g, budget)
    innocent = isinstance(cert, Innocent)
    payload = {
        "command": "check",
        "n": g.n,
        "claw_free": claw is None,
        "status": "innocent" if innocent else "not-innocent",
        **_tool_block(args, budget),
    }
    if claw is not None:
        payload["claw"] = {"center": claw.center, "leaves": list(claw.leaves)}
    if not innocent:
        payload["witness"] = _witness_block(cert)
    if args.json:
        _emit(args, certificate_json(payload))
    else:
        lines = [
            f"vertices: {g.n}",
            f"claw-free: {'yes' if claw is None else f'no (center {claw.center}, leaves {claw.leaves})'}",
            f"innocent: {'yes' if innocent else f'no ({cert.kind.value} on {sorted(cert.vertices)})'}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_solve(args) -> int:
    from .solver import SolveStatus, solve

    g = _read_input(args)
    budget = _budget(args)
    z = frozenset(int(t) for t in args.require.split(",") if t.strip() != "")
    res = solve(g, z, budget, trusted=args.trusted)
    payload = {
        "command": "solve",
        "n": g.n,
        "status": res.status.value,
        "strong_stable_set": sorted(res.s) if res.s is not None else None,
        "require": sorted(z),
        "trace": [
            {"branch": rec.branch, "detail": rec.detail} for rec in res.trace
        ],
        **_tool_block(args, budget),
    }
    if args.json:
        _emit(args, certificate_json(payload))
    else:
        body = f"status: {res.status.value}\n"
        if res.s is not None:
            body += f"strong stable set: {sorted(res.s)}\n"
        body += "trace: " + " -> ".join(rec.branch for rec in res.trace) + "\n"
        _emit(args, body)
    return 2 if res.status == SolveStatus.BUDGET else 0


def _gen_params(args) -> dict:
    params: dict = {}
    if args.n is not None:
        params["n"] = args.n
    if args.k is not None:
        params["k"] = args.k
    if args.c1 is not None:
        params["c1"] = args.c1
    if args.c2 is not None:
        params["c2"] = args.c2
    if args.path is not None:
        params["path"] = args.path
    if args.paths:
        params["paths"] = tuple(int(t) for t in args.paths.split(","))
    if args.variant is not None:
        params["variant"] = args.variant
    if args.m is not None:
        params["m"] = args.m
    if args.base_size is not None:
        params["base_size"] = args.base_size
    if args.size is not None:
        params["size"] = args.size
    if args.rate is not None:
        params["rate"] = args.rate
    if args.sizes:
        params["sizes"] = tuple(int(t) for t in args.sizes.split(","))
    return params


def _cmd_generate(args) -> int:
    from .generators import GenSpec, GenerationError, generate

    spec = GenSpec(args.kind, _gen_params(args), args.seed)
    try:
        g = generate(spec)
    except (KeyError, TypeError) as exc:
        raise CliUsageError(f"missing or bad parameters for kind {spec.kind!r}: {exc}")
    except GenerationError as exc:  # main does not import generators to catch it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out_format == "graph6":
        if isinstance(g, Multigraph):
            raise CliUsageError("graph6 cannot encode multigraphs; use edgelist")
        _emit(args, encode_graph6(g) + "\n")
    else:
        _emit(args, format_edgelist(g))
    return 0


def _cmd_decompose(args) -> int:
    from . import decompose
    from .recognizers import find_twins, simplicial_vertices

    g = _read_input(args)
    budget = _budget(args)
    meter = _meter(budget)  # one cap for the three searches below
    report: dict = {"command": "decompose", "n": g.n, **_tool_block(args, budget)}
    zj = decompose.find_zero_join(g)
    report["zero_join"] = [sorted(zj[0]), sorted(zj[1])] if zj else None
    tw = find_twins(g)
    report["twins"] = list(tw) if tw else None
    report["simplicial_vertices"] = sorted(simplicial_vertices(g))
    cut = decompose.find_clique_cutset(g, meter)
    report["clique_cutset"] = (
        {
            "clique": sorted(cut.k),
            "side_a": sorted(cut.side_a),
            "side_b": sorted(cut.side_b),
            "internal": cut.internal,
        }
        if cut
        else None
    )
    lifted = decompose.internal_clique_cutset_from_deletion(g, meter)
    report["lifted_internal_cutset"] = (
        {
            "clique": sorted(lifted.k),
            "side_a": sorted(lifted.side_a),
            "side_b": sorted(lifted.side_b),
        }
        if lifted
        else None
    )
    oj = decompose.find_one_join(g)
    report["one_join"] = (
        {
            "v1": sorted(oj.v1),
            "v2": sorted(oj.v2),
            "a1": sorted(oj.a1),
            "a2": sorted(oj.a2),
            "rich": oj.rich,
        }
        if oj
        else None
    )
    wj = decompose.find_w_join(g, meter)
    report["w_join"] = {"a": sorted(wj.a), "b": sorted(wj.b)} if wj else None
    if args.json:
        _emit(args, certificate_json(report))
    else:
        lines = [f"{key}: {value}" for key, value in report.items() if key != "tool"]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_roundtrip(args) -> int:
    from .linegraph import recover_root

    g = _read_input(args)
    budget = _budget(args)
    try:
        rr = recover_root(g, budget)
    except GraphError as exc:
        raise CliUsageError(str(exc))
    payload = {"command": "roundtrip", "n": g.n, **_tool_block(args, budget)}
    if rr is None:
        payload["root"] = None
    else:
        payload["root"] = {
            "n": rr.root.n,
            "edges": [list(e) for e in rr.root.edges],
            "ambiguous": rr.ambiguous,
        }
        payload["line_graph_matches"] = line_graph(rr.root) == g
    if args.json:
        _emit(args, certificate_json(payload))
    else:
        if rr is None:
            _emit(args, "no bipartite root\n")
        else:
            _emit(
                args,
                f"root: n={rr.root.n} edges={list(rr.root.edges)} "
                f"ambiguous={rr.ambiguous}\n",
            )
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "generate": _cmd_generate,
    "decompose": _cmd_decompose,
    "roundtrip": _cmd_roundtrip,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
