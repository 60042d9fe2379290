"""Frozen, seeded inputs for the three benchmark workloads.

    python3 perfbench/corpus.py --seed 0              # re-make the committed corpus
    python3 perfbench/corpus.py --seed 7 --out DIR    # the corpus for another seed

The committed corpus (``perfbench/corpus/*.txt``) is the one for the default
seed. It is drawn with the program's own generators, so making it again
needs ``src/`` and takes about half a minute; with the default seed the command
re-makes the committed files byte for byte.

Every other seed gives a fresh corpus made from the committed one alone:
each graph gets a seeded random relabelling of its vertices (its prescribed
set and planted structure move with it) and the input order is shuffled.
The inputs are new to the program, but their structure, and so the work
they cost, stays the same from seed to seed. A corpus drawn afresh from the
generators for every seed would not be steady: the solver's cost grows about
2.2-fold per vertex of the simplicial- and twin-free core (see
``core_size``), and a few large cores decide how long a pass takes.

File format, one input per line, ``#`` starts a comment:

* ``solve.txt``: ``<graph6>``
* ``prescribed.txt``: ``<graph6> <v1>[,<v2>]`` (the prescribed set z)
* ``certify.txt``: ``<graph6> <label>``, the label being ``innocent`` or the
  kind of the planted forbidden structure.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import networkx as nx

from check import KINDS, eye_mask, handcuff, odd_prism

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "corpus"
WORKLOADS = ("solve", "prescribed", "certify")
DEFAULT_SEED = 0

# Graphs whose core (see core_size) has more vertices than this are left out:
# today's solver spends seconds to minutes on them, more than one run allows.
CORE_CAP = 11

# -- graph helpers (networkx only, independent of the program) ------------------


def to_g6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def from_g6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode())


def _is_clique(g: nx.Graph, vs) -> bool:
    vs = list(vs)
    return all(b in g[a] for i, a in enumerate(vs) for b in vs[i + 1 :])


def core_size(g: nx.Graph, z=frozenset()) -> int:
    """Largest part left after peeling twins and unprescribed simplicial vertices.

    Components are split, complete and cobipartite parts are done; what is
    left has no twins and no simplicial vertex outside z. These are the
    instances on which the solver starts its exhaustive searches, and its
    running time grows about 2.2-fold per vertex of the largest one.
    """
    best = 0
    stack = [(g, frozenset(z))]
    while stack:
        h, zz = stack.pop()
        n = h.number_of_nodes()
        if n == 0 or h.number_of_edges() == n * (n - 1) // 2:
            continue
        comps = list(nx.connected_components(h))
        if len(comps) > 1:
            stack.extend((h.subgraph(c).copy(), zz & c) for c in comps)
            continue
        drop = None
        seen: dict[frozenset, int] = {}
        for v in sorted(h):
            closed = frozenset(h[v]) | {v}
            if closed in seen:
                u = seen[closed]
                drop = u if u not in zz else (v if v not in zz else None)
                if drop is not None:
                    break
            else:
                seen[closed] = v
        if drop is None:
            drop = next(
                (v for v in sorted(h) if v not in zz and _is_clique(h, h[v])), None
            )
        if drop is not None:
            h = h.copy()
            h.remove_node(drop)
            stack.append((h, zz))
            continue
        if nx.is_bipartite(nx.complement(h)):
            continue
        best = max(best, n)
    return best


# -- forbidden structures, built here rather than by the program ----------------


def forbidden_graph(kind: str, rng: random.Random) -> nx.Graph:
    """A random member of one forbidden family, vertices 0..k-1."""
    if kind == "odd-hole":
        return nx.cycle_graph(rng.choice((5, 7, 9, 11)))
    if kind == "long-antihole":
        return nx.complement(nx.cycle_graph(rng.choice((6, 7, 8, 9))))
    if kind == "odd-prism":
        return odd_prism(*(rng.choice((1, 3, 5)) for _ in range(3)))
    if kind == "eye-mask":
        return eye_mask(rng.choice((4, 6, 8)), rng.choice((4, 6, 8)))
    if kind == "handcuff":
        return handcuff(rng.choice((4, 6)), rng.choice((4, 6)), rng.choice((1, 3, 5)))
    raise ValueError(f"unknown kind {kind!r}")


def plant(host: nx.Graph, gadget: nx.Graph, high: bool) -> nx.Graph:
    """Disjoint union, the gadget taking the highest (or the lowest) ids."""
    k, n = gadget.number_of_nodes(), host.number_of_nodes()
    g = nx.Graph()
    g.add_nodes_from(range(n + k))
    h_off, g_off = (0, n) if high else (k, 0)
    g.add_edges_from((u + h_off, v + h_off) for u, v in host.edges())
    g.add_edges_from((u + g_off, v + g_off) for u, v in gadget.edges())
    return g


# -- drawing the default corpus with the program's generators ------------------


def _program():
    sys.path.insert(0, str(HERE.parent / "src"))
    from strongstable import Budget, GraphError
    from strongstable.generators import random_claw_free_innocent
    from strongstable.graphio import encode_graph6
    from strongstable.solver import validate_prescribed

    return Budget, GraphError, random_claw_free_innocent, encode_graph6, validate_prescribed


def draw(seed: int) -> dict[str, list[str]]:
    """The three workloads' lines, drawn afresh from the generators."""
    Budget, GraphError, rci, encode_graph6, validate_prescribed = _program()
    budget = Budget(64, 5_000_000)

    def innocent(rng: random.Random, lo: int, hi: int):
        while True:
            size = rng.randint(lo, hi)
            rate = rng.choice((0.0, 0.2, 0.4))
            g = rci(rng.randrange(2**32), size, augment_rate=rate, budget=budget)
            h = from_g6(encode_graph6(g).strip())
            if core_size(h) <= CORE_CAP:
                return g, h

    rng = random.Random(f"solve:{seed}")
    solve = [to_g6(innocent(rng, 14, 20)[1]) for _ in range(200)]
    solve += [to_g6(innocent(rng, 30, 60)[1]) for _ in range(36)]

    rng = random.Random(f"prescribed:{seed}")
    prescribed = []
    while len(prescribed) < 150:
        g, h = innocent(rng, 14, 20)
        simplicial = sorted(v for v in h if _is_clique(h, h[v]))
        options = [(v,) for v in simplicial] + [
            (u, v) for i, u in enumerate(simplicial) for v in simplicial[i + 1 :]
            if v not in h[u]
        ]
        rng.shuffle(options)
        for z in options[:6]:
            if core_size(h, z) > CORE_CAP:
                continue
            try:
                validate_prescribed(g, frozenset(z), budget)
            except GraphError:
                continue
            prescribed.append(f"{to_g6(h)} {','.join(map(str, z))}")
            break

    rng = random.Random(f"certify:{seed}")
    certify = [f"{to_g6(innocent(rng, 30, 60)[1])} innocent" for _ in range(30)]
    for i in range(70):
        kind = KINDS[i % len(KINDS)]
        host = innocent(rng, 14, 30)[1]
        g = plant(host, forbidden_graph(kind, rng), high=i % 2 == 0)
        certify.append(f"{to_g6(g)} {kind}")
    return {"solve": solve, "prescribed": prescribed, "certify": certify}


# -- other seeds: relabel the committed corpus -----------------------------------


def read_lines(path: Path) -> list[str]:
    return [
        line.strip()
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def relabel(lines: list[str], rng: random.Random, workload: str) -> list[str]:
    out = []
    for line in lines:
        g6, *rest = line.split()
        g = from_g6(g6)
        perm = list(range(g.number_of_nodes()))
        rng.shuffle(perm)
        h = nx.Graph()
        h.add_nodes_from(range(len(perm)))
        h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
        if workload == "prescribed":
            rest = [",".join(str(perm[int(v)]) for v in rest[0].split(","))]
        out.append(" ".join([to_g6(h), *rest]))
    rng.shuffle(out)
    return out


def corpus_lines(seed: int, workload: str) -> list[str]:
    """The workload's input lines for a seed, from the committed corpus."""
    lines = read_lines(COMMITTED / f"{workload}.txt")
    if seed == DEFAULT_SEED:
        return lines
    return relabel(lines, random.Random(f"relabel:{workload}:{seed}"), workload)


def write(out: Path, seed: int, workload: str, lines: list[str]) -> None:
    header = f"# strongstable benchmark corpus: workload {workload}, seed {seed}\n"
    (out / f"{workload}.txt").write_text(header + "".join(f"{x}\n" for x in lines))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=Path, default=None,
                   help="output directory (default: the committed corpus for "
                        "the default seed; required for other seeds)")
    args = p.parse_args(argv)
    out = args.out or COMMITTED
    if args.seed != DEFAULT_SEED and out.resolve() == COMMITTED:
        p.error("the committed corpus is the default seed's; give --out")
    out.mkdir(parents=True, exist_ok=True)
    if args.seed == DEFAULT_SEED:
        drawn = draw(args.seed)
        for workload in WORKLOADS:
            write(out, args.seed, workload, drawn[workload])
    else:
        for workload in WORKLOADS:
            write(out, args.seed, workload, corpus_lines(args.seed, workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
