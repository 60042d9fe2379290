"""Generators for every named family, plus randomized claw-free innocent
graphs built from harmless bipartite roots.

Vertices are labeled canonically: cycle vertices consecutively from zero,
attachments (hats, connecting paths, triangle tips) after them, so fixtures
stay stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .core import Budget, Graph, GraphError, Multigraph, from_edge_list, line_graph
from .forbidden import Innocent, innocence_certificate
from .recognizers import find_claw
from .solver import extend_at_simplicial


class GenerationError(RuntimeError):
    """A randomized generator ran out of retries."""


@dataclass(frozen=True)
class GenSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None


def _cycle_edges(start: int, k: int) -> list[tuple[int, int]]:
    return [(start + i, start + (i + 1) % k) for i in range(k)]


def hole(k: int) -> Graph:
    if k < 4:
        raise GraphError("a hole has length at least four")
    return from_edge_list(k, _cycle_edges(0, k))


def antihole(k: int) -> Graph:
    if k < 5:
        raise GraphError("an antihole has length at least five")
    from .core import complement

    return complement(hole(k))


def prism(paths: tuple[int, int, int]) -> Graph:
    """Two triangles 0,1,2 and 3,4,5 joined by paths of the given lengths."""
    l1, l2, l3 = paths
    if min(l1, l2, l3) < 1:
        raise GraphError("prism paths have length at least one")
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    nxt = 6
    for i, length in enumerate((l1, l2, l3)):
        a, b = i, 3 + i
        prev = a
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
    return from_edge_list(nxt, edges)


def clown(k: int) -> Graph:
    """Even hole 0..k-1 plus a hat (vertex k) on the edge (0, 1)."""
    if k < 4 or k % 2 == 1:
        raise GraphError("a clown's hole is even of length at least four")
    return from_edge_list(k + 1, _cycle_edges(0, k) + [(k, 0), (k, 1)])


def handcuff(c1: int, c2: int, path_len: int) -> Graph:
    """Even cycles 0..c1-1 and c1..c1+c2-1; odd connecting path appended last,
    its ends in triangles with the edges (0,1) and (c1, c1+1)."""
    if c1 < 4 or c1 % 2 or c2 < 4 or c2 % 2:
        raise GraphError("handcuff cycles are even of length at least four")
    if path_len < 1 or path_len % 2 == 0:
        raise GraphError("the connecting path of a handcuff is odd")
    edges = _cycle_edges(0, c1) + _cycle_edges(c1, c2)
    base = c1 + c2
    t = list(range(base, base + path_len + 1))
    edges.extend(zip(t, t[1:]))
    edges.extend([(t[0], 0), (t[0], 1), (t[-1], c1), (t[-1], c1 + 1)])
    return from_edge_list(base + path_len + 1, edges)


def eye_mask(c1: int, c2: int) -> Graph:
    """Even cycles with the edges (0,1) and (c1, c1+1) made complete."""
    if c1 < 4 or c1 % 2 or c2 < 4 or c2 % 2:
        raise GraphError("eye mask cycles are even of length at least four")
    edges = _cycle_edges(0, c1) + _cycle_edges(c1, c2)
    edges.extend((a, b) for a in (0, 1) for b in (c1, c1 + 1))
    return from_edge_list(c1 + c2, edges)


def theta(lengths: tuple[int, int, int]) -> Multigraph:
    """Two branch vertices 0, 1 joined by three even paths."""
    if any(l < 2 or l % 2 for l in lengths):
        raise GraphError("theta paths are even of length at least two")
    edges = []
    nxt = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Multigraph.build(nxt, edges)


def bicycle(c1: int, c2: int, path_len: int) -> Multigraph:
    """Two even cycles joined by an even path; length zero shares a vertex."""
    if c1 < 4 or c1 % 2 or c2 < 4 or c2 % 2:
        raise GraphError("bicycle cycles are even of length at least four")
    if path_len < 0 or path_len % 2:
        raise GraphError("the connecting path of a bicycle is even")
    if path_len == 0:
        edges = _cycle_edges(0, c1)
        # second cycle shares vertex 0
        ring = [0] + list(range(c1, c1 + c2 - 1))
        edges += [(ring[i], ring[(i + 1) % c2]) for i in range(c2)]
        return Multigraph.build(c1 + c2 - 1, edges)
    edges = _cycle_edges(0, c1) + _cycle_edges(c1, c2)
    base = c1 + c2
    chain = [0] + list(range(base, base + path_len - 1)) + [c1]
    edges += list(zip(chain, chain[1:]))
    return Multigraph.build(base + path_len - 1, edges)


# part indices: 0..2 = a1..a3, 3..5 = b1..b3, 6..8 = k1..k3
_FREE_PAIRS = {(0, 4), (1, 5), (2, 3)}  # (a_i, b_{i+1})


def _part_relation(p: int, q: int) -> str:
    """Required adjacency between members of parts p and q: edge/non/free."""
    if p == q:
        return "edge"
    lo, hi = min(p, q), max(p, q)
    if (lo, hi) in _FREE_PAIRS:
        return "free"
    if hi >= 6:
        if lo >= 6:  # two distinct K parts never see each other
            return "non"
        # K_i is anticomplete to a_i and b_i, complete to the other a/b parts
        side_index = lo if lo < 3 else lo - 3
        return "non" if side_index == hi - 6 else "edge"
    return "edge"


def peculiar(
    sizes: tuple[int, ...] = (1, 1, 1, 1, 1, 1, 0, 0, 0),
    seed: Optional[int] = None,
) -> Graph:
    """A peculiar graph with the given part sizes (a1..a3, b1..b3, k1..k3),
    numbered part by part in that order.

    The three cobipartite pairs get all cross edges except one (or, with a
    seed, a random non-complete bipartite complement).
    """
    if len(sizes) != 9 or any(s < 1 for s in sizes[:6]) or any(s < 0 for s in sizes[6:]):
        raise GraphError("need a1..b3 of size >= 1 and k1..k3 of size >= 0")
    rng = random.Random(seed)
    groups = []
    nxt = 0
    for s in sizes:
        groups.append(frozenset(range(nxt, nxt + s)))
        nxt += s
    edges = []
    for p in range(9):
        for q in range(p, 9):
            rel = _part_relation(p, q)
            if p == q:
                pairs = [(u, v) for u in groups[p] for v in groups[p] if u < v]
            else:
                pairs = [(u, v) for u in groups[p] for v in groups[q]]
            if rel == "edge":
                edges.extend(pairs)
            elif rel == "free":
                if seed is None:
                    edges.extend(pairs[1:])  # drop exactly one cross edge
                else:
                    keep = [e for e in pairs if rng.random() < 0.6]
                    if len(keep) == len(pairs):
                        keep = pairs[1:]
                    edges.extend(keep)
    return from_edge_list(nxt, edges)


def gadget_extension(
    variant: int, m: int, k: Optional[int] = None, base_size: int = 3
) -> Graph:
    """A complete graph with one of the canonical structures attached at a
    (simplicial) vertex."""
    base = from_edge_list(
        base_size, [(i, j) for i in range(base_size) for j in range(i + 1, base_size)]
    )
    return extend_at_simplicial(base, 0, variant, m, k).graph


# -- randomized harmless / innocent generation ------------------------------------


def random_connected_bipartite(
    rng: random.Random, n_left: int, n_right: int, extra: int
) -> Multigraph:
    """A random connected simple bipartite graph: a spanning tree plus extras."""
    n = n_left + n_right
    if n == 0:
        return Multigraph.build(0, [])
    if n_left == 0 or n_right == 0:
        if n > 1:
            raise GraphError("a connected bipartite graph needs both sides")
        return Multigraph.build(1, [])
    placed: dict[int, list[int]] = {0: [0], 1: []}
    queue = list(range(1, n))
    rng.shuffle(queue)
    edges: set[tuple[int, int]] = set()
    while queue:
        v = queue.pop(0)
        side = 0 if v < n_left else 1
        opposite = placed[1 - side]
        if not opposite:
            queue.append(v)  # a right vertex comes eventually; side 0 is seeded
            continue
        u = rng.choice(opposite)
        edges.add((min(u, v), max(u, v)))
        placed[side].append(v)
    for _ in range(extra):
        u = rng.randrange(n_left)
        v = n_left + rng.randrange(n_right)
        edges.add((u, v))
    return Multigraph.build(n, sorted(edges))


def repair_to_harmless(
    b: Multigraph, rng: random.Random, budget: Budget | None = None, max_rounds: int = 200
) -> Multigraph:
    """Delete witness edges (never bridges when avoidable) until harmless.

    B is harmless exactly when L(B) is innocent, so each round runs the
    certificate on L(B). Vertex i of ``line_graph(b)`` is root edge i, so
    the witness's vertices are the root edges of a harmful subgraph of B,
    and deleting any one of them destroys that witness.
    """
    for _ in range(max_rounds):
        w = innocence_certificate(line_graph(b), budget)
        if isinstance(w, Innocent):
            return b
        victims = sorted(w.vertices)
        rng.shuffle(victims)
        cands = [Multigraph.build(b.n, b.edges[:e] + b.edges[e + 1:]) for e in victims]
        # when every witness edge is a bridge to connectivity, drop one anyway
        b = next((c for c in cands if c.is_connected()), cands[0])
    raise GenerationError("harmless repair did not converge")


def random_harmless_bipartite(
    seed: Optional[int], n: int, extra: int = 2, budget: Budget | None = None
) -> Multigraph:
    """A random connected harmless bipartite graph on about n vertices."""
    rng = random.Random(seed)
    n_left = max(1, n // 2)
    n_right = max(1, n - n_left)
    b = random_connected_bipartite(rng, n_left, n_right, extra)
    b = repair_to_harmless(b, rng, budget)
    return b


def _flat_specials(b: Multigraph) -> list[tuple[int, int]]:
    """The flat edges of the line graph: the two root edges at each
    degree-two vertex whose two distinct neighbours are non-adjacent."""
    simple = b.underlying_simple()
    out = []
    for v, inc in enumerate(b.incidence()):
        if len(inc) != 2:
            continue
        ends = {x for e in inc for x in b.edges[e]} - {v}
        if len(ends) == 2:
            x, y = sorted(ends)
            if not simple.has_edge(x, y):
                out.append((inc[0], inc[1]))
    return out


def random_claw_free_innocent(
    seed: Optional[int],
    size: int,
    augment_rate: float = 0.0,
    budget: Budget | None = None,
    max_attempts: int = 40,
) -> Graph:
    """A random claw-free innocent graph of roughly the requested size.

    Construction: random bipartite root repaired to harmless, line graph,
    then (at the given rate) smooth cobipartite augments on disjoint flat
    edges; a final detector pass rejects any failure.
    """
    if size < 1:
        raise GraphError("size must be positive")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        root_n = max(2, size // 2 + rng.randint(0, 2))
        extra = rng.randint(1, 3)
        try:
            b = random_harmless_bipartite(rng.randint(0, 10**9), root_n, extra, budget)
        except GenerationError:
            continue
        if b.m == 0:
            continue
        g = line_graph(b)
        if augment_rate > 0:
            g = _augment_some_flats(g, b, rng, augment_rate)
        if g.n == 0 or not g.is_connected():
            continue
        if find_claw(g) is not None:
            continue
        if not isinstance(innocence_certificate(g, budget), Innocent):
            continue
        return g
    raise GenerationError("could not sample a claw-free innocent graph")


def _augment_some_flats(
    g: Graph, b: Multigraph, rng: random.Random, rate: float
) -> Graph:
    """Replace some disjoint flat edges of L(b) with small smooth augments."""
    flats = _flat_specials(b)
    rng.shuffle(flats)
    chosen: list[tuple[int, int]] = []
    used_edges: set[int] = set()
    for flat in flats:
        if used_edges.intersection(flat):
            continue
        if rng.random() < rate:
            chosen.append(flat)
            used_edges.update(flat)
    edges = list(g.edges())
    n = g.n
    for x_old, y_old in chosen:  # root edges, so line-graph vertex ids
        c = g.neighborhood({x_old}) - {y_old}
        d = g.neighborhood({y_old}) - {x_old}
        pattern = rng.choice(("pair-single", "nested"))
        if pattern == "pair-single":
            xs = [x_old, n]
            ys = [y_old]
            n += 1
            cross = [(xs[0], ys[0]), (xs[1], ys[0])]
        else:
            xs = [x_old, n]
            ys = [y_old, n + 1]
            n += 2
            cross = [(xs[0], ys[0]), (xs[1], ys[0]), (xs[1], ys[1])]
        edges = [e for e in edges if frozenset(e) != frozenset((x_old, y_old))]
        edges.extend((a, w) for a in xs[1:] for w in c)
        edges.extend((a, w) for a in ys[1:] for w in d)
        if len(xs) == 2:
            edges.append((xs[0], xs[1]))
        if len(ys) == 2:
            edges.append((ys[0], ys[1]))
        edges.extend(cross)
    return from_edge_list(n, edges)


def random_connected_bipartite_multigraph(
    seed: Optional[int],
    n: int,
    m: int,
    parallel_rate: float = 0.2,
    unambiguous: bool = True,
    max_attempts: int = 200,
) -> Multigraph:
    """A random connected bipartite multigraph, optionally avoiding the
    patterns under which line-graph roots are not unique (two pendant edges
    at one vertex; a parallel class consuming an endpoint's whole degree)."""
    rng = random.Random(seed)
    if m < n - 1:
        raise GraphError("a connected multigraph needs at least n-1 edges")
    for _ in range(max_attempts):
        n_left = max(1, rng.randint(n // 3, 2 * n // 3))
        n_right = max(1, n - n_left)
        base = random_connected_bipartite(rng, n_left, n_right, max(0, m - n + 1))
        edges = list(base.edges)
        while len(edges) < m and edges:
            e = rng.choice(edges)
            if rng.random() < parallel_rate:
                edges.append(e)
            else:
                deg = [0] * base.n
                for x, y in edges:
                    deg[x] += 1
                    deg[y] += 1
                # bias toward low-degree endpoints to kill pendant patterns
                u = min(range(base.n), key=lambda x: (deg[x], rng.random()))
                v = rng.choice([x for x in range(base.n) if (x < n_left) != (u < n_left)])
                edges.append((min(u, v), max(u, v)))
        b = Multigraph.build(base.n, edges[:m])
        if not b.is_connected():
            continue
        if unambiguous and _ambiguous_patterns(b):
            continue
        return b
    raise GenerationError("could not sample a suitable bipartite multigraph")


def _ambiguous_patterns(b: Multigraph) -> bool:
    from .linegraph import _root_ambiguous

    return b.n < 4 or _root_ambiguous(b)


_GRAPH_KINDS = {
    "hole": lambda p, s: hole(p["n"]),
    "antihole": lambda p, s: antihole(p["n"]),
    "prism": lambda p, s: prism(tuple(p["paths"])),
    "clown": lambda p, s: clown(p["k"]),
    "handcuff": lambda p, s: handcuff(p["c1"], p["c2"], p["path"]),
    "eye-mask": lambda p, s: eye_mask(p["c1"], p["c2"]),
    "peculiar": lambda p, s: peculiar(tuple(p.get("sizes", (1,) * 6 + (0,) * 3)), s),
    "line-of-harmless": lambda p, s: line_graph(
        random_harmless_bipartite(s, p.get("size", 10), p.get("extra", 2))
    ),
    "augmented-line": lambda p, s: random_claw_free_innocent(
        s, p.get("size", 10), p.get("rate", 0.3)
    ),
    "gadget-extension": lambda p, s: gadget_extension(
        p["variant"], p["m"], p.get("k"), p.get("base_size", 3)
    ),
}

_MULTIGRAPH_KINDS = {
    "theta": lambda p, s: theta(tuple(p["paths"])),
    "bicycle": lambda p, s: bicycle(p["c1"], p["c2"], p["path"]),
}


def generate(spec: GenSpec) -> Graph | Multigraph:
    """Build the family member described by the spec; deterministic given seed."""
    if spec.kind in _GRAPH_KINDS:
        return _GRAPH_KINDS[spec.kind](spec.params, spec.seed)
    if spec.kind in _MULTIGRAPH_KINDS:
        return _MULTIGRAPH_KINDS[spec.kind](spec.params, spec.seed)
    raise GraphError(f"unknown kind {spec.kind!r}")
