"""Bipartite-multigraph machinery: recovering a bipartite root of a line
graph, harmlessness (theta / bicycle subgraph search on bipartite hosts),
suitable matchings with frozen forced edges, and the candidate clique pairs
of a smooth augmentation, which the solver reduces one at a time.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import (
    Budget,
    Graph,
    GraphError,
    Multigraph,
    _Meter,
    _meter,
    components_within,
    iter_maximal_cliques,
    shortest_path,
)
from .decompose import w_join_partition


@dataclass(frozen=True)
class RootRecovery:
    """A bipartite multigraph whose line graph is exactly the input: root
    edge v is input vertex v.
    """

    root: Multigraph

    @functools.cached_property
    def ambiguous(self) -> bool:
        """Whether other, non-isomorphic roots exist as well (complete line
        graphs; parallel bundles interchangeable with pendant stars).

        Computed on first read and cached; not a field, so ``==``, ``hash``
        and ``repr`` ignore it.
        """
        return _root_ambiguous(self.root)


@dataclass(frozen=True)
class ThetaWitness:
    ends: tuple[int, int]
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for p in self.paths:
            out.extend((min(a, b), max(a, b)) for a, b in zip(p, p[1:]))
        return out


@dataclass(frozen=True)
class BicycleWitness:
    cycle1: tuple[int, ...]
    cycle2: tuple[int, ...]
    path: tuple[int, ...]  # from a cycle1 vertex to a cycle2 vertex; (v,) when shared
    shared_vertex: bool

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for c in (self.cycle1, self.cycle2):
            out.extend(
                (min(c[i], c[(i + 1) % len(c)]), max(c[i], c[(i + 1) % len(c)]))
                for i in range(len(c))
            )
        out.extend((min(a, b), max(a, b)) for a, b in zip(self.path, self.path[1:]))
        return out


@dataclass(frozen=True)
class SuitableMatching:
    """Pairwise disjoint edges covering every vertex of degree at least two."""

    edges: frozenset[int]


# -- root recovery ----------------------------------------------------------------


def recover_root(
    g: Graph, budget: Budget | _Meter | None = None
) -> Optional[RootRecovery]:
    """A bipartite multigraph root, or None when no bipartite root exists.

    The maximal cliques of the line graph of a triangle-free multigraph are
    its maximal stars, so each vertex lies in at most two of them. The root's
    vertices are the maximal cliques plus a private tip for each vertex in
    only one; its line graph is g by construction, and it is bipartite
    exactly when some root is. Twin classes turn into parallel bundles by
    landing in the same pair of cliques.
    """
    if not g.is_connected():
        raise GraphError("root recovery expects a connected graph")
    ends: list[list[int]] = [[] for _ in range(g.n)]
    nodes = 0
    for clique in iter_maximal_cliques(g, budget):
        for v in clique:
            if len(ends[v]) == 2:
                return None
            ends[v].append(nodes)
        nodes += 1
    for v in range(g.n):
        if len(ends[v]) == 1:
            ends[v].append(nodes)
            nodes += 1
    root = Multigraph.build(nodes, ends)
    if root.bipartition() is None:
        return None
    return RootRecovery(root)


def _root_ambiguous(root: Multigraph) -> bool:
    """Patterns under which other roots produce the same line graph."""
    deg = [root.degree(v) for v in range(root.n)]
    if root.m >= 3:
        shared = set(root.edges[0])
        for e in root.edges:
            shared &= set(e)
        if shared:  # all edges through one vertex: complete line graph
            return True
    mult: dict[tuple[int, int], int] = defaultdict(int)
    for e in root.edges:
        mult[e] += 1
    for (u, v), k in mult.items():
        if k >= 2 and (deg[u] == k or deg[v] == k):
            return True
    pendant_at: dict[int, int] = defaultdict(int)
    for u, v in root.edges:
        for a, b in ((u, v), (v, u)):
            if deg[a] == 1:
                pendant_at[b] += 1
    return any(k >= 2 for k in pendant_at.values())


# -- theta / bicycle subgraph search -------------------------------------------------


def _subgraph_cycles(
    g: Graph,
    meter: _Meter,
    banned: frozenset[int] = frozenset(),
    through: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Cycles of a bipartite host (chords allowed, so all even and of
    length >= 4) avoiding banned vertices.

    Canonical form: smallest vertex first and second entry smaller than the
    last; in ``through`` mode the required vertex leads instead and only the
    traversal direction is deduplicated.
    """

    def run(base: int) -> Iterator[tuple[int, ...]]:
        def extend(path: list[int]) -> Iterator[tuple[int, ...]]:
            meter.tick()
            tip = path[-1]
            for w in sorted(g.adj[tip]):
                if w in banned or w in path:
                    continue
                if through is None and w < base:
                    continue
                if g.has_edge(w, base) and len(path) >= 3 and path[1] < w:
                    yield tuple(path) + (w,)
                yield from extend(path + [w])

        for second in sorted(g.adj[base]):
            if second in banned:
                continue
            if through is None and second < base:
                continue
            yield from extend([base, second])

    if through is not None:
        if through not in banned:
            yield from run(through)
    else:
        for base in sorted(g.vertex_set() - banned):
            yield from run(base)


def _three_disjoint_paths(
    g: Graph, a: int, z: int
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Three internally vertex-disjoint paths between non-adjacent a and z,
    via unit-capacity flow."""
    # node splitting: 2*v = in, 2*v + 1 = out
    cap: dict[tuple[int, int], int] = defaultdict(int)
    nbrs: dict[int, set[int]] = defaultdict(set)

    def arc(x: int, y: int, c: int) -> None:
        cap[(x, y)] += c
        nbrs[x].add(y)
        nbrs[y].add(x)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, 3 if v in (a, z) else 1)
    for u, v in g.edges():
        arc(2 * u + 1, 2 * v, 1)
        arc(2 * v + 1, 2 * u, 1)
    src, snk = 2 * a, 2 * z + 1
    flow: dict[tuple[int, int], int] = defaultdict(int)

    def residual(x: int, y: int) -> int:
        return cap[(x, y)] - flow[(x, y)] + flow[(y, x)]

    def augment() -> bool:
        prev: dict[int, int] = {src: -1}
        frontier = [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in sorted(nbrs[x]):
                    if y in prev or residual(x, y) <= 0:
                        continue
                    prev[y] = x
                    if y == snk:
                        while y != src:
                            x0 = prev[y]
                            if flow[(y, x0)] > 0:
                                flow[(y, x0)] -= 1
                            else:
                                flow[(x0, y)] += 1
                            y = x0
                        return True
                    nxt.append(y)
            frontier = nxt
        return False

    found = 0
    while found < 3 and augment():
        found += 1
    if found < 3:
        return None
    out: list[tuple[int, ...]] = []
    for _ in range(3):
        path = [a]
        flow[(2 * a, 2 * a + 1)] -= 1
        node = 2 * a + 1
        while True:
            nxt = None
            for y in sorted(nbrs[node]):
                if flow[(node, y)] > 0:
                    nxt = y
                    break
            assert nxt is not None, "flow decomposition failed"
            flow[(node, nxt)] -= 1
            path.append(nxt // 2)
            flow[(nxt, nxt + 1)] -= 1
            if nxt // 2 == z:
                break
            node = nxt + 1  # enter -> leave through the split arc
        out.append(tuple(path))
    return tuple(out)


def _require_bipartite(b: Multigraph) -> frozenset[int]:
    """One side of a bipartition of the host; GraphError when it has none."""
    sides = b.bipartition()
    if sides is None:
        raise GraphError("expected a bipartite host")
    return sides[0]


def find_theta(
    b: Multigraph, budget: Budget | _Meter | None = None
) -> Optional[ThetaWitness]:
    """Two vertices joined by three even, internally disjoint paths of length
    at least two; a subgraph search, so chords and parallel edges are moot.

    The host must be bipartite: even-ness is then automatic for same-side
    ends, and a unit-capacity flow decides three-disjoint-paths exactly.
    """
    meter = _meter(budget)
    left = _require_bipartite(b)
    u = b.underlying_simple()
    branch = [v for v in range(u.n) if u.degree(v) >= 3]
    for a, z in itertools.combinations(branch, 2):
        meter.tick()
        if (a in left) != (z in left):
            continue
        paths = _three_disjoint_paths(u, a, z)
        if paths is not None:
            return ThetaWitness((a, z), paths)
    return None


def find_bicycle(
    b: Multigraph, budget: Budget | _Meter | None = None
) -> Optional[BicycleWitness]:
    """Two vertex-disjoint even cycles joined by an even path.

    Length-zero connections (the cycles share exactly one vertex) are
    returned with ``shared_vertex=True`` and a single-vertex path. The host
    must be bipartite, so every cycle is even.
    """
    meter = _meter(budget)
    left = _require_bipartite(b)
    u = b.underlying_simple()
    for c1 in _subgraph_cycles(u, meter):
        c1set = frozenset(c1)
        for v in sorted(c1set):
            for c2 in _subgraph_cycles(u, meter, banned=c1set - {v}, through=v):
                return BicycleWitness(c1, c2, (v,), shared_vertex=True)
        for c2 in _subgraph_cycles(u, meter, banned=c1set):
            link = _even_connector(u, c1set, frozenset(c2), left)
            if link is not None:
                return BicycleWitness(c1, c2, link, shared_vertex=False)
    return None


def _even_connector(
    g: Graph,
    c1: frozenset[int],
    c2: frozenset[int],
    left: frozenset[int],
) -> Optional[tuple[int, ...]]:
    """An even path from c1 to c2 whose interior avoids both cycles: one
    between same-side ends through a component of the rest."""
    for comp in components_within(g, g.vertex_set() - c1 - c2):
        ends1 = sorted(x for x in c1 if g.adj[x] & comp)
        ends2 = sorted(x for x in c2 if g.adj[x] & comp)
        for x1 in ends1:
            for x2 in ends2:
                if (x1 in left) != (x2 in left):
                    continue
                path = shortest_path(g, x1, {x2}, allowed=comp | {x1, x2})
                if path is not None:
                    return path
    return None


def is_harmless(
    b: Multigraph, budget: Budget | None = None
) -> tuple[bool, Optional[ThetaWitness | BicycleWitness]]:
    """Neither a theta nor a bicycle occurs as a subgraph of a bipartite host."""
    meter = _meter(budget)
    w = find_theta(b, meter)
    if w is not None:
        return False, w
    w2 = find_bicycle(b, meter)
    if w2 is not None:
        return False, w2
    return True, None


# -- suitable matchings ----------------------------------------------------------


def suitable_matching(
    b: Multigraph, forced: Iterable[int] = (), budget: Budget | _Meter | None = None
) -> Optional[SuitableMatching]:
    """A matching containing ``forced`` covering every degree->=2 vertex, or
    None exactly when no such matching exists (bipartite hosts).

    Alternating-path augmentation over frozen forced edges: each uncovered
    required vertex is matched along a path that either ends at an exposed
    vertex or steals coverage from a vertex not yet committed; committed
    vertices (forced endpoints and already-processed requirements) never
    lose coverage, so the greedy pass is exact.
    """
    meter = _meter(budget)
    _require_bipartite(b)
    forced = frozenset(forced)
    for e in forced:
        if not (0 <= e < b.m):
            raise GraphError(f"forced edge id {e} out of range")
    match: dict[int, int] = {}
    for e in sorted(forced):
        u, v = b.edges[e]
        if u in match or v in match:
            raise GraphError("forced edges do not form a matching")
        match[u] = e
        match[v] = e
    required = sorted({v for v in range(b.n) if b.degree(v) >= 2} | set(match))
    committed: set[int] = set(match)
    incident = [b.incident(v) for v in range(b.n)]

    def apply_path(parent: dict[int, tuple[int, int]], end: int, t: int) -> None:
        hops: list[tuple[int, int, int]] = []  # (parent, child, edge), end first
        cur = end
        while cur != t:
            p, e = parent[cur]
            hops.append((p, cur, e))
            cur = p
        removals = [hops[i] for i in range(1, len(hops), 2)]
        additions = [hops[i] for i in range(0, len(hops), 2)]
        for p, c, e in removals:
            if match.get(p) == e:
                del match[p]
            if match.get(c) == e:
                del match[c]
        for p, c, e in additions:
            match[p] = e
            match[c] = e

    def augment(t: int) -> bool:
        parent: dict[int, tuple[int, int]] = {}
        seen = {t}
        frontier = [t]
        while frontier:
            meter.tick()
            nxt: list[int] = []
            for v in frontier:
                for e in incident[v]:
                    if e in forced or match.get(v) == e:
                        continue
                    w = other_end(b, e, v)
                    if w in seen:
                        continue
                    seen.add(w)
                    parent[w] = (v, e)
                    if w not in match:
                        apply_path(parent, w, t)
                        return True
                    f = match[w]
                    if f in forced:
                        continue
                    x = other_end(b, f, w)
                    if x in seen:
                        continue
                    if x not in committed:
                        # steal x's coverage: flip up to w, drop f entirely
                        if match.get(x) == f:
                            del match[x]
                        if match.get(w) == f:
                            del match[w]
                        apply_path(parent, w, t)
                        return True
                    seen.add(x)
                    parent[x] = (w, f)
                    nxt.append(x)
            frontier = nxt
        return False

    for t in required:
        if t not in match and not augment(t):
            return None
        committed.add(t)
    return SuitableMatching(frozenset(match.values()))


def other_end(b: Multigraph, e: int, v: int) -> int:
    x, y = b.edges[e]
    return y if x == v else x


# -- smooth augmentation candidates --------------------------------------------------


def _pattern_pair(
    g: Graph, x0: frozenset[int], y0: frozenset[int], meter: _Meter
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Close a seed pair into a homogeneous clique pair with the flat-edge
    external pattern, branching on vertices complete to both sides."""

    def close(xs: frozenset[int], ys: frozenset[int], depth: int) -> Optional[
        tuple[frozenset[int], frozenset[int]]
    ]:
        meter.tick()
        if depth > g.n:
            return None
        if xs & ys or not (g.is_clique(xs) and g.is_clique(ys)):
            return None
        both = xs | ys
        pending_both: list[int] = []
        for v in sorted(g.vertex_set() - both):
            mixed_x = g.is_mixed_on(v, xs)
            mixed_y = g.is_mixed_on(v, ys)
            if mixed_x and mixed_y:
                return None
            if mixed_x:
                return close(xs, ys | {v}, depth + 1)
            if mixed_y:
                return close(xs | {v}, ys, depth + 1)
            if xs <= g.adj[v] and ys <= g.adj[v]:
                pending_both.append(v)
        if pending_both:
            v = pending_both[0]
            for xs2, ys2 in ((xs | {v}, ys), (xs, ys | {v})):
                res = close(xs2, ys2, depth + 1)
                if res is not None:
                    return res
            return None
        return xs, ys

    return close(x0, y0, 0)


def _augment_candidates(
    g: Graph, meter: _Meter
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Candidate smooth-augment pairs, seeded from same-side edges."""
    out: list[tuple[frozenset[int], frozenset[int]]] = []
    seen: set[frozenset[frozenset[int]]] = set()
    for u, v in sorted(g.edges()):
        x0 = frozenset((u, v))
        y0 = frozenset((g.adj[u] ^ g.adj[v]) - x0)
        if not y0:
            continue
        res = _pattern_pair(g, x0, y0, meter)
        if res is None:
            continue
        xs, ys = res
        if len(xs | ys) < 3 or len(xs | ys) >= g.n:
            continue
        if not _valid_augment(g, xs, ys):
            continue
        key = frozenset((xs, ys))
        if key in seen:
            continue
        seen.add(key)
        out.append((min(xs, ys, key=sorted), max(xs, ys, key=sorted)))
    out.sort(key=lambda p: (sorted(p[0]), sorted(p[1])))
    return out


def _valid_augment(g: Graph, xs: frozenset[int], ys: frozenset[int]) -> bool:
    """A pair from :func:`_pattern_pair` (so homogeneous, with no vertex
    complete to both sides) that is smooth and whose contraction
    neighborhoods are cliques."""
    if g.is_complete_between(xs, ys) and len(xs) == 1 and len(ys) == 1:
        return False
    c, d, _, _ = w_join_partition(g, xs, ys)
    if not (g.is_clique(c) and g.is_clique(d)):
        return False
    # smooth: both sides attach to each other everywhere
    if any(not (g.adj[x] & ys) for x in xs):
        return False
    if any(not (g.adj[y] & xs) for y in ys):
        return False
    # the augment itself is a connected cobipartite graph
    sub = xs | ys
    return len(components_within(g, sub)) == 1
