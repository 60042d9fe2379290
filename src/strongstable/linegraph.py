"""Bipartite-multigraph machinery: recovering a bipartite root of a line
graph, suitable matchings with frozen forced edges, and the pairs of cliques
of a smooth augmentation, each read off the edge the solver keeps of it in
one pass over the edges, with no search.

Harmlessness has no search here: a bipartite multigraph B is harmless
exactly when its line graph L(B) is innocent, so
``forbidden.innocence_certificate`` on L(B) decides it and names the root
edges of a harmful subgraph.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import (
    Budget,
    Graph,
    GraphError,
    Multigraph,
    _Meter,
    _is_clique_mask,
    _iter_bits,
    _meter,
    iter_maximal_cliques,
)


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
    deg = [len(inc) for inc in root.incidence()]
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


# -- suitable matchings ----------------------------------------------------------


def _require_bipartite(b: Multigraph) -> None:
    """GraphError when the host has no bipartition."""
    if b.bipartition() is None:
        raise GraphError("expected a bipartite host")


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
    incident = b.incidence()
    required = sorted({v for v in range(b.n) if len(incident[v]) >= 2} | set(match))
    committed: set[int] = set(match)

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


# -- smooth augmentation pairs -----------------------------------------------------


def _augment_edges(g: Graph, meter: _Meter) -> Iterator[tuple[int, int, int]]:
    """Each edge uv that a smooth augmentation pair keeps, in lex order,
    with the mask K of the pair: (u, v, K) for 3 <= |K| < n. One tick per
    edge.

    The pair is a homogeneous pair of cliques (X, Y) with no vertex outside
    complete to both, u in X complete to Y and v in Y complete to X. Then
    K = X | Y = N[u] & N[v], since a common neighbour outside would be
    complete to both sides; each x in X has N(x) - K = N(u) - N[v], and each
    y in Y has N(y) - K = N(v) - N[u]. Conversely, when every vertex of K
    has one of these two outside neighbourhoods, not both empty (else K is
    a whole component), and the vertices with each form a clique, they are
    such a pair, with u and v on opposite sides.

    The solver keeps uv and drops the rest of K: a strong stable set S' of
    G' = G - (K - {u, v}) is one of G. Each outside vertex is complete to X
    (C), to Y (D) or to neither. In G', u sees C + v and v sees D + u, so
    {u, v} is a maximal clique and S' holds one of them. A maximal clique
    of G that misses K is one of G'; one inside K holds u and v; any other
    is X | C' or Y | D', and S' meets it in the maximal clique C' + u, or
    D' + v, of G'.
    """
    bits = g.bits
    for u, v in g.edges():
        meter.tick()
        k = (bits[u] | 1 << u) & (bits[v] | 1 << v)
        a, b = bits[u] & ~k, bits[v] & ~k
        if k.bit_count() < 3 or not a | b:
            continue
        xm = ym = 0
        for w in _iter_bits(k):
            out = bits[w] & ~k
            if out == a:
                xm |= 1 << w
            elif out == b:
                ym |= 1 << w
            else:
                break
        else:
            if _is_clique_mask(bits, xm) and _is_clique_mask(bits, ym):
                yield u, v, k
