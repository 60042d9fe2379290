"""Bipartite-multigraph machinery: recovering a bipartite root of a line
graph, suitable matchings with frozen forced edges, and the candidate clique
pairs of a smooth augmentation, which the solver reduces one at a time.

Harmlessness has no search here: a bipartite multigraph B is harmless
exactly when its line graph L(B) is innocent, so
``forbidden.innocence_certificate`` on L(B) decides it and names the root
edges of a harmful subgraph.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Budget,
    Graph,
    GraphError,
    Multigraph,
    _Meter,
    _flood,
    _iter_bits,
    _meter,
    iter_maximal_cliques,
)
from .decompose import _is_clique_mask, _partition_masks


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
    g: Graph, x0: int, y0: int, meter: _Meter
) -> Optional[tuple[int, int]]:
    """Close a disjoint seed pair of masks into a homogeneous clique pair
    with the flat-edge external pattern, branching on vertices complete to
    both sides; masks in and out."""
    bits = g.bits
    full = (1 << g.n) - 1

    def close(xm: int, ym: int, depth: int) -> Optional[tuple[int, int]]:
        meter.tick()
        if depth > g.n:
            return None
        if not (_is_clique_mask(bits, xm) and _is_clique_mask(bits, ym)):
            return None
        both = xm | ym
        pending = -1  # the first outside vertex complete to both sides
        for v in _iter_bits(full & ~both):
            b = bits[v]
            mixed_x = 0 != b & xm != xm
            mixed_y = 0 != b & ym != ym
            if mixed_x and mixed_y:
                return None
            if mixed_x:
                return close(xm, ym | 1 << v, depth + 1)
            if mixed_y:
                return close(xm | 1 << v, ym, depth + 1)
            if pending < 0 and not both & ~b:
                pending = v
        if pending >= 0:
            for xm2, ym2 in ((xm | 1 << pending, ym), (xm, ym | 1 << pending)):
                res = close(xm2, ym2, depth + 1)
                if res is not None:
                    return res
            return None
        return xm, ym

    return close(x0, y0, 0)


def _augment_candidates(
    g: Graph, meter: _Meter
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Candidate smooth-augment pairs, seeded from same-side edges."""
    out: list[tuple[frozenset[int], frozenset[int]]] = []
    seen: set[frozenset[int]] = set()
    for u, v in g.edges():  # lex order
        x0 = 1 << u | 1 << v
        y0 = (g.bits[u] ^ g.bits[v]) & ~x0
        if not y0:
            continue
        res = _pattern_pair(g, x0, y0, meter)
        if res is None:
            continue
        xm, ym = res
        if not 3 <= (xm | ym).bit_count() < g.n:
            continue
        if not _valid_augment(g, xm, ym):
            continue
        key = frozenset(res)
        if key in seen:
            continue
        seen.add(key)
        xs, ys = frozenset(_iter_bits(xm)), frozenset(_iter_bits(ym))
        out.append((min(xs, ys, key=sorted), max(xs, ys, key=sorted)))
    out.sort(key=lambda p: (sorted(p[0]), sorted(p[1])))
    return out


def _valid_augment(g: Graph, xm: int, ym: int) -> bool:
    """A pair of masks from :func:`_pattern_pair` (so homogeneous cliques,
    X holding the seed edge, with no vertex complete to both sides) that is
    smooth and whose contraction neighborhoods are cliques."""
    bits = g.bits
    c, d, _, _ = _partition_masks(bits, xm, ym)
    if not (_is_clique_mask(bits, c) and _is_clique_mask(bits, d)):
        return False
    # smooth: both sides attach to each other everywhere
    if any(not bits[x] & ym for x in _iter_bits(xm)):
        return False
    if any(not bits[y] & xm for y in _iter_bits(ym)):
        return False
    # the augment itself is a connected cobipartite graph
    both = xm | ym
    return _flood(bits, xm & -xm, both) == both
