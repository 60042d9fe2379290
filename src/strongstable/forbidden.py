"""Witness-producing detectors for the five families whose absence defines
innocence: odd holes, antiholes of length at least six, odd prisms, handcuffs,
and eye masks.

Each detector enumerates anchor structures first (cycles for holes, the
triangle-path-triangle core for handcuffs, the K4 for eye masks), then grows
the remaining paths and cycles with the induced-path enumerator of ``core``.
Witnesses are re-verified from scratch before being returned, so a returned
witness is always sound. Completeness at the given budget comes from the
exhaustive enumeration over anchors. The shortcuts below skip only anchors
that cannot close, each by a necessary condition on int masks tested before
any path is grown; the surviving anchors are walked in the same order, so
the first witness is the one the full search finds:

* long antiholes: the search runs on the complement of the 3-core only,
  since each vertex of a k-antihole has k - 3 >= 3 neighbours in it; the
  core keeps the vertex order, so the cycles come in the same order;
* eye masks: the K4s are built from triangles plus a common neighbour,
  which lists exactly the 4-cliques;
* eye masks: a split x1y1 | x2y2 of a K4 is skipped unless N(x1) - N[y1]
  and N(y1) - N[x1] are joined by a path off N(x2) and N(y2), and likewise
  the other way round, since each cycle's interior is such a path;
* odd prisms: a triangle is skipped unless every corner has a private
  neighbour (adjacent to neither other corner), since each corner's path
  leaves it through one;
* odd prisms: a pair of triangles and a matching of their corners is
  skipped unless each corner reaches its partner in G minus the closed
  neighbourhoods of its own triangle's other two corners, since path i
  lies there from both ends;
* handcuffs: a triangle xyt is skipped unless some even hole through xy has
  its other vertices off t and its neighbours, since the cycle at xy is one;
  that search is skipped unless N(x) - N[y] and N(y) - N[x] are joined by a
  path off N[t], since the hole's interior is one;
* handcuffs: a far edge x2y2 is skipped unless N(t1) - N[x1] - N[y1]
  reaches it in G - N[x1] - N[y1] - N[t1], since the link from t1 to t2
  and the edge x2y2 lie there, apart from the link's first vertex.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .core import (
    Budget,
    Graph,
    _Meter,
    _above,
    _anchored_paths,
    _flood,
    _iter_bits,
    _mask_of,
    _meter,
    _peel_simplicial,
    complement,
    induced,
    induced_cycles,
)


class ForbiddenKind(str, Enum):
    ODD_HOLE = "odd-hole"
    LONG_ANTIHOLE = "long-antihole"
    ODD_PRISM = "odd-prism"
    HANDCUFF = "handcuff"
    EYE_MASK = "eye-mask"


# detection order used by innocence_certificate (fixed for determinism)
CERTIFICATE_ORDER = (
    ForbiddenKind.ODD_HOLE,
    ForbiddenKind.LONG_ANTIHOLE,
    ForbiddenKind.ODD_PRISM,
    ForbiddenKind.EYE_MASK,
    ForbiddenKind.HANDCUFF,
)


@dataclass(frozen=True)
class ForbiddenWitness:
    kind: ForbiddenKind
    vertices: frozenset[int]
    anatomy: dict = field(compare=False)


@dataclass(frozen=True)
class Innocent:
    """Certificate that none of the five structures occurs (at this budget)."""

    budget: Budget


# -- individual detectors ------------------------------------------------------


def _find_odd_hole(g: Graph, meter: _Meter) -> Optional[ForbiddenWitness]:
    for cycle in induced_cycles(g, meter, min_len=5, parity=1):
        return ForbiddenWitness(
            ForbiddenKind.ODD_HOLE, frozenset(cycle), {"cycle": cycle}
        )
    return None


def _find_long_antihole(g: Graph, meter: _Meter) -> Optional[ForbiddenWitness]:
    # each vertex of a k-antihole has k - 3 >= 3 neighbours in it, so every
    # long antihole lies in the 3-core; the id map keeps the order, so the
    # cycles come in the same order as on the whole complement
    sub, ids = induced(g, _iter_bits(_three_core(g.bits)))
    for cycle in induced_cycles(complement(sub), meter, min_len=6):
        cycle = tuple(ids[v] for v in cycle)
        return ForbiddenWitness(
            ForbiddenKind.LONG_ANTIHOLE, frozenset(cycle), {"cycle": cycle}
        )
    return None


def _three_core(bits: tuple[int, ...]) -> int:
    """Mask of the 3-core: what is left after deleting, again and again, a
    vertex with fewer than three neighbours left."""
    alive = (1 << len(bits)) - 1
    todo = list(range(len(bits)))
    while todo:
        v = todo.pop()
        if alive >> v & 1 and (bits[v] & alive).bit_count() < 3:
            alive ^= 1 << v
            rest = bits[v] & alive
            while rest:
                low = rest & -rest
                todo.append(low.bit_length() - 1)
                rest ^= low
    return alive


def _triangles(g: Graph, meter: _Meter) -> Iterator[tuple[int, int, int]]:
    """Every triangle a < b < c, in lexicographic order, one tick each."""
    bits = g.bits
    for a in range(g.n):
        rest = bits[a] & _above(a)
        while rest:
            low = rest & -rest
            rest ^= low  # now the neighbours of a above b
            b = low.bit_length() - 1
            cs = rest & bits[b]
            while cs:
                low = cs & -cs
                cs ^= low
                meter.tick()
                yield a, b, low.bit_length() - 1


def _has_private_neighbors(g: Graph, tri: tuple[int, int, int]) -> bool:
    """Every corner has a neighbor adjacent to neither other corner."""
    bits = g.bits
    a, b, c = (bits[v] for v in tri)
    return bool(a & ~b & ~c and b & ~a & ~c and c & ~a & ~b)


def _corner_reach(bits: tuple[int, ...], t: tuple[int, int, int]) -> tuple[int, ...]:
    """Entry i: what corner i of triangle t reaches in G - N[other corners].

    Path i of an odd prism on t leaves corner i and then stays there, up to
    and including the other triangle's corner i: its interior misses the
    other corners' neighbours, and that far corner sees only ta[i] of t.
    """
    out = []
    for v in t:
        room = 0
        for u in t:
            if u != v:
                room |= bits[u] | 1 << u
        room = ~room
        out.append(_flood(bits, bits[v] & room, room))
    return tuple(out)


def _find_odd_prism(g: Graph, meter: _Meter) -> Optional[ForbiddenWitness]:
    bits = g.bits
    # path i leaves corner i through a private neighbor: its first interior
    # vertex, or the other triangle's corner i on a length-1 path
    tris = []
    for t in _triangles(g, meter):
        if _has_private_neighbors(g, t):
            reach = _corner_reach(bits, t)
            tris.append((t, _mask_of(t), reach, reach[0] | reach[1] | reach[2]))
    # tris is sorted by first corner; a tb with ta's first corner meets ta
    firsts = [t[0] for t, *_ in tris]
    for ta, amask, areach, afar in tris:
        for tb, bmask, breach, bfar in tris[bisect.bisect_right(firsts, ta[0]):]:
            meter.tick()
            if amask & bmask:
                continue
            # every corner ends a path that starts in the other triangle
            if bmask & ~afar or amask & ~bfar:
                continue
            # each corner of ta as a mask of its neighbours in tb
            cross = [bits[v] & bmask for v in ta]
            for p in itertools.permutations(range(3)):
                perm = (tb[p[0]], tb[p[1]], tb[p[2]])
                # cross edges between the triangles only along matched pairs
                if (
                    cross[0] & ~(1 << perm[0])
                    | cross[1] & ~(1 << perm[1])
                    | cross[2] & ~(1 << perm[2])
                ):
                    continue
                # path i runs inside the reach of both its ends
                if not all(
                    areach[i] >> perm[i] & 1 and breach[p[i]] >> ta[i] & 1
                    for i in range(3)
                ):
                    continue
                base = frozenset(ta) | frozenset(tb)
                witness = _grow_prism_paths(g, meter, ta, perm, base)
                if witness is not None:
                    return witness
    return None


def _grow_prism_paths(
    g: Graph,
    meter: _Meter,
    ta: tuple[int, int, int],
    tb: tuple[int, int, int],
    base: frozenset[int],
) -> Optional[ForbiddenWitness]:
    def grow(i: int, paths: list[tuple[int, ...]], used: frozenset[int]):
        if i == 3:
            verts = base | used
            w = ForbiddenWitness(
                ForbiddenKind.ODD_PRISM,
                verts,
                {"triangles": (ta, tb), "paths": tuple(paths)},
            )
            return w if verify_witness(g, w) else None
        quiet = (base - {ta[i], tb[i]}) | (used - {ta[i], tb[i]})
        for p in _anchored_paths(
            g, meter, ta[i], tb[i], blocked=base | used, quiet=quiet, parity=1
        ):
            res = grow(i + 1, paths + [p], used | frozenset(p))
            if res is not None:
                return res
        return None

    return grow(0, [], frozenset())


def _grow_cycle_through_edge(
    g: Graph,
    meter: _Meter,
    x: int,
    y: int,
    blocked: frozenset[int],
    quiet: frozenset[int],
) -> Iterator[tuple[int, ...]]:
    """Even holes containing the edge xy whose other vertices avoid blocked
    and have no neighbors in quiet.

    Yields the cycle as the vertex sequence from x to y; the closing edge is
    xy itself, so an odd path here means an even cycle.
    """
    return _anchored_paths(
        g,
        meter,
        x,
        y,
        blocked=blocked,
        quiet=quiet,
        parity=1,
        min_len=3,
        allow_end_chord=True,
    )


def _links(bits: tuple[int, ...], x: int, y: int, room: int) -> bool:
    """Some path inside room joins N(x) - N[y] to N(y) - N[x].

    An even hole through the edge xy with its other vertices in room has
    one: its interior, from x's neighbour to y's.
    """
    bx, by = bits[x], bits[y]
    room &= ~(1 << x | 1 << y)
    return bool(_flood(bits, bx & ~by & room, room) & by & ~bx)


def _find_eye_mask(g: Graph, meter: _Meter) -> Optional[ForbiddenWitness]:
    bits = g.bits
    cliques4 = (
        (a, b, c, d)
        for a, b, c in _triangles(g, meter)
        for d in _iter_bits(bits[a] & bits[b] & bits[c] & _above(c))
    )
    for quad in cliques4:
        for split in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
            meter.tick()
            x1, y1, x2, y2 = (quad[i] for i in split)
            # each cycle's interior misses the other cycle's edge and its
            # neighbours
            if not (
                _links(bits, x1, y1, ~(bits[x2] | bits[y2]))
                and _links(bits, x2, y2, ~(bits[x1] | bits[y1]))
            ):
                continue
            core = frozenset((x1, y1, x2, y2))
            for c1path in _grow_cycle_through_edge(
                g, meter, x1, y1, blocked=core, quiet=frozenset((x2, y2))
            ):
                c1 = frozenset(c1path)
                for c2path in _grow_cycle_through_edge(
                    g, meter, x2, y2, blocked=core | c1, quiet=c1
                ):
                    w = ForbiddenWitness(
                        ForbiddenKind.EYE_MASK,
                        c1 | frozenset(c2path),
                        {"cycles": (c1path, c2path)},
                    )
                    if verify_witness(g, w):
                        return w
    return None


def _find_handcuff(g: Graph, meter: _Meter) -> Optional[ForbiddenWitness]:
    bits = g.bits
    edges = [(x, y, (1 << x) | (1 << y)) for x, y in g.edges()]
    # each cycle of a handcuff is an even hole through xy whose other
    # vertices miss t and its neighbors; a side without one is dead; one
    # tick per (edge, apex) flooded
    @functools.cache
    def has_cuff(x: int, y: int, t: int) -> bool:
        meter.tick()
        if not _links(bits, x, y, ~(bits[t] | 1 << t)):
            return False
        near = frozenset((t,))
        cycles = _grow_cycle_through_edge(g, meter, x, y, near, near)
        return next(cycles, None) is not None

    for x1, y1, e1 in edges:
        near_xy = e1 | bits[x1] | bits[y1]
        for t1 in _iter_bits(bits[x1] & bits[y1]):
            if not has_cuff(x1, y1, t1):
                continue
            # the far side misses x1, y1, t1 and N(x1) | N(y1); its edge
            # x2y2 misses N(t1) too, and the link joins t2 to t1 with only
            # its first vertex in N(t1), so x2y2 lies in far
            t2_off = near_xy | (1 << t1)
            e2_off = t2_off | bits[t1]
            far = _flood(bits, bits[t1] & ~t2_off, ~e2_off)
            for x2, y2, e2 in edges:
                if e2 & e2_off or e2 & ~far:
                    continue
                for t2 in _iter_bits(bits[x2] & bits[y2]):
                    meter.tick()
                    if t2_off >> t2 & 1:
                        continue
                    if not has_cuff(x2, y2, t2):
                        continue
                    core = frozenset((x1, y1, x2, y2))
                    w = _grow_handcuff(g, meter, x1, y1, t1, x2, y2, t2, core)
                    if w is not None:
                        return w
    return None


def _grow_handcuff(
    g: Graph,
    meter: _Meter,
    x1: int,
    y1: int,
    t1: int,
    x2: int,
    y2: int,
    t2: int,
    core: frozenset[int],
) -> Optional[ForbiddenWitness]:
    for link in _anchored_paths(
        g, meter, t1, t2, blocked=core, quiet=core, parity=1
    ):
        linkset = frozenset(link)
        quiet1 = (linkset | frozenset((x2, y2))) - {x1, y1}
        for c1path in _grow_cycle_through_edge(
            g, meter, x1, y1, blocked=core | linkset, quiet=quiet1
        ):
            c1 = frozenset(c1path)
            quiet2 = (linkset | c1 | frozenset((x1, y1))) - {x2, y2}
            for c2path in _grow_cycle_through_edge(
                g, meter, x2, y2, blocked=core | linkset | c1, quiet=quiet2
            ):
                w = ForbiddenWitness(
                    ForbiddenKind.HANDCUFF,
                    c1 | frozenset(c2path) | linkset,
                    {
                        "cycles": (c1path, c2path),
                        "path": link,
                        "attach": ((x1, y1), (x2, y2)),
                    },
                )
                if verify_witness(g, w):
                    return w
    return None


_DETECTORS = {
    ForbiddenKind.ODD_HOLE: _find_odd_hole,
    ForbiddenKind.LONG_ANTIHOLE: _find_long_antihole,
    ForbiddenKind.ODD_PRISM: _find_odd_prism,
    ForbiddenKind.EYE_MASK: _find_eye_mask,
    ForbiddenKind.HANDCUFF: _find_handcuff,
}


def find_structure(
    g: Graph, kind: ForbiddenKind, budget: Budget | _Meter | None = None
) -> Optional[ForbiddenWitness]:
    """First witness of the requested kind, or None when none is induced in g."""
    return _DETECTORS[ForbiddenKind(kind)](g, _meter(budget))


def innocence_certificate(
    g: Graph, budget: Budget | _Meter | None = None
) -> Innocent | ForbiddenWitness:
    """Innocent, or the first witness in the fixed kind order; the five
    searches share one enumeration budget.

    The searches run after simplicial vertices are peeled, at no tick. In
    each of the five structures every vertex has two non-adjacent neighbours,
    so no simplicial vertex lies in an induced copy; by induction on the
    peeling order neither does any vertex peeled later, since it is
    simplicial in what the earlier ones leave. Isolated in place, the peeled
    vertices keep g's ids, and each search walks the same anchors in the
    same order less those that cannot close, so it returns the same witness.
    """
    meter = _meter(budget)
    core = _peel_simplicial(g)
    for kind in CERTIFICATE_ORDER:
        w = find_structure(core, kind, meter)
        if w is not None:
            return w
    return Innocent(meter.budget)


def is_innocent(g: Graph, budget: Budget | None = None) -> bool:
    return isinstance(innocence_certificate(g, budget), Innocent)


# -- verification --------------------------------------------------------------


def _cycle_edges(cycle: tuple[int, ...]) -> set[frozenset[int]]:
    return {
        frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) for i in range(len(cycle))
    }


def _path_edges(path: tuple[int, ...]) -> set[frozenset[int]]:
    return {frozenset((path[i], path[i + 1])) for i in range(len(path) - 1)}


def _induced_edges(g: Graph, verts: frozenset[int]) -> set[frozenset[int]]:
    bits = g.bits
    inside = _mask_of(verts)
    return {
        frozenset((u, v))
        for u in verts
        for v in _iter_bits(bits[u] & inside & _above(u))
    }


def verify_witness(g: Graph, w: ForbiddenWitness) -> bool:
    """Re-check the witness definition from scratch on g."""
    try:
        return _verify(g, w)
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def _verify(g: Graph, w: ForbiddenWitness) -> bool:
    verts = w.vertices
    if not verts <= g.vertex_set():
        return False
    actual = _induced_edges(g, verts)
    kind = ForbiddenKind(w.kind)

    if kind == ForbiddenKind.ODD_HOLE:
        cycle = tuple(w.anatomy["cycle"])
        k = len(cycle)
        if k < 5 or k % 2 == 0 or frozenset(cycle) != verts or len(set(cycle)) != k:
            return False
        return actual == _cycle_edges(cycle)

    if kind == ForbiddenKind.LONG_ANTIHOLE:
        cycle = tuple(w.anatomy["cycle"])
        k = len(cycle)
        if k < 6 or frozenset(cycle) != verts or len(set(cycle)) != k:
            return False
        allpairs = {
            frozenset(p) for p in itertools.combinations(sorted(verts), 2)
        }
        return actual == allpairs - _cycle_edges(cycle)

    if kind == ForbiddenKind.ODD_PRISM:
        ta, tb = (tuple(t) for t in w.anatomy["triangles"])
        paths = tuple(tuple(p) for p in w.anatomy["paths"])
        if len(paths) != 3 or len(set(ta)) != 3 or len(set(tb)) != 3:
            return False
        if set(ta) & set(tb):
            return False
        expected: set[frozenset[int]] = set()
        expected |= {frozenset(e) for e in itertools.combinations(ta, 2)}
        expected |= {frozenset(e) for e in itertools.combinations(tb, 2)}
        allv = set(ta) | set(tb)
        for i, p in enumerate(paths):
            if p[0] != ta[i] or p[-1] != tb[i]:
                return False
            if (len(p) - 1) % 2 == 0 or len(p) - 1 < 1:
                return False
            interior = set(p[1:-1])
            if interior & allv:
                return False
            allv |= interior
            expected |= _path_edges(p)
        if allv != set(verts):
            return False
        return actual == expected

    if kind == ForbiddenKind.EYE_MASK:
        c1, c2 = (tuple(c) for c in w.anatomy["cycles"])
        for c in (c1, c2):
            if len(c) < 4 or len(c) % 2 == 1 or len(set(c)) != len(c):
                return False
        if set(c1) & set(c2):
            return False
        if set(c1) | set(c2) != set(verts):
            return False
        x1, y1 = c1[0], c1[-1]
        x2, y2 = c2[0], c2[-1]
        expected = _cycle_edges(c1) | _cycle_edges(c2)
        expected |= {
            frozenset((a, b)) for a in (x1, y1) for b in (x2, y2)
        }
        return actual == expected

    if kind == ForbiddenKind.HANDCUFF:
        c1, c2 = (tuple(c) for c in w.anatomy["cycles"])
        link = tuple(w.anatomy["path"])
        (x1, y1), (x2, y2) = (tuple(e) for e in w.anatomy["attach"])
        for c in (c1, c2):
            if len(c) < 4 or len(c) % 2 == 1 or len(set(c)) != len(c):
                return False
        if (len(link) - 1) % 2 == 0 or len(link) - 1 < 1:
            return False
        s1, s2, sl = set(c1), set(c2), set(link)
        if s1 & s2 or s1 & sl or s2 & sl:
            return False
        if s1 | s2 | sl != set(verts):
            return False
        if frozenset((x1, y1)) not in _cycle_edges(c1):
            return False
        if frozenset((x2, y2)) not in _cycle_edges(c2):
            return False
        expected = _cycle_edges(c1) | _cycle_edges(c2) | _path_edges(link)
        expected |= {
            frozenset((link[0], x1)),
            frozenset((link[0], y1)),
            frozenset((link[-1], x2)),
            frozenset((link[-1], y2)),
        }
        return actual == expected

    return False
