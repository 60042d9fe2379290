"""Decomposition finders and verifiers: clique cutsets, 0-joins, 1-joins,
W-joins, and maximal square-connected growth of a clique pair into a proper
coherent W-join.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Budget,
    Graph,
    GraphError,
    _Meter,
    _flood,
    _iter_bits,
    _mask_components,
    _mask_of,
    _meter,
    components,
    components_within,
    induced,
    squares,
)
from .recognizers import simplicial_vertices


@dataclass(frozen=True)
class CliqueCutset:
    k: frozenset[int]
    side_a: frozenset[int]
    side_b: frozenset[int]

    @property
    def internal(self) -> bool:
        return len(self.side_a) >= 2 and len(self.side_b) >= 2


@dataclass(frozen=True)
class OneJoin:
    v1: frozenset[int]
    v2: frozenset[int]
    a1: frozenset[int]
    a2: frozenset[int]
    rich: bool


@dataclass(frozen=True)
class WJoin:
    """A proper coherent W-join: every vertex of each clique is mixed on the
    other, and the vertices complete to both form a clique."""

    a: frozenset[int]
    b: frozenset[int]


class HypothesisViolationError(RuntimeError):
    """Square-connected growth met a vertex it cannot absorb.

    Signals that the host graph does not satisfy the growth hypothesis
    (no outside vertex mixed on a square's side pair); carries the
    offending vertex and the witnessing square.
    """

    def __init__(self, vertex: int, square: tuple[int, ...]):
        super().__init__(f"vertex {vertex} is mixed but not absorbable (square {square})")
        self.vertex = vertex
        self.square = square


# -- minimal separators and clique cutsets -------------------------------------


def minimal_separators(
    g: Graph, budget: Budget | _Meter | None = None
) -> list[frozenset[int]]:
    """All minimal vertex separators, by close-separator generation + expansion."""
    meter = _meter(budget)
    bits = g.bits
    full = (1 << g.n) - 1
    seen: set[frozenset[int]] = set()
    queue: list[frozenset[int]] = []

    def consider(room: int) -> None:  # queue N(C) for each component C of room
        for comp in _mask_components(bits, room):
            s = g.neighborhood(_iter_bits(comp))
            if s and s not in seen:
                seen.add(s)
                queue.append(s)

    for v in range(g.n):
        consider(full & ~(bits[v] | 1 << v))
    i = 0
    while i < len(queue):
        s = queue[i]
        i += 1
        meter.tick()
        for x in sorted(s):
            consider(full & ~(_mask_of(s) | bits[x]))
    # keep only true separators: at least two components remain without them
    return sorted(
        (s for s in seen if len(components_within(g, g.vertex_set() - s)) >= 2),
        key=lambda s: (len(s), sorted(s)),
    )


def _split_components(comps: list[frozenset[int]]) -> tuple[frozenset[int], frozenset[int]]:
    """Group components into two anticomplete sides, internal when possible."""
    comps = sorted(comps, key=lambda c: (-len(c), sorted(c)))
    total = sum(len(c) for c in comps)
    for i, c in enumerate(comps):
        if len(c) >= 2 and total - len(c) >= 2:
            rest = frozenset().union(*(d for j, d in enumerate(comps) if j != i))
            return c, rest
    if len(comps) >= 4 and total >= 4:
        a = comps[0] | comps[1]
        rest = frozenset().union(*comps[2:])
        if len(a) >= 2 and len(rest) >= 2:
            return a, rest
    rest = frozenset().union(*comps[1:]) if len(comps) > 1 else frozenset()
    return comps[0], rest


def find_clique_cutset(
    g: Graph, budget: Budget | _Meter | None = None
) -> Optional[CliqueCutset]:
    """Some clique cutset if one exists, preferring internal ones.

    Searches clique minimal separators (every clique cutset contains one);
    a disconnected graph yields the empty cutset.
    """
    if g.n == 0:
        return None
    comps = components(g)
    if len(comps) >= 2:
        side_a, side_b = _split_components(comps)
        return CliqueCutset(frozenset(), side_a, side_b)
    best: Optional[CliqueCutset] = None
    for s in minimal_separators(g, budget):
        if not g.is_clique(s):
            continue
        side_a, side_b = _split_components(components_within(g, g.vertex_set() - s))
        cut = CliqueCutset(s, side_a, side_b)
        if cut.internal:
            return cut
        if best is None:
            best = cut
    return best


def find_zero_join(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A bipartition into anticomplete halves iff g is disconnected."""
    comps = components(g)
    if len(comps) < 2:
        return None
    rest = frozenset().union(*comps[1:])
    return comps[0], rest


# -- 1-joins --------------------------------------------------------------------


def _is_clique_mask(bits: tuple[int, ...], m: int) -> bool:
    return all(m & ~bits[v] == 1 << v for v in _iter_bits(m))


def find_one_join(g: Graph) -> Optional[OneJoin]:
    """A 1-join if one exists; rich ones are preferred.

    For an interface edge a1a2 every far vertex misses a1 or a2, so the
    whole interface is K = N[a1] & N[a2], and it must be a clique. Each
    component of G - K lies on one side together with the K vertices that
    see it; these glued blocks are the components of G with the edges inside
    K removed. The blocks of a1 and a2 fix the two sides, so the edge is
    skipped as soon as a flood from a1 reaches a2. Moving a block to side 2
    never hurts side 2, and side 1 keeps a far vertex and more than two
    vertices with at most two blocks besides a1's; so giving side 1 at most
    two further blocks and side 2 the rest misses no (rich) 1-join.
    """
    bits = g.bits
    full = (1 << g.n) - 1
    fallback: Optional[OneJoin] = None
    for a1, a2 in sorted(g.edges()):
        km = (bits[a1] | 1 << a1) & (bits[a2] | 1 << a2)
        if not _is_clique_mask(bits, km):
            continue
        cut = [b & ~km if km >> v & 1 else b for v, b in enumerate(bits)]
        m1 = _flood(cut, 1 << a1, full)
        if m1 >> a2 & 1:
            continue
        m2 = _flood(cut, 1 << a2, full & ~m1)
        b1, k = frozenset(_iter_bits(m1)), frozenset(_iter_bits(km))
        rest = [
            frozenset(_iter_bits(c)) for c in _mask_components(cut, full & ~(m1 | m2))
        ]
        for size in range(3):
            for extra in itertools.combinations(rest, size):
                v1 = b1.union(*extra)
                v2 = g.vertex_set() - v1
                rich = len(v1) > 2 and len(v2) > 2
                join = OneJoin(v1, v2, v1 & k, v2 & k, rich)
                if not verify_one_join(g, join):
                    continue
                if rich:
                    return join
                fallback = fallback or join
    return fallback


def verify_one_join(g: Graph, j: OneJoin) -> bool:
    if j.v1 | j.v2 != g.vertex_set() or (j.v1 & j.v2):
        return False
    if not (j.a1 <= j.v1 and j.a2 <= j.v2):
        return False
    b1, b2 = j.v1 - j.a1, j.v2 - j.a2
    if not (j.a1 and j.a2 and b1 and b2):
        return False
    if not g.is_clique(j.a1 | j.a2):
        return False
    if not g.is_anticomplete_between(b1, j.v2):
        return False
    if not g.is_anticomplete_between(b2, j.v1):
        return False
    if j.rich != (len(j.v1) > 2 and len(j.v2) > 2):
        return False
    return True


# -- W-joins ---------------------------------------------------------------------
#
# The W-join code runs on int masks over g.bits; only the public entry
# points convert to and from frozensets.


def _partition_masks(
    bits: tuple[int, ...], am: int, bm: int
) -> Optional[tuple[int, int, int, int]]:
    """(C, D, E, F) as masks: the vertices outside A and B complete to A
    only, to B only, to both, to neither; None when one is mixed on A or B."""
    c = d = e = f = 0
    for v in _iter_bits(((1 << len(bits)) - 1) & ~(am | bm)):
        na, nb = bits[v] & am, bits[v] & bm
        to_a, to_b = na == am, nb == bm  # an empty side counts as both
        if na and not to_a or nb and not to_b:
            return None
        if to_a and not nb:
            c |= 1 << v
        elif to_b and not na:
            d |= 1 << v
        elif to_a and to_b:
            e |= 1 << v
        else:
            f |= 1 << v
    return c, d, e, f


def _w_join_masks(
    bits: tuple[int, ...], am: int, bm: int
) -> Optional[tuple[int, int, int, int]]:
    """:func:`_partition_masks` of A and B when they form a proper coherent
    W-join, else None. Every vertex of A mixed on B (and back) already rules
    out A complete or anticomplete to B."""
    if not (am and bm) or am & bm:
        return None
    if not (_is_clique_mask(bits, am) and _is_clique_mask(bits, bm)):
        return None
    for x, y in ((am, bm), (bm, am)):
        for v in _iter_bits(x):
            h = bits[v] & y
            if not h or h == y:
                return None
    parts = _partition_masks(bits, am, bm)
    if parts is None or not _is_clique_mask(bits, parts[2]):
        return None
    return parts


def _sets(masks: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(_iter_bits(m)) for m in masks)


def w_join_partition(
    g: Graph, a: frozenset[int], b: frozenset[int]
) -> Optional[tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]]:
    """(C, D, E, F) for a homogeneous pair, or None when some vertex is mixed."""
    parts = _partition_masks(g.bits, _mask_of(a), _mask_of(b))
    return None if parts is None else _sets(parts)


def _w_join_parts(
    g: Graph, a: frozenset[int], b: frozenset[int]
) -> Optional[tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]]:
    """(C, D, E, F) of :func:`w_join_partition` when the cliques A and B form
    a proper coherent W-join, else None."""
    parts = _w_join_masks(g.bits, _mask_of(a), _mask_of(b))
    return None if parts is None else _sets(parts)


def verify_w_join(g: Graph, w: WJoin) -> bool:
    return _w_join_masks(g.bits, _mask_of(w.a), _mask_of(w.b)) is not None


def _square_sides(
    g: Graph, square: Iterable[int], a_side: Iterable[int], b_side: Iterable[int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    a1, a2 = sorted(a_side)
    b1, b2 = sorted(b_side)
    if frozenset(square) != frozenset((a1, a2, b1, b2)):
        raise GraphError("side pairs must partition the square")
    if not (g.has_edge(a1, a2) and g.has_edge(b1, b2)):
        raise GraphError("side pairs must be edges")
    cross = sum(
        1 for x, y in itertools.product((a1, a2), (b1, b2)) if g.has_edge(x, y)
    )
    matching = (
        g.has_edge(a1, b1) and g.has_edge(a2, b2) and not g.has_edge(a1, b2) and not g.has_edge(a2, b1)
    ) or (
        g.has_edge(a1, b2) and g.has_edge(a2, b1) and not g.has_edge(a1, b1) and not g.has_edge(a2, b2)
    )
    if cross != 2 or not matching:
        raise GraphError("the four vertices do not form a square split by the sides")
    return (a1, a2), (b1, b2)


def _mixed_square(
    bits: tuple[int, ...], v: int, sm: int, tm: int
) -> Optional[tuple[int, int, int, int]]:
    """The first square (s1, s2, t1, t2) in (S, T) with v adjacent to s1,
    not to s2, in sorted order; t1 and t2 are told apart by s1 and s2, so
    they always differ."""
    nv = bits[v]
    for s1 in _iter_bits(sm & nv):
        for s2 in _iter_bits(sm & ~nv):
            t1 = tm & bits[s1] & ~bits[s2]
            t2 = tm & bits[s2] & ~bits[s1]
            if t1 and t2:
                return s1, s2, (t1 & -t1).bit_length() - 1, (t2 & -t2).bit_length() - 1
    return None


def grow_square_connected_pair(
    g: Graph,
    square: Iterable[int],
    a_side: Iterable[int],
    b_side: Iterable[int],
    budget: Budget | _Meter | None = None,
) -> WJoin:
    """Grow the seed square into a maximal square-connected pair of cliques.

    While some outside vertex is mixed on a side through a square, absorb it
    into the other side; when nothing is mixed but two common-complete
    outside vertices are non-adjacent, absorb that pair too. The result is a
    proper coherent W-join whenever the host satisfies the growth hypothesis;
    otherwise a :class:`HypothesisViolationError` pinpoints the obstruction.

    The outside vertices are scanned lowest first, a side S before the
    other side T, and the scan restarts after each absorption. Each side
    keeps the union (``near``) and intersection (``full``) of its members'
    neighbourhoods, so the vertices mixed on it are ``near & ~full``. One
    tick per absorbed vertex.
    """
    (a1, a2), (b1, b2) = _square_sides(g, square, a_side, b_side)
    tick = _meter(budget).tick
    bits = g.bits
    sm, tm = 1 << a1 | 1 << a2, 1 << b1 | 1 << b2
    s_near, s_full = bits[a1] | bits[a2], bits[a1] & bits[a2]
    t_near, t_full = bits[b1] | bits[b2], bits[b1] & bits[b2]
    outside = ((1 << g.n) - 1) & ~(sm | tm)
    while True:
        mixed_s = outside & s_near & ~s_full
        mixed = mixed_s | outside & t_near & ~t_full
        if mixed:
            low = mixed & -mixed
            v = low.bit_length() - 1
            on_s = low & mixed_s
            here, there, there_full = (sm, tm, t_full) if on_s else (tm, sm, s_full)
            sq = _mixed_square(bits, v, here, there)
            if sq is None:
                raise HypothesisViolationError(v, tuple(_iter_bits(sm | tm))[:4])
            if not low & there_full:
                raise HypothesisViolationError(v, sq)
            tick()
            nv = bits[v]
            if on_s:
                tm, t_near, t_full = tm | low, t_near | nv, t_full & nv
            else:
                sm, s_near, s_full = sm | low, s_near | nv, s_full & nv
            outside ^= low
            continue
        e = outside & s_full & t_full
        for e1 in _iter_bits(e):
            apart = e & ~bits[e1] & ~((2 << e1) - 1)
            if apart:
                e2 = (apart & -apart).bit_length() - 1
                tick(2)
                sm, s_near, s_full = sm | 1 << e1, s_near | bits[e1], s_full & bits[e1]
                tm, t_near, t_full = tm | 1 << e2, t_near | bits[e2], t_full & bits[e2]
                outside &= ~(1 << e1 | 1 << e2)
                break
        else:
            break
    if _w_join_masks(bits, sm, tm) is None:
        raise HypothesisViolationError(next(_iter_bits(sm | tm)), (a1, a2, b1, b2))
    return WJoin(frozenset(_iter_bits(sm)), frozenset(_iter_bits(tm)))


def find_w_join(g: Graph, budget: Budget | _Meter | None = None) -> Optional[WJoin]:
    """The first W-join grown from a square, each square split into sides
    both ways; seeds that violate the growth hypothesis are skipped."""
    meter = _meter(budget)
    for cyc in squares(g, meter):
        c0, c1, c2, c3 = cyc
        for a_side, b_side in (((c0, c1), (c2, c3)), ((c1, c2), (c3, c0))):
            try:
                return grow_square_connected_pair(g, cyc, a_side, b_side, meter)
            except HypothesisViolationError:
                continue
    return None


# -- lifted internal clique cutsets ----------------------------------------------


def internal_clique_cutset_from_deletion(
    g: Graph, budget: Budget | _Meter | None = None
) -> Optional[CliqueCutset]:
    """Delete all simplicial vertices; lift any clique cutset of the rest.

    Each simplicial vertex is assigned to the side containing its neighbors
    (its neighborhood is a clique, so it cannot straddle both). The lifted
    cutset is guaranteed internal only when g has no twins; with twins the
    lift still returns a valid cutset of g when one exists.
    """
    simp = simplicial_vertices(g)
    rest, mapping = induced(g, g.vertex_set() - simp)
    cut = find_clique_cutset(rest, budget)
    if cut is None:
        return None
    k = frozenset(mapping[v] for v in cut.k)
    side_a = set(mapping[v] for v in cut.side_a)
    side_b = set(mapping[v] for v in cut.side_b)
    for v in sorted(simp):
        if g.neighborhood({v}) & side_a:
            side_a.add(v)
        else:
            side_b.add(v)
    return CliqueCutset(k, frozenset(side_a), frozenset(side_b))
