"""Local-structure recognizers: claws, simplicial vertices, strong stable
pairs, twins, clowns, consistent sets and safe vertices.

Path-parity checks (even pairs, safe vertices) quantify over chordless
paths, the definition used everywhere else in this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import (
    Budget,
    Graph,
    GraphError,
    _Meter,
    _above,
    _anchored_paths,
    _flood,
    _iter_bits,
    _mask_in,
    _mask_of,
    _meter,
    _peel_simplicial,
    induced_cycles,
)


@dataclass(frozen=True)
class ClawWitness:
    """A center with three pairwise non-adjacent neighbors."""

    center: int
    leaves: tuple[int, int, int]

    def vertices(self) -> frozenset[int]:
        return frozenset((self.center,) + self.leaves)


@dataclass(frozen=True)
class Clown:
    """An even hole plus a hat adjacent to exactly two consecutive hole vertices.

    ``cycle`` is stored in cyclic order with the hat's two neighbors first.
    """

    hat: int
    cycle: tuple[int, ...]

    def vertices(self) -> frozenset[int]:
        return frozenset((self.hat,) + self.cycle)


def find_claw(g: Graph) -> Optional[ClawWitness]:
    """First claw in lowest-id order, or None when g is claw-free."""
    bits = g.bits
    for center, rest_x in enumerate(bits):
        # once x is taken, rest_x is N(center) above x; once y is taken,
        # rest_y is what of N(center) - N(x) lies above y
        while rest_x:
            bx = rest_x & -rest_x
            rest_x ^= bx
            rest_y = rest_x & ~bits[bx.bit_length() - 1]
            while rest_y:
                by = rest_y & -rest_y
                rest_y ^= by
                far = rest_y & ~bits[by.bit_length() - 1]
                if far:
                    x, y, t = (b.bit_length() - 1 for b in (bx, by, far & -far))
                    return ClawWitness(center, (x, y, t))
    return None


def simplicial_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if is_simplicial_vertex(g, v))


def is_simplicial_vertex(g: Graph, v: int) -> bool:
    """N(v) is a clique: each u in it sees the rest of N(v); GraphError for v
    out of range."""
    bits = g.bits
    near = bits[g._vertex(v)]
    return all(near & ~bits[u] == 1 << u for u in _iter_bits(near))


def find_strong_pair(g: Graph, z: Iterable[int] = ()) -> Optional[tuple[int, int]]:
    """Lex-first stable pair u < v containing z (at most two vertices) that
    is a strong stable set, or None.

    A stable pair {u, v} is strong exactly when N[u] | N[v] = V and
    N(u) - N(v) is anticomplete to N(v) - N(u). If: a maximal clique missing
    both holds some x not in N[u] and some y not in N[v]; domination puts x
    in N(v) - N(u) and y in N(u) - N(v), so xy would be an edge between
    them. Only if: a vertex seeing neither, or such an edge, lies in a
    maximal clique that misses both. The scan stops at the first hit.
    """
    n, bits = g.n, g.bits
    zm = _mask_in(z, n)
    if zm is None:
        raise GraphError("prescribed vertices out of range")
    if zm.bit_count() > 2:
        raise GraphError("a pair cannot hold more than two prescribed vertices")
    full = (1 << n) - 1
    if zm.bit_count() == 2:
        u, v = _iter_bits(zm)
        pairs = [] if bits[u] >> v & 1 else [(u, v)]
    elif zm:
        w = zm.bit_length() - 1
        pairs = ((min(w, x), max(w, x)) for x in _iter_bits(full ^ bits[w] ^ zm))
    else:
        pairs = ((u, v) for u in range(n) for v in _iter_bits(full & ~bits[u] & _above(u)))
    return next((p for p in pairs if _is_strong_pair(bits, full, *p)), None)


def _is_strong_pair(bits: tuple[int, ...], full: int, u: int, v: int) -> bool:
    """The lemma of :func:`find_strong_pair` for a stable pair {u, v}."""
    bu, bv = bits[u], bits[v]
    if bu | bv | 1 << u | 1 << v != full:
        return False
    only_u, only_v = bu & ~bv, bv & ~bu
    while only_v:
        low = only_v & -only_v
        if bits[low.bit_length() - 1] & only_u:
            return False
        only_v ^= low
    return True


def find_twins(g: Graph) -> Optional[tuple[int, int]]:
    """Lex-first adjacent pair with the same closed neighborhood."""
    bits = g.bits
    for u in range(g.n):
        for v in _iter_bits(bits[u] & _above(u)):
            if bits[v] | 1 << v == bits[u] | 1 << u:
                return (u, v)
    return None


# an even hole H of the clown kernel: (H, its mask, N[H], the mask of its hats)
_Hole = tuple[tuple[int, ...], int, int, int]


def _clown_holes(g: Graph, meter: _Meter) -> Iterator[_Hole]:
    """The clown kernel, read by :func:`find_clowns`, :func:`is_safe_vertex`
    and ``solver.validate_prescribed``: the even holes of g with its
    simplicial vertices peeled, ids kept (the first vertex of a hole that
    the peel reached would have two non-adjacent neighbours left). Hats,
    which may be simplicial, are read from g: three masks collect the
    vertices seeing one, two, and three or more hole vertices, and a hat is
    seen exactly twice, by consecutive ones (a hole vertex's two are not).
    """
    bits = g.bits
    for hole in induced_cycles(_peel_simplicial(g), meter, min_len=4, parity=0):
        once = twice = more = hats = 0
        prev = bits[hole[-1]]
        for x in hole:
            near = bits[x]
            more |= twice & near
            twice |= once & near
            once |= near
            hats |= prev & near
            prev = near
        hmask = _mask_of(hole)
        yield hole, hmask, once | hmask, hats & twice & ~more


def _clown(bits: tuple[int, ...], hole: tuple[int, ...], hmask: int, hat: int) -> Clown:
    """The clown of ``hole`` and its hat, the cycle walked from the smaller
    of the hat's two neighbours through the other."""
    i, j = sorted(hole.index(x) for x in _iter_bits(bits[hat] & hmask))
    start = i if j - i == 1 else j
    cycle = hole[start:] + hole[:start]
    if cycle[0] > cycle[1]:
        cycle = (cycle[1], cycle[0]) + cycle[:1:-1]
    return Clown(hat, cycle)


def find_clowns(g: Graph, budget: Budget | _Meter | None = None) -> Iterator[Clown]:
    """All clowns: even holes plus a hat seeing exactly two consecutive
    vertices, hole by hole (in :func:`induced_cycles` order on g with its
    simplicial vertices peeled) and hats ascending."""
    bits = g.bits
    for hole, hmask, _, hats in _clown_holes(g, _meter(budget)):
        for hat in _iter_bits(hats):
            yield _clown(bits, hole, hmask, hat)


def _odd_pair_witness(
    g: Graph, u: int, v: int, meter: _Meter
) -> Optional[tuple[int, ...]]:
    """An odd path between u and v, or None when {u, v} is an even pair."""
    if g.has_edge(u, v):
        return (u, v)
    return next(_anchored_paths(g, meter, u, v, parity=1), None)


def is_consistent_set(
    g: Graph,
    z: Iterable[int],
    budget: Budget | _Meter | None = None,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether every pair of z is an even pair; on failure, a violating path."""
    meter = _meter(budget)
    for u, v in itertools.combinations(sorted(frozenset(z)), 2):
        witness = _odd_pair_witness(g, u, v, meter)
        if witness is not None:
            return False, witness
    return True, None


def is_safe_vertex(
    g: Graph,
    v: int,
    budget: Budget | _Meter | None = None,
) -> tuple[bool, Optional[tuple[Clown, tuple[int, ...]]]]:
    """Simplicial, and every qualifying path to a clown hat is odd.

    A path P to hat h qualifies when no vertex of P other than h lies in or
    has a neighbor in the clown's hole. The zero-length path counts as even,
    so a hat is never safe. Non-simplicial vertices fail with witness None;
    an id outside 0 .. n-1 raises GraphError. The paths are enumerated on g
    itself, after the exact prunes of :func:`_unsafe_witness`.
    """
    if not is_simplicial_vertex(g, v):
        return False, None
    meter = _meter(budget)
    witness = _unsafe_witness(g, v, _clown_holes(g, meter), meter)
    return witness is None, witness


def _unsafe_witness(
    g: Graph, v: int, holes: Iterable[_Hole], meter: _Meter
) -> Optional[tuple[Clown, tuple[int, ...]]]:
    """The first clown of ``holes``, hats ascending, with an even qualifying
    path from v, and the first such path; None when v is safe (v simplicial).

    Such a path runs, up to the hat, inside C, the component of v in
    g - N[H]. So a hat v is its own even path; H is skipped when v is in
    N[H] or C = {v} (the edge to the hat is odd); a hat with no neighbour in
    C is skipped; and each (C, hat) is searched once: its paths depend on
    nothing else.
    """
    bits = g.bits
    vbit = 1 << v
    room = (1 << g.n) - 1
    searched = set()  # (C, h) pairs with no even qualifying path
    for hole, hmask, closed, hats in holes:
        if hats & vbit:
            return _clown(bits, hole, hmask, v), (v,)
        if closed & vbit or not hats:
            continue
        comp = _flood(bits, vbit, room & ~closed)
        if comp == vbit:
            continue
        while hats:
            low = hats & -hats
            hats ^= low
            h = low.bit_length() - 1
            if not bits[h] & comp or (comp, h) in searched:
                continue
            for p in _anchored_paths(g, meter, v, h, hole, hole, parity=0):
                return _clown(bits, hole, hmask, h), p
            searched.add((comp, h))
    return None
