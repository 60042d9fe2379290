"""Local-structure recognizers: claws, simplicial objects, twins, cobipartite
and linear-interval structure, clowns, consistent sets, safe vertices, and
peculiar structure.

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
    _mask_components,
    _mask_of,
    _meter,
    induced_cycles,
    two_coloring,
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


@dataclass(frozen=True)
class PeculiarParts:
    """The nine parts of a peculiar graph.

    The cobipartite pairs are (a1, b2), (a2, b3), (a3, b1); each k_i may be
    empty (the definition only says "take three cliques", and the empty clique
    satisfies every condition placed on the k_i, so both readings agree on
    verification; we accept empty).
    """

    a1: frozenset[int]
    a2: frozenset[int]
    a3: frozenset[int]
    b1: frozenset[int]
    b2: frozenset[int]
    b3: frozenset[int]
    k1: frozenset[int]
    k2: frozenset[int]
    k3: frozenset[int]

    def groups(self) -> tuple[frozenset[int], ...]:
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.b3,
                self.k1, self.k2, self.k3)


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
    """N(v) is a clique: each u in it sees the rest of N(v)."""
    bits = g.bits
    near = bits[v]
    return all(near & ~bits[u] == 1 << u for u in _iter_bits(near))


def is_cosimplicial_nonedge(g: Graph, u: int, v: int) -> bool:
    if u == v or g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not a non-edge")
    return _cosimplicial(g.bits, u, v)


def _cosimplicial(bits: tuple[int, ...], u: int, v: int) -> bool:
    """Non-edge uv is a simplicial edge of the complement: no edge joins two
    distinct vertices of V - N[u] - v and V - N[v] - u."""
    rest = ((1 << len(bits)) - 1) ^ (1 << u) ^ (1 << v)
    return not any(bits[x] & rest & ~bits[v] for x in _iter_bits(rest & ~bits[u]))


def find_cosimplicial_nonedge(
    g: Graph, must_contain: Iterable[int] | None = None
) -> Optional[tuple[int, int]]:
    """Lex-first non-adjacent pair that is a simplicial edge of the complement.

    ``must_contain`` (at most two vertices) restricts the search to pairs
    containing those vertices.
    """
    need = tuple(sorted(frozenset(must_contain or ())))
    if len(need) > 2:
        raise GraphError("must_contain has more than two vertices")
    bits = g.bits
    co = [((1 << g.n) - 1) ^ b ^ (1 << w) for w, b in enumerate(bits)]  # complement masks
    if len(need) == 2:
        u, v = need
        return (u, v) if co[u] >> v & 1 and _cosimplicial(bits, u, v) else None
    if len(need) == 1:
        (w,) = need
        pairs = ((min(w, x), max(w, x)) for x in _iter_bits(co[w]))
    else:
        pairs = ((u, v) for u in range(g.n) for v in _iter_bits(co[u] >> u << u))
    return next(((u, v) for u, v in pairs if _cosimplicial(bits, u, v)), None)


def find_twins(g: Graph) -> Optional[tuple[int, int]]:
    """Lex-first adjacent pair with the same closed neighborhood."""
    bits = g.bits
    for u in range(g.n):
        for v in _iter_bits(bits[u] & _above(u)):
            if bits[v] | 1 << v == bits[u] | 1 << u:
                return (u, v)
    return None


def cobipartite_partition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Two cliques (a, b) covering all vertices (a 2-coloring of the complement)."""
    full = (1 << g.n) - 1
    a = two_coloring([full ^ b ^ (1 << v) for v, b in enumerate(g.bits)])
    if a is None:
        return None
    return a, frozenset(range(g.n)) - a


def linear_interval_order(g: Graph) -> Optional[tuple[int, ...]]:
    """A numbering where every edge's index window is a clique, if one exists.

    Such a numbering is a proper interval ordering, so Corneil's 3-sweep
    LexBFS finds one: LBFS with ties to the smallest id, then LBFS+ twice,
    each tie going to the vertex latest in the previous sweep. The last
    sweep is returned exactly when ``check_linear_interval_order`` accepts
    it, which decides the answer.
    """
    order = _lbfs(g, range(g.n))
    for _ in range(2):
        order = _lbfs(g, order[::-1])
    if not check_linear_interval_order(g, order):
        return None
    return tuple(order)


def _lbfs(g: Graph, prefer: Iterable[int]) -> list[int]:
    """Lexicographic BFS; among equal labels the vertex earliest in ``prefer``
    goes first.

    Partition refinement: classes of equal label sit in a linked list, best
    label first, each class in ``prefer`` order. Visiting v moves its
    unvisited neighbors of every class into a new class just before it;
    a moved vertex stays behind in its old class list and is skipped there.
    """
    prefer = list(prefer)
    rank = {v: i for i, v in enumerate(prefer)}
    members = [prefer]  # per class id; stale entries are skipped
    head = [0]  # per class id: first entry not yet skipped
    after = [-1]  # per class id: the next class, -1 at the end
    before = [-1]
    where = [0] * g.n  # class id of each unvisited vertex, -1 once visited
    first = 0
    order = []
    while len(order) < g.n:
        c = first
        while True:
            lst, h = members[c], head[c]
            while h < len(lst) and where[lst[h]] != c:
                h += 1
            head[c] = h
            if h < len(lst):
                break
            c = first = after[c]
            before[c] = -1
        v = lst[h]
        where[v] = -1
        order.append(v)
        split: dict[int, int] = {}
        for w in sorted(_iter_bits(g.bits[v]), key=rank.__getitem__):
            old = where[w]
            if old < 0:
                continue
            new = split.get(old)
            if new is None:
                new = split[old] = len(members)
                members.append([])
                head.append(0)
                after.append(old)
                before.append(before[old])
                if before[old] < 0:
                    first = new
                else:
                    after[before[old]] = new
                before[old] = new
            members[new].append(w)
            where[w] = new
    return order


def check_linear_interval_order(g: Graph, order: Iterable[int]) -> bool:
    """Direct definition check of a candidate numbering: every edge's index
    window is a clique.

    Checked as the equivalent umbrella property in O(n + m): each vertex's
    later neighbors are exactly the next positions and its earlier
    neighbors exactly the previous ones.
    """
    order = tuple(order)
    if sorted(order) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [pos[w] for w in _iter_bits(g.bits[v]) if pos[w] > i]
        earlier = [pos[w] for w in _iter_bits(g.bits[v]) if pos[w] < i]
        if later and max(later) != i + len(later):
            return False
        if earlier and min(earlier) != i - len(earlier):
            return False
    return True


def find_clowns(g: Graph, budget: Budget | _Meter | None = None) -> Iterator[Clown]:
    """All clowns: even holes plus a hat seeing exactly two consecutive vertices."""
    for hole in induced_cycles(g, budget, min_len=4, parity=0):
        k = len(hole)
        members = _mask_of(hole)
        for hat in _iter_bits(((1 << g.n) - 1) & ~members):
            hits = g.bits[hat] & members
            if hits.bit_count() != 2:
                continue
            idx = sorted(hole.index(x) for x in _iter_bits(hits))
            if idx[1] - idx[0] == 1 or (idx[0] == 0 and idx[1] == k - 1):
                if idx[1] - idx[0] == 1:
                    i = idx[0]
                else:
                    i = k - 1
                rotated = hole[i:] + hole[:i]
                if rotated[0] > rotated[1]:
                    rotated = (rotated[1], rotated[0]) + tuple(reversed(rotated[2:]))
                yield Clown(hat, rotated)


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
    so a hat is never safe. Non-simplicial vertices fail with witness None.
    The paths are enumerated on g itself, their interiors kept off the hole
    and its neighbours.
    """
    if not is_simplicial_vertex(g, v):
        return False, None
    meter = _meter(budget)
    witness = _clown_witness(g, v, find_clowns(g, meter), meter)
    return witness is None, witness


def _clown_witness(
    g: Graph, v: int, clowns: Iterable[Clown], meter: _Meter
) -> Optional[tuple[Clown, tuple[int, ...]]]:
    """The first of ``clowns`` with an even qualifying path from v to its
    hat, and that path, or None: the clown test of :func:`is_safe_vertex`."""
    for clown in clowns:
        h = clown.hat
        if v == h:
            return clown, (v,)
        hole = frozenset(clown.cycle)
        if v in hole or g.bits[v] & _mask_of(hole):
            continue  # no path from v qualifies
        for p in _anchored_paths(g, meter, v, h, hole, hole, parity=0):
            return clown, p
    return None


# -- peculiar structure ------------------------------------------------------

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


_RELATION = [[_part_relation(p, q) for q in range(9)] for p in range(9)]


def verify_peculiar(g: Graph, parts: PeculiarParts) -> bool:
    """Literal definition check, including the 'no other edge' clause."""
    groups = parts.groups()
    if sum(map(len, groups)) != g.n or set().union(*groups) != set(range(g.n)):
        return False  # not a partition of V(g)
    bits, masks = g.bits, [_mask_of(grp) for grp in groups]
    for p, q in itertools.product(range(9), repeat=2):
        rel = _RELATION[p][q]
        for v in groups[p]:
            others = masks[q] & ~(1 << v)
            if rel == "edge" and others & ~bits[v] or rel == "non" and others & bits[v]:
                return False
    # a1..b3 are non-empty, and a free pair a_i, b_{i+1} is anything but complete
    return all(groups[:6]) and all(
        any(masks[q] & ~bits[u] for u in groups[p]) for p, q in _FREE_PAIRS
    )


def peculiar_structure(
    g: Graph, budget: Budget | _Meter | None = None
) -> Optional[PeculiarParts]:
    """The nine parts of g when g is peculiar, else None, read off the
    complement H. By ``_RELATION`` the only edges of H are k_i-k_j (i != j),
    k_i-(a_i | b_i) and the free pairs a_i-b_{i+1}, indices mod 3. Hence:

    - every non-empty k_i is one class of true twins of g;
    - every triangle of H has one vertex in each k_i, so the first one fixes
      K; with none, at most two k_i are non-empty and H is bipartite;
    - S3 acts on the indices (a reflection also swaps a_i with b_{-i}), so
      the guesses at K are that triangle's three twin classes, or else the
      empty K, each twin class and each anticomplete pair of them that
      split their component of H, as a k part then does;
    - a vertex outside K lies in a_i | b_i for the i whose k_i it misses, or
      for an empty k_i when it sees every non-empty one;
    - the components of H - K are the free pairs' bipartite graphs.

    Each guess ticks the meter once, and a labelling is returned only if
    ``verify_peculiar`` passes.
    """
    meter, n, bits = _meter(budget), g.n, g.bits
    full = (1 << n) - 1
    co = [full ^ b ^ (1 << v) for v, b in enumerate(bits)]
    twins: dict[int, int] = {}  # closed neighbourhood -> its class mask
    for v, b in enumerate(bits):
        twins[b | 1 << v] = twins.get(b | 1 << v, 0) | 1 << v
    triangle = next(((u, v, w) for u in range(n) for v in _iter_bits(co[u] & _above(u))
                     for w in _iter_bits(co[u] & co[v] & _above(v))), None)
    if triangle is not None:
        guesses = [tuple(twins[bits[v] | 1 << v] for v in triangle)]
    elif two_coloring(co) is None:
        return None
    else:  # a k part splits its component of H into two with an edge
        ks = [c for c in twins.values() if sum(
            m & m - 1 > 0 for m in _mask_components(co, _flood(co, c, full) & ~c)) >= 2]
        guesses = [(), *((c,) for c in ks), *(
            (c, d) for c, d in itertools.combinations(ks, 2) if co[c.bit_length() - 1] & d)]
    for k in guesses:
        meter.tick()
        parts = _peculiar_around(co, k + (0,) * (3 - len(k)))
        if parts is not None and verify_peculiar(g, parts):
            return parts
    return None


def _peculiar_around(co: list[int], k: tuple[int, ...]) -> Optional[PeculiarParts]:
    """Unverified parts around the k parts k, from the complement masks co.

    Each component of H - K with an edge goes to a free pair a_p, b_{p+1}
    that its sides' indices allow, the most constrained first, to a pair not
    yet taken when it can (the allowed pair sets are nested or disjoint). A
    lone vertex goes to a_i for its smallest allowed i."""
    rest = ((1 << len(co)) - 1) & ~(k[0] | k[1] | k[2])
    sub = [m & rest if rest >> v & 1 else 0 for v, m in enumerate(co)]
    zero = two_coloring(sub)
    if zero is None:
        return None
    zero, empty = _mask_of(zero), sum(1 << i for i in range(3) if not k[i])
    ab, placements = [0] * 6, []  # a1..a3, b1..b3; options per component with an edge
    for comp in _mask_components(sub, rest):
        sides, idx = (comp & zero, comp & ~zero), [7, 7]
        for s, side in enumerate(sides):
            for v in _iter_bits(side):
                idx[s] &= sum(1 << i for i in range(3) if co[v] & k[i]) or empty
        if not sides[1] and idx[0]:
            ab[(idx[0] & -idx[0]).bit_length() - 1] |= comp
            continue
        placements.append([(p, sides[s], sides[1 - s]) for s in range(2) for p in range(3)
                           if idx[s] >> p & 1 and idx[1 - s] >> (p + 1) % 3 & 1])
    taken: set[int] = set()
    for options in sorted(placements, key=lambda o: len({p for p, _, _ in o})):
        if not options:
            return None
        p, x, y = next((o for o in options if o[0] not in taken), options[0])
        taken.add(p)
        ab[p] |= x
        ab[3 + (p + 1) % 3] |= y
    return PeculiarParts(*(frozenset(_iter_bits(m)) for m in ab + list(k)))
