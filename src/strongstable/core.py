"""Immutable graph values and the exhaustive primitives everything else builds on.

Conventions used across the package:

* vertices are the integers ``0 .. n-1``;
* a graph stores each neighbourhood as an int mask (``Graph.bits``), and
  every constructor builds the masks directly;
* a vertex set is a ``frozenset[int]`` (or any iterable normalized to one);
* a path is a tuple of distinct vertices, consecutive entries adjacent; an
  *induced* path additionally has no chords;
* graphs are immutable after construction, and every derived graph carries an
  explicit id mapping so witnesses can be translated back to original ids.

All enumerative routines are exhaustive but budget-bounded: they raise
:class:`BudgetExceededError` instead of running away on adversarial inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graph construction input."""


class BudgetExceededError(RuntimeError):
    """An exhaustive routine hit its vertex or enumeration cap."""

    def __init__(self, message: str, *, used: int | None = None):
        super().__init__(message)
        self.used = used


@dataclass(frozen=True)
class Budget:
    """Caps for exhaustive routines.

    ``max_vertices`` bounds only the exponential brute force;
    ``max_enumerations`` bounds the number of enumerated objects
    (search-tree nodes, paths, cliques, candidate embeddings) in every
    routine.
    """

    max_vertices: int = 24
    max_enumerations: int = 1_000_000

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_enumerations <= 0:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = Budget()


class _Meter:
    """The enumeration counter of one public call and the budget it counts
    against. Built only by :func:`_meter`; every layer the call reaches ticks
    this one meter, so ``max_enumerations`` caps the whole call."""

    __slots__ = ("budget", "limit", "used")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.limit = budget.max_enumerations
        self.used = 0

    def tick(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"enumeration budget exceeded ({self.limit})", used=self.used
            )


def _meter(budget: Budget | _Meter | None) -> _Meter:
    """The meter a layer passed down in the ``budget`` slot, else a fresh one
    for ``budget`` (by default :data:`DEFAULT_BUDGET`)."""
    return budget if isinstance(budget, _Meter) else _Meter(budget or DEFAULT_BUDGET)


def _mask_of(vertices: Iterable[int]) -> int:
    """The int mask with bit v set for every v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _above(v: int) -> int:
    """The mask of every vertex greater than v."""
    return ~((2 << v) - 1)


def _iter_bits(m: int) -> Iterator[int]:
    """The set bits of mask m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph stored as adjacency masks.

    Entry v of ``bits`` is N(v) as an int mask (bit w set iff vw is an edge).
    Invariants: no self-loops, symmetric adjacency, vertex ids exactly
    ``0 .. n-1``. Construct through :func:`from_edge_list` (or the helpers
    below), which validate input.
    """

    n: int
    bits: tuple[int, ...]

    # -- elementary predicates -------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return self.bits[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def vertices(self) -> range:
        return range(self.n)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, b in enumerate(self.bits):
            for v in _iter_bits(b & _above(u)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(b.bit_count() for b in self.bits) // 2

    def neighborhood(self, s: Iterable[int]) -> frozenset[int]:
        """N(S): vertices outside S with a neighbor in S."""
        m = _mask_of(s)
        out = 0
        for v in _iter_bits(m):
            out |= self.bits[v]
        return frozenset(_iter_bits(out & ~m))

    def is_clique(self, s: Iterable[int]) -> bool:
        m = _mask_of(s)
        bits = self.bits
        return all(m & ~bits[v] == 1 << v for v in _iter_bits(m))

    def is_stable(self, s: Iterable[int]) -> bool:
        m = _mask_of(s)
        bits = self.bits
        return not any(bits[v] & m for v in _iter_bits(m))

    def is_complete_between(self, x: Iterable[int], y: Iterable[int]) -> bool:
        """True when disjoint sets x, y have every cross pair adjacent."""
        xm, ym = _mask_of(x), _mask_of(y)
        if xm & ym:
            return False
        return all(not ym & ~self.bits[u] for u in _iter_bits(xm))

    def is_anticomplete_between(self, x: Iterable[int], y: Iterable[int]) -> bool:
        xm, ym = _mask_of(x), _mask_of(y)
        if xm & ym:
            return False
        return all(not ym & self.bits[u] for u in _iter_bits(xm))

    def is_mixed_on(self, v: int, x: Iterable[int]) -> bool:
        """v not in x is mixed on x: neither complete nor anticomplete to it."""
        xm = _mask_of(x)
        if xm >> v & 1 or not xm:
            return False
        return 0 != self.bits[v] & xm != xm

    def is_connected(self) -> bool:
        return self.n <= 1 or len(components(self)) == 1

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(b | 1 << v == full for v, b in enumerate(self.bits))


def from_edge_list(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph on n vertices; duplicate pairs collapse, self-loops reject."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    bits = [0] * n
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return Graph(n, tuple(bits))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ b ^ 1 << v for v, b in enumerate(g.bits)))


def induced(g: Graph, x: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by x, plus the id mapping new -> old.

    The mapping lets witnesses found in the subgraph be translated back.
    """
    order = tuple(sorted(frozenset(x)))
    if order and not (0 <= order[0] and order[-1] < g.n):
        raise GraphError("induced set out of range")
    keep = _mask_of(order)
    pos = {old: 1 << new for new, old in enumerate(order)}
    bits = []
    for old in order:
        b = 0
        for w in _iter_bits(g.bits[old] & keep):
            b |= pos[w]
        bits.append(b)
    return Graph(len(order), tuple(bits)), order


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    return components_within(g, range(g.n))


def components_within(g: Graph, s: Iterable[int]) -> list[frozenset[int]]:
    """Components of the subgraph induced by s, in original vertex ids."""
    return [frozenset(_iter_bits(c)) for c in _mask_components(g.bits, _mask_of(s))]


def _mask_components(bits: Sequence[int], rest: int) -> Iterator[int]:
    """Components of the mask rest under adjacency masks bits, as masks
    ordered by smallest member: a flood fill from the lowest vertex left."""
    while rest:
        comp = _flood(bits, rest & -rest, rest)
        rest &= ~comp
        yield comp


def _flood(bits: Sequence[int], seed: int, room: int) -> int:
    """The vertices reachable from the mask seed by paths inside the mask
    room, seed included (seed should lie in room)."""
    reach = new = seed
    while new:
        step = 0
        for v in _iter_bits(new):
            step |= bits[v]
        new = step & room & ~reach
        reach |= new
    return reach


def anticomponents(g: Graph, s: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Anticomponents of s: components in the complement, restricted to s,
    ordered by smallest member."""
    rest = (1 << g.n) - 1 if s is None else _mask_of(s)
    co = [rest & ~b for b in g.bits]
    return [frozenset(_iter_bits(c)) for c in _mask_components(co, rest)]


def two_coloring(bits: Sequence[int]) -> Optional[frozenset[int]]:
    """Colour 0 of a proper 2-colouring of the graph whose adjacency masks are
    bits, or None if it is not bipartite.

    A flood fill by BFS layers, which alternate colour; an edge inside a layer
    closes an odd cycle. Each component's smallest vertex gets colour 0.
    """
    rest = (1 << len(bits)) - 1
    zero = 0
    while rest:
        layer = seen = rest & -rest
        colour = 0
        while layer:
            reach = 0
            for v in _iter_bits(layer):
                reach |= bits[v]
            if reach & layer:
                return None
            if not colour:
                zero |= layer
            layer = reach & ~seen
            seen |= layer
            colour ^= 1
        rest &= ~seen
    return frozenset(_iter_bits(zero))


# -- maximal cliques -------------------------------------------------------


def _degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly remove a vertex of least remaining degree, smallest id first.

    A bucket queue: bucket d is the mask of alive vertices of remaining
    degree d, and the next vertex is the lowest bit of the lowest non-empty
    bucket. Removing it lowers the least degree by at most one.
    """
    bits = g.bits
    deg = [b.bit_count() for b in bits]
    buckets = [0] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    alive = (1 << g.n) - 1
    order = []
    d = 0
    while alive:
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        alive ^= low
        v = low.bit_length() - 1
        order.append(v)
        for w in _iter_bits(bits[v] & alive):
            bw = 1 << w
            buckets[deg[w]] ^= bw
            deg[w] -= 1
            buckets[deg[w]] |= bw
        d = max(d - 1, 0)
    return order


def _expand_cliques(
    bits: Sequence[int], meter: _Meter, r: int, p: int, x: int
) -> Iterator[int]:
    """Pivoted Bron–Kerbosch on masks: yield every clique R ∪ K, for K a
    maximal clique of G[p], that no vertex of x extends.

    One tick per search node. The pivot is the vertex of p ∪ x with the most
    neighbours in p, the smallest on ties; branches run lowest bit first.
    """
    meter.tick()
    if not p:
        if not x:
            yield r
        return
    best = -1
    for u in _iter_bits(p | x):
        c = (p & bits[u]).bit_count()
        if c > best:
            best, pivot = c, u
    m = p & ~bits[pivot]
    while m:
        low = m & -m
        m ^= low
        nb = bits[low.bit_length() - 1]
        yield from _expand_cliques(bits, meter, r | low, p & nb, x & nb)
        p ^= low
        x |= low


def iter_maximal_cliques(
    g: Graph, budget: Budget | _Meter | None = None
) -> Iterator[frozenset[int]]:
    """Yield every inclusion-maximal clique exactly once (pivoted search).

    Outer loop follows a degeneracy order; each vertex is expanded with its
    later neighbours as candidates and its earlier ones excluded. Order of
    yields is deterministic but not sorted; see :func:`maximal_cliques` for
    the sorted list form.
    """
    meter = _meter(budget)
    bits = g.bits
    done = 0  # the vertices already expanded
    for v in _degeneracy_order(g):
        nb = bits[v]
        for r in _expand_cliques(bits, meter, 1 << v, nb & ~done, nb & done):
            yield frozenset(_iter_bits(r))
        done |= 1 << v


def maximal_cliques(g: Graph, budget: Budget | None = None) -> list[frozenset[int]]:
    """All maximal cliques, sorted by their sorted vertex tuples."""
    return sorted(iter_maximal_cliques(g, budget), key=sorted)


def is_strong_stable_set(
    g: Graph, s: Iterable[int], budget: Budget | _Meter | None = None
) -> bool:
    """True iff s is stable and meets every maximal clique of g.

    A maximal clique of G that misses S is exactly a maximal clique of
    G − S that no vertex of S is complete to. So the clique search runs from
    candidates V − S with S excluded, and reports only counterexamples: the
    answer is False at the first report and True when the search ends. When
    S is strong, a vertex of S is usually the pivot and most subtrees close
    at once.
    """
    s = frozenset(s)
    if not s <= g.vertex_set():
        return False
    if not g.is_stable(s):
        return False
    if g.n == 0:
        return True  # no maximal clique; the search would report the empty one
    sm = _mask_of(s)
    for _ in _expand_cliques(g.bits, _meter(budget), 0, ((1 << g.n) - 1) ^ sm, sm):
        return False
    return True


# -- path enumeration ------------------------------------------------------


def _anchored_paths(
    g: Graph,
    meter: _Meter,
    start: int,
    end: int,
    blocked: frozenset[int] = frozenset(),
    quiet: frozenset[int] = frozenset(),
    parity: int | None = None,
    min_len: int = 1,
    allow_end_chord: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Induced paths from start to end under embedding constraints, in
    lexicographic order: the package's one induced-path enumerator.

    Interior vertices must avoid ``blocked`` and may have no neighbors in
    ``quiet``; the endpoints are exempt from both. With ``allow_end_chord``
    the pair (start, end) may be adjacent even on longer paths, which is how
    cycles through a prescribed edge are grown. ``min_len`` and ``parity``
    (in edges) filter the yields, not the search.

    Runs on int masks, taking each level's candidates lowest bit first (end
    included, at its sorted place), with one tick per interior candidate.
    ``forb`` holds the path so far and the neighbours of its inner vertices;
    the neighbours of ``start`` are folded into the constant ``avoid``
    instead, so that ``forb`` alone answers the end-chord test.
    """
    if start == end:
        return
    bits = g.bits
    tick = meter.tick
    tick()
    endbit = 1 << end
    outside = _mask_of(blocked) | endbit
    for q in quiet:
        outside |= bits[q]
    nstart = bits[start]
    avoid = outside | nstart

    # beyond the first edge, end must also miss N(start) unless it may chord
    end_shy = 0 if allow_end_chord else nstart

    def closes(k: int) -> bool:
        """A path of k edges has the wanted length and parity."""
        return k >= min_len and (parity is None or k % 2 == parity)

    path = [start]
    forb = 1 << start
    m = nstart & ~outside
    if nstart & endbit and closes(1):
        m |= endbit
    saved = []  # (m, forb) of the levels below the tip
    while True:
        if not m:
            if not saved:
                return
            m, forb = saved.pop()
            path.pop()
            continue
        lsb = m & -m
        m ^= lsb
        if lsb == endbit:
            yield (*path, end)
            continue
        tick()
        w = lsb.bit_length() - 1
        tip = path[-1]
        wforb = forb | lsb if tip == start else forb | lsb | bits[tip]
        wnbrs = bits[w]
        ext = wnbrs & ~(wforb | avoid)
        close = (
            wnbrs & endbit
            and not (wforb | end_shy) & endbit
            and closes(len(path) + 1)
        )
        if ext:
            saved.append((m, forb))
            path.append(w)
            m = ext | endbit if close else ext
            forb = wforb
        elif close:
            yield (*path, w, end)


def induced_paths_between(
    g: Graph, u: int, v: int, budget: Budget | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every induced (chordless) path from u to v, each exactly once,
    in lexicographic order."""
    if u == v:
        raise GraphError("endpoints must differ")
    yield from _anchored_paths(g, _meter(budget), u, v)


def shortest_path(
    g: Graph, source: int, targets: Iterable[int], allowed: Iterable[int] | None = None
) -> Optional[tuple[int, ...]]:
    """BFS shortest path from source to any target through allowed vertices,
    each vertex's neighbours taken lowest first.

    Shortest paths are chordless, which is what parity arguments need.
    """
    tm = _mask_of(targets)
    room = (1 << g.n) - 1 if allowed is None else _mask_of(allowed)
    if tm >> source & 1:
        return (source,)
    prev: dict[int, int] = {source: -1}
    seen = 1 << source
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            new = g.bits[v] & room & ~seen
            seen |= new
            for w in _iter_bits(new):
                prev[w] = v
                if tm >> w & 1:
                    path = [w]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


# -- induced cycle enumeration ----------------------------------------------


def induced_cycles(
    g: Graph,
    budget: Budget | _Meter | None = None,
    min_len: int = 4,
    max_len: int | None = None,
    parity: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield induced cycles (holes) of length >= min_len, each exactly once.

    Canonical form: the smallest vertex first, second vertex smaller than the
    last (kills rotation and reflection duplicates). ``parity`` filters by
    length mod 2 when given.

    Each cycle grows as a chordless path from its base (smallest vertex) on
    int masks: one candidate mask per search level, ``N(tip)`` minus the
    vertices up to the base, the inner path vertices and their neighbours,
    taken lowest bit first. A candidate adjacent to the base is a closer; it
    never extends (the base edge would be a chord), so at a level whose cycle
    length fails ``min_len`` or ``parity`` the closer mask is empty. A base
    with fewer than two neighbours above it is skipped: no hole has it as
    its smallest vertex.
    """
    meter = _meter(budget)
    bits = g.bits
    limit = max_len if max_len is not None else g.n

    if min_len > limit:
        return
    # closes[k]: a cycle of k vertices may be yielded
    closes = [
        k >= min_len and (parity is None or k % 2 == parity)
        for k in range(max(limit, 3) + 1)
    ]
    tick = meter.tick
    for base in range(g.n):
        low = ~_above(base)  # the base and every vertex below it
        nb = bits[base]
        above = nb & ~low
        if not above & (above - 1):
            continue  # a hole needs two base neighbours above the base
        for second in _iter_bits(above):
            tick()
            # yieldable closers: base neighbours above the second vertex
            closers = nb & _above(second)
            path = [base, second]
            # forb: what no candidate at this level may be (the base and
            # below, the inner vertices path[1:-1] and their neighbours)
            forb = low
            cand = bits[second] & ~low
            m = (cand & ~nb if 3 < limit else 0) | (cand & closers if closes[3] else 0)
            saved = []  # (m, forb) of the levels below the tip
            while True:
                if not m:
                    if not saved:
                        break
                    m, forb = saved.pop()
                    path.pop()
                    continue
                lsb = m & -m
                m ^= lsb
                w = lsb.bit_length() - 1
                if lsb & nb:
                    yield (*path, w)
                    continue
                tick()
                tip = path[-1]
                wforb = forb | bits[tip] | (1 << tip)
                cand = bits[w] & ~wforb
                k = len(path) + 2  # cycle length when a closer follows w
                ext = cand & ~nb if k < limit else 0
                clo = cand & closers if closes[k] else 0
                if ext:
                    saved.append((m, forb))
                    path.append(w)
                    m, forb = ext | clo, wforb
                else:
                    for c in _iter_bits(clo):
                        yield (*path, w, c)


def squares(g: Graph, budget: Budget | _Meter | None = None) -> Iterator[tuple[int, ...]]:
    """Induced 4-cycles in canonical order."""
    return induced_cycles(g, budget, min_len=4, max_len=4)


# -- multigraphs and line graphs ---------------------------------------------


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph: parallel edges allowed, no self-loops.

    Edge ids are positional (``0 .. m-1``) and stable; endpoints are stored
    normalized with the smaller vertex first.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def build(n: int, edges: Iterable[Sequence[int]]) -> "Multigraph":
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        norm: list[tuple[int, int]] = []
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            norm.append((min(u, v), max(u, v)))
        return Multigraph(n, tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, (a, b) in enumerate(self.edges) if v in (a, b))

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def underlying_simple(self) -> Graph:
        return from_edge_list(self.n, set(self.edges))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        return self.underlying_simple().is_connected()

    def bipartition(self) -> Optional[tuple[frozenset[int], frozenset[int]]]:
        """A 2-coloring (left, right) if bipartite, else None.

        Deterministic: each component's smallest vertex goes left.
        """
        left = two_coloring(self.underlying_simple().bits)
        if left is None:
            return None
        return left, frozenset(range(self.n)) - left


def line_graph(b: Multigraph) -> Graph:
    """Line graph of b: vertex i of the result is edge i of b.

    Parallel edges share both endpoints and therefore become adjacent twins.
    """
    inc = [0] * b.n  # inc[v]: the edges at root vertex v
    for i, (a, c) in enumerate(b.edges):
        inc[a] |= 1 << i
        inc[c] |= 1 << i
    bits = tuple(
        (inc[a] | inc[c]) ^ 1 << i for i, (a, c) in enumerate(b.edges)
    )
    return Graph(b.m, bits)
