"""Independent naive oracles for the test suite.

Everything here deliberately avoids the library's search machinery: maximal
cliques by subset scan, forbidden structures by degree profiles and
deterministic walks on whole subsets, exhaustive subset searches. Slow and
dumb on purpose.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from strongstable.core import (
    Budget,
    Graph,
    GraphError,
    Multigraph,
    _iter_bits,
    _Meter,
    _mask_of,
    _meter,
    complement,
    from_edge_list,
    induced,
    iter_maximal_cliques,
)
from strongstable.decompose import HypothesisViolationError, WJoin, _square_sides


@functools.lru_cache(maxsize=4096)
def nbrs(g: Graph) -> tuple[frozenset[int], ...]:
    """Entry v is N(v) as a frozenset, read off ``has_edge`` once per graph."""
    return tuple(frozenset(w for w in range(g.n) if g.has_edge(v, w)) for v in range(g.n))


def subsets(items, min_size=0, max_size=None):
    items = list(items)
    max_size = len(items) if max_size is None else max_size
    for r in range(min_size, max_size + 1):
        yield from itertools.combinations(items, r)


def naive_is_clique(g: Graph, s) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))


def naive_is_stable(g: Graph, s) -> bool:
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))


def naive_maximal_cliques(g: Graph) -> list[frozenset[int]]:
    out = []
    for sub in subsets(range(g.n), min_size=1):
        s = frozenset(sub)
        if not naive_is_clique(g, s):
            continue
        if any(all(v in nbrs(g)[u] for u in s) for v in g.vertex_set() - s):
            continue
        out.append(s)
    return out


def naive_is_strong_stable_set(g: Graph, s) -> bool:
    s = frozenset(s)
    if not naive_is_stable(g, s):
        return False
    return all(s & k for k in naive_maximal_cliques(g))


def naive_peel(g: Graph, z=frozenset()) -> tuple[frozenset[int], list[int]]:
    """Set-based replay of the solver's peel: the vertices kept and the
    simplicial vertices dropped, in the order they went.

    A worklist visits vertices smallest first. A vertex with a true twin
    among the kept ones drops the smallest vertex of its class outside z
    (none, when z holds the whole class); otherwise a vertex outside z whose
    kept neighbours form a clique drops itself. A drop puts its kept
    neighbours back on the list.
    """
    nb = nbrs(g)
    z = frozenset(z)
    keep = set(range(g.n))
    todo = list(range(g.n - 1, -1, -1))  # popped smallest first
    lifts = []
    while todo:
        v = todo.pop()
        if v not in keep:
            continue
        near = nb[v] & keep
        twins = {u for u in near if (nb[u] & keep) | {u} == near | {v}}
        if twins:
            free = (twins | {v}) - z
            if not free:
                continue
            drop = min(free)
        elif v not in z and naive_is_clique(g, near):
            drop = v
            lifts.append(v)
        else:
            continue
        keep.discard(drop)
        todo.extend(sorted(nb[drop] & keep, reverse=True))
    return frozenset(keep), lifts


def naive_degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly remove the alive vertex of least remaining degree,
    smallest id on ties, by a scan over all alive vertices."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        order.append(v)
        alive.remove(v)
        for w in nbrs(g)[v]:
            if w in alive:
                deg[w] -= 1
    return order


def naive_has_strong_stable_set(g: Graph, z=frozenset()) -> bool:
    z = frozenset(z)
    rest = sorted(g.vertex_set() - z)
    for sub in subsets(rest):
        s = z | frozenset(sub)
        if naive_is_strong_stable_set(g, s):
            return True
    return False


def naive_brute_force(
    g: Graph, z=(), budget: Budget | _Meter | None = None
) -> Optional[frozenset[int]]:
    """Lexicographically smallest strong stable set containing z, or None.

    Stable supersets of z are enumerated in sorted-tuple order and tested
    against the maximal cliques; absence is therefore verified. This is the
    unpruned, recursive search ``solver.brute_force`` replaced, kept as the
    reference its answers are compared against; it lists the cliques with
    the library's enumerator, which ``test_core`` checks against
    :func:`naive_maximal_cliques`.
    """
    meter = _meter(budget)
    z = frozenset(z)
    if not z <= g.vertex_set():
        raise GraphError("prescribed vertices out of range")
    if not g.is_stable(z):
        return None
    cliques = [_mask_of(k) for k in iter_maximal_cliques(g, meter)]
    bits = g.bits
    eligible = sorted(g.vertex_set() - z - g.neighborhood(z))

    def extend(current: int, start: int) -> Optional[frozenset[int]]:
        meter.tick()
        if all(current & k for k in cliques):
            return frozenset(_iter_bits(current))
        for idx in range(start, len(eligible)):
            v = eligible[idx]
            if bits[v] & current:
                continue
            res = extend(current | 1 << v, idx + 1)
            if res is not None:
                return res
        return None

    return extend(_mask_of(z), 0)


# -- exact-graph recognizers for the five families ----------------------------------


def is_cycle_graph(h: Graph) -> bool:
    return (
        h.n >= 3
        and all(h.degree(v) == 2 for v in range(h.n))
        and h.is_connected()
    )


def naive_induced_cycles(
    g: Graph, min_len: int = 4, max_len: int | None = None, parity: int | None = None
) -> list[tuple[int, ...]]:
    """Every vertex subset that induces a cycle, sorted, each in canonical
    form: the smallest vertex, then the smaller of its two cycle neighbours."""
    max_len = g.n if max_len is None else max_len
    out = []
    for sub in subsets(range(g.n), max(min_len, 3), max_len):
        if parity is not None and len(sub) % 2 != parity:
            continue
        s = set(sub)
        # two neighbours inside each is necessary; is_cycle_graph decides
        if any(len(nbrs(g)[v] & s) != 2 for v in sub):
            continue
        if not is_cycle_graph(induced(g, sub)[0]):
            continue
        seq = [sub[0], min(nbrs(g)[sub[0]] & s)]
        while len(seq) < len(sub):
            seq.append(next(w for w in nbrs(g)[seq[-1]] & s if w != seq[-2]))
        out.append(tuple(seq))
    return sorted(out)


def naive_anchored_paths(
    g: Graph,
    start: int,
    end: int,
    blocked=frozenset(),
    quiet=frozenset(),
    parity: int | None = None,
    min_len: int = 1,
    allow_end_chord: bool = False,
) -> list[tuple[int, ...]]:
    """Every vertex sequence start..end that is an induced path (start-end
    chord allowed when asked) with interior off blocked and off N(quiet),
    of length >= min_len and the given parity, sorted.

    An induced path is fixed by its ends and its vertex set, so each subset
    of the allowed interior vertices is walked from start, always to the one
    unvisited neighbour in the subset, and the walk kept when it ends at end
    with every vertex used and passes the definition check."""
    if start == end:
        return []
    allowed = [
        v for v in range(g.n)
        if v not in (start, end) and v not in blocked and not nbrs(g)[v] & quiet
    ]
    out = []
    for mid in subsets(allowed):
        k = len(mid)
        if k + 1 < min_len or (parity is not None and (k + 1) % 2 != parity):
            continue
        left = set(mid) | {end}
        p = [start]
        while p[-1] != end:
            step = nbrs(g)[p[-1]] & left
            if allow_end_chord and k and len(p) == 1:
                step -= {end}
            if len(step) != 1:
                break
            p.extend(step)
            left -= step
        if left:
            continue
        last = len(p) - 1
        if all(
            g.has_edge(p[i], p[j]) == (j - i == 1)
            for i, j in itertools.combinations(range(len(p)), 2)
            if not (allow_end_chord and last > 1 and (i, j) == (0, last))
        ):
            out.append(tuple(p))
    return sorted(out)


def is_induced_path(g: Graph, path) -> bool:
    """Definition check: consecutive adjacent, everything else non-adjacent."""
    if len(set(path)) != len(path):
        return False
    return all(
        g.has_edge(path[i], path[j]) == (j - i == 1)
        for i, j in itertools.combinations(range(len(path)), 2)
    )


def naive_clowns(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """Every (hat, even hole) where the hat sees exactly two hole vertices,
    consecutive on the hole."""
    out = []
    for hole in naive_induced_cycles(g, min_len=4, parity=0):
        k = len(hole)
        for hat in range(g.n):
            if hat in hole:
                continue
            idx = [i for i, x in enumerate(hole) if x in nbrs(g)[hat]]
            if len(idx) == 2 and idx[1] - idx[0] in (1, k - 1):
                out.append((hat, hole))
    return out


def naive_is_safe_vertex(g: Graph, v: int) -> bool:
    """Simplicial, and every path from v to a clown's hat whose vertices other
    than the hat miss the hole and its neighbours is odd (the zero-length path
    from the hat itself counts as even)."""
    if not naive_is_clique(g, nbrs(g)[v]):
        return False
    for hat, hole in naive_clowns(g):
        if v == hat:
            return False
        hole = frozenset(hole)
        if v in hole or nbrs(g)[v] & hole:
            continue
        if naive_anchored_paths(g, v, hat, hole, hole, parity=0):
            return False
    return True


def naive_is_consistent_set(g: Graph, z) -> bool:
    """Every pair of z is an even pair: no odd induced path joins it (an
    edge is an odd path)."""
    return not any(
        naive_anchored_paths(g, u, v, parity=1)
        for u, v in itertools.combinations(sorted(z), 2)
    )


def is_simplicial_edge(g: Graph, u: int, v: int) -> bool:
    """Edge uv with every neighbor of u adjacent to every neighbor of v.

    Pairs are compared outside {u, v} and a shared neighbor trivially
    satisfies its own pair.
    """
    if not g.has_edge(u, v):
        raise GraphError(f"({u}, {v}) is not an edge")
    for x in nbrs(g)[u] - {v}:
        for y in nbrs(g)[v] - {u}:
            if x != y and not g.has_edge(x, y):
                return False
    return True


def is_simplicial_clique(g: Graph, k) -> bool:
    """Non-empty clique whose members' outside neighborhoods are cliques."""
    k = frozenset(k)
    if not k:
        raise GraphError("simplicial clique must be non-empty")
    if not g.is_clique(k):
        raise GraphError("input is not a clique")
    return all(g.is_clique(nbrs(g)[v] - k) for v in k)


def naive_is_cosimplicial_nonedge(g: Graph, u: int, v: int) -> bool:
    """The definition on the complement graph: uv is an edge of it, and every
    other complement-neighbour of u sees every other one of v there (a
    shared one trivially)."""
    co = complement(g)
    return co.has_edge(u, v) and all(
        x == y or co.has_edge(x, y)
        for x in nbrs(co)[u] - {v}
        for y in nbrs(co)[v] - {u}
    )


def naive_find_cosimplicial_nonedge(g: Graph, must_contain=()) -> tuple[int, int] | None:
    """Lex-first cosimplicial non-edge containing must_contain, by scanning
    every pair."""
    need = frozenset(must_contain)
    return next(
        (
            (u, v)
            for u, v in itertools.combinations(range(g.n), 2)
            if need <= {u, v} and naive_is_cosimplicial_nonedge(g, u, v)
        ),
        None,
    )


def naive_find_strong_pair(g: Graph) -> tuple[int, int] | None:
    """Lex-first non-edge that is a strong stable set, by checking every
    pair against every maximal clique."""
    return next(
        (
            (u, v)
            for u, v in itertools.combinations(range(g.n), 2)
            if not g.has_edge(u, v) and naive_is_strong_stable_set(g, {u, v})
        ),
        None,
    )


def naive_two_coloring(g: Graph) -> frozenset[int] | None:
    """Colour 0 of a proper 2-colouring by a dict search from each
    component's smallest vertex, or None if g is not bipartite."""
    color: dict[int, int] = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in nbrs(g)[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return frozenset(v for v in range(g.n) if color[v] == 0)


def naive_find_claw(g: Graph) -> tuple[int, tuple[int, int, int]] | None:
    """First centre and leaves of a claw in lowest-id order, by scanning
    every triple of neighbours."""
    for c in range(g.n):
        for trio in itertools.combinations(sorted(nbrs(g)[c]), 3):
            if naive_is_stable(g, trio):
                return c, trio
    return None


def _naive_peculiar_rule(p, q):
    """Whether members of parts p and q, each (letter, index) with letters
    a, b, k, must be adjacent (True), non-adjacent (False), or either (None)."""
    (s, i), (t, j) = sorted((p, q))
    if (s, i) == (t, j):
        return True  # every part is a clique
    if t == "k":
        return s != "k" and i != j  # K_i misses a_i, b_i and the other K parts
    if (s, t) == ("a", "b") and j == (i + 1) % 3:
        return None  # a_i and b_{i+1}: anything but complete
    return True


def naive_is_peculiar(g: Graph) -> bool:
    """Whether some split of V(g) into a1..a3, b1..b3 (non-empty) and k1..k3
    meets the definition, by trying every part for every vertex in turn."""
    parts = [(s, i) for s in "abk" for i in range(3)]
    label: list = []

    def extend(v: int) -> bool:
        empty = sum(1 for s in "ab" for i in range(3) if (s, i) not in label)
        if g.n - v < empty:
            return False  # too few vertices left for the empty a and b parts
        if v == g.n:
            members = {p: [u for u in range(g.n) if label[u] == p] for p in parts}
            return all(members[(s, i)] for s in "ab" for i in range(3)) and all(
                any(
                    not g.has_edge(x, y)
                    for x in members[("a", i)]
                    for y in members[("b", (i + 1) % 3)]
                )
                for i in range(3)
            )
        for p in parts:
            if all(
                _naive_peculiar_rule(label[u], p) in (None, g.has_edge(u, v))
                for u in range(v)
            ):
                label.append(p)
                if extend(v + 1):
                    return True
                label.pop()
        return False

    return extend(0)


def is_odd_hole_graph(h: Graph) -> bool:
    return h.n >= 5 and h.n % 2 == 1 and is_cycle_graph(h)


def is_long_antihole_graph(h: Graph) -> bool:
    return h.n >= 6 and is_cycle_graph(complement(h))


def _walk_chain(h: Graph, start: int, first: int, stop_at) -> tuple[int, ...] | None:
    """Follow degree-2 vertices from start through first until a stop vertex."""
    path = [start, first]
    prev, cur = start, first
    while cur not in stop_at:
        if h.degree(cur) != 2:
            return None
        nxts = [w for w in nbrs(h)[cur] if w != prev]
        if len(nxts) != 1:
            return None
        prev, cur = cur, nxts[0]
        path.append(cur)
        if len(path) > h.n:
            return None
    return tuple(path)


def is_odd_prism_graph(h: Graph) -> bool:
    degs = sorted(h.degree(v) for v in range(h.n))
    if h.n < 6 or degs != [2] * (h.n - 6) + [3] * 6:
        return False
    corners = [v for v in range(h.n) if h.degree(v) == 3]
    for t1 in itertools.combinations(corners, 3):
        t2 = tuple(v for v in corners if v not in t1)
        if not (h.is_clique(t1) and h.is_clique(t2)):
            continue
        used = set(t1) | set(t2)
        paths = []
        ok = True
        for a in t1:
            outs = [w for w in nbrs(h)[a] if w not in t1]
            if len(outs) != 1:
                ok = False
                break
            p = _walk_chain(h, a, outs[0], set(t2))
            if p is None or (len(p) - 1) % 2 == 0:
                ok = False
                break
            paths.append(p)
        if not ok:
            continue
        ends = [p[-1] for p in paths]
        interiors = [set(p[1:-1]) for p in paths]
        if sorted(ends) != sorted(t2):
            continue
        if any(interiors[i] & interiors[j] for i, j in itertools.combinations(range(3), 2)):
            continue
        covered = used | set().union(*interiors)
        if covered != set(range(h.n)):
            continue
        expected = 6 + sum(len(p) - 1 for p in paths)
        if h.edge_count() == expected:
            return True
    return False


def is_eye_mask_graph(h: Graph) -> bool:
    degs = sorted(h.degree(v) for v in range(h.n))
    if h.n < 8 or degs != [2] * (h.n - 4) + [4] * 4:
        return False
    corners = [v for v in range(h.n) if h.degree(v) == 4]
    if not h.is_clique(corners):
        return False
    q = corners
    for split in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        x1, y1, x2, y2 = (q[i] for i in split)
        c1 = _cycle_through(h, x1, y1, set(corners))
        c2 = _cycle_through(h, x2, y2, set(corners))
        if c1 is None or c2 is None:
            continue
        if set(c1) & set(c2):
            continue
        if len(c1) % 2 or len(c2) % 2 or len(c1) < 4 or len(c2) < 4:
            continue
        if set(c1) | set(c2) == set(range(h.n)) and h.edge_count() == len(c1) + len(c2) + 4:
            return True
    return False


def _cycle_through(h: Graph, x: int, y: int, corners: set[int]) -> tuple[int, ...] | None:
    """The cycle containing edge xy whose other vertices have degree two."""
    if y not in nbrs(h)[x]:
        return None
    outs = [w for w in nbrs(h)[x] if w not in corners]
    if len(outs) != 1:
        return None
    chain = _walk_chain(h, x, outs[0], corners | {y})
    if chain is None or chain[-1] != y:
        return None
    return chain


def is_handcuff_graph(h: Graph) -> bool:
    degs = sorted(h.degree(v) for v in range(h.n))
    if h.n < 10 or degs != [2] * (h.n - 6) + [3] * 6:
        return False
    tris = [
        t
        for t in itertools.combinations(
            [v for v in range(h.n) if h.degree(v) == 3], 3
        )
        if h.is_clique(t)
    ]
    if len(tris) != 2:
        return False
    tri1, tri2 = tris
    if set(tri1) & set(tri2):
        return False
    for t1 in tri1:
        x1, y1 = (v for v in tri1 if v != t1)
        for t2 in tri2:
            x2, y2 = (v for v in tri2 if v != t2)
            c1 = _cycle_through(h, x1, y1, set(tri1) | set(tri2))
            c2 = _cycle_through(h, x2, y2, set(tri1) | set(tri2))
            if c1 is None or c2 is None or c1[-1] != y1 or c2[-1] != y2:
                continue
            if len(c1) % 2 or len(c2) % 2 or len(c1) < 4 or len(c2) < 4:
                continue
            if t1 in c1 or t1 in c2 or t2 in c1 or t2 in c2:
                continue
            # the connecting path from t1 to t2
            outs = [w for w in nbrs(h)[t1] if w not in (x1, y1)]
            if len(outs) != 1:
                continue
            if outs[0] == t2:
                link = (t1, t2)
            else:
                link = _walk_chain(h, t1, outs[0], {t2})
                if link is None:
                    continue
            if (len(link) - 1) % 2 == 0:
                continue
            allv = set(c1) | set(c2) | set(link)
            if allv != set(range(h.n)):
                continue
            if len(set(c1) & set(link)) or len(set(c2) & set(link)):
                continue
            expected = len(c1) + len(c2) + (len(link) - 1) + 4
            if h.edge_count() == expected:
                return True
    return False


_NAIVE_KINDS = {
    "odd-hole": is_odd_hole_graph,
    "long-antihole": is_long_antihole_graph,
    "odd-prism": is_odd_prism_graph,
    "eye-mask": is_eye_mask_graph,
    "handcuff": is_handcuff_graph,
}


def naive_find_kind(g: Graph, kind: str) -> frozenset[int] | None:
    """Smallest vertex subset whose induced subgraph is exactly the kind."""
    check = _NAIVE_KINDS[kind]
    for sub in subsets(range(g.n), min_size=4):
        h, _ = induced(g, sub)
        if check(h):
            return frozenset(sub)
    return None


def naive_is_innocent(g: Graph) -> bool:
    for sub in subsets(range(g.n), min_size=4):
        h, _ = induced(g, sub)
        if any(check(h) for check in _NAIVE_KINDS.values()):
            return False
    return True


def naive_has_clique_cutset(g: Graph) -> bool:
    from strongstable.core import components_within

    full = g.vertex_set()
    for sub in subsets(range(g.n), max_size=g.n - 2):
        s = frozenset(sub)
        if not g.is_clique(s):
            continue
        if len(components_within(g, full - s)) >= 2:
            return True
    return False


def naive_one_join(g: Graph) -> tuple[bool, bool]:
    """(some 1-join exists, some rich 1-join exists), over all bipartitions."""
    full = g.vertex_set()
    exists = rich = False
    for sub in subsets(range(g.n), min_size=1, max_size=g.n - 1):
        v1 = frozenset(sub)
        v2 = full - v1
        a1 = frozenset(v for v in v1 if nbrs(g)[v] & v2)
        a2 = frozenset(v for v in v2 if nbrs(g)[v] & v1)
        if a1 and a2 and v1 - a1 and v2 - a2 and g.is_clique(a1 | a2):
            exists = True
            rich = rich or (len(v1) > 2 and len(v2) > 2)
    return exists, rich


def naive_suitable_matching_exists(b, forced=frozenset()) -> bool:
    forced = frozenset(forced)
    required = {v for v in range(b.n) if b.degree(v) >= 2}
    for sub in subsets(range(b.m)):
        chosen = frozenset(sub) | forced
        ends: list[int] = []
        for e in chosen:
            ends.extend(b.edges[e])
        if len(ends) != len(set(ends)):
            continue
        if required <= set(ends):
            return True
    return False


def naive_is_harmless(b: Multigraph) -> bool:
    """No theta and no bicycle in a bipartite host, by scanning every edge
    set of its underlying simple graph.

    A connected edge set with minimum degree two and one more edge than
    vertices is a figure eight (one vertex of degree four), a theta or a
    dumbbell (two vertices of degree three). The figure eight is a bicycle;
    the theta's paths, or the dumbbell's connector, are even exactly when
    the two vertices of degree three are on the same side.
    """
    sides = b.bipartition()
    if sides is None:
        raise GraphError("expected a bipartite host")
    for sub in subsets(sorted(b.underlying_simple().edges())):
        deg: dict[int, int] = defaultdict(int)
        for u, v in sub:
            deg[u] += 1
            deg[v] += 1
        if len(sub) != len(deg) + 1 or min(deg.values()) < 2:
            continue
        if not induced(from_edge_list(b.n, sub), deg)[0].is_connected():
            continue
        big = [v for v in sorted(deg) if deg[v] > 2]
        if len(big) == 1 or (big[0] in sides[0]) == (big[1] in sides[0]):
            return False
    return True


def naive_augment_edges(g: Graph) -> list[tuple[int, int, frozenset[int]]]:
    """Every (u, v, K), in lex edge order, for which some split of K into
    cliques X with u and Y with v is a homogeneous pair with no vertex
    outside complete to both, u complete to Y and v complete to X, and
    3 <= |K| < n: every split of u's and v's other neighbours tried, by set
    scans."""
    adj = nbrs(g)
    out = []
    for u, v in sorted(g.edges()):
        for xs in subsets(sorted(adj[u] - {v})):
            x = frozenset(xs) | {u}
            for ys in subsets(sorted(adj[v] - x)):
                y = frozenset(ys) | {v}
                k = x | y
                if not 3 <= len(k) < g.n:
                    continue
                if not (naive_is_clique(g, x) and naive_is_clique(g, y)):
                    continue
                if not (y <= adj[u] and x <= adj[v]):
                    continue
                outside = [adj[w] for w in g.vertex_set() - k]
                if all(
                    len(nb & x) in (0, len(x))
                    and len(nb & y) in (0, len(y))
                    and not k <= nb
                    for nb in outside
                ):
                    out.append((u, v, k))
                    break
            else:
                continue
            break
    return out


# -- exhaustive small-graph enumeration ----------------------------------------------


def all_graphs_up_to(maxn: int) -> dict[int, list[Graph]]:
    """Non-isomorphic graphs by vertex count, via augmentation with bucketed
    isomorphism tests."""
    levels: dict[int, list[Graph]] = {0: [from_edge_list(0, [])]}
    for n in range(1, maxn + 1):
        buckets: dict[tuple, list[Graph]] = {}
        out: list[Graph] = []
        for g0 in levels[n - 1]:
            base_edges = list(g0.edges())
            for nb in range(1 << (n - 1)):
                edges = base_edges + [(i, n - 1) for i in range(n - 1) if nb >> i & 1]
                g1 = from_edge_list(n, edges)
                key = (
                    g1.edge_count(),
                    tuple(sorted(g1.degree(v) for v in range(n))),
                )
                hit = False
                for g2 in buckets.get(key, []):
                    if graph_isomorphic(g1, g2):
                        hit = True
                        break
                if not hit:
                    buckets.setdefault(key, []).append(g1)
                    out.append(g1)
        levels[n] = out
    return levels


def bipartite_graphs_up_to(maxn: int) -> dict[int, list[Graph]]:
    """Non-isomorphic bipartite graphs by vertex count."""

    def is_bipartite(g: Graph) -> bool:
        return Multigraph.build(g.n, list(g.edges())).bipartition() is not None if g.edge_count() else True

    levels: dict[int, list[Graph]] = {0: [from_edge_list(0, [])]}
    for n in range(1, maxn + 1):
        buckets: dict[tuple, list[Graph]] = {}
        out: list[Graph] = []
        for g0 in levels[n - 1]:
            base_edges = list(g0.edges())
            for nb in range(1 << (n - 1)):
                edges = base_edges + [(i, n - 1) for i in range(n - 1) if nb >> i & 1]
                g1 = from_edge_list(n, edges)
                if not is_bipartite(g1):
                    continue
                key = (
                    g1.edge_count(),
                    tuple(sorted(g1.degree(v) for v in range(n))),
                )
                hit = False
                for g2 in buckets.get(key, []):
                    if graph_isomorphic(g1, g2):
                        hit = True
                        break
                if not hit:
                    buckets.setdefault(key, []).append(g1)
                    out.append(g1)
        levels[n] = out
    return levels


# -- isomorphism, gadgets, contraction, reconstruction ------------------------------
# Checks and constructions the lemmas under test talk about; nothing in the
# library calls them.


def graph_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by backtracking with degree-signature pruning."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False

    def sig(graph: Graph, v: int) -> tuple:
        return (graph.degree(v), tuple(sorted(graph.degree(w) for w in nbrs(graph)[v])))

    gs = {v: sig(g, v) for v in range(g.n)}
    hs = {v: sig(h, v) for v in range(h.n)}
    if sorted(gs.values()) != sorted(hs.values()):
        return False
    order = sorted(range(g.n), key=lambda v: (gs[v], v))

    def assign(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if w in used or hs[w] != gs[v]:
                continue
            if all(g.has_edge(u, v) == h.has_edge(mu, w) for u, mu in mapping.items()):
                mapping[v] = w
                used.add(w)
                if assign(i + 1, mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return assign(0, {}, set())


def multigraph_isomorphic(b1: Multigraph, b2: Multigraph) -> bool:
    """Backtracking isomorphism test respecting edge multiplicities."""
    if b1.n != b2.n or b1.m != b2.m:
        return False

    def mult_map(b: Multigraph) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = defaultdict(int)
        for e in b.edges:
            out[e] += 1
        return out

    m1, m2 = mult_map(b1), mult_map(b2)

    def sig(b: Multigraph, mm: dict) -> dict[int, tuple]:
        out = {}
        for v in range(b.n):
            mults = sorted(k for (x, y), k in mm.items() if v in (x, y))
            out[v] = (b.degree(v), tuple(mults))
        return out

    s1, s2 = sig(b1, m1), sig(b2, m2)
    if sorted(s1.values()) != sorted(s2.values()):
        return False
    order = sorted(range(b1.n), key=lambda v: (s1[v], v))

    def norm(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def assign(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(b2.n):
            if w in used or s2[w] != s1[v]:
                continue
            if all(
                m1[norm(u, v)] == m2[norm(mu, w)]
                for u, mu in mapping.items()
            ):
                mapping[v] = w
                used.add(w)
                if assign(i + 1, mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return assign(0, {}, set())


def attach_anchor_gadgets(g: Graph, z) -> tuple[Graph, tuple[tuple[int, int, int, int], ...]]:
    """Attach a 3-vertex gadget (w, x, y) to every anchor z_i.

    w_i duplicates z_i (complete to N[z_i]) and additionally sees x_i; y_i
    sees z_i and x_i. Any strong stable set of the extension uses {x_i, z_i}
    or {y_i, w_i} per anchor, which is what makes recovery possible.
    """
    z = tuple(sorted(frozenset(z)))
    edges = list(g.edges())
    n = g.n
    anchors = []
    for zi in z:
        w, x, y = n, n + 1, n + 2
        n += 3
        edges.extend((w, nb) for nb in nbrs(g)[zi])
        edges.extend([(w, zi), (w, x), (y, zi), (y, x)])
        anchors.append((zi, w, x, y))
    return from_edge_list(n, edges), tuple(anchors)


def strip_anchor_gadgets(g: Graph, anchors, s_prime) -> frozenset[int]:
    """Recover a strong stable set of g containing the anchors.

    Drops the x/y gadget vertices and swaps any chosen duplicate w_i back to
    its twin z_i.
    """
    s = set(s_prime)
    for zi, w, x, y in anchors:
        s.discard(x)
        s.discard(y)
        if w in s:
            s.discard(w)
            s.add(zi)
    return frozenset(s)


@dataclass(frozen=True)
class ContractionResult:
    """Degree-two contraction: u deleted, its two neighbors identified.

    ``vertex_map[old]`` is the new id (None for the deleted vertex);
    ``edge_map[new]`` is the old id of each surviving edge.
    """

    graph: Multigraph
    vertex_map: tuple[Optional[int], ...]
    edge_map: tuple[int, ...]


def contract_degree_two(b: Multigraph, u: int) -> ContractionResult:
    """Delete a degree-two vertex and identify its two distinct neighbors.

    Surviving edges keep their relative order; the merged vertex takes the
    smaller neighbor's slot.
    """
    inc = b.incident(u)
    if len(inc) != 2:
        raise GraphError(f"vertex {u} does not have degree two")
    (e1, e2) = inc
    v, w = (y if x == u else x for x, y in (b.edges[e1], b.edges[e2]))
    if v == w:
        raise GraphError("the two edges at u are parallel; neighbors not distinct")
    lo, hi = min(v, w), max(v, w)
    vmap: list[Optional[int]] = []
    nxt = 0
    for x in range(b.n):
        if x == u:
            vmap.append(None)
        elif x == hi:
            vmap.append(None)  # patched to lo's new id below
            continue
        else:
            vmap.append(nxt)
            nxt += 1
    vmap[hi] = vmap[lo]
    new_edges: list[tuple[int, int]] = []
    emap: list[int] = []
    for i, (x, y) in enumerate(b.edges):
        if i in (e1, e2):
            continue
        new_edges.append((vmap[x], vmap[y]))
        emap.append(i)
    return ContractionResult(
        Multigraph.build(nxt, new_edges), tuple(vmap), tuple(emap)
    )


def verify_clique_cutset(g: Graph, c) -> bool:
    """Whether the ``CliqueCutset`` c splits g: its clique and two non-empty,
    anticomplete sides partition the vertices."""
    if c.k | c.side_a | c.side_b != g.vertex_set():
        return False
    if (c.k & c.side_a) or (c.k & c.side_b) or (c.side_a & c.side_b):
        return False
    if not (c.side_a and c.side_b):
        return False
    if not g.is_clique(c.k):
        return False
    return g.is_anticomplete_between(c.side_a, c.side_b)


# -- small named graphs ---------------------------------------------------------------


def cycle(k: int) -> Graph:
    return from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> Graph:
    return from_edge_list(k, [(i, i + 1) for i in range(k - 1)])


def complete(k: int) -> Graph:
    return from_edge_list(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cocktail_party(k: int) -> Graph:
    """K_k minus the perfect matching {0, 1}, {2, 3}, ... (k even): every
    vertex misses one neighbour of another, so none is simplicial."""
    return from_edge_list(
        k, [(i, j) for i in range(k) for j in range(i + 1, k) if j != i ^ 1]
    )


# -- set-based W-join growth ------------------------------------------------------


def naive_w_join_parts(g: Graph, a, b):
    """(C, D, E, F) when the cliques a and b form a proper coherent W-join,
    else None, by set scans vertex by vertex."""
    a, b = frozenset(a), frozenset(b)
    if not (a and b) or (a & b):
        return None
    if not (naive_is_clique(g, a) and naive_is_clique(g, b)):
        return None
    if g.is_complete_between(a, b) or g.is_anticomplete_between(a, b):
        return None
    parts = ([], [], [], [])
    for v in sorted(g.vertex_set() - a - b):
        to_a, anti_a = a <= nbrs(g)[v], not (a & nbrs(g)[v])
        to_b, anti_b = b <= nbrs(g)[v], not (b & nbrs(g)[v])
        if not ((to_a or anti_a) and (to_b or anti_b)):
            return None
        parts[(0 if anti_b else 2) if to_a else (1 if to_b else 3)].append(v)
    if not all(g.is_mixed_on(v, b) for v in a):
        return None
    if not all(g.is_mixed_on(v, a) for v in b):
        return None
    c, d, e, f = (frozenset(p) for p in parts)
    return (c, d, e, f) if naive_is_clique(g, e) else None


def _naive_mixed_square(g: Graph, v: int, s: set[int], t: set[int]):
    for s1 in sorted(s & nbrs(g)[v]):
        for s2 in sorted(s - nbrs(g)[v]):
            for t1 in sorted((t & nbrs(g)[s1]) - nbrs(g)[s2]):
                for t2 in sorted((t & nbrs(g)[s2]) - nbrs(g)[s1]):
                    if t1 != t2:
                        return (s1, s2, t1, t2)
    return None


def naive_grow_square_connected_pair(g: Graph, square, a_side, b_side) -> WJoin:
    """Square-connected growth on vertex sets, rescanning every outside
    vertex after each absorption: the same absorption order, result and
    :class:`HypothesisViolationError` as the library's mask growth."""
    (a1, a2), (b1, b2) = _square_sides(g, square, a_side, b_side)
    s: set[int] = {a1, a2}
    t: set[int] = {b1, b2}
    while True:
        outside = sorted(g.vertex_set() - s - t)
        absorbed = False
        for v in outside:
            for here, there in ((s, t), (t, s)):
                if not g.is_mixed_on(v, here):
                    continue
                sq = _naive_mixed_square(g, v, here, there)
                if sq is None:
                    raise HypothesisViolationError(v, tuple(sorted(s | t))[:4])
                if not all(g.has_edge(v, w) for w in there):
                    raise HypothesisViolationError(v, sq)
                there.add(v)
                absorbed = True
                break
            if absorbed:
                break
        if absorbed:
            continue
        e = [v for v in outside if s <= nbrs(g)[v] and t <= nbrs(g)[v]]
        pair = next(
            ((e1, e2) for e1, e2 in itertools.combinations(e, 2) if not g.has_edge(e1, e2)),
            None,
        )
        if pair is None:
            break
        s.add(pair[0])
        t.add(pair[1])
    if naive_w_join_parts(g, s, t) is None:
        raise HypothesisViolationError(min(s | t), (a1, a2, b1, b2))
    return WJoin(frozenset(s), frozenset(t))


# -- constructed hosts for growth-hypothesis tests ------------------------------------


def random_growth_host(rng):
    """A host whose outside vertices are complete or anticomplete to each of
    the two clique sides, and whose common-complete attachments form a
    clique, so the growth hypothesis holds by construction: absorption never
    leaves the two seed cliques."""
    na, nb = rng.randint(2, 3), rng.randint(2, 3)
    a = list(range(na))
    b = list(range(na, na + nb))
    edges = [(u, v) for u, v in itertools.combinations(a, 2)]
    edges += [(u, v) for u, v in itertools.combinations(b, 2)]
    # cross adjacency: a perfect-matching square plus random cross edges
    edges += [(a[0], b[0]), (a[1], b[1])]
    for u in a:
        for v in b:
            if (u, v) in ((a[0], b[0]), (a[1], b[1])):
                continue
            if (u, v) in ((a[0], b[1]), (a[1], b[0])):
                continue  # keep the seed square induced
            if rng.random() < 0.4:
                edges.append((u, v))
    n = na + nb
    e_class: list[int] = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("c", "d", "e", "f"))
        v = n
        n += 1
        if kind in ("c", "e"):
            edges += [(v, u) for u in a]
        if kind in ("d", "e"):
            edges += [(v, u) for u in b]
        if kind == "e":
            edges += [(v, u) for u in e_class]
            e_class.append(v)
    g = from_edge_list(n, edges)
    return g, (a[0], a[1], b[0], b[1]), (a[0], a[1]), (b[0], b[1])


def naive_decode_graph6(text: str) -> Graph:
    """A well-formed graph6 line read bit by bit: the size header, then the
    upper triangle column by column, (0, 1), (0, 2), (1, 2), (0, 3), ...,
    six bits per byte, most significant first."""
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    vals = [ord(c) - 63 for c in data]
    if vals[0] != 63:
        size, body = vals[:1], vals[1:]
    elif vals[1] != 63:
        size, body = vals[1:4], vals[4:]
    else:
        size, body = vals[2:8], vals[8:]
    n = 0
    for val in size:
        n = n << 6 | val
    bits = [(val >> shift) & 1 for val in body for shift in range(5, -1, -1)]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edge_list(n, edges)
