"""Strong-stable-set computation.

``brute_force`` is the oracle: lexicographically smallest strong stable set
containing a prescribed set, by exhaustive enumeration. ``solve`` is the
structure-guided recursion: a cascade of reductions (complete, components,
one ``peel`` pass that removes free twins and simplicial vertices,
cobipartite, linear interval, line graph of a bipartite multigraph, W-join,
1-join, smooth augmentation, peculiar), each recursing on strictly smaller
instances, with brute force as the flagged last resort. Each branch builds
its answer from its sub-answers, so the cascade takes the first branch that
applies; the structure theory makes it hit a structural branch on
claw-free innocent inputs of the shapes it recognizes. The line-graph
branch comes before the join searches because it rejects cheapest: root
recovery stops at the first vertex in a third maximal clique, while a join
search fails only after trying every square or every edge.

``solve`` checks the root answer once with ``is_strong_stable_set``; when
that fails it records ``verify-failed`` and brute-forces the whole instance,
the same fallback as for a sub-instance with no solution. Results are
therefore sound on arbitrary inputs, and "none exists" is only ever reported
after a completed brute-force confirmation on the whole instance, or when
the cobipartite branch, a complete decision for graphs with no stable
triple, finds none on the whole instance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from .core import (
    Budget,
    BudgetExceededError,
    Graph,
    GraphError,
    _Meter,
    _flood,
    _iter_bits,
    _mask_of,
    _meter,
    components,
    components_within,
    from_edge_list,
    induced,
    induced_cycles,
    is_strong_stable_set,
    iter_maximal_cliques,
    shortest_path,
    squares,
)
from .decompose import (
    OneJoin,
    WJoin,
    _is_clique_mask,
    _w_join_parts,
    find_one_join,
    find_w_join,
)
from .linegraph import _augment_candidates, recover_root, suitable_matching
from .recognizers import (
    PeculiarParts,
    _clown_witness,
    check_linear_interval_order,
    find_clowns,
    find_cosimplicial_nonedge,
    is_consistent_set,
    is_simplicial_vertex,
    linear_interval_order,
    peculiar_structure,
    verify_peculiar,
)


class SolveStatus(str, Enum):
    FOUND = "found"
    NONE_EXISTS = "none-exists"
    FALLBACK_FOUND = "fallback-found"
    BUDGET = "budget"


@dataclass(frozen=True)
class BranchRecord:
    branch: str
    detail: dict = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    s: Optional[frozenset[int]]
    trace: tuple[BranchRecord, ...]


class CaseNotApplicable(GraphError):
    """The instance is out of a branch's scope: the cascade's one signal to
    try the next branch (any other error from a branch propagates)."""


class _SubInstanceInfeasible(Exception):
    """Internal: instance (g, z) has no solution, as ``proof`` (a brute force
    or a deciding branch) showed."""

    def __init__(self, g: Graph, z: frozenset[int], proof: str = "brute-force"):
        super().__init__(f"no strong stable set on {g.n} vertices")
        self.g = g
        self.z = z
        self.proof = proof


# -- the oracle -------------------------------------------------------------------


def brute_force(
    g: Graph, z: Iterable[int] = (), budget: Budget | _Meter | None = None
) -> Optional[frozenset[int]]:
    """Lexicographically smallest strong stable set containing z, or None.

    Stable supersets of z are enumerated in sorted-tuple order and tested
    against the maximal cliques; absence is therefore verified.
    """
    meter = _meter(budget)
    cap = meter.budget.max_vertices  # the one search the vertex cap bounds
    if g.n > cap:
        raise BudgetExceededError(f"brute force: graph has {g.n} vertices, budget allows {cap}")
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


# -- the gadgets -------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionResult:
    graph: Graph
    added: tuple[int, ...]
    clown_added: Optional[tuple[int, ...]]
    extended: Optional[frozenset[int]]


def extend_at_simplicial(
    g: Graph,
    v0: int,
    variant: int,
    m: int,
    k: int | None = None,
    solution: Iterable[int] | None = None,
) -> ExtensionResult:
    """Attach one of the three canonical structures at a simplicial vertex.

    Variant 1: a hole v0-v1-...-vm-v0 (m odd >= 3) whose second vertex v1
    duplicates v0's closed neighborhood. Variant 2: a pendant path
    v0-v1-...-vm (m even >= 2). Variant 3: a pendant path of even length m
    ending at the hat of a fresh clown on k vertices (k even >= 4).

    When ``solution`` (a strong stable set of g containing v0) is given, the
    matching extension is returned as well.
    """
    if not is_simplicial_vertex(g, v0):
        raise GraphError(f"vertex {v0} is not simplicial")
    if variant == 1:
        if m < 3 or m % 2 == 0:
            raise GraphError("variant 1 needs odd m >= 3")
    elif variant in (2, 3):
        if m < 2 or m % 2 == 1:
            raise GraphError(f"variant {variant} needs even m >= 2")
        if variant == 3 and (k is None or k < 4 or k % 2 == 1):
            raise GraphError("variant 3 needs even k >= 4")
    else:
        raise GraphError("variant must be 1, 2, or 3")

    n = g.n
    edges = list(g.edges())
    added = tuple(range(n, n + m))  # v1 .. vm

    def v(t: int) -> int:  # v_t, 1-based
        return added[t - 1]

    edges.append((v0, v(1)))
    edges.extend((v(t), v(t + 1)) for t in range(1, m))
    clown = None
    if variant == 1:
        edges.append((v(m), v0))
        edges.extend((v(1), nb) for nb in _iter_bits(g.bits[v0]))
    elif variant == 3:
        c0 = n + m
        hole = tuple(range(n + m + 1, n + m + 1 + k))
        clown = (c0,) + hole
        edges.append((v(m), c0))
        edges.extend([(c0, hole[0]), (c0, hole[1])])
        edges.extend((hole[i], hole[(i + 1) % k]) for i in range(k))
    total = n + m + (1 + k if variant == 3 else 0)
    g2 = from_edge_list(total, edges)

    extended = None
    if solution is not None:
        s = frozenset(solution)
        if v0 not in s:
            raise GraphError("the given solution must contain the simplicial vertex")
        extra = {v(t) for t in range(2, m + 1, 2)}  # v2, v4, ...; v_m only for even m
        if variant == 3:
            extra |= {clown[i] for i in range(2, k + 1, 2)}  # c2, c4, ..., ck
        extended = s | extra
    return ExtensionResult(g2, added, clown, extended)


# -- closed-form cases ---------------------------------------------------------------


def solve_cobipartite(g: Graph, z: Iterable[int] = ()) -> Optional[frozenset[int]]:
    """A strong stable set containing z of a graph with no stable triple
    (every non-neighbourhood is a clique, as in cobipartite graphs and
    antiholes), or None when none exists.

    Every stable set has at most two vertices. The empty set is strong only
    in the empty graph, and {w} exactly when w is universal. A non-edge
    {u, v} is strong exactly when it is cosimplicial: a maximal clique
    missing both holds some x not in N[u] and some y not in N[v]; x != y,
    since otherwise x, u, v would be a stable triple, so xy is an edge. So
    the lex-first cosimplicial non-edge through z, else the lowest universal
    vertex that z allows, covers every stable set containing z.
    """
    z = frozenset(z)
    full = (1 << g.n) - 1
    if not all(_is_clique_mask(g.bits, full & ~(b | 1 << u)) for u, b in enumerate(g.bits)):
        raise CaseNotApplicable("graph has a stable triple")
    if not g.is_stable(z):
        raise GraphError("prescribed set is not stable")
    if g.n == 0:
        return frozenset()
    pair = find_cosimplicial_nonedge(g, z)
    if pair is not None:
        return frozenset(pair)
    universal = (w for w in sorted(z) or range(g.n) if g.degree(w) == g.n - 1)
    return next((frozenset({w}) for w in universal), None)


def solve_peculiar(g: Graph, parts: PeculiarParts) -> frozenset[int]:
    """A two-vertex strong stable set of a peculiar graph with no long
    antihole: a cosimplicial non-edge across the first cobipartite pair."""
    if not verify_peculiar(g, parts):
        raise GraphError("parts do not describe a peculiar structure of g")
    sub, mapping = induced(g, parts.a1 | parts.b2)
    pair = find_cosimplicial_nonedge(sub)
    if pair is None:
        raise CaseNotApplicable("no cosimplicial non-edge across the pair; host out of scope")
    return frozenset({mapping[pair[0]], mapping[pair[1]]})


def solve_linear_interval(
    g: Graph,
    z: Iterable[int],
    order: Iterable[int],
    budget: Budget | _Meter | None = None,
) -> frozenset[int]:
    """Strong stable set containing z for a linear interval graph.

    Follows the ordering: ends outside z are peeled off one at a time; with
    both ends prescribed, the prefix up to the last neighbor of the second
    vertex is cut away, the prescribed end is transplanted onto the cut
    point, and the first vertex rejoins the solution of the remaining suffix.
    """
    meter = _meter(budget)
    seq = tuple(order)
    if not check_linear_interval_order(g, seq):
        raise GraphError("not a valid linear interval order")
    z = frozenset(z)
    if not g.is_stable(z):
        raise GraphError("prescribed set is not stable")

    edge = g.has_edge
    # Every subsequence of the order has the umbrella property, so its
    # components are its runs of consecutive adjacent vertices, and a
    # connected one is a clique when its ends are adjacent. Each step below
    # keeps a connected subsequence connected (it drops an end, keeps a
    # suffix, or drops the second vertex while the first sees the third),
    # so only the whole order is ever split, and each run is one chain of
    # steps.
    cuts = [i for i in range(1, len(seq)) if not edge(seq[i - 1], seq[i])]
    runs = [seq[i:j] for i, j in zip([0, *cuts], [*cuts, len(seq)])]
    if len(runs) > 1:
        meter.tick()
        runs.sort(key=min)
    res: frozenset[int] = frozenset()
    for active in runs:
        zz = z & frozenset(active)
        # (v, forced) in chain order, replayed in reverse once the rest is
        # solved: a forced v is added, any other is lifted
        lifts: list[tuple[int, bool]] = []
        while True:
            meter.tick()
            if len(active) <= 1:
                s = frozenset(active)
                break
            first, last = active[0], active[-1]
            if edge(first, last):  # complete
                s = zz if zz else frozenset({first})
                break
            # both ends of the order are simplicial in the active subgraph
            if first not in zz:
                lifts.append((first, False))
                active = active[1:]
                continue
            if last not in zz:
                lifts.append((last, False))
                active = active[:-1]
                continue
            # the neighbours of second after it come right after it
            second, idx = active[1], 1
            while idx + 1 < len(active) and edge(second, active[idx + 1]):
                idx += 1
            v_i = active[idx]
            if edge(first, v_i):
                # first and second are twins within the active set; drop second
                active = active[:1] + active[2:]
                continue
            if zz & set(active[1:idx]):
                raise CaseNotApplicable("prescribed vertex inside the cut prefix; host out of scope")
            lifts.append((first, True))
            active, zz = active[idx:], (zz - {first}) | {v_i}
        for v, forced in reversed(lifts):
            s = s | {v} if forced else _lift_simplicial(g, v, s)
        res |= s
    if not is_strong_stable_set(g, res, meter):
        raise CaseNotApplicable("construction failed; host out of scope")
    if not z <= res:
        raise CaseNotApplicable("construction lost a prescribed vertex; host out of scope")
    return res


def _lift_simplicial(g: Graph, v: int, s: frozenset[int]) -> frozenset[int]:
    """Lift a strong stable set s of G - v, for a simplicial v, to G.

    N[v] is the only maximal clique of G containing v, and every other
    maximal clique of G is one of G - v; so s needs v exactly when it
    misses N(v).
    """
    near = g.bits[v]
    while near:
        low = near & -near
        if low.bit_length() - 1 in s:
            return s
        near ^= low
    return s | {v}


# -- recombination cases ----------------------------------------------------------


SubSolver = Callable[[Graph, frozenset[int]], frozenset[int]]


def _solve_on(
    g: Graph, keep: Iterable[int], z: frozenset[int], subsolver: SubSolver
) -> frozenset[int]:
    """Solve G[keep] with z (a subset of keep) prescribed; g's ids in and out."""
    sub, mapping = induced(g, keep)
    pos = {old: new for new, old in enumerate(mapping)}
    s = subsolver(sub, frozenset(pos[v] for v in z))
    return frozenset(mapping[v] for v in s)


def _solve_with_apex(
    g: Graph,
    keep: frozenset[int],
    complete_to: frozenset[int],
    z: frozenset[int],
    subsolver: SubSolver,
    pendant: bool = False,
) -> frozenset[int]:
    """Solve G[keep] plus an apex complete to ``complete_to`` (g's ids).

    The apex is prescribed along with z; with ``pendant``, a pendant hanging
    off the apex is prescribed in its place. The answer is in g's ids,
    without the apex and the pendant.
    """
    sub, mapping = induced(g, keep)
    apex = sub.n
    pos = {old: new for new, old in enumerate(mapping)}
    at = _mask_of(pos[v] for v in complete_to)
    bits = [b | 1 << apex if at >> v & 1 else b for v, b in enumerate(sub.bits)]
    bits.append(at | 1 << apex + 1 if pendant else at)
    if pendant:
        bits.append(1 << apex)
    s = subsolver(Graph(len(bits), tuple(bits)), frozenset(pos[v] for v in z) | {len(bits) - 1})
    return frozenset(mapping[v] for v in s if v < apex)


def combine_w_join(
    g: Graph, w: WJoin, z: Iterable[int], subsolver: SubSolver
) -> frozenset[int]:
    """Strong stable set through a W-join.

    The two mixed cliques are covered by a cosimplicial non-edge across
    them; the attachment sides are solved independently with an apex vertex
    standing in for the join, and the far side is split by the absence of
    attachment-to-attachment paths.
    """
    z = frozenset(z)
    parts = _w_join_parts(g, w.a, w.b)
    if parts is None:
        raise CaseNotApplicable("not a verified proper coherent W-join")
    c, d, e, f = parts
    if not z <= f:
        raise CaseNotApplicable("prescribed vertices attached to the join")
    if not (g.is_clique(c) and g.is_clique(d)):
        raise CaseNotApplicable("attachment sets are not cliques")
    if e and f and not g.is_anticomplete_between(e, f):
        raise CaseNotApplicable("common-complete set sees the far side")
    if c and d and not g.is_anticomplete_between(c, d):
        raise CaseNotApplicable("attachment sets see each other")
    f_c: set[int] = set()
    f_d: set[int] = set()
    for comp in components_within(g, f):
        near = g.neighborhood(comp)
        touches_c, touches_d = bool(near & c), bool(near & d)
        if touches_c and touches_d:
            raise CaseNotApplicable("far side not splittable")
        (f_d if touches_d else f_c).update(comp)
    # each attachment side is solved with an apex standing in for the join
    s_c = _solve_with_apex(g, frozenset(f_c) | c, c, z & frozenset(f_c), subsolver)
    s_d = _solve_with_apex(g, frozenset(f_d) | d, d, z & frozenset(f_d), subsolver)
    sub, mapping = induced(g, w.a | w.b)
    pair = find_cosimplicial_nonedge(sub)
    if pair is None:
        raise CaseNotApplicable("no cosimplicial non-edge across the join")
    return s_c | s_d | {mapping[pair[0]], mapping[pair[1]]}


def combine_one_join(
    g: Graph,
    j: OneJoin,
    z: Iterable[int],
    subsolver: SubSolver,
    budget: Budget | _Meter | None = None,
) -> frozenset[int]:
    """Strong stable set through a 1-join.

    Rich joins: parity of the qualifying paths from the opposite interface
    to each side's anchor object (an even hole or a prescribed-to-be
    simplicial far vertex) decides which side receives a bare apex in its
    prescribed set and which receives an apex with a prescribed pendant.
    Small joins: the two-vertex side contributes its far vertex directly and
    the big side is solved with an interface vertex prescribed.
    """
    meter = _meter(budget)
    z = frozenset(z)
    if z & (j.a1 | j.a2):
        raise CaseNotApplicable("prescribed vertex on the interface")
    if j.rich:
        p1 = _side_parity(g, j.v1, j.a1, j.v1 - j.a1, min(j.a2), meter)
        p2 = _side_parity(g, j.v2, j.a2, j.v2 - j.a2, min(j.a1), meter)
        if p1 is None or p2 is None or p1 == p2:
            raise CaseNotApplicable("parity analysis inapplicable")
        s1 = _solve_with_apex(g, j.v1, j.a1, z & j.v1, subsolver, p1 == 1)
        s2 = _solve_with_apex(g, j.v2, j.a2, z & j.v2, subsolver, p2 == 1)
        return s1 | s2
    # small join: one side is an interface vertex plus a pendant
    for small, big in ((j.v1, j.v2), (j.v2, j.v1)):
        if len(small) != 2:
            continue
        a_small = small & (j.a1 | j.a2)
        b_small = small - a_small
        if len(a_small) != 1 or len(b_small) != 1:
            continue
        (b1,) = b_small
        big_a = (j.a1 | j.a2) & big
        big_b = big - big_a
        for a2 in sorted(big_a):
            try:
                s = _solve_on(g, big_b | {a2}, (z & big_b) | {a2}, subsolver)
            except CaseNotApplicable:
                continue
            cand = s | {b1}
            if z <= cand and is_strong_stable_set(g, cand, meter):
                return cand
    raise CaseNotApplicable("small-join construction did not verify")


def _side_parity(
    g: Graph,
    verts: frozenset[int],
    interface: frozenset[int],
    far: frozenset[int],
    anchor: int,
    meter: _Meter,
) -> Optional[int]:
    """Parity of a shortest qualifying path from the opposite anchor into
    this side, ending at an even hole or a simplicial far vertex."""
    allowed = verts | {anchor}
    simp = sorted(v for v in far if is_simplicial_vertex(g, v))
    if simp:
        path = shortest_path(g, anchor, {simp[0]}, allowed=allowed)
        if path is None:
            return None
        return (len(path) - 1) % 2
    sub, mapping = induced(g, verts)
    for cyc in induced_cycles(sub, meter, min_len=4, parity=0):
        hole = frozenset(mapping[v] for v in cyc)
        if g.bits[anchor] & _mask_of(hole):
            return 1  # zero-length qualifying path, plus the step onto the hole
        ring = g.neighborhood(hole) & verts
        inner = (allowed - hole - ring) | {anchor}
        path = shortest_path(g, anchor, ring, allowed=inner | ring)
        if path is None:
            continue
        return len(path) % 2  # (len - 1) edges plus one step onto the hole
    return None


# -- the cascade -------------------------------------------------------------------


class _Ctx:
    def __init__(self, meter: _Meter):
        self.meter = meter
        self.trace: list[BranchRecord] = []
        self.fallback = False

    def record(self, branch: str, **detail) -> None:
        self.trace.append(BranchRecord(branch, dict(detail)))

    def subsolver(self, h: Graph, zz: frozenset[int]) -> frozenset[int]:
        return _solve(self, h, zz)


def validate_prescribed(
    g: Graph, z: frozenset[int], budget: Budget | _Meter | None = None
) -> None:
    """Raise unless z is a consistent set of safe vertices."""
    meter = _meter(budget)
    if not z <= g.vertex_set():
        raise GraphError("prescribed vertices out of range")
    if not g.is_stable(z):
        raise GraphError("prescribed set is not stable")
    clowns = None  # listed once, when the first simplicial vertex needs them
    for v in sorted(z):
        simplicial = is_simplicial_vertex(g, v)
        if simplicial and clowns is None:
            clowns = list(find_clowns(g, meter))
        witness = _clown_witness(g, v, clowns, meter) if simplicial else None
        if not simplicial or witness is not None:
            raise GraphError(f"prescribed vertex {v} is not safe ({witness})")
    ok, witness = is_consistent_set(g, z, meter)
    if not ok:
        raise GraphError(f"prescribed set is not consistent (odd path {witness})")


def solve(
    g: Graph,
    z: Iterable[int] = (),
    budget: Budget | None = None,
    trusted: bool = False,
) -> SolveResult:
    """Structure-guided strong-stable-set search; see the module docstring.

    Unless ``trusted``, z is first validated as a consistent set of safe
    vertices. Validation, the cascade, the root check and any brute force
    all draw on one enumeration meter.
    """
    meter = _meter(budget)
    z = frozenset(z)
    if not z <= g.vertex_set():
        raise GraphError("prescribed vertices out of range")
    if not trusted and z:
        validate_prescribed(g, z, meter)
    ctx = _Ctx(meter)
    proof = "brute-force"
    try:
        try:
            s = _solve(ctx, g, z)
            if z <= s and is_strong_stable_set(g, s, meter):
                status = SolveStatus.FALLBACK_FOUND if ctx.fallback else SolveStatus.FOUND
                return SolveResult(status, s, tuple(ctx.trace))
            ctx.record("verify-failed", failed_branch=ctx.trace[-1].branch, n=g.n)
            s = brute_force(g, z, meter)
        except _SubInstanceInfeasible as e:
            # unless (g, z) itself was the instance proved infeasible
            if (e.g, e.z) == (g, z):
                s, proof = None, e.proof
            else:
                s = brute_force(g, z, meter)
    except BudgetExceededError:
        ctx.record("budget")
        return SolveResult(SolveStatus.BUDGET, None, tuple(ctx.trace))
    ctx.record(proof, result="none-exists" if s is None else "found", n=g.n)
    status = SolveStatus.NONE_EXISTS if s is None else SolveStatus.FALLBACK_FOUND
    return SolveResult(status, s, tuple(ctx.trace))


_BRANCHES: list[tuple[str, Callable]] = []


def _branch(name: str):
    def deco(fn):
        _BRANCHES.append((name, fn))
        return fn

    return deco


def _solve(
    ctx: _Ctx, g: Graph, z: frozenset[int], skip: str | None = None
) -> frozenset[int]:
    """The first branch that applies, other than ``skip``, else brute force;
    none applies to a z that is not stable (a trusted z may not be)."""
    ctx.meter.tick()
    for name, fn in _BRANCHES if g.is_stable(z) else ():
        if name == skip:
            continue
        try:
            s = fn(ctx, g, z)
        except CaseNotApplicable:
            continue
        ctx.record(name, n=g.n, size=len(s))
        return s
    s = brute_force(g, z, ctx.meter)
    ctx.fallback = True
    if s is None:
        raise _SubInstanceInfeasible(g, z)
    ctx.record("brute-force", n=g.n, size=len(s))
    return s


@_branch("complete")
def _branch_complete(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    if not g.is_complete():
        raise CaseNotApplicable
    if g.n == 0:
        return frozenset()
    return z if z else frozenset({0})


@_branch("components")
def _branch_components(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    full = (1 << g.n) - 1
    if _flood(g.bits, full & -full, full) == full:
        raise CaseNotApplicable
    return frozenset().union(
        *(_solve_on(g, comp, z & comp, ctx.subsolver) for comp in components(g))
    )


@_branch("peel")
def _branch_peel(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    """Drop free true twins and free simplicial vertices until none is left,
    solve what remains once, and lift the simplicial ones back in reverse.

    A dropped twin needs no lift: every maximal clique through it holds its
    twin too. A vertex becomes a twin or simplicial only when a neighbor of
    it or of its twin is dropped, so only those neighbors are looked at
    again. The remainder then has nothing left to peel, so it is solved
    without this branch.
    """
    bits = g.bits
    full = keep = (1 << g.n) - 1
    zm = _mask_of(z)
    todo = list(reversed(range(g.n)))  # popped smallest first
    lifts: list[int] = []
    while todo:
        v = todo.pop()
        bv = 1 << v
        if not keep & bv:
            continue
        near = bits[v] & keep
        closed = near | bv
        twins = 0
        clique = True  # near is a clique: each u in it sees all of closed
        for u in _iter_bits(near):
            seen = (bits[u] & keep) | 1 << u
            if seen == closed:
                twins |= 1 << u
            elif closed & ~seen:
                clique = False
        if twins:
            free = (twins | bv) & ~zm
            if not free:
                continue
            drop = (free & -free).bit_length() - 1
        elif clique and not zm & bv:
            drop = v
            lifts.append(v)
        else:
            continue
        keep &= ~(1 << drop)
        todo.extend(reversed(list(_iter_bits(bits[drop] & keep))))
    if keep == full:
        raise CaseNotApplicable
    s = _solve_on(g, _iter_bits(keep), z, functools.partial(_solve, ctx, skip="peel"))
    for v in reversed(lifts):
        s = _lift_simplicial(g, v, s)
    return s


@_branch("cobipartite")
def _branch_cobipartite(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    s = solve_cobipartite(g, z)
    if s is None:
        raise _SubInstanceInfeasible(g, z, "cobipartite")
    return s


@_branch("linear-interval")
def _branch_linear_interval(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    if len(z) < 2:
        # g is connected and not complete here, so the first and last vertex
        # of such an order are two simplicial vertices; peel dropped nothing,
        # so every simplicial vertex is prescribed
        raise CaseNotApplicable("fewer than two prescribed")
    order = linear_interval_order(g)
    if order is None:
        raise CaseNotApplicable
    return solve_linear_interval(g, z, order, ctx.meter)


@_branch("line-graph")
def _branch_line_graph(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    rr = recover_root(g, ctx.meter)
    if rr is None:
        raise CaseNotApplicable
    m = suitable_matching(rr.root, z, ctx.meter)  # root edge v is vertex v
    if m is None:
        raise CaseNotApplicable
    return m.edges


@_branch("w-join")
def _branch_w_join(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    wj = find_w_join(g, ctx.meter)
    if wj is None:
        raise CaseNotApplicable
    return combine_w_join(g, wj, z, ctx.subsolver)


@_branch("one-join")
def _branch_one_join(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    j = find_one_join(g)
    if j is None:
        raise CaseNotApplicable
    return combine_one_join(g, j, z, ctx.subsolver, ctx.meter)


@_branch("augmentation")
def _branch_augmentation(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    """Shrink the first candidate clique pair (X, Y) that misses z and has
    no square to one edge uv, u in X complete to Y and v in Y complete to
    X, and solve the rest: a strong stable set S' of
    G' = G - ((X - u) | (Y - v)) is one of G.

    Each candidate is a homogeneous pair of cliques with no vertex outside
    complete to both, so each outside vertex is complete to X (C), to Y
    (D) or to neither. In G', u sees C + v and v sees D + u, so {u, v} is a
    maximal clique and S' holds one of them. A maximal clique K of G that
    misses X | Y is one of G'; one inside X | Y holds u and v; any other
    is X | C' or Y | D', and S' meets it in the maximal clique C' + u, or
    D' + v, of G'.
    """
    for xs, ys in _augment_candidates(g, ctx.meter):
        if z & (xs | ys):
            continue
        sub, _ = induced(g, xs | ys)
        if any(True for _ in squares(sub, ctx.meter)):
            continue  # square case belongs to the W-join branch
        u = next((x for x in sorted(xs) if g.is_complete_between({x}, ys)), None)
        v = next((y for y in sorted(ys) if g.is_complete_between({y}, xs)), None)
        if u is None or v is None:
            continue
        drop = (xs - {u}) | (ys - {v})
        return _solve_on(g, g.vertex_set() - drop, z, ctx.subsolver)
    raise CaseNotApplicable


@_branch("peculiar")
def _branch_peculiar(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    if z:
        raise CaseNotApplicable("peculiar graphs have no simplicial vertices")
    parts = peculiar_structure(g, ctx.meter)
    if parts is None:
        raise CaseNotApplicable
    return solve_peculiar(g, parts)
