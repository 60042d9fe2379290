"""Strong-stable-set computation.

``brute_force`` is the exact last resort: the lexicographically smallest
strong stable set containing a prescribed set, by an include/exclude search
that prunes a branch once some maximal clique it misses can no longer be
met, bounded by the enumeration meter alone. ``solve`` is the
structure-guided recursion: a cascade of reductions (complete, components,
one ``peel`` pass that removes free twins and simplicial vertices,
cobipartite, line graph of a bipartite multigraph, W-join, smooth
augmentation, strong stable pair), each recursing on strictly smaller
instances, with brute force as the flagged last resort. The W-join and
augmentation branches each keep two vertices of a homogeneous pair of
cliques and solve the rest once, by a local lemma: every strong stable set
of the rest is one of the whole graph. Each branch builds
its answer from its sub-answers, so the cascade takes the first branch that
applies; the structure theory makes it hit a structural branch on claw-free
innocent inputs of the shapes it recognizes. The line-graph branch comes
before the W-join search because it rejects cheapest: root recovery stops
at the first vertex in a third maximal clique, while the W-join search
fails only after growing from every square.

``solve`` checks the root answer once with ``is_strong_stable_set``; when
that fails it records ``verify-failed`` and brute-forces the whole instance,
the same fallback as for a sub-instance with no solution. Results are
therefore sound on arbitrary inputs, and "none exists" is only ever reported
after a completed brute-force confirmation on the whole instance, or when
the cobipartite branch, a complete decision for graphs with no stable
triple, finds none on the whole instance.
"""

from __future__ import annotations

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
    _induced,
    _is_clique_mask,
    _iter_bits,
    _mask_components,
    _mask_in,
    _mask_of,
    _meter,
    from_edge_list,
    is_strong_stable_set,
    iter_maximal_cliques,
)
from .decompose import WJoin, find_w_join, verify_w_join
from .linegraph import _augment_candidates, recover_root, suitable_matching
from .recognizers import (
    _clown_holes,
    _unsafe_witness,
    find_strong_pair,
    is_consistent_set,
    is_simplicial_vertex,
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

    An include/exclude search on masks over the maximal cliques, listed
    once. A frame holds a stable set S, the vertices ``rest`` above its last
    decision with no neighbour in S, and the ``live`` cliques S misses. With
    none live it returns S; else it splits on the lowest v in ``rest``, with
    v first. A frame is pruned when a live clique misses ``rest``, which
    covers both rules: S + v is dropped when a clique it misses has no
    vertex above v outside N(S + v), and the sets without v when v was some
    clique's last candidate. Sorted tuples thus come in the preorder of
    plain enumeration, less subtrees holding no strong set, so the answer
    is the same set. A frame ticks once plus once per live clique, the
    tests it makes; the meter alone bounds the search.
    """
    meter = _meter(budget)
    z = frozenset(z)
    if not g.is_stable(z):  # GraphError when z is out of range
        return None
    bits = g.bits
    s = _mask_of(z)
    rest = (1 << g.n) - 1 & ~_mask_of(z | g.neighborhood(z))
    live = [k for k in map(_mask_of, iter_maximal_cliques(g, meter)) if not k & s]
    stack = [(s, rest, live)]
    while stack:
        s, rest, live = stack.pop()
        meter.tick(1 + len(live))
        if not live:
            return frozenset(_iter_bits(s))
        if not all(k & rest for k in live):
            continue
        low = rest & -rest
        rest ^= low
        stack.append((s, rest, live))  # without v: popped after every set with v
        near = bits[low.bit_length() - 1]
        stack.append((s | low, rest & ~near, [k for k in live if not k & low]))
    return None


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
    {u, v} is strong by the lemma of :func:`find_strong_pair`, as no vertex
    misses both. So the lex-first strong pair through z, else the lowest
    universal vertex that z allows, covers every stable set containing z.
    """
    z = frozenset(z)
    full = (1 << g.n) - 1
    if not all(_is_clique_mask(g.bits, full & ~(b | 1 << u)) for u, b in enumerate(g.bits)):
        raise CaseNotApplicable("graph has a stable triple")
    if not g.is_stable(z):
        raise GraphError("prescribed set is not stable")
    if g.n == 0:
        return frozenset()
    pair = find_strong_pair(g, z)
    if pair is not None:
        return frozenset(pair)
    universal = (w for w in sorted(z) or range(g.n) if g.degree(w) == g.n - 1)
    return next((frozenset({w}) for w in universal), None)


# -- recombination cases ----------------------------------------------------------


SubSolver = Callable[[Graph, frozenset[int]], frozenset[int]]


def _solve_on(
    g: Graph, keep: int, z: frozenset[int], subsolver: SubSolver
) -> frozenset[int]:
    """Solve G[keep] for a mask keep, z's members in it prescribed; g's ids in and out."""
    sub, mapping = _induced(g, keep)
    s = subsolver(sub, _ids_within(keep, z))
    return frozenset([mapping[v] for v in s])


def _ids_within(keep: int, z: Iterable[int]) -> frozenset[int]:
    """The ids in G[keep] of z's members in the mask keep: their ranks."""
    return frozenset([(keep & (1 << v) - 1).bit_count() for v in z if keep >> v & 1])


def combine_w_join(
    g: Graph, w: WJoin, z: Iterable[int], subsolver: SubSolver
) -> frozenset[int]:
    """Strong stable set through a W-join (A, B), by one local lemma.

    Let {p, q} be a strong stable pair of G[A | B]. Every strong stable set
    of G' = G - ((A | B) - {p, q}) through p and q is one of G: no vertex
    outside is mixed on A or on B, so a maximal clique of G that meets
    A | B holds all of A, all of B, or a maximal clique of G[A | B], and
    each of these holds p or q; every other maximal clique lies inside G'
    and is one of G'. The lex-first such pair through z's members in A | B
    is prescribed along with z, and G' is solved once.
    """
    if not verify_w_join(g, w):
        raise CaseNotApplicable("not a verified proper coherent W-join")
    z = frozenset(z)
    join = _mask_of(w.a | w.b)
    sub, mapping = _induced(g, join)
    z_join = _ids_within(join, z)
    pair = find_strong_pair(sub, z_join) if len(z_join) <= 2 else None
    if pair is None:
        raise CaseNotApplicable("no strong pair across the join through z")
    zz = z | {mapping[pair[0]], mapping[pair[1]]}
    if not g.is_stable(zz):
        raise CaseNotApplicable("the strong pair sees a prescribed vertex")
    return _solve_on(g, (1 << g.n) - 1 & ~join | _mask_of(zz), zz, subsolver)


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
    if not g.is_stable(z):  # GraphError as well when z is out of range
        raise GraphError("prescribed set is not stable")
    holes = None  # the clown kernel's, listed once, when the first member needs them
    for v in sorted(z):
        if not is_simplicial_vertex(g, v):
            raise GraphError(f"prescribed vertex {v} is not simplicial")
        if holes is None:
            holes = list(_clown_holes(g, meter))
        witness = _unsafe_witness(g, v, holes, meter)
        if witness is not None:
            raise GraphError(f"prescribed vertex {v} is not safe ({witness})")
    ok, witness = is_consistent_set(g, z, meter)
    if not ok:
        raise GraphError(f"prescribed set is not consistent (odd path {witness})")


def solve(
    g: Graph,
    z: Iterable[int] = (),
    budget: Budget | _Meter | None = None,
    trusted: bool = False,
) -> SolveResult:
    """Structure-guided strong-stable-set search; see the module docstring.

    Unless ``trusted``, z is first validated as a consistent set of safe
    vertices. Validation, the cascade, the root check and any brute force
    all draw on one enumeration meter.
    """
    meter = _meter(budget)
    z = frozenset(z)
    if _mask_in(z, g.n) is None:
        raise GraphError("prescribed vertices out of range")
    ctx = _Ctx(meter)
    proof = "brute-force"
    try:
        if not trusted and z:
            validate_prescribed(g, z, meter)
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
        *[_solve_on(g, comp, z, ctx.subsolver) for comp in _mask_components(g.bits, full)]
    )


@_branch("peel")
def _branch_peel(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    """Solve what :func:`_peel` keeps once, without this branch, and lift
    its simplicial vertices back in reverse."""
    bits = g.bits
    keep, lifts = _peel(bits, g.n, _mask_of(z))
    if keep == (1 << g.n) - 1:
        raise CaseNotApplicable
    sub, mapping = _induced(g, keep)
    s = [mapping[v] for v in _solve(ctx, sub, _ids_within(keep, z), "peel")]
    sm = _mask_of(s)
    for v in reversed(lifts):
        if not bits[v] & sm:
            sm |= 1 << v
            s.append(v)
    return frozenset(s)


def _peel(bits: tuple[int, ...], n: int, zm: int) -> tuple[int, list[int]]:
    """Drop true twins and simplicial vertices outside the mask zm until
    none is left: the mask kept, and the simplicial vertices in drop order.

    A twin needs no lift, as its twin meets every clique through it; a
    simplicial v is lifted when the rest misses N(v), its only maximal
    clique being N[v]. Only neighbours of a dropped vertex can newly
    qualify, so only they are visited again, smallest first.
    """
    keep = (1 << n) - 1
    todo = list(range(n - 1, -1, -1))  # popped smallest first
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
        m = near
        while m:
            low = m & -m
            m ^= low
            seen = bits[low.bit_length() - 1] & keep | low
            if seen == closed:
                twins |= low
            elif closed & ~seen:
                clique = False
        if twins:
            free = (twins | bv) & ~zm
            if not free:
                continue
            drop = free & -free
        elif clique and not zm & bv:
            drop = bv
            lifts.append(v)
        else:
            continue
        keep ^= drop
        m = bits[drop.bit_length() - 1] & keep
        while m:  # its neighbours, highest first
            top = m.bit_length() - 1
            todo.append(top)
            m ^= 1 << top
    return keep, lifts


@_branch("cobipartite")
def _branch_cobipartite(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    s = solve_cobipartite(g, z)
    if s is None:
        raise _SubInstanceInfeasible(g, z, "cobipartite")
    return s


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


@_branch("augmentation")
def _branch_augmentation(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    """Shrink the first candidate clique pair (X, Y) that misses z to one
    edge uv, u in X complete to Y and v in Y complete to X, and solve the
    rest: a strong stable set S' of G' = G - ((X - u) | (Y - v)) is one of
    G.

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
        u = next((x for x in sorted(xs) if g.is_complete_between({x}, ys)), None)
        v = next((y for y in sorted(ys) if g.is_complete_between({y}, xs)), None)
        if u is None or v is None:
            continue
        drop = _mask_of((xs - {u}) | (ys - {v}))
        return _solve_on(g, (1 << g.n) - 1 ^ drop, z, ctx.subsolver)
    raise CaseNotApplicable


@_branch("pair")
def _branch_pair(ctx: _Ctx, g: Graph, z: frozenset[int]) -> frozenset[int]:
    """A two-vertex strong stable set through z, as in peculiar graphs;
    finding none proves nothing, since g may have a stable triple."""
    pair = find_strong_pair(g, z) if len(z) <= 2 else None
    if pair is None:
        raise CaseNotApplicable
    return frozenset(pair)
