import itertools
import random

import pytest

from strongstable import recognizers, solver
from strongstable.core import (
    Budget,
    BudgetExceededError,
    GraphError,
    _meter,
    complement,
    from_edge_list,
    induced,
    induced_cycles,
    is_strong_stable_set,
)
from strongstable.decompose import (
    OneJoin,
    WJoin,
    find_one_join,
    find_w_join,
    grow_square_connected_pair,
)
from strongstable.forbidden import Innocent, innocence_certificate
from strongstable.generators import antihole, peculiar
from strongstable.linegraph import _augment_candidates, recover_root
from strongstable.recognizers import find_claw, simplicial_vertices
from strongstable.solver import (
    CaseNotApplicable,
    SolveStatus,
    brute_force,
    combine_one_join,
    combine_w_join,
    extend_at_simplicial,
    solve,
    solve_cobipartite,
    solve_linear_interval,
    solve_peculiar,
    validate_prescribed,
)
from oracles import (
    attach_anchor_gadgets,
    complete,
    cycle,
    naive_is_stable,
    naive_is_strong_stable_set,
    naive_maximal_cliques,
    nbrs,
    path,
    strip_anchor_gadgets,
    subsets,
)


def cobipartite_recipe(h):
    """The complement of a random bipartite graph on h + h vertices."""
    rng = random.Random(11)
    edges = [(i, j) for i in range(h) for j in range(h, 2 * h) if rng.random() < 0.3]
    return complement(from_edge_list(2 * h, edges))


def plain_subsolver(h, zz):
    res = solve(h, zz, trusted=True)
    if res.s is None:
        raise CaseNotApplicable("sub-instance infeasible")
    return res.s


class TestBruteForce:
    def test_c5_none(self):
        assert brute_force(cycle(5)) is None

    def test_c6_lex_smallest(self):
        assert brute_force(cycle(6)) == {0, 2, 4}

    def test_p5_with_ends(self):
        assert brute_force(path(5), {0, 4}) == {0, 2, 4}

    def test_unstable_prescription(self):
        assert brute_force(path(3), {0, 1}) is None

    def test_budget_gate(self):
        with pytest.raises(Exception):
            brute_force(complete(20), budget=Budget(max_vertices=16))

    def test_lexicographic_tie_break(self):
        # K2: both {0} and {1} work; lexicographically smallest wins
        assert brute_force(from_edge_list(2, [(0, 1)])) == {0}


class TestDefaultBudget:
    # the vertex cap bounds brute force only, so the polynomial layers take
    # graphs above it and brute force refuses them
    def test_direct_brute_force_uses_the_default_cap(self):
        assert brute_force(path(20)) == frozenset(range(0, 20, 2))
        with pytest.raises(BudgetExceededError):
            brute_force(complete(25))

    def test_odd_hole_above_the_cap_is_budget(self):
        # not cobipartite, so none-exists needs a completed brute force
        res = solve(cycle(61))
        assert res.status == SolveStatus.BUDGET and res.s is None


class TestSolveBasics:
    def test_c6_via_line_graph(self):
        res = solve(cycle(6))
        assert res.status == SolveStatus.FOUND
        assert res.trace[-1].branch == "line-graph"
        assert is_strong_stable_set(cycle(6), res.s)

    def test_c5_none_exists(self):
        res = solve(cycle(5))
        assert res.status == SolveStatus.NONE_EXISTS and res.s is None

    def test_c4_via_cobipartite(self):
        res = solve(cycle(4))
        assert res.trace[-1].branch == "cobipartite"
        assert res.s in ({0, 2}, {1, 3})

    def test_complete(self):
        res = solve(complete(4))
        assert res.s == {0} and res.trace[-1].branch == "complete"

    def test_empty_graph(self):
        res = solve(from_edge_list(0, []))
        assert res.s == frozenset()

    def test_disconnected_union(self):
        g = from_edge_list(8, [(0, 1), (1, 2), (0, 2)] + [(i, (i - 3 + 1) % 5 + 3) for i in range(3, 8)])
        res = solve(g)  # triangle plus C5: triangle solvable, C5 not
        assert res.status == SolveStatus.NONE_EXISTS

    def test_clown_with_safe_pendant(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 4)])
        res = solve(g, {5})
        assert res.s is not None and 5 in res.s
        assert res.s & {4, 0, 1}
        assert is_strong_stable_set(g, res.s)

    def test_unsafe_prescription_rejected(self):
        g = from_edge_list(
            7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 4), (6, 5)]
        )
        with pytest.raises(GraphError):
            solve(g, {6})
        # trusted skips validation; the solver still produces something sound
        res = solve(g, {6}, trusted=True)
        assert res.s is None or is_strong_stable_set(g, res.s)

    @pytest.mark.parametrize("n", [12, 30])
    def test_even_cycle_within_budget(self, n):
        # recognizing a long cycle as not linear interval must not use up
        # the enumeration budget of the whole solve
        budget = Budget(n + 1, 100_000)
        res = solve(cycle(n), budget=budget)
        assert res.status == SolveStatus.FOUND
        assert is_strong_stable_set(cycle(n), res.s, budget)

    @pytest.mark.parametrize("n", [800, 2000])
    def test_long_path_without_recursion(self, n):
        # the peel pass is a loop, not one recursion level per vertex
        budget = Budget(n + 1, 10_000_000)
        res = solve(path(n), budget=budget)
        assert res.status == SolveStatus.FOUND
        assert [r.branch for r in res.trace] == ["complete", "peel"]
        assert is_strong_stable_set(path(n), res.s, budget)

    def test_long_path_prescribed_ends_without_recursion(self):
        # validation enumerates induced paths and cycles with explicit stacks
        n = 1201
        budget = Budget(n + 1, 10_000_000)
        res = solve(path(n), {0, n - 1}, budget)
        assert res.status == SolveStatus.FOUND
        assert {0, n - 1} <= res.s
        assert is_strong_stable_set(path(n), res.s, budget)

    def test_long_path_linear_interval_without_recursion(self):
        # no peel applies (the ends are prescribed), so the linear-interval
        # branch walks the whole path
        n = 2401
        budget = Budget(n + 1, 10_000_000)
        res = solve(path(n), {0, n - 1}, budget)
        assert res.status == SolveStatus.FOUND
        assert [r.branch for r in res.trace] == ["linear-interval"]
        assert res.s == frozenset(range(0, n, 2))

    def test_budget_status(self):
        # an odd hole is answered only by the brute-force fallback
        res = solve(cycle(7), budget=Budget(max_vertices=24, max_enumerations=2))
        assert res.status == SolveStatus.BUDGET and res.s is None
        # every layer of the cascade draws on the one cap of the call: this
        # even hole takes 94 ticks in all, and no single layer more than 60
        res = solve(cycle(30), budget=Budget(max_vertices=31, max_enumerations=60))
        assert res.status == SolveStatus.BUDGET and res.s is None

    def test_infeasible_root_searched_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return brute_force(*args)

        monkeypatch.setattr(solver, "brute_force", counted)
        res = solve(cycle(7))
        assert res.status == SolveStatus.NONE_EXISTS
        assert [r.branch for r in res.trace] == ["brute-force"]
        assert len(calls) == 1
        res = solve(cycle(7), budget=Budget(max_vertices=24, max_enumerations=10))
        assert res.status == SolveStatus.BUDGET and res.s is None

    def test_wrong_branch_answer_caught_at_the_root(self, monkeypatch):
        # the cascade trusts its branches; the one check on the root answer
        # catches a wrong one and brute force answers instead
        def wrong(ctx, g, z):
            return frozenset({0})

        branches = [
            (name, wrong if name == "cobipartite" else fn) for name, fn in solver._BRANCHES
        ]
        monkeypatch.setattr(solver, "_BRANCHES", branches)
        res = solve(cycle(4))
        assert res.status == SolveStatus.FALLBACK_FOUND
        assert res.s == brute_force(cycle(4))
        assert [r.branch for r in res.trace][-2:] == ["verify-failed", "brute-force"]

    def test_branch_error_propagates(self, monkeypatch):
        # only CaseNotApplicable sends the cascade to the next branch; any
        # other error from a branch is a fault and reaches the caller
        def broken(ctx, g, z):
            raise GraphError("broken branch")

        branches = [
            (name, broken if name == "cobipartite" else fn) for name, fn in solver._BRANCHES
        ]
        monkeypatch.setattr(solver, "_BRANCHES", branches)
        with pytest.raises(GraphError, match="broken branch"):
            solve(cycle(4))

    def test_trusted_prescription_not_stable_or_out_of_range(self):
        # no branch applies to a z that is not stable; brute force refutes it
        res = solve(cycle(4), {0, 1}, trusted=True)
        assert res.status == SolveStatus.NONE_EXISTS
        assert [r.branch for r in res.trace] == ["brute-force"]
        with pytest.raises(GraphError, match="out of range"):
            solve(cycle(6), {99}, trusted=True)

    def test_one_strong_set_check_per_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return is_strong_stable_set(*args)

        monkeypatch.setattr(solver, "is_strong_stable_set", counted)
        res = solve(path(20))
        assert res.status == SolveStatus.FOUND
        assert [r.branch for r in res.trace] == ["complete", "peel"]
        assert len(calls) == 1

    def test_w_join_branch_combines_one_w_join(self):
        # a cobipartite host whose squares grow into many W-joins, none of
        # which combines: the branch gives up after the first
        rng = random.Random(8)
        pairs = [(i, j) for i in range(10) for j in range(10, 20) if rng.random() < 0.3]
        g = complement(from_edge_list(20, pairs))
        res = solve(g)
        assert res.status == SolveStatus.NONE_EXISTS
        assert len(res.trace) < 10

    def test_validation_lists_clowns_once(self, monkeypatch):
        # the clowns do not depend on the prescribed vertex, so validating
        # three vertices enumerates them once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return induced_cycles(*args, **kwargs)

        monkeypatch.setattr(recognizers, "induced_cycles", counted)
        # three legs of length two around a center
        g = from_edge_list(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        validate_prescribed(g, frozenset({4, 5, 6}))
        assert len(calls) == 1

    def test_peculiar_through_solve(self):
        g, _ = peculiar((1,) * 9)
        res = solve(g)
        assert res.status == SolveStatus.FOUND
        assert [r.branch for r in res.trace] == ["peculiar"]
        assert is_strong_stable_set(g, res.s)


def test_prescribed_exhaustive_against_brute_force(graphs_by_n):
    # every graph on up to 7 vertices, every valid z of one or two simplicial
    # vertices: solve agrees with the oracle on existence and keeps z
    cases = 0
    for n in range(1, 8):
        for g in graphs_by_n[n]:
            simp = sorted(simplicial_vertices(g))
            for k in (1, 2):
                for z in map(frozenset, itertools.combinations(simp, k)):
                    try:
                        validate_prescribed(g, z)
                    except GraphError:
                        continue
                    cases += 1
                    res = solve(g, z, trusted=True)
                    bf = brute_force(g, z)
                    assert (res.s is None) == (bf is None), (sorted(g.edges()), z)
                    assert all(r.branch != "verify-failed" for r in res.trace)
                    if res.s is not None:
                        assert z <= res.s and is_strong_stable_set(g, res.s)
    assert cases == 5070


class TestSolveCobipartite:
    def test_c4(self):
        assert solve_cobipartite(cycle(4)) in ({0, 2}, {1, 3})

    def test_k4_minus_edge_with_z(self):
        g = from_edge_list(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert solve_cobipartite(g, {0}) == {0, 2}

    def test_six_vertex_with_simplicial_z(self):
        # cliques {0,1,2} and {3,4,5}; 0 sees 3 only; chain on the far side
        g = from_edge_list(
            6,
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5)],
        )
        validate_prescribed(g, frozenset({0}))
        s = solve_cobipartite(g, {0})
        assert 0 in s and is_strong_stable_set(g, s)
        # cross-check: the answer is one of the cosimplicial non-edges at 0
        from strongstable.recognizers import is_cosimplicial_nonedge

        others = sorted(s - {0})
        assert len(others) == 1 and is_cosimplicial_nonedge(g, 0, others[0])

    def test_two_vertex_z(self):
        g = cycle(4)
        assert solve_cobipartite(g, {0, 2}) == {0, 2}

    def test_not_cobipartite(self):
        # a stable triple puts a graph out of scope; C5 has none, so the
        # branch decides it: no strong stable set
        with pytest.raises(GraphError):
            solve_cobipartite(cycle(6))
        assert solve_cobipartite(cycle(5)) is None

    def test_empty_graph(self):
        assert solve_cobipartite(from_edge_list(0, [])) == frozenset()

    def test_decides_against_brute_force(self, graphs_by_n):
        # every stable z with at most two vertices, safe or not, on every
        # graph with at most seven vertices and no stable triple
        cases = infeasible = 0
        for n in range(8):
            for g in graphs_by_n[n]:
                if any(naive_is_stable(g, t) for t in subsets(range(n), 3, 3)):
                    continue
                for z in map(frozenset, subsets(range(n), max_size=2)):
                    if not naive_is_stable(g, z):
                        continue
                    cases += 1
                    s = solve_cobipartite(g, z)
                    bf = brute_force(g, z)
                    assert (s is None) == (bf is None), (sorted(g.edges()), sorted(z))
                    if s is None:
                        infeasible += 1
                    else:
                        assert z <= s and naive_is_strong_stable_set(g, s)
        assert (cases, infeasible) == (2213, 643)

    @pytest.mark.parametrize(
        "g",
        [cobipartite_recipe(30), antihole(40), antihole(41), antihole(101)],
        ids=["recipe-60", "antihole-40", "antihole-41", "antihole-101"],
    )
    def test_none_exists_above_the_vertex_cap(self, g):
        # no brute force runs: the branch itself proves that none exists
        res = solve(g, budget=Budget())
        assert res.status == SolveStatus.NONE_EXISTS and res.s is None
        last = res.trace[-1]
        assert last.branch == "cobipartite"
        assert last.detail == {"result": "none-exists", "n": g.n}

    def test_sub_instance_proof_still_brute_forces_the_root(self):
        # peel drops the pendant first, so the cobipartite proof is on a
        # sub-instance, and only a brute force may answer for the root
        g = from_edge_list(9, [*antihole(8).edges(), (0, 8)])
        res = solve(g)
        assert res.status == SolveStatus.NONE_EXISTS and res.s is None
        assert res.trace[-1].branch == "brute-force"


class TestSolvePeculiar:
    def test_minimal(self):
        from strongstable.generators import peculiar

        g, parts = peculiar()
        s = solve_peculiar(g, parts)
        assert is_strong_stable_set(g, s)
        assert brute_force(g) is not None

    def test_larger_first_pair(self):
        from strongstable.generators import peculiar

        g, parts = peculiar((2, 1, 1, 1, 2, 1, 0, 1, 0))
        s = solve_peculiar(g, parts)
        assert is_strong_stable_set(g, s)

    def test_non_peculiar_rejected(self):
        from strongstable.generators import peculiar

        g, parts = peculiar()
        with pytest.raises(GraphError):
            solve_peculiar(cycle(6), parts)


class TestSolveLinearInterval:
    def test_p5_both_ends(self):
        assert solve_linear_interval(path(5), {0, 4}, (0, 1, 2, 3, 4)) == {0, 2, 4}

    def test_p4_one_end(self):
        s = solve_linear_interval(path(4), {0}, (0, 1, 2, 3))
        assert s == {0, 2}

    def test_k3_any(self):
        s = solve_linear_interval(complete(3), set(), (0, 1, 2))
        assert len(s) == 1

    def test_invalid_order(self):
        with pytest.raises(GraphError):
            solve_linear_interval(cycle(4), set(), (0, 1, 2, 3))

    def test_empty_and_disconnected_orders(self):
        assert solve_linear_interval(from_edge_list(0, []), set(), ()) == frozenset()
        g = from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert solve_linear_interval(g, {0, 5}, (3, 4, 5, 0, 1, 2)) == {0, 2, 3, 5}

    def test_interval_graph_with_twins_and_ends(self):
        # P5 thickened by a twin of the middle vertex; both ends prescribed
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
        order = (0, 1, 2, 5, 3, 4)
        validate_prescribed(g, frozenset({0, 4}))
        s = solve_linear_interval(g, {0, 4}, order)
        assert {0, 4} <= s and is_strong_stable_set(g, s)
        assert brute_force(g, {0, 4}) is not None

    def test_host_out_of_scope_rejected(self):
        # valid order, but the prescribed pair is joined by an odd path
        g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])
        with pytest.raises(GraphError):
            solve_linear_interval(g, {0, 6}, (0, 1, 2, 3, 4, 5, 6))


def w_join_host():
    # square (0,1)x(2,3); 4 complete to {0,1} with pendant 6; 5 complete to
    # {2,3} with pendant 7
    return from_edge_list(
        8,
        [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3), (6, 4), (7, 5)],
    )


class TestCombineWJoin:
    def test_pendant_host(self):
        g = w_join_host()
        w = grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        s = combine_w_join(g, w, frozenset(), plain_subsolver)
        assert is_strong_stable_set(g, s)
        assert {6, 7} <= s
        assert len(s & {0, 1}) == 1 and len(s & {2, 3}) == 1
        assert brute_force(g) is not None

    def test_coherent_apex_needs_no_extra_hit(self):
        g = from_edge_list(
            7,
            [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3)]
            + [(6, i) for i in range(4)],
        )
        w = grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        s = combine_w_join(g, w, frozenset(), plain_subsolver)
        assert is_strong_stable_set(g, s) and 6 not in s

    def test_degenerate_empty_far_side(self):
        g = from_edge_list(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
        w = WJoin(frozenset({0, 1}), frozenset({2, 3}))
        s = combine_w_join(g, w, frozenset(), plain_subsolver)
        assert is_strong_stable_set(g, s) and len(s) == 2

    def test_unsplittable_far_side_rejected(self):
        # a path from the A-attachment to the B-attachment through F
        g = from_edge_list(
            7,
            [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3), (4, 6), (5, 6)],
        )
        w = WJoin(frozenset({0, 1}), frozenset({2, 3}))
        with pytest.raises(CaseNotApplicable):
            combine_w_join(g, w, frozenset(), plain_subsolver)


def rich_one_join_host():
    """C4 + hat + connector on one side, apex + C4 on the other; innocent."""
    edges = (
        [(0, 1), (1, 2), (2, 3), (3, 0), (10, 0), (10, 1), (4, 10)]
        + [(4, 5), (5, 6), (5, 7)]
        + [(6, 7), (7, 8), (8, 9), (9, 6)]
    )
    return from_edge_list(11, edges)


class TestCombineOneJoin:
    def test_two_triangles_bridge_solved_by_cascade(self):
        # a direct rich-parity call does not apply here (the host still has
        # unprescribed simplicial vertices, which the cascade peels first)
        g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        j = find_one_join(g)
        assert j is not None and j.rich
        with pytest.raises(CaseNotApplicable):
            combine_one_join(g, j, frozenset(), plain_subsolver)
        res = solve(g)
        assert res.status == SolveStatus.FOUND and is_strong_stable_set(g, res.s)

    def test_small_join_triangle_with_path(self):
        g = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        j = OneJoin(frozenset({3, 4}), frozenset({0, 1, 2}), frozenset({3}), frozenset({2}), False)
        s = combine_one_join(g, j, frozenset(), plain_subsolver)
        assert is_strong_stable_set(g, s) and 4 in s

    def test_rich_join_parity_analysis(self):
        g = rich_one_join_host()
        assert find_claw(g) is None
        assert isinstance(innocence_certificate(g), Innocent)
        j = OneJoin(
            frozenset({0, 1, 2, 3, 10, 4}),
            frozenset({5, 6, 7, 8, 9}),
            frozenset({4}),
            frozenset({5}),
            True,
        )
        from strongstable.decompose import verify_one_join

        assert verify_one_join(g, j)
        s = combine_one_join(g, j, frozenset(), plain_subsolver)
        assert is_strong_stable_set(g, s)
        assert brute_force(g) is not None

    def test_prescribed_interface_rejected(self):
        g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        j = find_one_join(g)
        with pytest.raises(CaseNotApplicable):
            combine_one_join(g, j, frozenset({min(j.a1)}), plain_subsolver)


class TestGadgets:
    def test_empty_prescription_identity(self):
        g2, anchors = attach_anchor_gadgets(path(3), ())
        assert g2 == path(3) and anchors == ()

    def test_p5_extension_roundtrip(self):
        g = path(5)
        z = frozenset({0, 4})
        g2, anchors = attach_anchor_gadgets(g, z)
        assert g2.n == 11
        s2 = brute_force(g2)
        assert s2 is not None
        s = strip_anchor_gadgets(g2, anchors, s2)
        assert z <= s and is_strong_stable_set(g, s)

    def test_k2_extension_structure(self):
        g = from_edge_list(2, [(0, 1)])
        g2, anchors = attach_anchor_gadgets(g, {0})
        assert g2.n == 5
        (zi, w, x, y) = anchors[0]
        solutions = [
            frozenset(sub)
            for sub in subsets(range(5))
            if naive_is_strong_stable_set(g2, sub)
        ]
        assert solutions
        for s in solutions:
            assert {x, zi} <= s or {y, w} <= s

    def test_gadget_preserves_claw_free_innocent(self):
        g = path(5)
        g2, _ = attach_anchor_gadgets(g, {0, 4})
        assert find_claw(g2) is None
        assert isinstance(innocence_certificate(g2), Innocent)


class TestExtendAtSimplicial:
    def test_variant2_on_k2_gives_p4(self):
        g = from_edge_list(2, [(0, 1)])
        ext = extend_at_simplicial(g, 0, 2, 2, solution=frozenset({0}))
        assert sorted(ext.graph.edges()) == [(0, 1), (0, 2), (2, 3)]
        assert ext.extended == {0, 3}
        assert is_strong_stable_set(ext.graph, ext.extended)

    def test_variant1_on_triangle_corner(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (3, 0)])
        ext = extend_at_simplicial(g, 3, 1, 3, solution=frozenset({3, 1}))
        assert ext.graph.n == 7
        assert find_claw(ext.graph) is None
        assert isinstance(innocence_certificate(ext.graph), Innocent)
        assert is_strong_stable_set(ext.graph, ext.extended)

    def test_variant3_gains_alternate_vertices(self):
        g = from_edge_list(2, [(0, 1)])
        ext = extend_at_simplicial(g, 0, 3, 2, k=4, solution=frozenset({0}))
        assert ext.clown_added is not None
        c0, hole = ext.clown_added[0], ext.clown_added[1:]
        assert ext.extended == {0, ext.added[1], hole[1], hole[3]}
        assert is_strong_stable_set(ext.graph, ext.extended)

    def test_parity_validation(self):
        g = from_edge_list(2, [(0, 1)])
        with pytest.raises(GraphError):
            extend_at_simplicial(g, 0, 1, 2)
        with pytest.raises(GraphError):
            extend_at_simplicial(g, 0, 2, 3)
        with pytest.raises(GraphError):
            extend_at_simplicial(g, 0, 3, 2, k=5)

    def test_non_simplicial_rejected(self):
        with pytest.raises(GraphError):
            extend_at_simplicial(path(3), 1, 2, 2)


class TestSimplicialRemovalInvariant:
    def test_obs_on_random_hosts(self, graphs_by_n):
        # when a simplicial vertex is deleted and the rest solved, the
        # solution or the solution plus the vertex solves the whole graph
        from strongstable.recognizers import simplicial_vertices

        for g in graphs_by_n[6]:
            simp = sorted(simplicial_vertices(g))
            if not simp:
                continue
            v = simp[0]
            rest, mapping = induced(g, g.vertex_set() - {v})
            s = brute_force(rest)
            if s is None:
                continue
            back = dict(enumerate(mapping))
            lifted = frozenset(back[x] for x in s)
            assert is_strong_stable_set(g, lifted) or is_strong_stable_set(
                g, lifted | {v}
            )


class TestAugmentationBranch:
    @staticmethod
    def _shrink(g, xs, ys):
        """The branch's reduced vertex set: all but one vertex of each side,
        u in xs complete to ys and v in ys complete to xs; None without them."""
        adj = nbrs(g)
        u = next((x for x in sorted(xs) if ys <= adj[x]), None)
        v = next((y for y in sorted(ys) if xs <= adj[y]), None)
        if u is None or v is None:
            return None
        return g.vertex_set() - ((xs - {u}) | (ys - {v}))

    def test_every_strong_set_of_the_shrunk_graph_lifts(self):
        rng = random.Random(20)
        pairs = lifted = 0
        for _ in range(3000):
            n = rng.randint(4, 9)
            p = rng.uniform(0.5, 0.85)
            slots = itertools.combinations(range(n), 2)
            g = from_edge_list(n, [e for e in slots if rng.random() < p])
            cliques = naive_maximal_cliques(g)
            for xs, ys in _augment_candidates(g, _meter(None)):
                keep = self._shrink(g, xs, ys)
                if keep is None:
                    continue
                pairs += 1
                sub, mapping = induced(g, keep)
                sub_cliques = naive_maximal_cliques(sub)
                for s in subsets(range(sub.n)):
                    if not (naive_is_stable(sub, s) and all(k & set(s) for k in sub_cliques)):
                        continue
                    lifted += 1
                    back = {mapping[x] for x in s}
                    assert naive_is_stable(g, back) and all(k & back for k in cliques), (
                        sorted(g.edges()), sorted(xs), sorted(ys), sorted(back)
                    )
        assert pairs >= 300 and lifted >= 600

    def test_non_line_graph_reduced_by_one_pair(self):
        # path 0-1-2-3 with X={4,5}, Y={6,7}, nested cross, C={3}, D={0}
        g = from_edge_list(
            8,
            [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (4, 6), (5, 6), (5, 7),
             (3, 4), (3, 5), (0, 6), (0, 7)],
        )
        assert recover_root(g) is None
        res = solve(g)
        assert res.status is SolveStatus.FOUND
        assert "augmentation" in [t.branch for t in res.trace]
        assert naive_is_strong_stable_set(g, res.s)

    def test_generated_augments_solve(self):
        # peel and the cobipartite branch finish most of these; seed 5 is
        # the one that reaches the augmentation branch
        from strongstable.generators import random_claw_free_innocent

        used = 0
        for seed in range(30):
            g = random_claw_free_innocent(seed, 11, augment_rate=0.6)
            res = solve(g)
            assert res.status is SolveStatus.FOUND, seed
            used += "augmentation" in [t.branch for t in res.trace]
        assert used >= 1


class TestCascadeOrder:
    """The line-graph branch runs before the W-join and 1-join searches;
    both joins stay reachable on graphs that are not line graphs."""

    @staticmethod
    def branches(g, z):
        validate_prescribed(g, frozenset(z))
        res = solve(g, z)
        assert res.status is SolveStatus.FOUND
        assert naive_is_strong_stable_set(g, res.s) and set(z) <= res.s
        return [t.branch for t in res.trace]

    def test_w_join_on_a_non_line_graph(self):
        g = from_edge_list(
            7,
            [(0, 4), (0, 5), (0, 6), (1, 3), (2, 3), (2, 4), (2, 5), (2, 6),
             (3, 5), (4, 5), (4, 6)],
        )
        assert find_claw(g) is None and recover_root(g) is None
        assert self.branches(g, {1})[-1] == "w-join"

    def test_one_join_on_a_non_line_graph(self):
        g = from_edge_list(
            8,
            [(0, 3), (0, 5), (0, 6), (1, 2), (2, 5), (2, 7), (3, 4), (3, 5),
             (3, 6), (4, 6), (4, 7), (5, 7), (6, 7)],
        )
        assert find_claw(g) is None and recover_root(g) is None
        assert self.branches(g, {1})[-1] == "one-join"

    def test_line_graph_with_a_w_join_takes_the_line_graph_branch(self):
        g = w_join_host()
        assert recover_root(g) is not None
        assert find_w_join(g) is not None
        branches = self.branches(g, {6})
        assert "line-graph" in branches and "w-join" not in branches

    def test_generated_graphs_solve_without_fallback(self):
        # claw-free innocent graphs of 10-60 vertices, with z empty and with
        # the first simplicial vertex that validates as safe
        from strongstable.generators import random_claw_free_innocent

        rng = random.Random(2121)
        seed = kept = prescribed = 0
        while kept < 300:
            seed += 1
            size, rate = rng.randint(20, 120), rng.choice((0.0, 0.2, 0.4))
            g = random_claw_free_innocent(60_000 + seed, size, rate, Budget(1000, 50_000_000))
            if not 10 <= g.n <= 60:
                continue
            kept += 1
            res = solve(g)
            assert res.status is SolveStatus.FOUND, (seed, res.trace)
            for v in sorted(simplicial_vertices(g)):
                try:
                    validate_prescribed(g, frozenset({v}))
                except GraphError:
                    continue
                res = solve(g, {v}, trusted=True)
                assert res.status is SolveStatus.FOUND and v in res.s, (seed, v, res.trace)
                prescribed += 1
                break
        assert prescribed >= 250
