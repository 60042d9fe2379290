import collections
import itertools
import random
import re

import pytest

from strongstable import core, recognizers, solver
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
    WJoin,
    find_one_join,
    find_w_join,
    grow_square_connected_pair,
    w_join_partition,
)
from strongstable.forbidden import Innocent, innocence_certificate
from strongstable.generators import antihole, clown, peculiar
from strongstable.graphio import decode_graph6
from strongstable.linegraph import _augment_candidates, recover_root
from strongstable.recognizers import find_claw, find_clowns, simplicial_vertices
from strongstable.solver import (
    CaseNotApplicable,
    SolveStatus,
    brute_force,
    combine_w_join,
    extend_at_simplicial,
    solve,
    solve_cobipartite,
    validate_prescribed,
)
from oracles import (
    attach_anchor_gadgets,
    complete,
    cycle,
    naive_brute_force,
    naive_clowns,
    naive_is_clique,
    naive_is_consistent_set,
    naive_is_cosimplicial_nonedge,
    naive_is_safe_vertex,
    naive_is_stable,
    naive_is_strong_stable_set,
    naive_maximal_cliques,
    naive_peel,
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

    @pytest.mark.parametrize("z", [{-1}, {5}, {0, 5}])
    def test_out_of_range_ids(self, z):
        with pytest.raises(GraphError, match="out of range"):
            brute_force(cycle(5), z)
        with pytest.raises(GraphError, match="out of range"):
            validate_prescribed(cycle(5), frozenset(z))

    def test_budget_gate(self):
        # the enumeration meter is the one bound
        with pytest.raises(BudgetExceededError):
            brute_force(complete(20), budget=Budget(max_enumerations=5))

    def test_lexicographic_tie_break(self):
        # K2: both {0} and {1} work; lexicographically smallest wins
        assert brute_force(from_edge_list(2, [(0, 1)])) == {0}

    def test_same_set_as_the_exhaustive_oracle(self):
        # the pruned search returns the very set plain enumeration returns,
        # not just the same verdict
        rng = random.Random(7)
        calls = infeasible = 0
        for n in range(12):
            for _ in range(120):
                p = rng.random()
                g = from_edge_list(
                    n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
                )
                for k in range(3):
                    z = rng.sample(range(n), min(k, n))
                    s = brute_force(g, z)
                    assert s == naive_brute_force(g, z), (n, sorted(g.edges()), z)
                    calls += 1
                    infeasible += s is None
        assert calls == 4320 and 0 < infeasible < calls

    def test_max_vertices_is_inert(self):
        # Budget(max_vertices, max_enumerations) still builds positionally,
        # and its first field bounds nothing
        budget = Budget(1, 5_000_000)
        assert brute_force(cycle(6), budget=budget) == {0, 2, 4}
        assert solve(cycle(25), budget=budget).status == SolveStatus.NONE_EXISTS

    def test_long_path_does_not_recurse(self):
        # one frame per decision on an explicit stack: a recursive search
        # would raise RecursionError two thousand levels down
        n = 2001
        s = brute_force(path(n), budget=Budget(max_enumerations=10**7))
        assert s == frozenset(range(0, n, 2))


class TestDefaultBudget:
    # Budget() bounds enumerations only, so brute force takes graphs of any
    # size and stops only when the meter runs out
    def test_direct_brute_force_uses_the_default_cap(self, monkeypatch):
        assert brute_force(path(20)) == frozenset(range(0, 20, 2))
        assert brute_force(complete(25)) == {0}
        monkeypatch.setattr(core, "DEFAULT_BUDGET", Budget(max_enumerations=5))
        with pytest.raises(BudgetExceededError):
            brute_force(complete(25))

    def test_odd_hole_above_24_vertices_is_none_exists(self):
        # not cobipartite, so none-exists needs a completed brute force on
        # the whole hole; pruning finishes it well inside the default meter
        for k in (25, 61, 301):
            res = solve(cycle(k))
            assert res.status == SolveStatus.NONE_EXISTS and res.s is None
            last = res.trace[-1]
            assert (last.branch, last.detail) == ("brute-force", {"result": "none-exists", "n": k})


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
        # the line-graph branch answers a long even hole well inside the
        # enumeration budget of the whole solve
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

    def test_square_of_a_long_path_validates_within_budget(self):
        # P_61^2 is chordal, so it has no clown; validation lists holes on
        # the simplicially peeled graph, which is empty here, while a hole
        # search on the whole graph walks every chordless path and overruns
        # the default budget
        n = 61
        g = from_edge_list(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])
        res = solve(g, {0}, Budget())
        assert res.status == SolveStatus.FOUND and 0 in res.s

    def test_long_path_linear_interval_without_recursion(self):
        # no peel applies (the ends are prescribed), so the line-graph
        # branch answers the whole path, a linear interval graph
        n = 2401
        budget = Budget(n + 1, 10_000_000)
        res = solve(path(n), {0, n - 1}, budget)
        assert res.status == SolveStatus.FOUND
        assert [r.branch for r in res.trace] == ["line-graph"]
        assert res.s == frozenset(range(0, n, 2))

    def test_budget_status(self):
        # an odd hole is answered only by the brute-force fallback
        res = solve(cycle(7), budget=Budget(max_vertices=24, max_enumerations=2))
        assert res.status == SolveStatus.BUDGET and res.s is None
        # every layer of the cascade draws on the one cap of the call: this
        # even hole takes 94 ticks in all, and no single layer more than 60
        res = solve(cycle(30), budget=Budget(max_vertices=31, max_enumerations=60))
        assert res.status == SolveStatus.BUDGET and res.s is None

    def test_budget_overrun_during_validation(self):
        # validation draws on the same meter, and its overrun is a status
        # like any other; a z that fails validation still raises
        g = from_edge_list(9, [*cycle(8).edges(), (0, 8)])
        res = solve(g, {8}, Budget(max_enumerations=3))
        assert res.status is SolveStatus.BUDGET and res.s is None
        assert [t.branch for t in res.trace] == ["budget"]
        with pytest.raises(GraphError, match="not stable"):
            solve(g, {0, 8}, Budget(max_enumerations=3))

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
        for z in ({99}, {6}, {-1}, {0, -2}):
            for trusted in (True, False):
                with pytest.raises(GraphError, match="out of range"):
                    solve(cycle(6), z, trusted=trusted)

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
        g = peculiar((1,) * 9)
        res = solve(g)
        assert res.status == SolveStatus.FOUND
        assert [r.branch for r in res.trace] == ["pair"]
        assert is_strong_stable_set(g, res.s)

    def test_odd_hole_graph_through_pair(self):
        # claw-free, with the odd hole 0-1-7-4-3: no branch before pair applies
        edges = "01 03 05 15 16 17 24 26 27 34 35 45 47 67".split()
        g = from_edge_list(8, [(int(a), int(b)) for a, b in edges])
        assert find_claw(g) is None
        res = solve(g)
        assert res.status == SolveStatus.FOUND and res.s == {5, 7}
        assert [r.branch for r in res.trace] == ["pair"]


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


def validation_oracle(g, z):
    """The start of the message validate_prescribed must raise for z, by the
    oracles and in the order it checks, or None when z must pass."""
    if not naive_is_stable(g, z):
        return "prescribed set is not stable"
    for v in sorted(z):
        if not naive_is_clique(g, nbrs(g)[v]):
            return f"prescribed vertex {v} is not simplicial"
        if not naive_is_safe_vertex(g, v):
            return f"prescribed vertex {v} is not safe ("
    if not naive_is_consistent_set(g, z):
        return "prescribed set is not consistent (odd path "
    return None


class TestValidatePrescribed:
    def test_seeded_random_graphs_against_the_oracles(self):
        # z: one simplicial vertex, two simplicial pairs, one random vertex
        rng = random.Random(35)
        reasons = collections.Counter()
        for _ in range(600):
            n = rng.randint(5, 11)
            p = rng.choice((0.25, 0.35, 0.5))
            g = from_edge_list(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            simp = [v for v in range(n) if naive_is_clique(g, nbrs(g)[v])]
            pairs = list(itertools.combinations(simp, 2))
            zs = [{rng.choice(simp)}] if simp else []
            zs += rng.sample(pairs, min(2, len(pairs))) + [{rng.randrange(n)}]
            for z in map(frozenset, zs):
                want = validation_oracle(g, z)
                try:
                    validate_prescribed(g, z)
                    got = None
                except GraphError as e:
                    got = str(e)
                assert (got is None) == (want is None), (sorted(g.edges()), z, got)
                assert want is None or got.startswith(want), (sorted(g.edges()), z, got)
                # a hat fails on its own zero-length path (v,)
                even_path = got is not None and "safe" in got and not got.endswith(",)))")
                reasons["even path" if even_path else want] += 1
            found = list(find_clowns(g))
            assert {(c.hat, frozenset(c.cycle)) for c in found} == {
                (hat, frozenset(hole)) for hat, hole in naive_clowns(g)
            }
            assert len(found) == len(set(found))
            for c in found:
                # walked from the smaller of the hat's two neighbours
                k = len(c.cycle)
                assert c.cycle[0] < c.cycle[1]
                assert {w for w in c.cycle if g.has_edge(c.hat, w)} == set(c.cycle[:2])
                assert all(g.has_edge(c.cycle[i - 1], c.cycle[i]) for i in range(k))
        assert reasons[None] and reasons["even path"] >= 10, reasons

    def test_hat_message(self):
        with pytest.raises(GraphError) as e:
            validate_prescribed(clown(4), frozenset({4}))
        assert str(e.value) == (
            "prescribed vertex 4 is not safe ((Clown(hat=4, cycle=(0, 1, 2, 3)), (4,)))"
        )

    def test_non_simplicial_named(self):
        with pytest.raises(GraphError, match=re.escape("prescribed vertex 1 is not simplicial")):
            validate_prescribed(clown(4), frozenset({1}))

    def test_one_search_per_component_and_hat(self, monkeypatch):
        # three 4-holes with the same N[H] = {0, 1, 2, 3, 4, 7, 10, 11}; the
        # component of 6 off it is {5, 6, 8, 9}, and of the hats only 7 sees
        # it, so three clowns share one search, which finds no even path
        g = decode_graph6("KyK?IkC@IqD@")
        searched = []

        def counted(g, meter, start, end, *args, **kwargs):
            searched.append((start, end))
            return core._anchored_paths(g, meter, start, end, *args, **kwargs)

        monkeypatch.setattr(recognizers, "_anchored_paths", counted)
        assert sum(c.hat == 7 for c in find_clowns(g)) == 3
        validate_prescribed(g, frozenset({6}))
        assert searched == [(6, 7)]
        assert solve(g, {6}).status == SolveStatus.FOUND

    def test_even_path_through_the_component(self):
        # the hat 4 of a 4-hole, then the pendant path 4-5-6-7-8: 8 reaches
        # the hat through three interior vertices
        g = from_edge_list(9, list(clown(4).edges()) + [(4, 5), (5, 6), (6, 7), (7, 8)])
        with pytest.raises(GraphError) as e:
            validate_prescribed(g, frozenset({8}))
        assert str(e.value) == (
            "prescribed vertex 8 is not safe"
            " ((Clown(hat=4, cycle=(0, 1, 2, 3)), (8, 7, 6, 5, 4)))"
        )
        # one step shorter, the path is odd and 7 is safe
        validate_prescribed(induced(g, range(8))[0], frozenset({7}))


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
        # cross-check: the answer is a cosimplicial non-edge at 0
        others = sorted(s - {0})
        assert len(others) == 1 and naive_is_cosimplicial_nonedge(g, 0, others[0])

    def test_two_vertex_z(self):
        g = cycle(4)
        assert solve_cobipartite(g, {0, 2}) == {0, 2}

    @pytest.mark.parametrize("z", [{-1}, {4}, {0, -1}, {1, 4}])
    def test_out_of_range_ids(self, z):
        with pytest.raises(GraphError):
            solve_cobipartite(cycle(4), z)

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


class TestSolveLinearInterval:
    """Linear interval graphs with prescribed ends, answered by the cascade
    (the peel, the line-graph branch) with no branch of their own."""

    def test_p5_both_ends(self):
        assert solve(path(5), {0, 4}).s == {0, 2, 4}

    @pytest.mark.parametrize("z", [{0, -1}, {0, 5}])
    def test_out_of_range_ids(self, z):
        with pytest.raises(GraphError):
            solve(path(5), z)

    def test_p4_one_end(self):
        assert solve(path(4), {0}).s == {0, 2}

    def test_k3_any(self):
        assert len(solve(complete(3)).s) == 1

    def test_empty_and_disconnected_orders(self):
        assert solve(from_edge_list(0, [])).s == frozenset()
        g = from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert solve(g, {0, 5}).s == {0, 2, 3, 5}

    def test_interval_graph_with_twins_and_ends(self):
        # P5 thickened by a twin of the middle vertex; both ends prescribed
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3)])
        res = solve(g, {0, 4})
        assert res.status == SolveStatus.FOUND
        assert {0, 4} <= res.s and is_strong_stable_set(g, res.s)

    def test_host_out_of_scope_rejected(self):
        # the prescribed pair is joined by an odd path, so validation
        # rejects it before the cascade runs
        g = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)])
        with pytest.raises(GraphError, match="not consistent"):
            solve(g, {0, 6})


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

    def test_unsplittable_far_side_answered(self):
        # a path from the A-attachment to the B-attachment through F: the
        # lemma keeps a strong pair of G[A | B] and needs no split of F
        g = from_edge_list(
            7,
            [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3), (4, 6), (5, 6)],
        )
        w = WJoin(frozenset({0, 1}), frozenset({2, 3}))
        s = combine_w_join(g, w, frozenset(), plain_subsolver)
        assert naive_is_strong_stable_set(g, s)
        sub, mapping = induced(g, w.a | w.b)
        kept = [i for i, v in enumerate(mapping) if v in s]
        assert len(kept) == 2 and naive_is_strong_stable_set(sub, kept)

    def test_w_join_whose_far_side_sees_both_attachments(self):
        # claw-free, not a line graph past the peel, with the W-join
        # A = {2, 3}, B = {1, 4, 5}, C = {6}, D = {7} and F = {0} seeing C
        # and D: no split of F exists, and the lemma answers it
        g = from_edge_list(
            8,
            [(0, 6), (0, 7), (1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (2, 4),
             (2, 6), (3, 5), (3, 6), (4, 5), (4, 7), (5, 7)],
        )
        assert find_claw(g) is None
        assert find_w_join(g) == WJoin(frozenset({2, 3}), frozenset({1, 4, 5}))
        res = solve(g)
        assert res.status is SolveStatus.FOUND
        assert "w-join" in [t.branch for t in res.trace]
        assert naive_is_strong_stable_set(g, res.s)


def homogeneous_clique_pairs(g):
    """Every pair (A, B) of disjoint cliques, A before B, with at least three
    vertices in all and no vertex outside mixed on A or on B."""
    adj = nbrs(g)
    cliques = [frozenset(k) for k in subsets(range(g.n), 1) if naive_is_clique(g, k)]
    for a, b in itertools.combinations(cliques, 2):
        if a & b or len(a | b) < 3:
            continue
        outside = g.vertex_set() - a - b
        if all(len(adj[v] & a) in (0, len(a)) and len(adj[v] & b) in (0, len(b)) for v in outside):
            yield a, b


def strong_sets_lift(g, cliques, keep, z):
    """The strong stable sets of G[keep] through z, in G's ids, split into
    those strong in G and those not; ``cliques`` are G's maximal cliques."""
    sub, mapping = induced(g, keep)
    sub_cliques = naive_maximal_cliques(sub)
    ids = {v: i for i, v in enumerate(mapping)}
    zs = frozenset(ids[v] for v in z)
    lifted, failed = [], []
    for extra in subsets(sorted(frozenset(range(sub.n)) - zs)):
        s = zs | frozenset(extra)
        if not (naive_is_stable(sub, s) and all(k & s for k in sub_cliques)):
            continue
        back = frozenset(mapping[v] for v in s)
        (lifted if all(k & back for k in cliques) else failed).append(back)
    return lifted, failed


class TestCliquePairLemmas:
    """The two local lemmas behind the W-join and augmentation branches, on
    every homogeneous pair of disjoint cliques of seeded random graphs."""

    def test_every_reduced_strong_set_is_strong(self):
        rng = random.Random(34)
        w_sets = aug_sets = 0
        for _ in range(200):
            n = rng.randint(4, 9)
            p = rng.uniform(0.4, 0.8)
            g = from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            adj, cliques = nbrs(g), naive_maximal_cliques(g)
            for a, b in homogeneous_clique_pairs(g):
                ab = a | b
                # W-join lemma: keep a strong pair {p, q} of G[A | B]
                sub, mapping = induced(g, ab)
                for x, y in itertools.combinations(range(sub.n), 2):
                    if not naive_is_strong_stable_set(sub, {x, y}):
                        continue
                    pq = {mapping[x], mapping[y]}
                    lifted, failed = strong_sets_lift(g, cliques, g.vertex_set() - ab | pq, pq)
                    assert not failed, (sorted(g.edges()), sorted(a), sorted(b), failed)
                    w_sets += len(lifted)
                # augmentation lemma: no vertex outside complete to both,
                # u in A complete to B and v in B complete to A
                if any(ab <= adj[v] for v in g.vertex_set() - ab):
                    continue
                u = next((x for x in sorted(a) if b <= adj[x]), None)
                v = next((y for y in sorted(b) if a <= adj[y]), None)
                if u is None or v is None:
                    continue
                lifted, failed = strong_sets_lift(g, cliques, g.vertex_set() - ab | {u, v}, ())
                assert not failed, (sorted(g.edges()), sorted(a), sorted(b), failed)
                aug_sets += len(lifted)
        assert w_sets >= 2000 and aug_sets >= 500, (w_sets, aug_sets)

    def test_a_mixed_outside_vertex_breaks_the_w_join_lemma(self):
        # C4 on A = {0, 1} and B = {2, 3}; 5 sees 1 but not 0, with pendant 4
        g = from_edge_list(6, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 5), (4, 5)])
        a, b = frozenset({0, 1}), frozenset({2, 3})
        assert w_join_partition(g, a, b) is None
        assert naive_is_strong_stable_set(induced(g, a | b)[0], {0, 3})  # ids kept
        reduced, back = induced(g, {0, 3, 4, 5})
        s = frozenset(back[v] for v in brute_force(reduced, {0, 1}))
        assert s == {0, 3, 4} and not naive_is_strong_stable_set(g, s)  # misses {1, 5}


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


def unit_interval_graph(rng, n):
    """Unit intervals at random points of a line, ids shuffled: a linear
    interval graph, so claw-free and chordal, and chordal graphs are
    innocent."""
    xs = [rng.uniform(0, n / rng.choice((2, 3, 5))) for _ in range(n)]
    ids = list(range(n))
    rng.shuffle(ids)
    return from_edge_list(
        n,
        [(ids[i], ids[j]) for i, j in itertools.combinations(range(n), 2) if abs(xs[i] - xs[j]) <= 1],
    )


def twinned_graph(rng):
    """A random graph on at most 12 vertices, grown from a random base by
    adding true twins of old vertices and pendants at them."""
    n = rng.randint(1, 8)
    density = rng.random()
    nb = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            nb[u].add(v)
            nb[v].add(u)
    for _ in range(rng.randint(0, 12 - n)):
        v = rng.randrange(n)
        new = {v} | nb[v] if rng.random() < 0.7 else {v}
        nb.append(set(new))
        for w in new:
            nb[w].add(n)
        n += 1
    return from_edge_list(n, [(u, v) for u in range(n) for v in nb[u] if u < v])


class TestPeel:
    def test_same_remainder_and_lift_order_as_the_set_oracle(self, monkeypatch):
        # the mask kernel against a set-based replay, on stable z of up to
        # two vertices and on z holding a whole twin class; the branch
        # solves exactly G[remainder] and lifts in reverse drop order
        rng = random.Random(29)
        seen = {"twin drop": 0, "lift": 0, "class in z": 0, "branch": 0}
        calls = []

        def fake_solve(ctx, h, zz, skip=None):
            assert skip == "peel"
            calls.append((h, zz))
            s = brute_force(h, zz)
            if s is None:
                raise CaseNotApplicable("no strong set of the remainder")
            return s

        monkeypatch.setattr(solver, "_solve", fake_solve)
        for trial in range(2000):
            g = twinned_graph(rng)
            twins = [(u, v) for u, v in g.edges() if g.bits[u] | 1 << u == g.bits[v] | 1 << v]
            if trial % 4 == 0 and twins:
                z = frozenset(rng.choice(twins))
                seen["class in z"] += 1
            else:
                z = frozenset(rng.sample(range(g.n), rng.randint(0, min(2, g.n))))
                if not g.is_stable(z):
                    z = frozenset(sorted(z)[:1])
            keep, lifts = solver._peel(g.bits, g.n, core._mask_of(z))
            expected = naive_peel(g, z)
            assert (frozenset(core._iter_bits(keep)), lifts) == expected, (sorted(g.edges()), sorted(z))
            assert keep & core._mask_of(z) == core._mask_of(z)
            dropped = g.n - len(expected[0])
            seen["twin drop"] += dropped > len(lifts)
            seen["lift"] += bool(lifts)
            if not dropped or not g.is_stable(z):
                continue
            calls.clear()
            try:
                s = solver._branch_peel(solver._Ctx(_meter(None)), g, z)
            except CaseNotApplicable:
                s = None
            sub, mapping = induced(g, expected[0])
            assert calls == [(sub, frozenset(mapping.index(v) for v in z))]
            if s is None:
                continue
            seen["branch"] += 1
            lifted = {mapping[v] for v in brute_force(sub, calls[0][1])}
            for v in reversed(lifts):
                if not nbrs(g)[v] & lifted:
                    lifted.add(v)
            assert s == lifted and is_strong_stable_set(g, s) and z <= s
        assert min(seen.values()) > 100, seen


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
                ok, failed = strong_sets_lift(g, cliques, keep, ())
                assert not failed, (sorted(g.edges()), sorted(xs), sorted(ys), failed)
                lifted += len(ok)
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
    """The line-graph branch runs before the W-join search, which stays
    reachable on graphs that are not line graphs; a 1-join in such a graph
    is answered through the augmentation branch."""

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
        assert find_one_join(g) is not None
        assert self.branches(g, {1})[-1] == "augmentation"

    def test_line_graph_with_a_w_join_takes_the_line_graph_branch(self):
        g = w_join_host()
        assert recover_root(g) is not None
        assert find_w_join(g) is not None
        branches = self.branches(g, {6})
        assert "line-graph" in branches and "w-join" not in branches

    def test_generated_graphs_solve_without_fallback(self):
        # claw-free innocent graphs of 10-60 vertices, with z empty and with
        # the first simplicial vertex that validates as safe; then linear
        # interval graphs with every z of one or two simplicial vertices
        # that validates
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
        interval = 0
        for _ in range(200):
            g = unit_interval_graph(rng, rng.randint(4, 16))
            simp = sorted(simplicial_vertices(g))
            for z in itertools.chain(itertools.combinations(simp, 1), itertools.combinations(simp, 2)):
                try:
                    validate_prescribed(g, frozenset(z))
                except GraphError:
                    continue
                res = solve(g, z, trusted=True)
                assert res.status is SolveStatus.FOUND and set(z) <= res.s, (sorted(g.edges()), z)
                interval += 1
        assert interval >= 1500, interval
