import random

import pytest

from strongstable.core import (
    Budget,
    BudgetExceededError,
    complement,
    from_edge_list,
    induced,
    induced_cycles,
    squares,
)
from strongstable.decompose import (
    HypothesisViolationError,
    OneJoin,
    WJoin,
    find_clique_cutset,
    find_w_join,
    find_one_join,
    find_zero_join,
    grow_square_connected_pair,
    internal_clique_cutset_from_deletion,
    minimal_separators,
    verify_one_join,
    verify_w_join,
)
from strongstable.recognizers import simplicial_vertices
from oracles import (
    complete,
    cycle,
    naive_grow_square_connected_pair,
    naive_has_clique_cutset,
    naive_one_join,
    naive_w_join_parts,
    path,
    random_growth_host,
    verify_clique_cutset,
)


def two_triangles_shared_vertex():
    return from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


class TestCliqueCutset:
    def test_shared_vertex(self):
        cut = find_clique_cutset(two_triangles_shared_vertex())
        assert cut.k == {2}
        assert verify_clique_cutset(two_triangles_shared_vertex(), cut)

    def test_hole_has_none(self):
        assert find_clique_cutset(cycle(5)) is None

    def test_p5_internal(self):
        cut = find_clique_cutset(path(5))
        assert cut.k == {2} and cut.internal

    def test_disconnected_empty_cutset(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        cut = find_clique_cutset(g)
        assert cut.k == frozenset() and verify_clique_cutset(g, cut)

    def test_existence_matches_exhaustive(self, graphs_by_n):
        for n in range(2, 8):
            for g in graphs_by_n[n]:
                if not g.is_connected():
                    continue
                found = find_clique_cutset(g)
                assert (found is not None) == naive_has_clique_cutset(g), sorted(
                    g.edges()
                )
                if found is not None:
                    assert verify_clique_cutset(g, found)

    def test_minimal_separators_p5(self):
        assert minimal_separators(path(5)) == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]


class TestHoleOrSimplicialProperty:
    def test_cutset_sides(self, graphs_by_n):
        # every clique-cutset side contains a hole within side+clique or a
        # simplicial vertex of the whole graph
        for n in range(3, 8):
            for g in graphs_by_n[n]:
                if not g.is_connected():
                    continue
                cut = find_clique_cutset(g)
                if cut is None:
                    continue
                simp = simplicial_vertices(g)
                for side in (cut.side_a, cut.side_b):
                    sub, _ = induced(g, side | cut.k)
                    has_hole = any(True for _ in induced_cycles(sub))
                    assert has_hole or (simp & side), sorted(g.edges())


class TestZeroJoin:
    def test_disconnected(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        v1, v2 = find_zero_join(g)
        assert {frozenset(v1), frozenset(v2)} == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_connected_none(self):
        assert find_zero_join(cycle(6)) is None

    def test_single_vertex_none(self):
        assert find_zero_join(from_edge_list(1, [])) is None


class TestOneJoin:
    def test_two_triangles_bridge(self):
        g = from_edge_list(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        )
        j = find_one_join(g)
        assert j is not None and j.rich
        assert {frozenset(j.a1), frozenset(j.a2)} == {frozenset({2}), frozenset({3})}
        assert verify_one_join(g, j)

    def test_k4_none(self):
        assert find_one_join(complete(4)) is None

    def test_p4_small_join(self):
        j = find_one_join(path(4))
        assert j is not None and not j.rich
        assert verify_one_join(path(4), j)

    def test_pendant_on_triangle_has_none(self):
        # the far part of the triangle side would be empty
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert find_one_join(g) is None

    def test_rich_preferred(self):
        # a path of length 5 admits both small and rich 1-joins
        j = find_one_join(path(6))
        assert j is not None and j.rich

    def test_matches_all_bipartitions(self, graphs_by_n):
        for n in range(8):
            for g in graphs_by_n[n]:
                j = find_one_join(g)
                assert (j is not None, j is not None and j.rich) == naive_one_join(g)
                assert j is None or verify_one_join(g, j)

    def test_long_cycle_has_none(self):
        assert find_one_join(cycle(30)) is None

    def test_verify_rejects_flag_lies(self):
        g = path(4)
        j = find_one_join(g)
        lied = OneJoin(j.v1, j.v2, j.a1, j.a2, rich=True)
        assert not verify_one_join(g, lied)

    def test_verify_rejects_empty_far_side(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        j = OneJoin(
            frozenset({0, 1, 2}), frozenset({3}), frozenset({2}), frozenset({3}), False
        )
        assert not verify_one_join(g, j)

    def test_interface_is_clique_cutset(self, graphs_by_n):
        # each interface clique separates its far side from the rest
        from strongstable.core import components_within

        for g in graphs_by_n[6]:
            if not g.is_connected():
                continue
            j = find_one_join(g)
            if j is None:
                continue
            for a_i, v_i in ((j.a1, j.v1), (j.a2, j.v2)):
                rest = g.vertex_set() - a_i
                comps = components_within(g, rest)
                b_i = v_i - a_i
                assert any(b_i <= comp for comp in comps) or len(comps) >= 2


def square_with_attachments():
    # square (0,1)x(2,3): 4 complete to {0,1}, 5 complete to {2,3}
    return from_edge_list(
        6, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (5, 2), (5, 3)]
    )


class TestGrowSquareConnectedPair:
    def test_basic(self):
        g = square_with_attachments()
        w = grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        assert w == WJoin(frozenset({0, 1}), frozenset({2, 3}))
        assert verify_w_join(g, w)

    def test_square_alone(self):
        g = from_edge_list(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
        w = grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        assert w.a == {0, 1} and w.b == {2, 3}

    def test_absorbs_common_complete_nonedge(self):
        g = from_edge_list(
            6,
            [(0, 1), (2, 3), (0, 2), (1, 3)]
            + [(4, i) for i in range(4)]
            + [(5, i) for i in range(4)],
        )
        w = grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        assert w.a | w.b == frozenset(range(6))
        assert verify_w_join(g, w)

    def test_absorbs_mixed_vertex(self):
        # 4 sees exactly one of the b-side pair and all of the a-side: it is
        # mixed on B through a square and lands in A
        g = from_edge_list(
            5, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (4, 2)]
        )
        w = grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        assert verify_w_join(g, w)
        assert 4 in (w.a | w.b)

    def test_hypothesis_violation_reported(self):
        # 4 is mixed on {0,1} but misses 3, so it cannot join either clique
        g = from_edge_list(5, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 2)])
        with pytest.raises(HypothesisViolationError) as exc:
            grow_square_connected_pair(g, (0, 1, 2, 3), (0, 1), (2, 3))
        assert exc.value.vertex == 4

    def test_bad_seed_rejected(self):
        from strongstable.core import GraphError

        with pytest.raises(GraphError):
            grow_square_connected_pair(complete(4), (0, 1, 2, 3), (0, 1), (2, 3))

    def test_random_hypothesis_hosts(self):
        # constructed hosts satisfying the growth hypothesis by design
        rng = random.Random(7)
        for _ in range(60):
            g, square, a_side, b_side = random_growth_host(rng)
            w = grow_square_connected_pair(g, square, a_side, b_side)
            assert verify_w_join(g, w)

    def test_matches_set_based_growth(self):
        # every square of seeded random graphs, claws included, split into
        # sides both ways: the same W-join, or the same failing vertex and
        # square
        rng = random.Random(21)
        grown = failed = 0
        for _ in range(1500):
            n = rng.randint(4, 13)
            p = rng.choice((0.3, 0.5, 0.7, 0.85))
            g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            for cyc in squares(g):
                c0, c1, c2, c3 = cyc
                for a_side, b_side in (((c0, c1), (c2, c3)), ((c1, c2), (c3, c0))):
                    try:
                        want = naive_grow_square_connected_pair(g, cyc, a_side, b_side)
                    except HypothesisViolationError as exc:
                        with pytest.raises(HypothesisViolationError) as got:
                            grow_square_connected_pair(g, cyc, a_side, b_side)
                        assert (got.value.vertex, got.value.square) == (exc.vertex, exc.square)
                        failed += 1
                        continue
                    assert grow_square_connected_pair(g, cyc, a_side, b_side) == want
                    assert verify_w_join(g, want) and naive_w_join_parts(g, want.a, want.b) is not None
                    grown += 1
        assert grown >= 500 and failed >= 500

    def test_partition_matches_set_scan(self):
        rng = random.Random(22)
        joins = 0
        for _ in range(2000):
            n = rng.randint(3, 9)
            g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
            a = frozenset(rng.sample(range(n), rng.randint(1, 3)))
            b = frozenset(rng.sample(range(n), rng.randint(1, 3))) - a
            pairs = [(a, b)]  # and each square of g, split into sides both ways
            for c0, c1, c2, c3 in squares(g):
                pairs += [({c0, c1}, {c2, c3}), ({c1, c2}, {c3, c0})]
            for a, b in pairs:
                a, b = frozenset(a), frozenset(b)
                ok = verify_w_join(g, WJoin(a, b))
                assert ok == (naive_w_join_parts(g, a, b) is not None)
                if any(g.is_mixed_on(v, a) or g.is_mixed_on(v, b) for v in g.vertex_set() - a - b):
                    assert not ok
                joins += ok
        assert joins >= 100, joins

    @pytest.mark.parametrize("a, b", [({99}, {0}), ({0}, {6}), ({-1}, {0}), ({0, 1}, {2, -3})])
    def test_ids_outside_the_graph_are_not_a_w_join(self, a, b):
        assert not verify_w_join(cycle(6), WJoin(frozenset(a), frozenset(b)))

    def test_growth_ticks_per_absorbed_vertex(self):
        # the claw-free cobipartite n = 60 graph plus a vertex seeing 0 and
        # its smallest non-neighbour: about 16,000 grows absorb all 60
        # vertices before failing at the last, for only 9,669 square ticks;
        # with a tick per absorbed vertex the budget bounds the growth
        rng = random.Random(11)
        pairs = [(i, j) for i in range(30) for j in range(30, 60) if rng.random() < 0.3]
        host = complement(from_edge_list(60, pairs))
        far = min(v for v in range(1, 60) if not host.has_edge(0, v))
        g = from_edge_list(61, [*host.edges(), (0, 60), (far, 60)])
        assert far == 36
        with pytest.raises(BudgetExceededError):
            find_w_join(g, Budget(max_enumerations=20_000))

    def test_growth_ticks_the_meter_passed_down(self):
        # square (0,1)x(2,3); 4 and 5 are mixed on {0, 1} and complete to
        # the other side, so growth absorbs both: one tick each
        g = from_edge_list(
            6, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)]
        )
        args = (g, (0, 1, 2, 3), (0, 1), (2, 3))
        w = grow_square_connected_pair(*args, Budget(max_enumerations=2))
        assert w == WJoin(frozenset({0, 1}), frozenset({2, 3, 4, 5}))
        with pytest.raises(BudgetExceededError):
            grow_square_connected_pair(*args, Budget(max_enumerations=1))


class TestInternalCutsetFromDeletion:
    def test_p5_lifts_middle(self):
        cut = internal_clique_cutset_from_deletion(path(5))
        assert cut.k == {2} and cut.internal
        assert verify_clique_cutset(path(5), cut)

    def test_k4_absent(self):
        assert internal_clique_cutset_from_deletion(complete(4)) is None

    def test_shared_edge_with_pendants(self):
        # two triangles sharing an edge, pendants on the far corners
        g = from_edge_list(
            6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 5)]
        )
        cut = internal_clique_cutset_from_deletion(g)
        assert cut is not None and cut.internal
        assert verify_clique_cutset(g, cut)

    def test_lift_is_internal_without_twins(self, graphs_by_n):
        from strongstable.recognizers import find_twins

        for g in graphs_by_n[6] + graphs_by_n[7]:
            if not g.is_connected() or find_twins(g) is not None:
                continue
            cut = internal_clique_cutset_from_deletion(g)
            if cut is not None:
                assert verify_clique_cutset(g, cut)
                assert cut.internal, sorted(g.edges())
