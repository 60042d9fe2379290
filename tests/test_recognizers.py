import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strongstable.core import (
    GraphError,
    Multigraph,
    from_edge_list,
    induced,
    is_strong_stable_set,
    line_graph,
)
from strongstable.generators import peculiar
from strongstable.recognizers import (
    Clown,
    find_claw,
    find_clowns,
    find_strong_pair,
    find_twins,
    is_consistent_set,
    is_safe_vertex,
    is_simplicial_vertex,
    simplicial_vertices,
)
from oracles import (
    complete,
    cycle,
    is_simplicial_clique,
    is_simplicial_edge,
    naive_anchored_paths,
    naive_clowns,
    naive_find_claw,
    naive_find_cosimplicial_nonedge,
    naive_find_strong_pair,
    naive_is_consistent_set,
    naive_is_peculiar,
    naive_is_safe_vertex,
    naive_is_stable,
    naive_is_strong_stable_set,
    nbrs,
    path,
)


def clown_graph(k=4):
    """Even hole 0..k-1 with hat k on the edge (0, 1)."""
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k, 0), (k, 1)]
    return from_edge_list(k + 1, edges)


@st.composite
def random_bipartite_multigraphs(draw):
    nl = draw(st.integers(1, 3))
    nr = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    edges = [
        (draw(st.integers(0, nl - 1)), nl + draw(st.integers(0, nr - 1)))
        for _ in range(m)
    ]
    return Multigraph.build(nl + nr, edges)


class TestFindClaw:
    def test_star(self):
        w = find_claw(from_edge_list(4, [(0, 1), (0, 2), (0, 3)]))
        assert w.center == 0 and w.leaves == (1, 2, 3)

    def test_c6_claw_free(self):
        assert find_claw(cycle(6)) is None

    def test_k23(self):
        k23 = from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        w = find_claw(k23)
        assert w is not None
        assert from_edge_list(4, []).is_stable(set())  # noop sanity
        assert all(not k23.has_edge(a, b) for a, b in itertools.combinations(w.leaves, 2))

    def test_against_oracle(self, graphs_by_n):
        rng = random.Random(11)
        graphs = [g for n in range(8) for g in graphs_by_n[n]]
        for _ in range(300):
            n, p = rng.randint(0, 30), rng.random()
            graphs.append(from_edge_list(n, [
                (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
            ]))
        for g in graphs:
            w = find_claw(g)
            assert (None if w is None else (w.center, w.leaves)) == naive_find_claw(g)

    @settings(max_examples=30, deadline=None)
    @given(random_bipartite_multigraphs())
    def test_line_graphs_of_bipartite_are_claw_free(self, b):
        lg = line_graph(b)
        assert find_claw(lg) is None


class TestSimplicial:
    def test_p4_ends(self):
        assert simplicial_vertices(path(4)) == {0, 3}

    def test_c4_cosimplicial_nonedge(self):
        assert find_strong_pair(cycle(4)) == (0, 2)

    def test_k4_minus_edge(self):
        g = from_edge_list(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert find_strong_pair(g) == (0, 2)

    def test_must_contain_pair(self):
        g = cycle(4)
        assert find_strong_pair(g, {1, 3}) == (1, 3)
        assert find_strong_pair(g, {0, 1}) is None  # adjacent

    def test_is_simplicial_edge_requires_edge(self):
        with pytest.raises(GraphError):
            is_simplicial_edge(cycle(4), 0, 2)

    def test_pendant_edge_simplicial(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        assert is_simplicial_edge(g, 0, 1)

    def test_simplicial_clique(self):
        assert is_simplicial_clique(complete(4), {0, 1, 2, 3})
        assert not is_simplicial_clique(cycle(4), {0})
        with pytest.raises(GraphError):
            is_simplicial_clique(cycle(4), {0, 2})

    def test_simplicial_neighborhood_after_deletion(self):
        # a simplicial vertex's neighborhood is a simplicial clique once the
        # vertex is gone (claw-free hosts)
        g = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
        assert 0 in simplicial_vertices(g)
        rest, mapping = induced(g, g.vertex_set() - {0})
        pos = {old: new for new, old in enumerate(mapping)}
        assert is_simplicial_clique(rest, {pos[1], pos[2]})


class TestCosimplicialOracle:
    def test_every_nonedge_up_to_7(self, graphs_by_n):
        """With no stable triple no vertex misses both ends of a non-edge, so
        the strong pairs are the complement-graph cosimplicial non-edges:
        every graph up to seven vertices with no stable triple, every
        must_contain of at most two vertices."""
        for n, graphs in graphs_by_n.items():
            for g in graphs:
                if any(naive_is_stable(g, t) for t in itertools.combinations(range(n), 3)):
                    continue
                assert find_strong_pair(g) == naive_find_cosimplicial_nonedge(g)
                for w in range(n):
                    assert find_strong_pair(g, {w}) == naive_find_cosimplicial_nonedge(g, {w})
                for u, v in itertools.combinations(range(n), 2):
                    expect = naive_find_cosimplicial_nonedge(g, {u, v})
                    assert find_strong_pair(g, {u, v}) == expect


class TestStrongPair:
    def test_differential_against_strong_stable_set(self):
        """Seeded random graphs: a non-edge is accepted exactly when it is a
        strong stable set, and the search returns the lex-first one."""
        rng = random.Random(30)
        accepted = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            p = rng.random()
            g = from_edge_list(n, [e for e in itertools.combinations(range(n), 2)
                                   if rng.random() < p])
            for u, v in itertools.combinations(range(n), 2):
                if not g.has_edge(u, v):
                    strong = is_strong_stable_set(g, {u, v})
                    assert (find_strong_pair(g, {u, v}) is not None) == strong, (
                        sorted(g.edges()), u, v)
                    accepted += strong
            assert find_strong_pair(g) == naive_find_strong_pair(g)
        assert accepted >= 100

    def test_out_of_range_and_too_many(self):
        g = cycle(4)
        for z in ({-1}, {4}, {0, 4}, {-1, 2}):
            with pytest.raises(GraphError):
                find_strong_pair(g, z)
        with pytest.raises(GraphError):
            find_strong_pair(from_edge_list(5, []), {0, 1, 2})


class TestSimplicialStableProperty:
    def test_claw_free_simplicial_vertices_stable(self, graphs_by_n):
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                if find_claw(g) is not None or find_twins(g) is not None:
                    continue
                simp = simplicial_vertices(g)
                assert g.is_stable(simp), sorted(g.edges())

    def test_neighborhood_is_simplicial_clique_after_deletion(self, graphs_by_n):
        for n in range(2, 8):
            for g in graphs_by_n[n]:
                if find_claw(g) is not None:
                    continue
                for v in sorted(simplicial_vertices(g)):
                    if not g.bits[v]:
                        continue
                    rest, mapping = induced(g, g.vertex_set() - {v})
                    pos = {old: new for new, old in enumerate(mapping)}
                    assert is_simplicial_clique(
                        rest, {pos[u] for u in nbrs(g)[v]}
                    ), sorted(g.edges())


class TestTwins:
    def test_k3(self):
        assert find_twins(complete(3)) == (0, 1)

    def test_c5_none(self):
        assert find_twins(cycle(5)) is None

    def test_parallel_edges_give_twins(self):
        b = Multigraph.build(3, [(0, 1), (0, 1), (1, 2)])
        lg = line_graph(b)
        assert find_twins(lg) == (0, 1)


class TestClowns:
    def test_c4_with_hat(self):
        found = list(find_clowns(clown_graph(4)))
        assert found == [Clown(hat=4, cycle=(0, 1, 2, 3))]

    def test_odd_cycle_no_clown(self):
        g = from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1)])
        assert list(find_clowns(g)) == []

    def test_bare_hole_no_hat(self):
        assert list(find_clowns(cycle(6))) == []


class TestConsistentSets:
    def test_p5_ends_even_pair(self):
        assert is_consistent_set(path(5), {0, 4}) == (True, None)

    def test_p4_ends_odd(self):
        ok, witness = is_consistent_set(path(4), {0, 3})
        assert not ok and witness == (0, 1, 2, 3)

    def test_c6_antipodal_odd_arcs(self):
        ok, witness = is_consistent_set(cycle(6), {0, 3})
        assert not ok and len(witness) - 1 == 3

    def test_adjacent_pair_never_even(self):
        ok, witness = is_consistent_set(path(3), {0, 1})
        assert not ok and witness == (0, 1)

    def test_diamond_modes_differ(self):
        # the diamond's nonedge pair: every chordless path is even (an odd
        # simple path through the chord does not count)
        g = from_edge_list(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert is_consistent_set(g, {0, 2})[0]

    def test_every_nonadjacent_pair_against_oracle(self, graphs_by_n):
        for n in range(2, 7):
            for g in graphs_by_n[n]:
                for u, v in itertools.combinations(range(n), 2):
                    if g.has_edge(u, v):
                        continue
                    ok, witness = is_consistent_set(g, {u, v})
                    assert ok == naive_is_consistent_set(g, {u, v}), (sorted(g.edges()), u, v)
                    if not ok:
                        assert {witness[0], witness[-1]} == {u, v}
                        assert witness in naive_anchored_paths(
                            g, witness[0], witness[-1], parity=1
                        )


class TestSafeVertices:
    def test_pendant_on_hat(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 4)])
        assert is_safe_vertex(g, 5) == (True, None)

    def test_two_step_pendant_unsafe(self):
        g = from_edge_list(
            7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 4), (6, 5)]
        )
        ok, (clown, p) = is_safe_vertex(g, 6)
        assert not ok and p == (6, 5, 4) and clown.hat == 4

    def test_hat_never_safe(self):
        ok, (clown, p) = is_safe_vertex(clown_graph(4), 4)
        assert not ok and p == (4,)

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("check", [is_safe_vertex, is_simplicial_vertex])
    def test_ids_outside_the_graph_raise(self, check, bad):
        # on the path 0-1-2, -1 would read vertex 2 and 3 would not index
        with pytest.raises(GraphError, match="out of range"):
            check(path(3), bad)

    def test_same_hat_searched_again_in_another_component(self):
        # hat 6 on the 4-holes 0-1-2-3 and 0-1-4-5; the even path
        # 11-9-8-7-6 passes 7, a neighbour of the first hole (through 2) but
        # not of the second, so a search for (C, 6) with C off the first
        # hole finds only the odd 11-9-10-6, and C off the second differs
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0), (6, 0), (6, 1)]
        edges += [(7, 2), (7, 6), (8, 7), (9, 8), (11, 9), (10, 9), (10, 6)]
        g = from_edge_list(12, edges)
        assert not naive_is_safe_vertex(g, 11)
        assert is_safe_vertex(g, 11) == (False, (Clown(6, (0, 1, 4, 5)), (11, 9, 8, 7, 6)))

    def test_vacuous_when_clown_free(self):
        for v in simplicial_vertices(path(5)):
            assert is_safe_vertex(path(5), v)[0]

    def test_every_vertex_against_oracle(self, graphs_by_n):
        # seven vertices are the fewest with an even qualifying path (a
        # four-hole, its hat, and two path vertices)
        for n in range(1, 8):
            for g in graphs_by_n[n]:
                clowns = {(hat, frozenset(hole)) for hat, hole in naive_clowns(g)}
                for v in range(n):
                    ok, witness = is_safe_vertex(g, v)
                    assert ok == naive_is_safe_vertex(g, v), (sorted(g.edges()), v)
                    if witness is None:
                        continue
                    # the hat itself, or an even qualifying path to a real clown's hat
                    clown, p = witness
                    hole = frozenset(clown.cycle)
                    assert (clown.hat, hole) in clowns
                    assert p == (v,) == (clown.hat,) or p in naive_anchored_paths(
                        g, v, clown.hat, hole, hole, parity=0
                    )

    def test_safe_implies_simplicial_and_not_hat(self, graphs_by_n):
        for g in graphs_by_n[6]:
            hats = {c.hat for c in find_clowns(g)}
            for v in range(g.n):
                ok, _ = is_safe_vertex(g, v)
                if ok:
                    assert g.is_clique(nbrs(g)[v])
                    assert v not in hats


class TestPeculiar:
    """Every peculiar graph has a two-vertex strong stable set, which
    ``find_strong_pair`` finds."""

    def _minimal(self):
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(6), 2)
            if (u, v) not in [(0, 4), (1, 5), (2, 3)]
        ]
        return from_edge_list(6, edges)

    def test_minimal_found(self):
        g = self._minimal()
        assert find_strong_pair(g) == (0, 4)
        assert naive_is_strong_stable_set(g, {0, 4})

    def test_c6_absent(self):
        # opposite vertices dominate C6, but their private neighbours meet
        assert find_strong_pair(cycle(6)) is None

    def test_against_oracle(self, graphs_by_n):
        rng = random.Random(4)
        graphs = [g for n in range(7) for g in graphs_by_n[n]]
        for seed in range(10):
            # relabelled, then one edge dropped, then one non-edge added
            sizes = (1,) * 6 + tuple(rng.randint(0, 1) for _ in range(3))
            g = peculiar(sizes, seed)
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            non = [(perm[u], perm[v]) for u, v in itertools.combinations(range(g.n), 2)
                   if not g.has_edge(u, v)]
            graphs.append(from_edge_list(g.n, edges))
            graphs.append(from_edge_list(g.n, edges[1:]))
            graphs.append(from_edge_list(g.n, edges + [rng.choice(non)]))
        found = 0
        for g in graphs:
            pair = find_strong_pair(g)
            assert pair == naive_find_strong_pair(g), sorted(g.edges())
            if naive_is_peculiar(g):
                found += 1
                assert pair is not None
        assert found >= 10

    def test_every_k_pattern_found(self):
        # each of k1..k3 empty or not, relabelled
        rng = random.Random(5)
        for seed, ks in enumerate(itertools.product((0, 2), repeat=3)):
            g = peculiar((1, 2, 2, 1, 2, 1) + ks, seed)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            pair = find_strong_pair(g)
            assert pair is not None and naive_is_strong_stable_set(g, pair), ks

    def test_empty_k_parts_accepted(self):
        assert naive_is_peculiar(peculiar((1, 1, 1, 1, 1, 1, 0, 0, 0)))
        assert naive_is_peculiar(peculiar((1, 1, 1, 1, 1, 1, 1, 1, 1)))
