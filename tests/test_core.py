import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from strongstable import core
from strongstable.core import (
    Budget,
    BudgetExceededError,
    Graph,
    GraphError,
    Multigraph,
    anticomponents,
    _degeneracy_order,
    complement,
    components,
    components_within,
    from_edge_list,
    induced,
    induced_cycles,
    induced_paths_between,
    is_strong_stable_set,
    iter_maximal_cliques,
    line_graph,
    maximal_cliques,
    two_coloring,
)
from oracles import (
    complete,
    cycle,
    graph_isomorphic,
    is_induced_path,
    naive_anchored_paths,
    naive_degeneracy_order,
    naive_induced_cycles,
    naive_is_clique,
    naive_is_stable,
    naive_is_strong_stable_set,
    naive_maximal_cliques,
    naive_two_coloring,
    nbrs,
    path,
    subsets,
)


def random_graph(rng, n, p):
    pairs = itertools.combinations(range(n), 2)
    return from_edge_list(n, [e for e in pairs if rng.random() < p])


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [e for e, keep in zip(pairs, mask) if keep])


class TestFromEdgeList:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert g.is_complete()

    def test_edgeless(self):
        g = from_edge_list(2, [])
        assert g.edge_count() == 0

    def test_cycle_degrees(self):
        g = cycle(5)
        assert all(g.degree(v) == 2 for v in range(5))

    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            from_edge_list(2, [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            from_edge_list(2, [(1, 1)])


# each Graph predicate applied with the id v in one argument place
_PREDICATES = {
    "has_edge(v, 0)": lambda g, v: g.has_edge(v, 0),
    "has_edge(0, v)": lambda g, v: g.has_edge(0, v),
    "degree": lambda g, v: g.degree(v),
    "neighborhood": lambda g, v: g.neighborhood({0, v}),
    "is_clique": lambda g, v: g.is_clique({v}),
    "is_stable": lambda g, v: g.is_stable({v}),
    "is_complete_between(x)": lambda g, v: g.is_complete_between({v}, {0}),
    "is_complete_between(y)": lambda g, v: g.is_complete_between({0}, {v}),
    "is_anticomplete_between(x)": lambda g, v: g.is_anticomplete_between({v}, {0}),
    "is_anticomplete_between(y)": lambda g, v: g.is_anticomplete_between({0}, {v}),
    "is_mixed_on(v)": lambda g, v: g.is_mixed_on(v, {0}),
    "is_mixed_on(x)": lambda g, v: g.is_mixed_on(0, {1, v}),
}


class TestPredicateIds:
    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("name", sorted(_PREDICATES))
    def test_ids_outside_the_graph_raise(self, name, bad):
        # on C4, -1 would index vertex 3 and 4 would read an absent bit
        with pytest.raises(GraphError, match="out of range"):
            _PREDICATES[name](cycle(4), bad)


class TestBits:
    @staticmethod
    def assert_well_formed(g):
        """n masks, no bit at n or above, no loop, symmetric."""
        assert len(g.bits) == g.n
        for v in range(g.n):
            assert g.bits[v] >> g.n == 0 and not g.bits[v] >> v & 1
            assert all(g.bits[v] >> w & 1 == g.bits[w] >> v & 1 for w in range(g.n))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_derived_masks_match_the_edges(self, g, data):
        keep = data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
        edges = set(g.edges())
        self.assert_well_formed(g)
        assert all(
            g.has_edge(u, v) == ((u, v) in edges)
            for u, v in itertools.combinations(range(g.n), 2)
        )
        co = complement(g)
        self.assert_well_formed(co)
        assert all(
            co.has_edge(u, v) != ((u, v) in edges)
            for u, v in itertools.combinations(range(g.n), 2)
        )
        sub, mapping = induced(g, keep & set(range(g.n)))
        self.assert_well_formed(sub)
        assert all(
            sub.has_edge(i, j) == ((mapping[i], mapping[j]) in edges)
            for i, j in itertools.combinations(range(sub.n), 2)
        )

    def test_bits_is_the_only_adjacency(self):
        # a graph is n and its masks: no second representation, and ==,
        # hash and repr see exactly these two fields
        g, h = cycle(7), cycle(7)
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "bits"]
        assert not hasattr(Graph, "adj")
        assert vars(g) == {"n": 7, "bits": g.bits}
        assert repr(g) == f"Graph(n=7, bits={g.bits!r})"
        assert g == h and hash(g) == hash(h)


class TestComplement:
    def test_k3(self):
        assert complement(complete(3)).edge_count() == 0

    def test_c5_self_complementary(self):
        assert graph_isomorphic(complement(cycle(5)), cycle(5))

    def test_c4_matching(self):
        co = complement(cycle(4))
        assert sorted(co.edges()) == [(0, 2), (1, 3)]

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInduced:
    def test_three_consecutive_of_c5(self):
        sub, mapping = induced(cycle(5), {0, 1, 2})
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]
        assert mapping == (0, 1, 2)

    def test_identity(self):
        g = cycle(6)
        sub, mapping = induced(g, range(6))
        assert sub == g

    def test_alternate_vertices_edgeless(self):
        sub, _ = induced(cycle(6), {0, 2, 4})
        assert sub.edge_count() == 0

    def test_mask_path_matches_a_set_rebuild(self):
        # the masks of G[x] and its mapping, against a rebuild from edge
        # pairs; any iterable of ids, repeats and order included, will do
        rng = random.Random(3)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 14), rng.random())
            x = [v for v in range(g.n) if rng.random() < 0.6]
            order = tuple(sorted(x))
            pos = {v: i for i, v in enumerate(order)}
            expected = from_edge_list(
                len(order), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
            )
            rng.shuffle(x)
            for xs in (x, iter(x + x[:2]), frozenset(x)):
                assert induced(g, xs) == (expected, order)
            assert core._induced(g, core._mask_of(x)) == (expected, order)

    @pytest.mark.parametrize("bad", [[-1], [0, -3], [6], [2, 7], [-1, 6]])
    def test_out_of_range_ids(self, bad):
        with pytest.raises(GraphError, match="out of range"):
            induced(cycle(6), bad)


class TestComponents:
    def test_two_triangles(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert [sorted(c) for c in components(g)] == [[0, 1, 2], [3, 4, 5]]

    def test_anticomponents_clique(self):
        assert anticomponents(complete(4)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_anticomponents_c4(self):
        assert sorted(map(sorted, anticomponents(cycle(4)))) == [[0, 2], [1, 3]]

    def test_anticomponents_are_components_of_the_complement(self, graphs_by_n):
        for n in range(7):
            for g in graphs_by_n[n]:
                assert anticomponents(g) == anticomponents(g, range(n))
                for s in [range(n), *(set(range(n)) - {v} for v in range(n))]:
                    sub, mapping = induced(g, s)
                    expected = [
                        frozenset(mapping[v] for v in c) for c in components(complement(sub))
                    ]
                    assert anticomponents(g, s) == expected, (sorted(g.edges()), sorted(s))

    def test_within_matches_bfs(self):
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 20), rng.random() * 0.4)
            s = {v for v in range(g.n) if rng.random() < 0.7}
            expected, seen = [], set()
            for start in sorted(s):
                if start in seen:
                    continue
                comp, queue = {start}, [start]
                for v in queue:
                    for w in nbrs(g)[v] & s - comp:
                        comp.add(w)
                        queue.append(w)
                seen |= comp
                expected.append(frozenset(comp))
            assert components_within(g, s) == expected


class TestMaximalCliques:
    def test_c5_edges(self):
        assert maximal_cliques(cycle(5)) == [
            frozenset(e) for e in [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        ]

    def test_k4(self):
        assert maximal_cliques(complete(4)) == [frozenset({0, 1, 2, 3})]

    def test_clown_cliques(self):
        # even hole 0..3 plus hat 4 on the edge (0, 1)
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])
        assert maximal_cliques(g) == [
            frozenset({0, 1, 4}),
            frozenset({0, 3}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ]

    def test_budget_vertices(self):
        # max_vertices is read by nothing: the meter alone bounds the search
        assert maximal_cliques(complete(5), Budget(max_vertices=4)) == [frozenset(range(5))]
        with pytest.raises(BudgetExceededError):
            maximal_cliques(complete(5), Budget(max_vertices=4, max_enumerations=5))

    def test_above_the_vertex_cap(self):
        assert maximal_cliques(complete(30)) == [frozenset(range(30))]

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_matches_naive(self, g):
        assert sorted(map(sorted, maximal_cliques(g))) == sorted(
            map(sorted, naive_maximal_cliques(g))
        )

    def test_every_small_graph(self, graphs_by_n):
        # each clique once, and the outer loop follows the degeneracy order:
        # a yield's earliest vertex in that order never moves back
        for n in range(8):
            for g in graphs_by_n[n]:
                got = list(iter_maximal_cliques(g))
                assert sorted(map(sorted, got)) == sorted(
                    map(sorted, naive_maximal_cliques(g))
                )
                rank = {v: i for i, v in enumerate(naive_degeneracy_order(g))}
                firsts = [min(rank[v] for v in k) for k in got]
                assert firsts == sorted(firsts)

    def test_degeneracy_order_matches_naive(self, graphs_by_n):
        rng = random.Random(11)
        graphs = [g for n in range(8) for g in graphs_by_n[n]]
        graphs += [
            random_graph(rng, rng.randint(1, 40), rng.random()) for _ in range(200)
        ]
        for g in graphs:
            assert _degeneracy_order(g) == naive_degeneracy_order(g)

    def test_long_path_fast(self):
        # choosing each next vertex by a scan over all alive vertices took
        # minutes here
        n = 20000
        g = path(n)
        t0 = time.perf_counter()
        cliques = maximal_cliques(g, Budget(n + 1, 10**6))
        assert time.perf_counter() - t0 < 5
        assert cliques == [frozenset({i, i + 1}) for i in range(n - 1)]

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_cover_vertices_and_edges(self, g):
        cliques = maximal_cliques(g)
        for v in range(g.n):
            assert any(v in k for k in cliques)
        for u, v in g.edges():
            assert any(u in k and v in k for k in cliques)


class TestStrongStableSet:
    def test_c6(self):
        assert is_strong_stable_set(cycle(6), {0, 2, 4})

    def test_c5_has_none(self):
        g = cycle(5)
        for s in itertools.chain.from_iterable(
            itertools.combinations(range(5), r) for r in range(6)
        ):
            if g.is_stable(s):
                assert not is_strong_stable_set(g, s)

    def test_single_vertex_of_k3(self):
        assert is_strong_stable_set(complete(3), {0})

    def test_out_of_range_ids_are_not_strong(self):
        # negative ids included: the set is never shifted by one
        g = cycle(6)
        for s in ({0, 2, 4, 6}, {0, 2, 4, -1}, {-2}, {6}, {-1, 6}):
            assert is_strong_stable_set(g, s) is False
            assert is_strong_stable_set(g, iter(sorted(s))) is False
        assert is_strong_stable_set(from_edge_list(0, []), {0}) is False
        assert is_strong_stable_set(from_edge_list(0, []), ()) is True

    def test_every_subset_of_every_small_graph(self, graphs_by_n):
        for n in range(7):
            for g in graphs_by_n[n]:
                for sub in subsets(range(n)):
                    assert g.is_stable(sub) == naive_is_stable(g, sub)
                    assert g.is_clique(sub) == naive_is_clique(g, sub)
                    assert is_strong_stable_set(g, sub) == naive_is_strong_stable_set(
                        g, sub
                    )

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=6), st.data())
    def test_matches_naive(self, g, data):
        sub = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0))))
        sub = {v for v in sub if v < g.n}
        assert is_strong_stable_set(g, sub) == naive_is_strong_stable_set(g, sub)


class TestInducedPaths:
    def test_p5_single(self):
        assert list(induced_paths_between(path(5), 0, 4)) == [(0, 1, 2, 3, 4)]

    def test_c6_antipodal(self):
        assert list(induced_paths_between(cycle(6), 0, 3)) == [
            (0, 1, 2, 3),
            (0, 5, 4, 3),
        ]

    def test_c5_adjacent_pair_chordless(self):
        # only the edge itself: the length-4 arc has the endpoint chord
        assert list(induced_paths_between(cycle(5), 0, 1)) == [(0, 1)]

    def test_same_endpoint_rejected(self):
        with pytest.raises(GraphError):
            list(induced_paths_between(cycle(5), 2, 2))

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=7))
    def test_yields_only_induced_paths(self, g):
        if g.n < 2:
            return
        for p in induced_paths_between(g, 0, g.n - 1):
            assert is_induced_path(g, p)

    def test_budget(self):
        # ten squares in series: 2**10 induced paths from end to end
        edges = []
        for i in range(10):
            a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
            edges += [(a, b), (a, c), (b, a + 3), (c, a + 3)]
        with pytest.raises(BudgetExceededError):
            list(induced_paths_between(from_edge_list(31, edges), 0, 30, Budget(max_enumerations=50)))

    def test_long_path_one_simple_path(self):
        # one stack level per path vertex, not one recursion level
        n = 3000
        paths = list(induced_paths_between(path(n), 0, n - 1, Budget(n + 1, 10**6)))
        assert paths == [tuple(range(n))]

    def test_every_pair_against_oracles(self, graphs_by_n):
        # every path is yielded, once, in lexicographic order
        for n in range(2, 7):
            for g in graphs_by_n[n]:
                for u, v in itertools.permutations(range(n), 2):
                    assert list(induced_paths_between(g, u, v)) == naive_anchored_paths(
                        g, u, v
                    ), (sorted(g.edges()), u, v)


class TestInducedCycles:
    def test_c6(self):
        assert list(induced_cycles(cycle(6))) == [(0, 1, 2, 3, 4, 5)]

    def test_k4_none(self):
        assert list(induced_cycles(complete(4))) == []

    def test_parity_filter(self):
        g = cycle(5)
        assert list(induced_cycles(g, parity=0)) == []
        assert list(induced_cycles(g, parity=1)) == [(0, 1, 2, 3, 4)]

    def test_each_once(self):
        # prism: exactly three squares and no other holes
        g = complement(cycle(6))
        cycles = list(induced_cycles(g))
        assert len(cycles) == len(set(cycles)) == 3
        assert all(len(c) == 4 for c in cycles)

    def test_matches_subset_oracle(self, graphs_by_n):
        grid = [  # (min_len, max_len, parity)
            (3, None, None),
            (4, None, None),
            (4, 4, None),
            (5, None, 1),
            (6, None, None),
            (4, 6, 0),
            (3, 5, 1),
            (5, 6, None),
        ]
        for n in range(8):
            for g in graphs_by_n[n]:
                for h in (g, complement(g)):
                    for min_len, max_len, parity in grid:
                        # yields come in lexicographic order, each once
                        got = induced_cycles(h, Budget(8), min_len, max_len, parity)
                        assert list(got) == naive_induced_cycles(
                            h, min_len, max_len, parity
                        ), (h, min_len, max_len, parity)

    def test_long_path_skips_every_base(self):
        # no base has two neighbours above it, so nothing is walked
        assert list(induced_cycles(path(3000), Budget(3001, 100_000))) == []


class TestLineGraph:
    def test_path(self):
        # vertex i is edge i: the middle edge of the path is listed last
        lg = line_graph(Multigraph.build(4, [(0, 1), (2, 3), (1, 2)]))
        assert lg.n == 3
        assert sorted(lg.edges()) == [(0, 2), (1, 2)]

    def test_k23_is_prism(self):
        k23 = Multigraph.build(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        lg = line_graph(k23)
        prism = from_edge_list(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        )
        assert graph_isomorphic(lg, prism)

    def test_parallel_edges_become_twins(self):
        lg = line_graph(Multigraph.build(2, [(0, 1), (0, 1)]))
        assert sorted(lg.edges()) == [(0, 1)]
        assert lg.bits[0] | 1 == lg.bits[1] | 2

    def test_triangle_free_gives_claw_and_diamond_free(self):
        import random

        from strongstable.recognizers import find_claw

        def has_diamond(h):
            for quad in itertools.combinations(range(h.n), 4):
                sub, _ = induced(h, quad)
                if sub.edge_count() == 5:
                    return True
            return False

        rng = random.Random(17)
        for _ in range(25):
            nl, nr = rng.randint(1, 4), rng.randint(1, 4)
            edges = {
                (i, nl + j)
                for i in range(nl)
                for j in range(nr)
                if rng.random() < 0.5
            }
            b = Multigraph.build(nl + nr, sorted(edges))
            lg = line_graph(b)
            assert find_claw(lg) is None
            assert not has_diamond(lg)


class TestMultigraph:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Multigraph.build(2, [(0, 0)])

    def test_degree_counts_parallels(self):
        b = Multigraph.build(2, [(0, 1), (0, 1)])
        assert b.degree(0) == 2

    def test_bipartition(self):
        b = Multigraph.build(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
        left, right = b.bipartition()
        assert left == {0, 1} and right == {2, 3, 4}
        assert Multigraph.build(3, [(0, 1), (1, 2), (0, 2)]).bipartition() is None

    def test_two_coloring_puts_smallest_on_colour_zero(self):
        g = from_edge_list(6, [(1, 0), (1, 2), (4, 3), (4, 5)])
        assert two_coloring(g.bits) == {0, 2, 3, 5}
        assert two_coloring(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]).bits) is None

    def test_two_coloring_against_oracle(self, graphs_by_n):
        for n in range(8):
            for g in graphs_by_n[n]:
                for h in (g, complement(g)):
                    assert two_coloring(h.bits) == naive_two_coloring(h), sorted(h.edges())


class TestBudget:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Budget(max_vertices=0)

    def test_enumeration_cap(self):
        g = complete(10)
        with pytest.raises(BudgetExceededError):
            maximal_cliques(g, Budget(max_enumerations=3))

    def test_strong_set_search_closes_at_a_covering_pivot(self):
        # vertex 0 sees every candidate, so the root is the only search node
        assert is_strong_stable_set(complete(10), {0}, Budget(24, 1)) is True
