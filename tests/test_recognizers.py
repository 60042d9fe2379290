import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strongstable import core, recognizers
from strongstable.core import (
    Budget,
    GraphError,
    Multigraph,
    from_edge_list,
    induced,
    line_graph,
)
from strongstable.recognizers import (
    Clown,
    check_linear_interval_order,
    cobipartite_partition,
    find_claw,
    find_clowns,
    find_cosimplicial_nonedge,
    find_twins,
    is_consistent_set,
    is_cosimplicial_nonedge,
    is_safe_vertex,
    linear_interval_order,
    peculiar_structure,
    simplicial_vertices,
    verify_peculiar,
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
    naive_is_cosimplicial_nonedge,
    naive_is_consistent_set,
    naive_is_peculiar,
    naive_is_safe_vertex,
    naive_linear_interval_exists,
    naive_window_order_ok,
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
        assert find_cosimplicial_nonedge(cycle(4)) == (0, 2)

    def test_k4_minus_edge(self):
        g = from_edge_list(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert find_cosimplicial_nonedge(g) == (0, 2)

    def test_must_contain_pair(self):
        g = cycle(4)
        assert find_cosimplicial_nonedge(g, {1, 3}) == (1, 3)
        assert find_cosimplicial_nonedge(g, {0, 1}) is None  # adjacent

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
        """Masks against the complement-graph definition, every non-edge and
        every must_contain of at most two vertices."""
        for graphs in graphs_by_n.values():
            for g in graphs:
                assert find_cosimplicial_nonedge(g) == naive_find_cosimplicial_nonedge(g)
                for w in range(g.n):
                    assert find_cosimplicial_nonedge(g, {w}) == (
                        naive_find_cosimplicial_nonedge(g, {w})
                    )
                for u, v in itertools.combinations(range(g.n), 2):
                    expect = naive_find_cosimplicial_nonedge(g, {u, v})
                    assert find_cosimplicial_nonedge(g, {u, v}) == expect
                    if not g.has_edge(u, v):
                        assert is_cosimplicial_nonedge(g, u, v) == (
                            naive_is_cosimplicial_nonedge(g, u, v)
                        )

    def test_rejects_edges_and_equal_ends(self):
        with pytest.raises(GraphError):
            is_cosimplicial_nonedge(cycle(4), 0, 1)
        with pytest.raises(GraphError):
            is_cosimplicial_nonedge(cycle(4), 2, 2)


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


class TestCobipartite:
    def test_c4(self):
        a, b = cobipartite_partition(cycle(4))
        assert {a, b} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_c5_none(self):
        assert cobipartite_partition(cycle(5)) is None

    def test_k5_any(self):
        a, b = cobipartite_partition(complete(5))
        assert complete(5).is_clique(a) and complete(5).is_clique(b)

    def test_builds_no_complement_graph(self, monkeypatch):
        def refuse(g):
            raise AssertionError("complement graph built")

        monkeypatch.setattr(core, "complement", refuse)
        monkeypatch.setattr(recognizers, "complement", refuse, raising=False)
        assert cobipartite_partition(path(2401)) is None
        a, b = cobipartite_partition(cycle(4))
        assert {a, b} == {frozenset({0, 1}), frozenset({2, 3})}


class TestLinearInterval:
    def test_p4(self):
        assert linear_interval_order(path(4)) == (0, 1, 2, 3)

    def test_c4_none(self):
        assert linear_interval_order(cycle(4)) is None

    def test_k4(self):
        order = linear_interval_order(complete(4))
        assert order is not None and check_linear_interval_order(complete(4), order)

    def test_agrees_with_permutation_search(self, graphs_by_n):
        for n in range(1, 7):
            for g in graphs_by_n[n]:
                found = linear_interval_order(g)
                if found is not None:
                    assert check_linear_interval_order(g, found)
                else:
                    assert not naive_linear_interval_exists(g), sorted(g.edges())

    def test_random_unit_interval_graphs(self):
        # unit intervals on a line, vertex ids shuffled; far past the size
        # an exhaustive order search could handle
        rng = random.Random(2004)
        for _ in range(20):
            n = rng.randint(25, 40)
            xs = [rng.uniform(0, n / 4) for _ in range(n)]
            ids = list(range(n))
            rng.shuffle(ids)
            edges = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if abs(xs[i] - xs[j]) <= 1
            ]
            g = from_edge_list(n, edges)
            found = linear_interval_order(g)
            assert found is not None and check_linear_interval_order(g, found)

    def test_long_cycle_none(self):
        assert linear_interval_order(cycle(30)) is None

    def test_long_path(self):
        found = linear_interval_order(path(3000))
        assert found is not None and check_linear_interval_order(path(3000), found)

    def test_check_matches_window_definition(self, graphs_by_n):
        # every numbering of every graph up to five vertices, some of six
        rng = random.Random(6)
        for n in range(1, 7):
            for g in graphs_by_n[n]:
                perms = list(itertools.permutations(range(n)))
                if n == 6:
                    perms = rng.sample(perms, 40)
                for perm in perms:
                    assert check_linear_interval_order(g, perm) == naive_window_order_ok(
                        g, perm
                    ), (sorted(g.edges()), perm)

    def test_check_rejects_non_permutations(self):
        assert not check_linear_interval_order(path(3), (0, 1))
        assert not check_linear_interval_order(path(3), (0, 1, 1))


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


def _peculiar(sizes, seed=None):
    from strongstable.generators import peculiar

    return peculiar(sizes, seed)[0]


def _edited(g, drop=None, add=None):
    """g with the edge drop removed and the non-edge add put in."""
    return from_edge_list(g.n, [e for e in g.edges() if e != drop] + ([add] if add else []))


class TestPeculiar:
    def _minimal(self):
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(6), 2)
            if (u, v) not in [(0, 4), (1, 5), (2, 3)]
        ]
        return from_edge_list(6, edges)

    def test_minimal_found(self):
        g = self._minimal()
        parts = peculiar_structure(g)
        assert parts is not None and verify_peculiar(g, parts)

    def test_c6_absent(self):
        assert peculiar_structure(cycle(6)) is None

    def test_missing_cross_edge_fails_verify(self):
        g = self._minimal()
        parts = peculiar_structure(g)
        broken = from_edge_list(6, [e for e in g.edges() if e != (0, 1)])
        assert not verify_peculiar(broken, parts)

    def test_against_oracle(self, graphs_by_n):
        from strongstable.generators import peculiar

        rng = random.Random(4)
        graphs = [g for n in range(7) for g in graphs_by_n[n]]
        for seed in range(10):
            # relabelled, then one edge dropped, then one non-edge added
            sizes = (1,) * 6 + tuple(rng.randint(0, 1) for _ in range(3))
            g, _ = peculiar(sizes, seed)
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
            parts = peculiar_structure(g)
            assert (parts is not None) == naive_is_peculiar(g)
            if parts is not None:
                found += 1
                assert verify_peculiar(g, parts)
        assert found >= 10

    @pytest.mark.parametrize(
        "build, found",
        [
            pytest.param(lambda: _edited(complete(9), drop=(7, 8)), False, id="K9-e"),
            pytest.param(lambda: _edited(complete(10), drop=(0, 1)), False, id="K10-e"),
            pytest.param(lambda: complete(1100), False, id="K1100"),
            pytest.param(lambda: _peculiar((2,) * 9), True, id="2x9"),
            # the first edge (0, 1) lies inside a1; the first non-edge is the
            # one cross edge the generator leaves out of the free pair a1, b2
            pytest.param(lambda: _edited(_peculiar((2,) * 9), drop=(0, 1)), False,
                         id="2x9-drop"),
            pytest.param(lambda: _edited(_peculiar((2,) * 9), add=(0, 8)), False,
                         id="2x9-add"),
            pytest.param(lambda: _peculiar((3,) * 6 + (2, 2, 2)), True, id="3x6"),
            pytest.param(lambda: _edited(_peculiar((3,) * 6 + (2, 2, 2)), drop=(0, 1)),
                         False, id="3x6-drop"),
            pytest.param(lambda: _edited(_peculiar((3,) * 6 + (2, 2, 2)), add=(0, 12)),
                         False, id="3x6-add"),
        ],
    )
    def test_answers_in_a_few_guesses(self, build, found):
        # one guess per K; a search cliffs on the near misses and on K9 - e
        g = build()
        parts = peculiar_structure(g, Budget(max_enumerations=5))
        assert (parts is not None) == found
        assert parts is None or verify_peculiar(g, parts)

    def test_every_k_pattern_found(self):
        # each of k1..k3 empty or not; with two or fewer non-empty the
        # complement has no triangle and K is guessed from the twin classes
        rng = random.Random(5)
        for seed, ks in enumerate(itertools.product((0, 2), repeat=3)):
            g = _peculiar((1, 2, 2, 1, 2, 1) + ks, seed)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            parts = peculiar_structure(g)
            assert parts is not None and verify_peculiar(g, parts), ks

    def test_empty_k_parts_accepted(self):
        from strongstable.generators import peculiar

        g, parts = peculiar((1, 1, 1, 1, 1, 1, 0, 0, 0))
        assert verify_peculiar(g, parts)
        g2, parts2 = peculiar((1, 1, 1, 1, 1, 1, 1, 1, 1))
        assert verify_peculiar(g2, parts2)
