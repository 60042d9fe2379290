import random

import pytest

from strongstable.core import (
    Budget,
    GraphError,
    Multigraph,
    from_edge_list,
    line_graph,
)
from strongstable.forbidden import Innocent, innocence_certificate
from strongstable.generators import (
    bicycle,
    random_connected_bipartite,
    random_connected_bipartite_multigraph,
    theta,
)
from strongstable.linegraph import recover_root, suitable_matching
from strongstable.core import is_strong_stable_set
from oracles import (
    bipartite_graphs_up_to,
    contract_degree_two,
    cycle,
    graph_isomorphic,
    multigraph_isomorphic,
    naive_is_harmless,
    naive_suitable_matching_exists,
    nbrs,
)

M = Multigraph.build


class TestRecoverRoot:
    def test_c6(self):
        g = cycle(6)
        rr = recover_root(g)
        lg = line_graph(rr.root)
        assert lg == g and not rr.ambiguous

    def test_odd_prism_root_is_theta(self):
        k23 = M(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        lg = line_graph(k23)
        rr = recover_root(lg)
        assert rr is not None
        assert multigraph_isomorphic(rr.root, k23)

    def test_c5_has_no_bipartite_root(self):
        assert recover_root(cycle(5)) is None

    def test_k3_prefers_bipartite_and_flags_ambiguity(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        rr = recover_root(g)
        assert rr is not None
        assert rr.root.bipartition() is not None
        assert rr.ambiguous

    def test_twins_become_parallel_edges(self):
        b = M(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
        lg = line_graph(b)
        rr = recover_root(lg)
        relg = line_graph(rr.root)
        assert relg == lg

    def test_claw_has_no_root(self):
        assert recover_root(from_edge_list(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_any_root_is_exact(self, graphs_by_n):
        for n in range(8):
            for g in graphs_by_n[n]:
                if not g.is_connected():
                    continue
                rr = recover_root(g)
                if rr is not None:
                    assert rr.root.bipartition() is not None
                    assert line_graph(rr.root) == g

    def test_every_bipartite_line_graph_has_root(self):
        for graphs in bipartite_graphs_up_to(6).values():
            for h in graphs:
                if h.edge_count() == 0 or not h.is_connected():
                    continue
                edges = sorted(h.edges())
                for b in (M(h.n, edges), M(h.n, edges + edges[:1])):
                    assert recover_root(line_graph(b)) is not None

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            recover_root(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_random_roundtrip_exact(self):
        for seed in range(40):
            b = random_connected_bipartite_multigraph(seed, 7, 11)
            lg = line_graph(b)
            rr = recover_root(lg)
            assert rr is not None
            relg = line_graph(rr.root)
            assert relg == lg


class TestThetaBicycle:
    def test_k23_theta(self):
        assert not naive_is_harmless(M(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]))

    def test_tree_harmless(self):
        assert naive_is_harmless(M(5, [(0, 1), (1, 2), (2, 3), (2, 4)]))

    def test_shared_vertex_bicycle(self):
        b = M(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
        assert not naive_is_harmless(b)

    def test_disjoint_bicycle_even_path(self):
        assert not naive_is_harmless(bicycle(4, 4, 2))

    def test_dumbbell_odd_connector_harmless(self):
        # two 4-cycles joined by a path of three edges: its ends lie on
        # opposite sides, so this dumbbell is no bicycle
        cycles = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
        b = M(10, cycles + [(0, 8), (8, 9), (9, 4)])
        assert naive_is_harmless(b)
        assert isinstance(innocence_certificate(line_graph(b)), Innocent)

    def test_theta_as_subgraph_with_chords(self):
        # theta plus a parallel edge and a pendant, still bipartite: still
        # harmful (subgraph containment)
        t = theta((2, 2, 2))
        edges = list(t.edges) + [(0, 2), (2, t.n)]
        assert not naive_is_harmless(M(t.n + 1, edges))

    def test_non_bipartite_host_rejected(self):
        # harmlessness is defined on bipartite hosts only
        c5 = M(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(GraphError):
            naive_is_harmless(c5)

    def test_harmless_iff_line_graph_innocent(self):
        # the random generators repair a root until its line graph is
        # innocent, so they rely on this equivalence, parallel edges included
        rng = random.Random(3)
        hosts = []
        for _ in range(40):
            b = random_connected_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
            if b.m > 0:
                hosts.append(b)
        for seed in range(40):
            n = rng.randint(3, 8)
            hosts.append(random_connected_bipartite_multigraph(
                seed, n, rng.randint(n, 12), parallel_rate=0.3, unambiguous=False
            ))
        assert any(len(set(b.edges)) < b.m for b in hosts)
        for b in hosts:
            lg = line_graph(b)
            innocent = isinstance(innocence_certificate(lg), Innocent)
            assert naive_is_harmless(b) == innocent, list(b.edges)

    def test_line_graph_correspondences(self):
        from strongstable.forbidden import ForbiddenKind, find_structure

        lg = line_graph(theta((2, 4, 2)))
        assert find_structure(lg, ForbiddenKind.ODD_PRISM) is not None
        lg = line_graph(bicycle(4, 6, 2))
        assert find_structure(lg, ForbiddenKind.HANDCUFF) is not None
        lg = line_graph(bicycle(6, 4, 0))
        assert find_structure(lg, ForbiddenKind.EYE_MASK) is not None


class TestSuitableMatching:
    def test_path_three(self):
        m = suitable_matching(M(3, [(0, 1), (1, 2)]))
        assert m is not None and len(m.edges) == 1

    def test_even_cycle_perfect_matching(self):
        m = suitable_matching(M(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert m is not None and len(m.edges) == 2

    def test_odd_path_forced_ends(self):
        b = M(4, [(0, 1), (1, 2), (2, 3)])
        m = suitable_matching(b, forced={0, 2})
        assert m is not None and m.edges == {0, 2}

    def test_infeasible_forced(self):
        # C4 with a pendant path of three: forcing the singular edge leaves
        # one cycle vertex uncoverable
        b = M(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
        assert suitable_matching(b, forced={6}) is None
        assert suitable_matching(b) is not None

    def test_forced_must_be_matching(self):
        b = M(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            suitable_matching(b, forced={0, 1})

    def test_exactness_against_subset_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            b = random_connected_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3))
            if b.m == 0:
                continue
            forced = frozenset()
            if b.m > 1 and rng.random() < 0.5:
                forced = frozenset({rng.randrange(b.m)})
            try:
                m = suitable_matching(b, forced)
            except GraphError:
                continue
            assert (m is not None) == naive_suitable_matching_exists(b, forced), list(
                b.edges
            )

    def test_matching_maps_to_strong_stable_set(self):
        rng = random.Random(5)
        for _ in range(40):
            b = random_connected_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 2))
            if b.m < 2:
                continue  # a lone edge has no degree-two star for its clique
            m = suitable_matching(b)
            if m is None:
                continue
            assert is_strong_stable_set(line_graph(b), m.edges)


class TestContraction:
    def test_path(self):
        res = contract_degree_two(M(3, [(0, 1), (1, 2)]), 1)
        assert res.graph.n == 1 and res.graph.m == 0

    def test_c6_to_c4(self):
        res = contract_degree_two(M(6, [(i, (i + 1) % 6) for i in range(6)]), 1)
        assert res.graph.n == 4 and res.graph.m == 4
        assert graph_isomorphic(res.graph.underlying_simple(), cycle(4))

    def test_c4_gives_parallel_pair(self):
        res = contract_degree_two(M(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0)
        assert res.graph.edges == ((0, 1), (0, 1))

    def test_parallel_neighbors_rejected(self):
        with pytest.raises(GraphError):
            contract_degree_two(M(2, [(0, 1), (0, 1)]), 0)

    def test_preserves_harmlessness_in_proof_setting(self):
        # u of degree two between v (degree >= 3) and w, with u the only
        # common neighbor: contraction keeps the host harmless
        rng = random.Random(23)
        checked = 0
        for seed in range(600):
            b = random_connected_bipartite_multigraph(seed, 7, 9, parallel_rate=0.0, unambiguous=False)
            if not naive_is_harmless(b):
                continue
            simple = b.underlying_simple()
            for u in range(b.n):
                if b.degree(u) != 2:
                    continue
                inc = b.incident(u)
                v, w = (x for e in inc for x in b.edges[e] if x != u)
                if v == w or b.degree(v) < 3:
                    continue
                if len(nbrs(simple)[v] & nbrs(simple)[w]) != 1:
                    continue
                res = contract_degree_two(b, u)
                assert naive_is_harmless(res.graph), (list(b.edges), u)
                checked += 1
                break
            if checked >= 20:
                break
        assert checked >= 10
