import itertools
import random

import pytest

from strongstable.core import (
    Budget,
    BudgetExceededError,
    _Meter,
    _peel_simplicial,
    complement,
    from_edge_list,
    induced_cycles,
    line_graph,
)
from strongstable import forbidden
from strongstable.forbidden import (
    CERTIFICATE_ORDER,
    ForbiddenKind,
    ForbiddenWitness,
    Innocent,
    find_structure,
    innocence_certificate,
    is_innocent,
    _anchored_paths,
    verify_witness,
)
from strongstable.generators import antihole, bicycle, eye_mask, handcuff, hole, prism
from strongstable.recognizers import simplicial_vertices
from oracles import (
    cocktail_party,
    complete,
    cycle,
    naive_anchored_paths,
    naive_find_kind,
    naive_is_innocent,
    nbrs,
)


class TestOddHole:
    def test_c5(self):
        w = find_structure(cycle(5), ForbiddenKind.ODD_HOLE)
        assert w.vertices == frozenset(range(5))
        assert verify_witness(cycle(5), w)

    def test_c4_none(self):
        assert find_structure(cycle(4), ForbiddenKind.ODD_HOLE) is None

    def test_inside_bigger_graph(self):
        g = from_edge_list(7, [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (6, 5)])
        w = find_structure(g, ForbiddenKind.ODD_HOLE)
        assert w is not None and w.vertices == frozenset(range(5))


class TestLongAntihole:
    def test_c7_complement(self):
        g = complement(cycle(7))
        w = find_structure(g, ForbiddenKind.LONG_ANTIHOLE)
        assert w is not None and verify_witness(g, w)

    def test_five_antihole_is_not_long(self):
        # the length-5 antihole is C5 itself: reported as odd hole
        g = complement(cycle(5))
        assert find_structure(g, ForbiddenKind.LONG_ANTIHOLE) is None
        cert = innocence_certificate(g)
        assert cert.kind == ForbiddenKind.ODD_HOLE


class TestOddPrism:
    def test_l_k23(self):
        k23 = from_edge_list(5, [])
        from strongstable.core import Multigraph

        lg = line_graph(
            Multigraph.build(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        )
        w = find_structure(lg, ForbiddenKind.ODD_PRISM)
        assert w is not None and w.vertices == frozenset(range(6))
        assert verify_witness(lg, w)

    def test_longer_paths(self):
        g = prism((1, 1, 3))
        w = find_structure(g, ForbiddenKind.ODD_PRISM)
        assert w is not None and verify_witness(g, w)

    def test_even_prism_not_odd(self):
        g = prism((2, 2, 2))
        assert find_structure(g, ForbiddenKind.ODD_PRISM) is None


class TestHandcuffEyeMask:
    def test_minimum_handcuff_is_ten_vertices(self):
        g = handcuff(4, 4, 1)
        assert g.n == 10
        w = find_structure(g, ForbiddenKind.HANDCUFF)
        assert w is not None and w.vertices == frozenset(range(10))
        assert verify_witness(g, w)

    def test_handcuff_from_line_graph_of_bicycle(self):
        lg = line_graph(bicycle(4, 4, 2))
        w = find_structure(lg, ForbiddenKind.HANDCUFF)
        assert w is not None and verify_witness(lg, w)

    def test_minimum_eye_mask(self):
        g = eye_mask(4, 4)
        assert g.n == 8
        w = find_structure(g, ForbiddenKind.EYE_MASK)
        assert w is not None and verify_witness(g, w)

    def test_eye_mask_from_line_graph_of_shared_bicycle(self):
        lg = line_graph(bicycle(4, 4, 0))
        w = find_structure(lg, ForbiddenKind.EYE_MASK)
        assert w is not None and verify_witness(lg, w)

    def test_minimum_fixtures_match_naive(self):
        assert naive_find_kind(handcuff(4, 4, 1), "handcuff") == frozenset(range(10))
        assert naive_find_kind(eye_mask(4, 4), "eye-mask") == frozenset(range(8))
        assert naive_find_kind(prism((1, 1, 1)), "odd-prism") == frozenset(range(6))


class TestCertificate:
    def test_c6_innocent(self):
        assert isinstance(innocence_certificate(cycle(6)), Innocent)

    def test_kind_order_fixed(self):
        # the 6-antihole is also an odd prism; the certificate uses the
        # long-antihole detector first
        cert = innocence_certificate(complement(cycle(6)))
        assert cert.kind == ForbiddenKind.LONG_ANTIHOLE
        assert CERTIFICATE_ORDER[0] == ForbiddenKind.ODD_HOLE

    def test_eye_mask_certificate(self):
        assert innocence_certificate(eye_mask(4, 4)).kind == ForbiddenKind.EYE_MASK

    def test_all_generated_families_detected(self):
        cases = [
            (hole(7), ForbiddenKind.ODD_HOLE),
            (complement(cycle(8)), ForbiddenKind.LONG_ANTIHOLE),
            (prism((1, 3, 3)), ForbiddenKind.ODD_PRISM),
            (handcuff(4, 6, 3), ForbiddenKind.HANDCUFF),
            (eye_mask(6, 4), ForbiddenKind.EYE_MASK),
        ]
        for g, kind in cases:
            w = find_structure(g, kind)
            assert w is not None and verify_witness(g, w), kind


# the five families on their small members, with paths of length 1 and
# links of length 1 among them
_STRUCTURES = (
    [hole(k) for k in (5, 7, 9)]
    + [antihole(k) for k in (6, 7, 8, 9)]
    + [prism(p) for p in ((1, 1, 1), (1, 1, 3), (1, 3, 3), (3, 3, 5))]
    + [eye_mask(c1, c2) for c1, c2 in ((4, 4), (4, 6), (6, 8))]
    + [handcuff(c1, c2, k) for c1, c2, k in ((4, 4, 1), (4, 6, 1), (4, 4, 3), (6, 6, 5))]
)


def _with_simplicial_attachments(rng: random.Random, base):
    """base plus pendants and cliques glued at a vertex, ids shuffled; an
    attachment may hang off an earlier one, so peeling takes several rounds.
    Returns the graph and the new ids of base's vertices."""
    edges = list(base.edges())
    n = base.n
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(n)
        new = range(n, n + rng.randint(1, 4))  # a single new vertex is a pendant
        edges += [(at, v) for v in new] + list(itertools.combinations(new, 2))
        n = new.stop
    ids = list(range(n))
    rng.shuffle(ids)
    g = from_edge_list(n, [(ids[u], ids[v]) for u, v in edges])
    return g, frozenset(ids[: base.n])


class TestSimplicialPeel:
    def test_no_vertex_of_a_structure_is_simplicial(self):
        # every vertex of the five structures has two non-adjacent
        # neighbours in it, so the certificate's peel keeps every induced copy
        for g in _STRUCTURES:
            assert simplicial_vertices(g) == frozenset(), sorted(g.edges())

    def test_complete_graph_peels_without_a_tick(self):
        cert = innocence_certificate(complete(200), Budget(max_enumerations=1))
        assert isinstance(cert, Innocent)

    def test_peel_isolates_exactly_the_attachments(self):
        rng = random.Random(19)
        c6 = cycle(6)
        assert _peel_simplicial(c6) is c6
        for base in _STRUCTURES:
            g, kept = _with_simplicial_attachments(rng, base)
            core = _peel_simplicial(g)
            assert core.n == g.n
            assert frozenset(v for v in range(g.n) if core.bits[v]) == kept
            assert all(nbrs(core)[v] == nbrs(g)[v] & kept for v in kept)

    def test_same_witness_as_the_unpeeled_searches(self):
        rng = random.Random(20)
        for base in _STRUCTURES + [cycle(6), cycle(8), complete(4)]:
            for _ in range(3):
                g, _ = _with_simplicial_attachments(rng, base)
                assert simplicial_vertices(g)
                cert = innocence_certificate(g)
                first = next(
                    (w for kind in CERTIFICATE_ORDER if (w := find_structure(g, kind))),
                    None,
                )
                if first is None:
                    assert isinstance(cert, Innocent), sorted(g.edges())
                else:
                    assert (cert.kind, cert.vertices, cert.anatomy) == (
                        first.kind,
                        first.vertices,
                        first.anatomy,
                    ), sorted(g.edges())


class TestVerifyWitness:
    def test_round_trip(self):
        for g in (cycle(5), eye_mask(4, 4), handcuff(4, 4, 1), prism((1, 1, 1))):
            cert = innocence_certificate(g)
            assert verify_witness(g, cert)

    def test_chord_breaks_witness(self):
        g = cycle(5)
        w = find_structure(g, ForbiddenKind.ODD_HOLE)
        chorded = from_edge_list(5, list(g.edges()) + [(0, 2)])
        assert not verify_witness(chorded, w)

    def test_tampered_parity_fails(self):
        g = handcuff(4, 4, 1)
        w = find_structure(g, ForbiddenKind.HANDCUFF)
        c1, c2 = w.anatomy["cycles"]
        bad = ForbiddenWitness(
            w.kind,
            w.vertices,
            {**w.anatomy, "path": w.anatomy["path"] + (0,)},
        )
        assert not verify_witness(g, bad)

    def test_wrong_vertex_set_fails(self):
        g = cycle(5)
        w = find_structure(g, ForbiddenKind.ODD_HOLE)
        bad = ForbiddenWitness(w.kind, frozenset({0, 1, 2, 3}), w.anatomy)
        assert not verify_witness(g, bad)


class TestNaiveAgreement:
    def test_small_exhaustive(self, graphs_by_n):
        # full agreement at n <= 6 here; the n = 7 sweep lives in acceptance
        for n in range(7):
            for g in graphs_by_n[n]:
                assert is_innocent(g) == naive_is_innocent(g), sorted(g.edges())


class TestAnchoredPaths:
    def test_matches_permutation_oracle(self, graphs_by_n):
        # random constraints on every graph of at most six vertices;
        # yields come in lexicographic order, each once
        rng = random.Random(11)
        for n in range(2, 7):
            for g in graphs_by_n[n]:
                for _ in range(20):
                    start, end = rng.sample(range(n), 2)
                    args = (
                        frozenset(v for v in range(n) if rng.random() < 0.15),
                        frozenset(v for v in range(n) if rng.random() < 0.1),
                        rng.choice((None, 0, 1)),
                        rng.choice((1, 2, 3)),
                        rng.random() < 0.5,
                    )
                    got = _anchored_paths(g, _Meter(Budget(8)), start, end, *args)
                    assert list(got) == naive_anchored_paths(g, start, end, *args), (
                        sorted(g.edges()),
                        start,
                        end,
                        args,
                    )


def _planted(rng: random.Random, base, n: int, flip: bool, sparse: bool = False):
    """base plus random extra vertices up to n, one base pair maybe flipped,
    vertex ids shuffled; with sparse, each extra vertex sees one or two
    earlier vertices."""
    edges = set(base.edges())
    if flip:
        u, v = rng.sample(range(base.n), 2)
        edges ^= {(min(u, v), max(u, v))}
    for v in range(base.n, n):
        if sparse:
            edges |= {(u, v) for u in rng.sample(range(v), rng.randint(1, 2))}
        else:
            edges |= {(u, v) for u in range(v) if rng.random() < 0.3}
    return _shuffled(rng, n, edges)


def _shuffled(rng: random.Random, n: int, edges):
    ids = list(range(n))
    rng.shuffle(ids)
    return from_edge_list(n, [(ids[u], ids[v]) for u, v in edges])


def _near_corner(rng: random.Random, base, corners: frozenset[int]):
    """base with one or two off-corner vertices tied to a corner they miss,
    each by an edge or through a new vertex, vertex ids shuffled."""
    edges = set(base.edges())
    n = base.n
    for _ in range(rng.randint(1, 2)):
        p = rng.choice([v for v in range(base.n) if v not in corners])
        c = rng.choice(sorted(corners - nbrs(base)[p]))
        if rng.random() < 0.3:
            edges.add((min(p, c), max(p, c)))
        else:
            edges |= {(p, n), (c, n)}
            n += 1
    return _shuffled(rng, n, edges)


class TestPrunedDetectorsAgainstOracle:
    def test_planted_and_random_graphs_8_to_12(self):
        # the n <= 7 sweeps hold no eye mask (8 vertices) or handcuff (10)
        rng = random.Random(2026)
        bases = [eye_mask(4, 4), handcuff(4, 4, 1), prism((1, 1, 1)), prism((1, 1, 3))]
        graphs = []
        for _ in range(10):
            for base in bases:
                n = rng.randint(max(8, base.n), 12)
                graphs.append(_planted(rng, base, n, flip=rng.random() < 0.4))
            n = rng.randint(8, 12)
            p = rng.choice((0.3, 0.5))
            graphs.append(
                from_edge_list(
                    n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                )
            )
        found = {kind: 0 for kind in ForbiddenKind}
        for g in graphs:
            for kind in ForbiddenKind:
                w = find_structure(g, kind)
                assert (w is None) == (naive_find_kind(g, kind.value) is None), (
                    kind,
                    sorted(g.edges()),
                )
                if w is not None:
                    assert verify_witness(g, w)
                    found[kind] += 1
        for kind in (ForbiddenKind.ODD_PRISM, ForbiddenKind.EYE_MASK, ForbiddenKind.HANDCUFF):
            assert found[kind] >= 3, found

    def test_antiholes_in_sparse_hosts(self):
        # every added vertex sees at most two earlier ones, so the 3-core lies
        # inside the planted antihole; the 6-antihole is 3-regular
        rng = random.Random(61)
        found = 0
        for k in range(6, 10):
            for _ in range(8):
                n = rng.randint(k + 1, min(k + 4, 13))
                g = _planted(rng, antihole(k), n, flip=rng.random() < 0.3, sparse=True)
                w = find_structure(g, ForbiddenKind.LONG_ANTIHOLE)
                first = next(induced_cycles(complement(g), min_len=6), None)
                naive = naive_find_kind(g, ForbiddenKind.LONG_ANTIHOLE.value)
                assert (w is None) == (first is None) == (naive is None), sorted(g.edges())
                if w is not None:
                    assert w.anatomy["cycle"] == first and verify_witness(g, w)
                    found += k == 6
        assert found >= 3

    def test_paths_next_to_a_third_corner(self):
        # a chord or a detour from a path or cycle to a corner it must miss
        rng = random.Random(62)
        cases = [
            (prism((1, 1, 3)), range(6), ForbiddenKind.ODD_PRISM),
            (prism((1, 3, 3)), range(6), ForbiddenKind.ODD_PRISM),
            (handcuff(4, 4, 1), (0, 1, 4, 5, 8, 9), ForbiddenKind.HANDCUFF),
            (handcuff(4, 4, 3), (0, 1, 4, 5, 8, 11), ForbiddenKind.HANDCUFF),
        ]
        found = {kind: 0 for _, _, kind in cases}
        for _ in range(8):
            for base, corners, kind in cases:
                g = _near_corner(rng, base, frozenset(corners))
                w = find_structure(g, kind)
                assert (w is None) == (naive_find_kind(g, kind.value) is None), (
                    kind,
                    sorted(g.edges()),
                )
                if w is not None:
                    assert verify_witness(g, w)
                    found[kind] += 1
        assert all(3 <= v < 16 for v in found.values()), found

    def test_reach_masks_skip_every_prism_pair(self, monkeypatch):
        # triangles 0-1-2 and 3-4-5 joined only by the path 0-6-7-3, with a
        # pendant at every other corner: no cross edge, so every matching
        # passes the cross-edge test, but corners 1 and 2 reach only their
        # pendants
        g = from_edge_list(
            12,
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 6), (6, 7), (7, 3)]
            + [(1, 8), (2, 9), (4, 10), (5, 11)],
        )
        calls = []
        grow = forbidden._grow_prism_paths
        monkeypatch.setattr(
            forbidden, "_grow_prism_paths", lambda *a: calls.append(a) or grow(*a)
        )
        assert find_structure(g, ForbiddenKind.ODD_PRISM) is None
        assert calls == []


class TestLongStructures:
    @pytest.mark.parametrize(
        "g, kind",
        [
            (prism((1, 1, 1201)), ForbiddenKind.ODD_PRISM),
            (handcuff(4, 4, 1201), ForbiddenKind.HANDCUFF),
            (eye_mask(1202, 4), ForbiddenKind.EYE_MASK),
        ],
        ids=["odd-prism", "handcuff", "eye-mask"],
    )
    def test_long_path_or_cycle_without_recursion(self, g, kind):
        w = find_structure(g, kind, Budget(g.n + 1, 10_000_000))
        assert w is not None and w.vertices == frozenset(range(g.n))
        assert verify_witness(g, w)


class TestBudgets:
    def test_size_gate(self):
        # max_vertices is read by nothing: the meter alone bounds a detector
        assert find_structure(cycle(30), ForbiddenKind.ODD_HOLE, Budget(max_vertices=24)) is None
        with pytest.raises(BudgetExceededError):
            find_structure(
                cycle(30), ForbiddenKind.ODD_HOLE, Budget(max_vertices=24, max_enumerations=30)
            )

    def test_dense_input_trips_the_meter(self):
        # K200 has 1.3M triangles: the odd-prism search ticks on each one, and
        # the eye-mask search ticks before it has listed every 4-clique; the
        # certificate peels K200 whole, so it gets K200 minus a perfect
        # matching, which has nearly as many triangles and no simplicial vertex
        with pytest.raises(BudgetExceededError):
            innocence_certificate(cocktail_party(200), Budget())
        with pytest.raises(BudgetExceededError):
            find_structure(complete(60), ForbiddenKind.ODD_PRISM, Budget(max_enumerations=1000))
        with pytest.raises(BudgetExceededError):
            find_structure(complete(200), ForbiddenKind.EYE_MASK, Budget(max_enumerations=1000))

    def test_odd_prism_ticks_each_triangle_pair_once(self):
        # 20 disjoint nets (a triangle with a pendant at each corner) keep 20
        # triangles and hold no prism: one tick per triangle and one per
        # unordered pair, 20 + 190, where every ordered pair would take 400
        edges = []
        for i in range(0, 120, 6):
            edges += [(i, i + 1), (i + 1, i + 2), (i, i + 2)]
            edges += [(i, i + 3), (i + 1, i + 4), (i + 2, i + 5)]
        nets = from_edge_list(120, edges)
        assert find_structure(nets, ForbiddenKind.ODD_PRISM, Budget(max_enumerations=210)) is None
        with pytest.raises(BudgetExceededError):
            find_structure(nets, ForbiddenKind.ODD_PRISM, Budget(max_enumerations=209))

    def test_enumeration_gate(self):
        g = cocktail_party(12)
        with pytest.raises(BudgetExceededError):
            innocence_certificate(g, Budget(max_enumerations=5))


def _random_graphs(count: int = 200, max_n: int = 14):
    rng = random.Random(40)
    for _ in range(count):
        n = rng.randint(0, max_n)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        yield from_edge_list(n, edges)


class TestMaskLoops:
    def test_triangles_in_lexicographic_order_one_tick_each(self):
        for g in _random_graphs():
            nb = nbrs(g)
            want = [
                (a, b, c)
                for a, b, c in itertools.combinations(range(g.n), 3)
                if b in nb[a] and c in nb[a] and c in nb[b]
            ]
            meter = _Meter(Budget())
            got = []
            for t in forbidden._triangles(g, meter):
                got.append(t)
                assert meter.used == len(got)  # ticked before it is yielded
            assert got == want

    def test_three_core_is_repeated_low_degree_deletion(self):
        for g in _random_graphs():
            nb = nbrs(g)
            alive = set(range(g.n))
            while low := {v for v in alive if len(nb[v] & alive) < 3}:
                alive -= low
            assert forbidden._three_core(g.bits) == sum(1 << v for v in alive)
