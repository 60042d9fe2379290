"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Everything here is pinned: exact where the criterion
says exact, with the documented minimum-size corrections from the ledger
(the smallest handcuff has ten vertices).
"""

import itertools
import random
from collections import Counter

import pytest

from strongstable import cli, core
from strongstable.core import Budget, complement, is_strong_stable_set, line_graph
from strongstable.forbidden import innocence_certificate
from strongstable.forbidden import ForbiddenKind, find_structure, is_innocent, verify_witness
from strongstable.generators import (
    bicycle,
    eye_mask,
    handcuff,
    hole,
    peculiar,
    prism,
    random_claw_free_innocent,
    random_connected_bipartite_multigraph,
    random_harmless_bipartite,
    theta,
)
from strongstable.linegraph import recover_root, suitable_matching
from strongstable.recognizers import (
    cobipartite_partition,
    find_claw,
    is_consistent_set,
    is_safe_vertex,
    simplicial_vertices,
)
from strongstable.decompose import grow_square_connected_pair, verify_w_join
from strongstable.solver import (
    SolveStatus,
    brute_force,
    extend_at_simplicial,
    solve,
    solve_cobipartite,
    solve_peculiar,
)
from oracles import (
    attach_anchor_gadgets,
    bipartite_graphs_up_to,
    cycle,
    graph_isomorphic,
    multigraph_isomorphic,
    naive_is_innocent,
    path,
    random_growth_host,
    strip_anchor_gadgets,
)


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_criterion_01_exhaustive_soundness_completeness(graphs_by_n):
    total = innocent = 0
    for n in range(8):
        for g in graphs_by_n[n]:
            total += 1
            res = solve(g)
            bf = brute_force(g)
            assert (res.s is None) == (bf is None), sorted(g.edges())
            if res.s is not None:
                assert is_strong_stable_set(g, res.s), sorted(g.edges())
            if find_claw(g) is None and is_innocent(g):
                innocent += 1
                assert res.status in (
                    SolveStatus.FOUND,
                    SolveStatus.FALLBACK_FOUND,
                ), sorted(g.edges())
    _report(1, "exhaustive n<=7 soundness/completeness", f"{total} graphs, {innocent} claw-free innocent")


def test_criterion_02_forbidden_families_not_strongly_perfect():
    # minimum-size members; the 6-antihole and the 6-vertex odd prism are the
    # same graph, counted once; the smallest handcuff has ten vertices
    instances = {
        "odd-hole-5": hole(5),
        "antihole-6 / odd-prism-6": prism((1, 1, 1)),
        "handcuff-10": handcuff(4, 4, 1),
        "eye-mask-8": eye_mask(4, 4),
    }
    assert instances["antihole-6 / odd-prism-6"].n == 6
    assert instances["handcuff-10"].n == 10
    assert instances["eye-mask-8"].n == 8
    assert graph_isomorphic(prism((1, 1, 1)), complement(hole(6)))
    for name, g in instances.items():
        assert brute_force(g) is None, name
    _report(2, "forbidden minimums have no strong stable set", ", ".join(instances))


def test_criterion_03_detector_oracle_equivalence(graphs_by_n):
    count = 0
    for n in range(8):
        for g in graphs_by_n[n]:
            assert is_innocent(g) == naive_is_innocent(g), sorted(g.edges())
            count += 1
    _report(3, "innocence detector vs all-subsets oracle, n<=7", f"{count} graphs")


def test_criterion_04_line_graph_correspondences():
    rng = random.Random(2024)
    checked = 0
    for _ in range(70):
        lens = tuple(rng.choice((2, 2, 4)) for _ in range(3))
        lg = line_graph(theta(lens))
        w = find_structure(lg, ForbiddenKind.ODD_PRISM)
        assert w is not None and verify_witness(lg, w), lens
        checked += 1
    for _ in range(65):
        c1, c2 = rng.choice((4, 6)), rng.choice((4, 6))
        lg = line_graph(bicycle(c1, c2, 0))
        w = find_structure(lg, ForbiddenKind.EYE_MASK)
        assert w is not None and verify_witness(lg, w), (c1, c2)
        checked += 1
    for _ in range(65):
        c1, c2 = rng.choice((4, 6)), rng.choice((4, 6))
        p = rng.choice((2, 4))
        lg = line_graph(bicycle(c1, c2, p))
        w = find_structure(lg, ForbiddenKind.HANDCUFF)
        assert w is not None and verify_witness(lg, w), (c1, c2, p)
        checked += 1
    assert checked == 200
    _report(4, "theta/bicycle line graphs detected", "200 instances")


def test_criterion_05_matching_pipeline():
    rng = random.Random(48)
    done = 0
    while done < 200:
        b = random_harmless_bipartite(rng.randint(0, 10**9), rng.randint(4, 14), rng.randint(1, 3))
        if b.m < 2 or b.n > 14:
            continue
        lg = line_graph(b)  # vertex e is root edge e
        singular = [
            e
            for e, (u, v) in enumerate(b.edges)
            if b.degree(u) == 1 or b.degree(v) == 1
        ]
        forced: list[int] = []
        for e in singular:
            cand = forced + [e]
            if not lg.is_stable(cand):
                continue
            if not is_safe_vertex(lg, e)[0]:
                continue
            if not is_consistent_set(lg, cand)[0]:
                continue
            forced = cand
        m = suitable_matching(b, frozenset(forced))
        assert m is not None, (list(b.edges), forced)
        s = m.edges
        assert frozenset(forced) <= s
        assert is_strong_stable_set(lg, s), (list(b.edges), sorted(s))
        done += 1
    _report(5, "suitable matchings with forced singular edges", "200 harmless roots")


def test_criterion_06_gadget_round_trips():
    rng = random.Random(77)
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        g = random_claw_free_innocent(seed, rng.randint(6, 10), augment_rate=0.2)
        safe = [
            v
            for v in sorted(simplicial_vertices(g))
            if is_safe_vertex(g, v)[0]
        ]
        if not safe:
            continue
        v0 = safe[0]
        res = solve(g, {v0}, trusted=True)
        assert res.s is not None and v0 in res.s
        for variant, m, k in ((1, 3, None), (2, 2, None), (3, 2, 4)):
            ext = extend_at_simplicial(g, v0, variant, m, k, solution=res.s)
            assert find_claw(ext.graph) is None, (seed, variant)
            assert is_innocent(ext.graph), (seed, variant)
            assert is_strong_stable_set(ext.graph, ext.extended), (seed, variant)
        g2, anchors = attach_anchor_gadgets(g, {v0})
        res2 = solve(g2, trusted=True)
        assert res2.s is not None
        recovered = strip_anchor_gadgets(g2, anchors, res2.s)
        assert v0 in recovered and is_strong_stable_set(g, recovered)
        done += 1
    _report(6, "extension and anchor-gadget round trips", "100 hosts with a safe vertex")


def test_criterion_07_square_connected_growth():
    rng = random.Random(4242)
    for _ in range(100):
        g, square, a_side, b_side = random_growth_host(rng)
        w = grow_square_connected_pair(g, square, a_side, b_side)
        assert verify_w_join(g, w)
    _report(7, "square-connected growth yields proper coherent W-joins", "100 hosts")


def test_criterion_08_cobipartite_and_peculiar_closed_forms():
    levels = bipartite_graphs_up_to(8)
    cob_count = 0
    for n in range(1, 9):
        for bip in levels[n]:
            g = complement(bip)
            if not is_innocent(g):
                continue
            assert cobipartite_partition(g) is not None
            z_options = [frozenset()]
            singles = [
                v for v in range(g.n) if is_safe_vertex(g, v)[0]
            ]
            z_options += [frozenset({v}) for v in singles]
            for u, v in itertools.combinations(singles, 2):
                if not g.has_edge(u, v) and is_consistent_set(g, {u, v})[0]:
                    z_options.append(frozenset({u, v}))
            for z in z_options:
                s = solve_cobipartite(g, z)
                assert z <= s and is_strong_stable_set(g, s), (sorted(g.edges()), sorted(z))
                assert brute_force(g, z) is not None
                cob_count += 1
    pec_count = 0
    size_choices = [
        (1, 1, 1, 1, 1, 1, 0, 0, 0),
        (2, 1, 1, 1, 1, 1, 0, 0, 0),
        (1, 1, 1, 1, 2, 1, 1, 0, 0),
        (2, 1, 1, 1, 2, 1, 1, 1, 0),
        (2, 2, 1, 1, 2, 1, 1, 1, 1),
        (2, 2, 2, 2, 2, 2, 0, 0, 0),
    ]
    for sizes in size_choices:
        for seed in (None, 5, 11):
            g, parts = peculiar(sizes, seed)
            if g.n > 12:
                continue
            s = solve_peculiar(g, parts)
            assert is_strong_stable_set(g, s), (sizes, seed)
            bf = brute_force(g)
            assert bf is not None
            pec_count += 1
    _report(
        8,
        "cobipartite & peculiar closed forms vs brute force",
        f"{cob_count} cobipartite cases, {pec_count} peculiar instances",
    )


def test_criterion_09_root_recovery_roundtrip():
    done = 0
    seed = 0
    while done < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        m = rng.randint(n + 1, 20)
        b = random_connected_bipartite_multigraph(seed, n=n, m=m)
        if b.m > 20:
            continue
        lg = line_graph(b)
        if lg.n > 20:
            continue
        rr = recover_root(lg, Budget(max_vertices=24, max_enumerations=2_000_000))
        assert rr is not None, list(b.edges)
        relg = line_graph(rr.root)
        assert relg == lg
        assert multigraph_isomorphic(rr.root, b), (list(b.edges), list(rr.root.edges))
        done += 1
    _report(9, "root recovery reproduces the root up to isomorphism", "200 multigraphs")


def test_criterion_10_fallback_telemetry():
    rng = random.Random(1234)
    histogram: Counter[str] = Counter()
    statuses: Counter[str] = Counter()
    for i in range(1000):
        size = rng.randint(6, 14)
        rate = rng.choice((0.0, 0.2, 0.4))
        g = random_claw_free_innocent(seed=10_000 + i, size=size, augment_rate=rate)
        res = solve(g)
        assert res.status in (SolveStatus.FOUND, SolveStatus.FALLBACK_FOUND)
        assert res.s is not None and is_strong_stable_set(g, res.s)
        statuses[res.status.value] += 1
        histogram[res.trace[-1].branch] += 1
    lines = [f"  {branch:<16} {count}" for branch, count in histogram.most_common()]
    print("\nSolver branch usage over the 1000-graph corpus (terminal branch):")
    print("\n".join(lines))
    fallback_rate = statuses.get("fallback-found", 0) / 1000
    print(f"fallback rate: {fallback_rate:.3f}")
    assert sum(histogram.values()) == 1000
    _report(10, "fallback telemetry produced; all results verify", f"fallback rate {fallback_rate:.3f}")


def test_default_budget_solves_innocent_graphs_above_the_vertex_cap():
    # the vertex cap bounds brute force only, so with Budget() the cascade
    # answers innocent graphs of 30-300 vertices by structure; generation
    # runs the detectors and gets a raised budget of its own
    graphs = [cycle(n) for n in range(30, 301, 30)] + [path(n) for n in range(30, 301, 27)]
    innocent = []
    rng = random.Random(4321)
    seed = 30_000
    while len(innocent) < 30:
        size, rate = rng.randint(60, 140), rng.choice((0.0, 0.2, 0.4))
        g = random_claw_free_innocent(seed, size, rate, Budget(1000, 50_000_000))
        seed += 1
        if 30 <= g.n <= 70:
            innocent.append(g)
    for g in graphs + innocent:
        res = solve(g, budget=Budget())
        assert res.status == SolveStatus.FOUND, (g.n, res.trace)
        assert is_strong_stable_set(g, res.s, Budget())


@pytest.mark.parametrize("call", ["solve", "prescribed", "certify", "check"])
def test_one_meter_per_public_call(call, monkeypatch, tmp_path):
    # one enumeration meter per public call: every layer (validation, each
    # cascade branch, the root check, each of the five detectors) draws on it
    built = []
    init = core._Meter.__init__

    def counted(self, budget):
        built.append(budget)
        init(self, budget)

    monkeypatch.setattr(core._Meter, "__init__", counted)
    if call == "solve":
        solve(cycle(30))
    elif call == "prescribed":
        solve(path(9), {0, 8})  # validated: both ends safe, an even pair
    elif call == "certify":
        innocence_certificate(cycle(6))
    else:
        p = tmp_path / "c6.txt"
        p.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        assert cli.main(["check", "--json", str(p)]) == 0
    assert len(built) == 1
