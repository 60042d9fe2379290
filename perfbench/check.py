"""Checks of the program's outputs, made apart from the program.

Graphs are decoded by networkx, maximal cliques come from
``networkx.find_cliques``, and a forbidden-structure witness is accepted only
if the subgraph its vertices induce is isomorphic to a member of the claimed
family built here. Nothing in this file imports the program.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import networkx as nx

KINDS = ("odd-hole", "long-antihole", "odd-prism", "eye-mask", "handcuff")


# -- the five families ------------------------------------------------------------


def _cycle(k: int, start: int = 0) -> list[tuple[int, int]]:
    return [(start + i, start + (i + 1) % k) for i in range(k)]


def odd_prism(a: int, b: int, c: int) -> nx.Graph:
    """Triangles 0,1,2 and 3,4,5 joined by paths of a, b and c edges."""
    g = nx.Graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    nxt = 6
    for i, length in enumerate((a, b, c)):
        prev = i
        for _ in range(length - 1):
            g.add_edge(prev, nxt)
            prev, nxt = nxt, nxt + 1
        g.add_edge(prev, 3 + i)
    return g


def eye_mask(c1: int, c2: int) -> nx.Graph:
    """Even cycles on 0..c1-1 and c1..c1+c2-1, edges 01 and c1(c1+1) made complete."""
    g = nx.Graph(_cycle(c1) + _cycle(c2, c1))
    g.add_edges_from((a, b) for a in (0, 1) for b in (c1, c1 + 1))
    return g


def handcuff(c1: int, c2: int, p: int) -> nx.Graph:
    """Even cycles joined by a path of p edges whose ends see 01 and c1(c1+1)."""
    g = nx.Graph(_cycle(c1) + _cycle(c2, c1))
    t = list(range(c1 + c2, c1 + c2 + p + 1))
    g.add_edges_from(zip(t, t[1:]))
    g.add_edges_from([(t[0], 0), (t[0], 1), (t[-1], c1), (t[-1], c1 + 1)])
    return g


@lru_cache(maxsize=None)
def family_members(kind: str, k: int) -> tuple[nx.Graph, ...]:
    """Every member of the family on exactly k vertices, up to isomorphism."""
    odd = range(1, k, 2)
    even = range(4, k + 1, 2)
    if kind == "odd-hole":
        return (nx.cycle_graph(k),) if k >= 5 and k % 2 else ()
    if kind == "long-antihole":
        return (nx.complement(nx.cycle_graph(k)),) if k >= 6 else ()
    if kind == "odd-prism":
        return tuple(
            odd_prism(a, b, c)
            for a, b, c in itertools.combinations_with_replacement(odd, 3)
            if a + b + c + 3 == k
        )
    if kind == "eye-mask":
        return tuple(
            eye_mask(c1, c2)
            for c1, c2 in itertools.combinations_with_replacement(even, 2)
            if c1 + c2 == k
        )
    if kind == "handcuff":
        return tuple(
            handcuff(c1, c2, p)
            for c1, c2 in itertools.combinations_with_replacement(even, 2)
            for p in odd
            if c1 + c2 + p + 1 == k
        )
    raise ValueError(f"unknown kind {kind!r}")


def is_shape(h: nx.Graph, kind: str) -> bool:
    """Whether h is isomorphic to a member of the family."""
    degrees = sorted(d for _, d in h.degree())
    for member in family_members(kind, h.number_of_nodes()):
        if member.number_of_edges() != h.number_of_edges():
            continue
        if sorted(d for _, d in member.degree()) != degrees:
            continue
        if nx.is_isomorphic(member, h):
            return True
    return False


def has_claw(g: nx.Graph) -> bool:
    for v in g:
        for a, b, c in itertools.combinations(g[v], 3):
            if b not in g[a] and c not in g[a] and c not in g[b]:
                return True
    return False


# -- checking outputs --------------------------------------------------------------


class Checker:
    """Verdicts on outputs; each returns None when the output is right, else why not."""

    def __init__(self):
        self._graphs: dict[str, nx.Graph] = {}
        self._cliques: dict[str, list[frozenset[int]]] = {}

    def graph(self, g6: str) -> nx.Graph:
        if g6 not in self._graphs:
            self._graphs[g6] = nx.from_graph6_bytes(g6.encode())
        return self._graphs[g6]

    def cliques(self, g6: str) -> list[frozenset[int]]:
        if g6 not in self._cliques:
            self._cliques[g6] = [frozenset(c) for c in nx.find_cliques(self.graph(g6))]
        return self._cliques[g6]

    def strong_stable_set(self, g6: str, z, status: str, s) -> str | None:
        """A solve output: status found or fallback-found, S contains z,
        S is stable and S meets every maximal clique."""
        if status not in ("found", "fallback-found"):
            return f"status {status}"
        g = self.graph(g6)
        s = frozenset(s or ())
        if not s <= set(g):
            return "vertex out of range"
        if not frozenset(z) <= s:
            return "prescribed vertex missing"
        if any(v in g[u] for u, v in itertools.combinations(s, 2)):
            return "not stable"
        if not all(s & k for k in self.cliques(g6)):
            return "misses a maximal clique"
        return None

    def certificate(self, g6: str, label: str, rc: int, text: str) -> str | None:
        """A ``check --json`` output: the verdict agrees with the corpus label,
        claw-freeness is right, and a witness has the claimed shape."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            cert = json.loads(text)
        except ValueError:
            return "output is not JSON"
        g = self.graph(g6)
        if cert.get("n") != g.number_of_nodes():
            return "wrong vertex count"
        if cert.get("claw_free") != (not has_claw(g)):
            return "wrong claw-freeness"
        if label == "innocent":
            if cert.get("status") != "innocent" or "witness" in cert:
                return "witness on an innocent input"
            return None
        if cert.get("status") != "not-innocent" or "witness" not in cert:
            return "planted structure not found"
        return self.witness(g6, cert["witness"])

    def witness(self, g6: str, w: dict) -> str | None:
        g = self.graph(g6)
        vs = w.get("vertices", [])
        if w.get("kind") not in KINDS:
            return f"unknown kind {w.get('kind')!r}"
        if len(set(vs)) != len(vs) or not set(vs) <= set(g):
            return "witness vertices malformed"
        if not is_shape(g.subgraph(vs), w["kind"]):
            return f"witness is not an induced {w['kind']}"
        return None

    # -- the checker checks itself ---------------------------------------------------

    def forgeries_accepted(self, sample) -> list[str]:
        """Forge wrong answers from a right one; return those wrongly accepted.

        ``sample`` is ("solve", (g6, z, s)) or ("certify", (g6, witness)),
        the answer already verified.
        """
        if sample is None:
            return ["no verified answer to forge from"]
        kind, answer = sample
        accepted = []
        if kind == "solve":
            g6, z, s = answer
            g = self.graph(g6)
            v = min(s)
            if self.strong_stable_set(g6, z, "found", s - {v}) is None:
                accepted.append("solve: a set missing one vertex")
            if g[v] and self.strong_stable_set(g6, z, "found", s | {min(g[v])}) is None:
                accepted.append("solve: a set with a neighbour added")
            if self.strong_stable_set(g6, z, "budget", s) is None:
                accepted.append("solve: status budget")
        else:
            g6, w = answer
            g = self.graph(g6)
            vs = list(w["vertices"])
            near = set(vs).union(*(g[x] for x in vs))
            far = sorted(set(g) - near)
            swapped = {**w, "vertices": sorted(vs[1:] + far[:1])}
            if far and self.witness(g6, swapped) is None:
                accepted.append("certify: a witness with one vertex swapped")
            cert = json.dumps({"n": g.number_of_nodes(), "claw_free": not has_claw(g),
                               "status": "innocent"})
            if self.certificate(g6, w["kind"], 0, cert) is None:
                accepted.append("certify: innocent on a planted input")
        return accepted
