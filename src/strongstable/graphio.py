"""File formats: graph6 (bit-exact), whitespace edge lists, and JSON
certificates.

Edge lists are one ``u v`` pair per line, 0-based, with ``#`` comments; an
optional ``n <count>`` header pins the vertex count (otherwise it is the
largest id plus one). Certificates are one line of canonical JSON: sorted
keys, no whitespace, newline terminated (pipe through ``python -m json.tool``
to read one).
"""

from __future__ import annotations

import json
from .core import Graph, GraphError, Multigraph, from_edge_list


class FormatError(ValueError):
    """Malformed input; ``offset`` is the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


# -- graph6 ------------------------------------------------------------------------

_HEADER = ">>graph6<<"
# graph6 byte -> its six data bits, most significant first
_SIXBITS = {63 + v: format(v, "06b") for v in range(64)}


def _decode_n(data: bytes) -> tuple[int, int]:
    """(n, bytes consumed); validates the size header."""
    if not data:
        raise FormatError("empty graph6 payload", 0)
    b0 = data[0]
    if not 63 <= b0 <= 126:
        raise FormatError(f"invalid graph6 byte {b0}", 0)
    if b0 != 126:
        return b0 - 63, 1
    if len(data) < 2:
        raise FormatError("truncated graph6 size", len(data))
    if data[1] != 126:
        if len(data) < 4:
            raise FormatError("truncated graph6 size", len(data))
        chunk = data[1:4]
        n = 0
        for i, byte in enumerate(chunk):
            if not 63 <= byte <= 126:
                raise FormatError(f"invalid graph6 byte {byte}", 1 + i)
            n = (n << 6) | (byte - 63)
        return n, 4
    if len(data) < 8:
        raise FormatError("truncated graph6 size", len(data))
    chunk = data[2:8]
    n = 0
    for i, byte in enumerate(chunk):
        if not 63 <= byte <= 126:
            raise FormatError(f"invalid graph6 byte {byte}", 2 + i)
        n = (n << 6) | (byte - 63)
    return n, 8


def decode_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line into a graph."""
    if isinstance(text, str):
        data = text.strip().encode("ascii", errors="strict")
    else:
        data = text.strip()
    if data.startswith(_HEADER.encode()):
        data = data[len(_HEADER) :]
    n, used = _decode_n(data)
    body = data[used:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise FormatError(
            f"graph6 body too short: need {need} bytes, have {len(body)}",
            used + len(body),
        )
    if len(body) > need:
        raise FormatError("trailing bytes after graph6 body", used + need)
    try:
        digits = "".join([_SIXBITS[byte] for byte in body])
    except KeyError:
        i = next(i for i, byte in enumerate(body) if byte not in _SIXBITS)
        raise FormatError(f"invalid graph6 byte {body[i]}", used + i) from None
    if "1" in digits[nbits:]:
        raise FormatError("non-zero graph6 padding", used + need - 1)
    # column j is the next j characters, pair (i, j) at character i
    bits = [0] * n
    start = 0
    for j in range(1, n):
        bits[j] = int(digits[start : start + j][::-1], 2)
        start += j
    for j in range(1, n):
        col = bits[j]
        while col:
            low = col & -col
            bits[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph(n, tuple(bits))


def encode_graph6(g: Graph, header: bool = False) -> str:
    """Encode a graph as one graph6 line (no trailing newline)."""
    n = g.n
    if n > 68719476735:
        raise GraphError("graph too large for graph6")
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = chr(126) + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    else:
        prefix = chr(126) * 2 + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0)
        )
    # column j holds the pairs (0, j) .. (j - 1, j), pair (i, j) at bit i
    digits = "".join(
        format(b & ((1 << j) - 1), f"0{j}b")[::-1] for j, b in enumerate(g.bits) if j
    )
    digits += "0" * (-len(digits) % 6)
    body = "".join(chr(int(digits[k : k + 6], 2) + 63) for k in range(0, len(digits), 6))
    return (_HEADER if header else "") + prefix + body


# -- edge lists ----------------------------------------------------------------------


def parse_edgelist(text: str, multigraph: bool = False) -> Graph | Multigraph:
    """Parse a whitespace edge list; duplicate pairs collapse unless multigraph."""
    edges: list[tuple[int, int]] = []
    n_decl: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            n_decl = int(parts[1])
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {raw!r}")
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
    n = n_decl if n_decl is not None else (max((max(e) for e in edges), default=-1) + 1)
    if multigraph:
        return Multigraph.build(n, edges)
    return from_edge_list(n, edges)


def format_edgelist(g: Graph | Multigraph) -> str:
    lines = [f"n {g.n}"]
    if isinstance(g, Multigraph):
        lines.extend(f"{u} {v}" for u, v in g.edges)
    else:
        lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def parse_graph(text: str | bytes, fmt: str = "auto", name: str = "<input>") -> Graph:
    """Parse a graph6 line or an edge list, given as text or as raw bytes."""
    if fmt == "auto":
        fmt = "graph6" if name.endswith((".g6", ".graph6")) else _sniff(text)
    if fmt == "graph6":
        return decode_graph6(text)
    if fmt == "edgelist":
        g = parse_edgelist(text.decode() if isinstance(text, bytes) else text)
        assert isinstance(g, Graph)
        return g
    raise FormatError(f"unknown format {fmt!r}")


def _sniff(text: str | bytes) -> str:
    """graph6 when the first non-blank line is one word and no ``#`` comment.

    Every edge-list line but a comment holds whitespace, the ``n <count>``
    header included, and a graph6 line holds none: its size byte may be any
    letter, ``n`` (47 vertices) too.
    """
    stripped = text.strip()
    first = stripped.splitlines()[0] if stripped else stripped
    if isinstance(first, bytes):
        first = first.decode("ascii", errors="replace")
    return "graph6" if first and len(first.split()) == 1 and first[0] != "#" else "edgelist"


# -- certificates ---------------------------------------------------------------------


def certificate_json(cert: dict) -> str:
    """One line of canonical JSON, written by the C encoder."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":"), default=_jsonify) + "\n"


def _jsonify(obj):
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (set, tuple)):
        return list(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")
