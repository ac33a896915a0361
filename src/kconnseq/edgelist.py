"""Plain-text edge-list files.

Grammar (UTF-8, line-oriented):

* an edge line is exactly two base-10 vertex labels, in the ASCII digits
  0-9, separated by a single space: ``a b`` with a, b >= 0 and a != b,
  vertices 0-indexed;
* lines starting with ``#`` are comments;
* a comment matching ``# n=<count>`` declares the vertex count, which
  otherwise defaults to 1 + the largest label (the header is how isolated
  vertices are expressed);
* blank lines are ignored.

Parsing is strict -- duplicate edges, loops, label/count conflicts, and a
second ``# n=`` header are errors carrying the 1-based line number.  It
takes one pass, setting each edge's two bits in adjacency rows that grow
with the largest label, never past MAX_VERTICES.
"""

from __future__ import annotations

import re

from .errors import EdgeListParseError, TooLarge
from .graph_core import MAX_VERTICES, SimpleGraph, _bits

__all__ = ["parse_edge_list", "read_edge_list", "format_edge_list", "write_edge_list"]

_EDGE_LINE = re.compile(r"^([0-9]+) ([0-9]+)$")
_HEADER_LINE = re.compile(r"^#\s*n=([0-9]+)\s*$")


def _numbers(match: re.Match, lineno: int) -> list[int]:
    try:
        return list(map(int, match.groups()))
    except ValueError:  # beyond int()'s digit limit
        raise EdgeListParseError(lineno, "number too long") from None


def parse_edge_list(text: str) -> SimpleGraph:
    declared_n = None
    adj: list[int] = []  # rows 0..min(largest label, MAX_VERTICES - 1)
    over: set[tuple[int, int]] = set()  # edges with a label >= MAX_VERTICES
    peaks = [(-1, 0)]  # (label, line) at each new largest label: the first >= n is one
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (line := raw.strip()):
            continue
        if line.startswith("#"):
            if header := _HEADER_LINE.match(line):
                if declared_n is not None:
                    raise EdgeListParseError(lineno, "second n= header")
                declared_n = _numbers(header, lineno)[0]
            continue
        if not (m := _EDGE_LINE.match(line)):
            raise EdgeListParseError(
                lineno, f"expected 'a b' with two decimal labels, got {line!r}"
            )
        a, b = _numbers(m, lineno)
        if a == b:
            raise EdgeListParseError(lineno, f"self-loop {a} {b}")
        lo, hi = (a, b) if a < b else (b, a)
        if hi > peaks[-1][0]:
            peaks.append((hi, lineno))
            adj += [0] * (min(hi + 1, MAX_VERTICES) - len(adj))
        if hi < MAX_VERTICES:
            dup = adj[lo] >> hi & 1
            adj[lo] |= 1 << hi
            adj[hi] |= 1 << lo
        else:
            dup = (lo, hi) in over
            over.add((lo, hi))
        if dup:
            raise EdgeListParseError(lineno, f"duplicate edge {a} {b}")
    n = peaks[-1][0] + 1 if declared_n is None else declared_n
    for v, lineno in peaks:
        if v >= n:
            raise EdgeListParseError(lineno, f"vertex label {v} exceeds declared n={n}")
    if n > MAX_VERTICES:
        raise TooLarge(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
    return SimpleGraph._from_masks(n, adj + [0] * (n - len(adj)))


def read_edge_list(path) -> SimpleGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: SimpleGraph) -> str:
    # Always emit the header: it makes vertex count explicit and the
    # round-trip exact even when high-label vertices have no edges.
    # Edges come out as SimpleGraph.edges() yields them, ascending: one
    # row of "a b" lines per vertex a, over the neighbours above a.
    rows = [f"# n={g.n}\n"]
    for a, mask in enumerate(g._adj):
        later = mask >> (a + 1)
        if later:
            head = f"{a} "
            rows.append(
                head + f"\n{head}".join([str(a + 1 + b) for b in _bits(later)]) + "\n"
            )
    return "".join(rows)


def write_edge_list(g: SimpleGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
