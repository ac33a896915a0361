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
second ``# n=`` header are errors carrying the 1-based line number.
"""

from __future__ import annotations

import re

from .errors import EdgeListParseError
from .graph_core import SimpleGraph, _bits

__all__ = ["parse_edge_list", "read_edge_list", "format_edge_list", "write_edge_list"]

_EDGE_LINE = re.compile(r"^([0-9]+) ([0-9]+)$")
_HEADER_LINE = re.compile(r"^#\s*n=([0-9]+)\s*$")


def parse_edge_list(text: str) -> SimpleGraph:
    declared_n = None
    edges: list[tuple[int, int, int]] = []  # (a, b, line_number)
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = _HEADER_LINE.match(line)
            if header:
                if declared_n is not None:
                    raise EdgeListParseError(lineno, "second n= header")
                try:
                    declared_n = int(header.group(1))
                except ValueError:  # beyond int()'s digit limit
                    raise EdgeListParseError(lineno, "number too long") from None
            continue
        m = _EDGE_LINE.match(line)
        if not m:
            raise EdgeListParseError(
                lineno, f"expected 'a b' with two decimal labels, got {line!r}"
            )
        try:
            a, b = int(m.group(1)), int(m.group(2))
        except ValueError:  # beyond int()'s digit limit
            raise EdgeListParseError(lineno, "number too long") from None
        if a == b:
            raise EdgeListParseError(lineno, f"self-loop {a} {b}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise EdgeListParseError(lineno, f"duplicate edge {a} {b}")
        seen.add(key)
        edges.append((key[0], key[1], lineno))
    max_label = max((b for _, b, _ in edges), default=-1)
    n = declared_n if declared_n is not None else max_label + 1
    for a, b, lineno in edges:
        if b >= n:
            raise EdgeListParseError(
                lineno, f"vertex label {b} exceeds declared n={n}"
            )
    return SimpleGraph(n, [(a, b) for a, b, _ in edges])


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
