"""Deliberately naive reference implementations for cross-checking.

Everything here works on plain (n, edge list) pairs with simple loops,
shares no code with the package under test, and favours obvious
correctness over speed.  Keep it that way: these are the referees.
The one exception is parse_edge_list, which returns the package's
SimpleGraph, built by its validating constructor.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations
from math import comb

from kconnseq.errors import EdgeListParseError
from kconnseq.graph_core import SimpleGraph


def all_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def degree_vector(n: int, edges) -> list[int]:
    degs = [0] * n
    for a, b in edges:
        degs[a] += 1
        degs[b] += 1
    return degs


def count_realizations(terms) -> int:
    """Labeled graphs where vertex i has degree terms[i], by edge subsets."""
    n = len(terms)
    count = 0
    for edges in _subsets(all_pairs(n)):
        if degree_vector(n, edges) == list(terms):
            count += 1
    return count


def is_graphic(terms) -> bool:
    """Havel-Hakimi: repeatedly join the largest degree to the next ones."""
    degs = list(terms)
    while True:
        degs.sort(reverse=True)
        if not degs or degs[0] == 0:
            return True
        d = degs.pop(0)
        if d > len(degs):
            return False
        for i in range(d):
            degs[i] -= 1
            if degs[i] < 0:
                return False


def _subsets(items):
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def is_connected(n: int, edges, removed=()) -> bool:
    """Connectivity of the induced subgraph on the surviving vertices."""
    removed = set(removed)
    alive = [v for v in range(n) if v not in removed]
    if not alive:
        return False
    adj = {v: set() for v in alive}
    for a, b in edges:
        if a not in removed and b not in removed:
            adj[a].add(b)
            adj[b].add(a)
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def vertex_connectivity(n: int, edges) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete."""
    if n <= 1:
        return 0
    for size in range(n - 1):
        for removal in combinations(range(n), size):
            if not is_connected(n, edges, removal):
                return size
    return n - 1


def min_separator(n: int, edges, a: int, b: int) -> int:
    """Fewest other vertices whose removal parts a from b (a, b non-adjacent)."""
    others = [v for v in range(n) if v != a and v != b]
    for size in range(len(others) + 1):
        for removal in combinations(others, size):
            if not _same_component(n, edges, set(removal), a, b):
                return size
    raise AssertionError("adjacent vertices cannot be separated")


def _same_component(n: int, edges, removed, a: int, b: int) -> bool:
    adj = {v: set() for v in range(n) if v not in removed}
    for x, y in edges:
        if x not in removed and y not in removed:
            adj[x].add(y)
            adj[y].add(x)
    seen = {a}
    stack = [a]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return b in seen


def split_digraph(n: int, edges) -> list[int]:
    """Residual base of the split digraph, one out-arc mask per node.

    Vertex v becomes v_in = 2v and v_out = 2v + 1 joined by a unit arc;
    each edge uw becomes the arcs u_out -> w_in and w_out -> u_in, added
    one edge at a time.
    """
    base = [0] * (2 * n)
    for v in range(n):
        base[2 * v] = 1 << (2 * v + 1)
    for u, w in edges:
        base[2 * u + 1] |= 1 << (2 * w)
        base[2 * w + 1] |= 1 << (2 * u)
    return base


def vertex_capacity_max_flow(base: list[int], a: int, b: int, cap) -> int:
    """Internally disjoint a-b paths, by max flow from a_out to b_in.

    Ford-Fulkerson with one deque BFS and a parent list per augmenting
    path, on a copy of ``base``; the split arcs of a and b are dropped.
    Stops once ``cap`` paths are found (None: no cap).
    """
    source = 2 * a + 1
    sink = 2 * b
    residual = base.copy()
    residual[2 * a] = residual[2 * b] = 0
    flow = 0
    while cap is None or flow < cap:
        parent = [-1] * len(residual)
        parent[source] = source
        q = deque([source])
        while q and parent[sink] < 0:
            u = q.popleft()
            for w in range(len(residual)):
                if residual[u] >> w & 1 and parent[w] < 0:
                    parent[w] = u
                    q.append(w)
        if parent[sink] < 0:
            return flow
        v = sink
        while v != source:
            u = parent[v]
            residual[u] &= ~(1 << v)
            residual[v] |= 1 << u
            v = u
        flow += 1
    return flow


def random_edges(n: int, rng, p: float = 0.5) -> list[tuple[int, int]]:
    return [e for e in all_pairs(n) if rng.random() < p]


def kappa_capped(n: int, edges, cap: int) -> int:
    """min(vertex connectivity, cap), trying removal sets of size < cap.

    Same rule as vertex_connectivity above, with int-mask adjacency and
    a flood fill, because the corollary reference calls it ~10^5 times.
    """
    if n <= 1:
        return 0
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    for size in range(min(cap, n - 1)):
        for removal in combinations(range(n), size):
            live = full
            for v in removal:
                live &= ~(1 << v)
            seen = live & -live
            grown = True
            while grown:
                reach = seen
                for v in range(n):
                    if seen >> v & 1:
                        reach |= adj[v]
                reach &= live
                grown = reach != seen
                seen = reach
            if seen != live:
                return size
    return min(cap, n - 1)


def corollary_violations(n: int, k: int, enforce_min_degree: bool, lo=None) -> list:
    """(edges, capped kappa, degrees descending) of every labeled graph
    with at least lo edges (default C(n-2,2) + 2k) that is not
    k-connected, optionally only those with minimum degree >= k; sorted
    by size, then edges.

    Scans every edge subset of every size from lo up.
    """
    if lo is None:
        lo = comb(n - 2, 2) + 2 * k
    pairs = all_pairs(n)
    out = []
    for m in range(max(lo, 0), len(pairs) + 1):
        for edges in combinations(pairs, m):
            degs = degree_vector(n, edges)
            if enforce_min_degree and min(degs) < k:
                continue
            kap = kappa_capped(n, edges, k)
            if kap < k:
                out.append((list(edges), kap, sorted(degs, reverse=True)))
    return out


def max_edges_non_k_connected(n: int, k: int, enforce_min_degree: bool):
    """Largest edge count of a graph on n vertices with kappa < k (and
    minimum degree >= k if asked), scanning edge subsets from the top;
    None when no graph qualifies."""
    pairs = all_pairs(n)
    for m in range(len(pairs), -1, -1):
        for edges in combinations(pairs, m):
            if enforce_min_degree and min(degree_vector(n, edges)) < k:
                continue
            if kappa_capped(n, edges, k) < k:
                return m
    return None


def is_maximally_non_k_connected(n: int, edges, k: int) -> bool:
    """Not k-connected, and adding any one missing edge makes it so.

    The definition, one removal search per missing edge.
    """

    def k_connected(es) -> bool:
        return n > k and kappa_capped(n, es, k) >= k

    edges = [tuple(sorted(e)) for e in edges]
    if k_connected(edges):
        return False
    present = set(edges)
    return all(
        k_connected(edges + [e]) for e in all_pairs(n) if e not in present
    )


def min_degree_chain(n: int, edges, steps: int) -> list[tuple[int, int]]:
    """The pairs an augmentation chain adds to the graph (n, edges), one
    per step: each time the missing pair whose sorted end degrees are
    least, ties to the lowest (a, b), by one sort key per missing pair.
    """
    present = {tuple(sorted(e)) for e in edges}
    degs = degree_vector(n, present)
    added = []
    for _ in range(steps):
        missing = [e for e in all_pairs(n) if e not in present]
        a, b = min(missing, key=lambda e: sorted((degs[e[0]], degs[e[1]])))
        present.add((a, b))
        degs[a] += 1
        degs[b] += 1
        added.append((a, b))
    return added


_EDGE_LINE = re.compile(r"^([0-9]+) ([0-9]+)$")
_HEADER_LINE = re.compile(r"^#\s*n=([0-9]+)\s*$")


def parse_edge_list(text: str) -> SimpleGraph:
    """The two-pass edge-list parser: a regex per line, a set of seen
    edges and a list of (a, b, line) triples, a label check after the
    pass, then SimpleGraph(n, edges) validates every edge again.
    """
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
