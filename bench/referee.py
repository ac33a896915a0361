"""Independent witnesses the benchmark checks answers against.

Nothing here imports kconnseq.  Graphs are (n, adjacency) pairs, with the
adjacency as one int bitmask per vertex (``masks``) or one set per vertex
(``nbrs``).  Each routine is the textbook algorithm written out plainly,
so an answer from the package that disagrees with one of these is a
failure of the package or of this file, never of both at once.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from math import comb


# -- arithmetic ----------------------------------------------------------------


def theorem1(terms, k: int) -> bool:
    """The four conditions of theorem 1, as the paper states them."""
    phi, dsum = len(terms), sum(terms)
    return (
        dsum % 2 == 0
        and terms[0] <= phi - 1
        and terms[-1] >= k
        and k * phi <= dsum <= phi * (phi - 1)
    )


def necessity_bound(phi: int, k: int) -> int:
    """C(phi-2, 2) + 2k - 1, with C(m, 2) = 0 for m < 2."""
    return (comb(phi - 2, 2) if phi >= 4 else 0) + 2 * k - 1


def theorem2(terms, k: int) -> bool:
    return theorem1(terms, k) and sum(terms) > 2 * necessity_bound(len(terms), k)


def graphic(terms) -> bool:
    """Havel-Hakimi on a plain list: lay off the largest degree each round."""
    degs = sorted(terms, reverse=True)
    while degs and degs[0] > 0:
        d = degs.pop(0)
        if d > len(degs):
            return False
        for i in range(d):
            degs[i] -= 1
            if degs[i] < 0:
                return False
        degs.sort(reverse=True)
    return True


# -- removal-set connectivity (small graphs) -----------------------------------


def _connected(masks, live: int) -> bool:
    if not live:
        return True
    seen = frontier = live & -live
    while frontier:
        reach = 0
        for v in range(len(masks)):
            if frontier >> v & 1:
                reach |= masks[v]
        frontier = reach & live & ~seen
        seen |= frontier
    return seen == live


@lru_cache(maxsize=None)
def _removals(n: int, size: int) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in rm) for rm in combinations(range(n), size))


def removal_kappa(masks, cap: int) -> int:
    """min(vertex connectivity, cap) by trying removal sets smallest first."""
    n = len(masks)
    full = (1 << n) - 1
    if n <= 1 or not _connected(masks, full):
        return 0
    for size in range(1, min(cap, n - 1)):
        for rm in _removals(n, size):
            if not _connected(masks, full & ~rm):
                return size
    return min(cap, n - 1)


def profile(terms, cap: int) -> tuple[int, int, int]:
    """(labeled realizations, min and max of min(kappa, cap) over them).

    Vertices are completed in label order: vertex i takes every possible
    neighbour set among the later vertices that still need edges.  Min and
    max are 0 when there is no realization.
    """
    n = len(terms)
    masks = [0] * n
    need = list(terms)
    kappas: list[int] = []

    def extend(i: int) -> None:
        while i < n and need[i] == 0:
            i += 1
        if i == n:
            kappas.append(removal_kappa(masks, cap))
            return
        free = [j for j in range(i + 1, n) if need[j] > 0]
        d = need[i]
        if d > len(free):
            return
        need[i] = 0
        for chosen in combinations(free, d):
            for j in chosen:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
                need[j] -= 1
            extend(i + 1)
            for j in chosen:
                masks[i] &= ~(1 << j)
                masks[j] &= ~(1 << i)
                need[j] += 1
        need[i] = d

    extend(0)
    if not kappas:
        return 0, 0, 0
    return len(kappas), min(kappas), max(kappas)


# -- flow connectivity (larger graphs) -----------------------------------------


def _local(nbrs, s: int, t: int, cap: int | None) -> int:
    """Internally disjoint s-t paths for non-adjacent s, t (Ford-Fulkerson).

    Vertex v splits into 2v (in) and 2v+1 (out) joined by one unit of
    capacity; edges become unit arcs out -> in both ways.
    """
    residual: dict[int, dict[int, int]] = {}

    def arc(u: int, w: int) -> None:
        residual.setdefault(u, {})[w] = residual.get(u, {}).get(w, 0) + 1
        residual.setdefault(w, {}).setdefault(u, 0)

    for v in range(len(nbrs)):
        if v not in (s, t):
            arc(2 * v, 2 * v + 1)
        for w in nbrs[v]:
            arc(2 * v + 1, 2 * w)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while cap is None or flow < cap:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for w, c in residual.get(u, {}).items():
                if c > 0 and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if sink not in parent:
            break
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1
    return flow


def disjoint_paths(nbrs, a: int, b: int) -> int:
    """Internally disjoint a-b paths; a direct edge counts as one path."""
    if b not in nbrs[a]:
        return _local(nbrs, a, b, None)
    cut = [set(x) for x in nbrs]
    cut[a].discard(b)
    cut[b].discard(a)
    return 1 + _local(cut, a, b, None)


def kappa(nbrs, cap: int | None = None) -> int:
    """Vertex connectivity by Esfahanian-Hakimi, optionally capped.

    With v of minimum degree, kappa is the least of deg(v), the local
    connectivity from v to each non-neighbour, and that between each
    non-adjacent pair of v's neighbours.
    """
    n = len(nbrs)
    if n <= 1:
        return 0
    v = min(range(n), key=lambda u: len(nbrs[u]))
    best = len(nbrs[v]) if cap is None else min(cap, len(nbrs[v]))
    if len(nbrs[v]) == n - 1:
        return best
    for w in range(n):
        if w != v and w not in nbrs[v]:
            best = min(best, _local(nbrs, v, w, best))
    for x, y in combinations(sorted(nbrs[v]), 2):
        if y not in nbrs[x]:
            best = min(best, _local(nbrs, x, y, best))
    return best


def degrees(n: int, edges) -> list[int]:
    degs = [0] * n
    for a, b in edges:
        degs[a] += 1
        degs[b] += 1
    return degs


def sequence(n: int, edges) -> tuple[int, ...]:
    """The non-increasing degree sequence of a graph."""
    return tuple(sorted(degrees(n, edges), reverse=True))


def connected(n: int, edges) -> bool:
    return _connected([sum(1 << w for w in nb) for nb in neighbour_sets(n, edges)], (1 << n) - 1)


def neighbour_sets(n: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs
