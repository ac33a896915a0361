"""Simple undirected graphs with exact vertex-connectivity queries.

Graphs are immutable: vertices are 0..n-1 and adjacency is stored as one
int bitmask per vertex, which keeps neighborhood intersection and BFS
over allowed vertex sets cheap for the sizes this package enumerates.
Constructions build the masks and wrap them once with
SimpleGraph._from_masks.

Connectivity is computed the Menger way: the number of internally disjoint
a-b paths equals the max flow between a and b after splitting every
internal vertex into an in/out pair joined by a unit-capacity arc.
The direct edge ab, if any, and the paths a-w-b through the common
neighbours w of a and b belong to some maximum path system, so each
flow counts them and routes none.  Settle: when that count reaches the
cap, the answer is read from the masks with nothing copied.  Route:
otherwise disjoint paths a-x-y-b that avoid those paths are picked
greedily with no search.  Search: the remaining augmenting paths come
from a level-synchronous BFS that ORs together the out-arc masks of a
whole frontier at once, and walk back through the in-arc masks.
vertex_connectivity picks its flow pairs by
Esfahanian-Hakimi: from a vertex v of minimum degree to each
non-neighbour, then between each non-adjacent pair of v's neighbours,
about n + delta^2 flows in all.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdge,
    KOutOfRange,
    NTooSmall,
    SameVertex,
    SelfLoop,
    TooLarge,
    VertexOutOfRange,
)
from .sequence_core import DegreeSequence, normalize

__all__ = [
    "MAX_VERTICES",
    "SimpleGraph",
    "complete_graph",
    "degree_sequence",
    "internally_disjoint_path_count",
    "vertex_connectivity",
    "is_k_connected",
    "is_connected",
]

# Largest vertex count SimpleGraph accepts.  Edge-list labels, "# n="
# headers and --seq lengths all come from untrusted input, and the
# adjacency list is allocated up front.
MAX_VERTICES = 10_000


class SimpleGraph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise NTooSmall(f"vertex count must be >= 0, got {n}")
        if n > MAX_VERTICES:
            raise TooLarge(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
        adj = [0] * n
        for a, b in edges:
            if a == b:
                raise SelfLoop(f"loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise VertexOutOfRange(f"edge ({a},{b}) outside 0..{n - 1}")
            if adj[a] >> b & 1:
                raise DuplicateEdge(f"edge ({a},{b}) given twice")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))

    @classmethod
    def _from_masks(cls, n: int, adj: Sequence[int]) -> "SimpleGraph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_adj", tuple(adj))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("SimpleGraph is immutable")

    def __delattr__(self, name):
        raise AttributeError("SimpleGraph is immutable")

    def __reduce__(self):
        return SimpleGraph._from_masks, (self.n, self._adj)

    # -- queries ---------------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return bool(self._adj[a] >> b & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once, as (a, b) with a < b, in ascending order."""
        for a, mask in enumerate(self._adj):
            for b in _bits(mask >> (a + 1)):
                yield (a, a + 1 + b)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def _check_vertex(self, v: int):
        if not (0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={list(self.edges())})"


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adj: Sequence[int], live: int) -> int:
    """Vertices of the mask ``live`` reachable from its lowest vertex
    without leaving ``live``; 0 when ``live`` is empty.  Stops as soon as
    every live vertex has been reached.
    """
    seen = frontier = live & -live
    while frontier and seen != live:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & live & ~seen
        seen |= frontier
    return seen


def complete_graph(n: int) -> SimpleGraph:
    full = (1 << n) - 1
    return SimpleGraph._from_masks(n, [full ^ (1 << v) for v in range(n)])


def degree_sequence(g: SimpleGraph) -> DegreeSequence:
    """Non-increasing degree sequence; rejects isolated vertices."""
    return normalize(g._adj[v].bit_count() for v in range(g.n))


def is_connected(g: SimpleGraph) -> bool:
    full = (1 << g.n) - 1
    return g.n > 0 and _component(g._adj, full) == full


# -- Menger / max-flow -----------------------------------------------------


def _split_digraph(g: SimpleGraph) -> tuple[list[int], list[int]]:
    """Residual base of the split digraph, as out-arc and in-arc masks.

    Every vertex v becomes v_in = 2v and v_out = 2v + 1 joined by a unit
    arc; each graph edge uw becomes two unit arcs u_out -> w_in and
    w_out -> u_in.  ``out[x]`` holds the heads of x's arcs and ``inn[x]``
    their tails.  Putting a zero between the binary digits of adj[v]
    moves bit w to bit 2w, which gives v_out's out-mask with no loop over
    edges; v_in's in-mask is the same mask shifted left by one.
    """
    spread = [int("0".join(format(nbrs, "b")), 2) for nbrs in g._adj]
    out = [0] * (2 * g.n)
    inn = [0] * (2 * g.n)
    out[0::2] = [1 << (2 * v + 1) for v in range(g.n)]
    out[1::2] = spread
    inn[0::2] = [m << 1 for m in spread]
    inn[1::2] = [1 << (2 * v) for v in range(g.n)]
    return out, inn


def _vertex_capacity_max_flow(
    base: tuple[list[int], list[int]], a: int, b: int, cap: int | None
) -> int:
    """Count internally disjoint a-b paths by unit-capacity max flow.

    ``base`` is the pair of lists from _split_digraph; neither is
    changed.  The flow runs from a_out to b_in, so the split arcs of a
    and b, which lead into the source or out of the sink, carry none,
    and its value is the number of internally disjoint paths.  ``cap``
    stops early once that many paths are found.

    Some maximum system of internally disjoint paths holds the edge ab,
    when there is one, and a-w-b for every common neighbour w: a path
    through w can be cut down to a-w-b, and an unused w or edge ab would
    add a path.  So those paths are counted, not routed, and the rest
    of the flow is found in the graph without them, in three steps; each
    hands the next a feasible flow, from which Ford-Fulkerson still
    reaches the maximum.

    * Settle: when the count reaches ``cap`` the answer is ``cap``, read
      from the base masks before anything is copied.
    * Route: otherwise copy both lists, delete the direct arc, and
      greedily route the paths a -> x -> y -> b with x an unused
      neighbour of a, y an unused neighbour of b and xy an edge, with no
      search.  The x come from the source's residual out-mask and the y
      from the sink's residual in-mask, both less the common
      neighbours, so a, b and the common neighbours are never chosen,
      and no x is ever a y (it would be a common neighbour); each y is
      taken from the end set once used.
    * Search: each further augmenting path comes from a level-synchronous
      bitset BFS over the residual digraph: a level is the union of the
      out-masks of the level before, less the nodes already seen, and
      the search stops at the level holding the sink.  Both split nodes
      of every common neighbour count as seen from the start.  The path
      is walked back from the sink through ``inn[v] & level``.
    """
    out, inn = base
    source = 2 * a + 1
    sink = 2 * b
    limit = len(out) if cap is None else cap
    direct = out[source] >> sink & 1
    common = out[source] & out[sink + 1]
    flow = direct + common.bit_count()
    if flow >= limit:
        return limit

    out = out.copy()
    inn = inn.copy()
    out[source] &= ~(1 << sink | common)
    inn[sink] &= ~(1 << source | common << 1)
    ends = inn[sink] >> 1
    m = out[source]
    while m and ends and flow < limit:
        low = m & -m
        x_in = low.bit_length() - 1
        m ^= low
        hit = out[x_in + 1] & ends
        if not hit:
            continue
        y = hit & -hit
        y_in = y.bit_length() - 1
        ends ^= y
        out[source] ^= low
        inn[source] |= low
        out[x_in] = 1 << source
        inn[x_in] = inn[x_in] & ~(1 << source) | low << 1
        out[x_in + 1] = out[x_in + 1] & ~y | low
        inn[x_in + 1] = y
        out[y_in] = low << 1
        inn[y_in] = inn[y_in] & ~(low << 1) | y << 1
        out[y_in + 1] = out[y_in + 1] & ~(1 << sink) | y
        inn[y_in + 1] = 1 << sink
        out[sink] |= y << 1
        inn[sink] ^= y << 1
        flow += 1

    while flow < limit:
        levels = []
        frontier = 1 << source
        seen = frontier | common | common << 1
        while not frontier >> sink & 1:
            levels.append(frontier)
            reach = 0
            m = frontier
            while m:
                low = m & -m
                reach |= out[low.bit_length() - 1]
                m ^= low
            frontier = reach & ~seen
            if not frontier:
                return flow
            seen |= frontier
        v = sink
        for level in reversed(levels):
            m = inn[v] & level
            u = (m & -m).bit_length() - 1
            out[u] &= ~(1 << v)
            inn[v] &= ~(1 << u)
            out[v] |= 1 << u
            inn[u] |= 1 << v
            v = u
        flow += 1
    return flow


def internally_disjoint_path_count(g: SimpleGraph, a: int, b: int) -> int:
    """Maximum number of a-b paths sharing no internal vertices.

    Endpoints may be adjacent: the direct edge is counted as one path,
    which no separator can cut.
    """
    g._check_vertex(a)
    g._check_vertex(b)
    if a == b:
        raise SameVertex(f"endpoints must differ, got {a} twice")
    return _vertex_capacity_max_flow(_split_digraph(g), a, b, cap=None)


def vertex_connectivity(g: SimpleGraph, *, upper_bound: int | None = None) -> int:
    """kappa(G): minimum vertices whose removal disconnects or trivializes.

    Conventions: complete graphs give n - 1, the one-vertex graph gives 0,
    and any disconnected graph gives 0.  ``upper_bound`` caps the answer,
    letting flow searches stop early -- useful when only "is kappa >= k"
    matters; a negative one raises KOutOfRange.

    Esfahanian-Hakimi (Networks 14, 1984): fix v of minimum degree delta
    (lowest label on ties).  kappa <= delta, and a minimum separator S
    either misses v, so it parts v from some non-neighbour, or contains
    v, so (S being minimum, v has a neighbour in every component of
    G - S) it parts two non-adjacent neighbours of v.  kappa is thus the
    least of delta, the path counts from v to its non-neighbours and
    those between non-adjacent pairs of its neighbours: about
    n - delta - 1 + C(delta, 2) flows, each capped at the best seen.
    A connected graph on two or more vertices has kappa >= 1, so a cap
    of at most 1 (from delta or ``upper_bound``) needs no flow at all.
    """
    if upper_bound is not None and upper_bound < 0:
        raise KOutOfRange(f"upper_bound must be >= 0, got {upper_bound}")
    n = g.n
    if not is_connected(g):
        return 0
    adj = g._adj
    v = min(range(n), key=lambda u: adj[u].bit_count())
    best = adj[v].bit_count()
    if upper_bound is not None and upper_bound < best:
        best = upper_bound
    if best <= 1:
        return best
    base = _split_digraph(g)
    full = (1 << n) - 1
    for w in _bits(full & ~adj[v] & ~(1 << v)):
        best = min(best, _vertex_capacity_max_flow(base, v, w, cap=best))
    for x in _bits(adj[v]):
        later = adj[v] & ~adj[x] & ~((1 << (x + 1)) - 1)
        for y in _bits(later):
            best = min(best, _vertex_capacity_max_flow(base, x, y, cap=best))
    return best


def is_k_connected(g: SimpleGraph, k: int) -> bool:
    """True iff vertex_connectivity(g) >= k.  k = 0 holds vacuously."""
    if k < 0:
        raise KOutOfRange(f"k must be >= 0, got {k}")
    if k == 0:
        return True
    if g.n <= k:
        return False
    return vertex_connectivity(g, upper_bound=k) >= k
