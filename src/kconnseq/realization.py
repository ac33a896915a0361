"""Parametric constructions: regular bases, augmentation chains, witnesses.

Three construction families live here:

* circulant k-regular (or near-regular, when n and k are both odd) base
  graphs that are k-connected with the fewest possible edges;
* edge-augmentation chains that walk from such a base to any target edge
  count, staying k-connected the whole way;
* the witness pair G1/G2 -- two graphs sharing the degree sequence
  witness_sequence(n, k), where G1 is only (k-1)-connected (one shared
  (k-1)-clique is a cut) and G2 is k-connected for n >= k+4.  Together
  they show a sequence can admit k-connected realizations without
  forcing them.  At n = k+3 no realization is k-connected, and G2 is
  (k-1)-connected like G1.

Only augment_chain verifies its graphs at run time: every chain graph
is checked k-connected, and a failure raises AugmentationStuck rather
than returning a quietly wrong graph.  The local search in
realize_k_connected measures connectivity at every step.
base_k_regular, build_G1 and build_G2 are closed-form recipes that
return their graph unchecked; their connectivity is checked by the test
suite (TestBaseKRegular, TestWitnessGraphs, acceptance criterion 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .errors import (
    AugmentationStuck,
    KOutOfRange,
    NTooSmall,
    TargetOutOfRange,
)
from .graph_core import (
    SimpleGraph,
    _component,
    add_edge,
    complement,
    complete_graph,
    degree_sequence,
    graph_union,
    is_k_connected,
    remove_edge,
    vertex_connectivity,
)
from .oracle import DEFAULT_ENUMERATION_LIMIT, enumerate_realizations
from .sequence_core import DegreeSequence, erdos_gallai_graphic

__all__ = [
    "ChainStep",
    "RealizationResult",
    "base_k_regular",
    "augment_chain",
    "witness_sequence",
    "build_G1",
    "build_G2",
    "is_maximally_non_k_connected",
    "realize_k_connected",
]


def base_k_regular(n: int, k: int) -> SimpleGraph:
    """Circulant base graph: k-regular when n*k is even, else one vertex
    of degree k+1 (n, k both odd), with (n*k+1)/2 edges.

    Each vertex joins its floor(k/2) nearest neighbors on both sides of a
    cycle; odd k adds diameters (n even) or half-diameters with a single
    doubly-covered vertex (n odd).
    """
    if not 1 <= k <= n - 1:
        raise KOutOfRange(f"need 1 <= k <= n-1 = {n - 1}, got k = {k}")
    adj = [0] * n

    def link(a: int, b: int):
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    for i in range(n):
        for d in range(1, k // 2 + 1):
            link(i, (i + d) % n)
    if k % 2 == 1:
        half = n // 2
        if n % 2 == 0:
            for i in range(half):
                link(i, i + half)
        else:
            for i in range(half + 1):
                link(i, (i + half) % n)
    return SimpleGraph._from_masks(n, adj)


@dataclass(frozen=True)
class ChainStep:
    """One row of an augmentation chain: a graph, its sequence, its size."""

    sequence: DegreeSequence
    epsilon: int
    graph: SimpleGraph


def _verified_step(g: SimpleGraph, k: int) -> ChainStep:
    if not is_k_connected(g, k):
        raise AugmentationStuck(
            f"chain graph with {g.edge_count} edges failed the"
            f" {k}-connectivity verification"
        )
    return ChainStep(degree_sequence(g), g.edge_count, g)


def augment_chain(n: int, k: int, epsilon_target: int) -> list[ChainStep]:
    """Walk from the k-regular base to epsilon_target edges, one per step.

    Each step adds the complement edge joining two vertices of currently
    minimum degree (ties broken by lowest label pair), so each sequence is
    the previous one with two terms incremented.  Every graph in the chain
    is verified k-connected.
    """
    base = base_k_regular(n, k)
    lo, hi = base.edge_count, comb(n, 2)
    if not lo <= epsilon_target <= hi:
        raise TargetOutOfRange(
            f"epsilon target {epsilon_target} outside feasible range"
            f" [{lo}, {hi}] for n = {n}, k = {k}"
        )
    g = base
    steps = [_verified_step(g, k)]
    while g.edge_count < epsilon_target:
        degs = [g.degree(v) for v in range(g.n)]
        best = None
        best_key = None
        for a, b in complement(g).edges():
            da, db = degs[a], degs[b]
            key = (min(da, db), max(da, db), a, b)
            if best_key is None or key < best_key:
                best_key = key
                best = (a, b)
        if best is None:
            raise AugmentationStuck(
                f"no complement edge available at {g.edge_count} edges"
            )
        g = add_edge(g, *best)
        steps.append(_verified_step(g, k))
    return steps


def witness_sequence(n: int, k: int) -> DegreeSequence:
    """k-1 copies of n-1, then n-k-1 copies of n-3, then k twice.

    Its half-sum is C(n-2,2) + 2k - 1: the largest edge count at which a
    sequence with minimum term >= k still has a non-k-connected
    realization (G1 below is that realization).
    """
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if n < k + 3:
        raise NTooSmall(f"need n >= k + 3 = {k + 3}, got n = {n}")
    return DegreeSequence((n - 1,) * (k - 1) + (n - 3,) * (n - k - 1) + (k, k))


def _swap(g: SimpleGraph, a: int, b: int, c: int, d: int) -> SimpleGraph:
    """Degree-preserving 2-swap: edges ab and cd become ac and bd."""
    return add_edge(add_edge(remove_edge(remove_edge(g, a, b), c, d), a, c), b, d)


def build_G1(n: int, k: int) -> SimpleGraph:
    """Two cliques K_{k+1} and K_{n-2} overlapping in k-1 shared vertices.

    Layout: vertices 0..k-2 are the shared clique, k-1 and k are the
    degree-k pair (the K_{k+1} side), k+1..n-1 complete the K_{n-2} side.
    The result realizes witness_sequence(n, k) with C(n-2,2)+2k-1 edges
    and has connectivity exactly k-1 (the shared clique is a minimum cut;
    for k = 1 the overlap is empty and the graph is disconnected).
    """
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if n < k + 3:
        raise NTooSmall(f"need n >= k + 3 = {k + 3}, got n = {n}")
    small = complete_graph(k + 1)
    large = complete_graph(n - 2)
    into_shared_space = list(range(k - 1)) + list(range(k + 1, n))
    return graph_union(small, large, into_shared_space)


def build_G2(n: int, k: int) -> SimpleGraph:
    """The same degrees as build_G1 rewired to be k-connected for n >= k+4.

    Drops the edge inside the degree-k pair (k-1, k) and the big-clique
    edge (k+1, k+2), then stitches the two sides together crosswise.
    Degrees are untouched; the cut structure of G1 is destroyed.  At
    n = k+3 the result is (k-1)-connected, the best any realization
    reaches: the k-1 vertices of degree n-1 see everything, and deleting
    them leaves four vertices of degree 1, a perfect matching.
    """
    return _swap(build_G1(n, k), k - 1, k, k + 1, k + 2)


def is_maximally_non_k_connected(g: SimpleGraph, k: int) -> bool:
    """Not k-connected, but every single edge addition makes it so."""
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if is_k_connected(g, k):
        return False
    return all(
        is_k_connected(add_edge(g, a, b), k) for a, b in complement(g).edges()
    )


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of realize_k_connected.

    method is "exact" when the answer is certain (full enumeration, or a
    proof that no realization can exist), "heuristic" when a bounded
    search gave up without settling nonexistence.
    """

    graph: SimpleGraph | None
    method: str

    @property
    def found(self) -> bool:
        return self.graph is not None


def _havel_hakimi(s: DegreeSequence) -> SimpleGraph:
    n = len(s)
    adj = [0] * n
    pool = [(t, v) for v, t in enumerate(s.terms)]
    while pool:
        pool.sort(key=lambda p: (-p[0], p[1]))
        d, v = pool.pop(0)
        if d == 0:
            break
        if d > len(pool) or pool[d - 1][0] <= 0:
            raise AugmentationStuck(
                "degree reduction failed on a sequence that passed the"
                " graphicality test"
            )
        for i in range(d):
            du, u = pool[i]
            adj[v] |= 1 << u
            adj[u] |= 1 << v
            pool[i] = (du - 1, u)
    return SimpleGraph._from_masks(n, adj)


def _component_masks(g: SimpleGraph) -> list[int]:
    left = (1 << g.n) - 1
    comps = []
    while left:
        comps.append(_component(g._adj, left))
        left &= ~comps[-1]
    return comps


def _first_edge(g: SimpleGraph, comp: int) -> tuple[int, int]:
    return next(e for e in g.edges() if (1 << e[0]) & comp)


def _join_components(g: SimpleGraph) -> SimpleGraph:
    """Degree-preserving swaps until connected.

    Each round takes the first edge ab of the first component and the
    first edge cd of the second and rewires them into ac and bd.  The new
    endpoints lie in different components, so the swap is always legal,
    and it joins the two unless ab and cd are both bridges.  Rounds of
    bridges keep the component count and may come back to a graph seen
    before, from which they would repeat forever.  On such a repeat the
    first edge that is not a bridge is swapped with the first edge of
    another component instead, which joins two components.  With no
    isolated vertex and epsilon >= phi - 1 edges some component has a
    cycle, so such an edge exists.
    """
    seen = set()
    while True:
        comps = _component_masks(g)
        if len(comps) <= 1:
            return g
        if g in seen:
            i, first = next(
                (i, e) for i, c in enumerate(comps) for e in g.edges()
                if (1 << e[0]) & c and _component(remove_edge(g, *e)._adj, c) == c
            )
            second = _first_edge(g, comps[1 if i == 0 else 0])
        else:
            first = _first_edge(g, comps[0])
            second = _first_edge(g, comps[1])
        seen.add(g)
        g = _swap(g, *first, *second)


def realize_k_connected(
    s: DegreeSequence, k: int, *, oracle_limit: int = DEFAULT_ENUMERATION_LIMIT
) -> RealizationResult:
    """Find a k-connected graph with degree sequence s, best effort.

    Small sequences (phi <= oracle_limit) are settled exactly by
    enumeration.  Larger ones first get the certain negatives out of the
    way (not graphic, minimum term below k, too few vertices, fewer than
    phi - 1 edges), then run a degree-preserving local search: start from
    a greedy realization, make it connected, and apply random 2-swaps
    that never lower connectivity, up to 10*phi^2 attempts.  A failed
    search is labeled "heuristic" -- it proves nothing.
    """
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if len(s) <= oracle_limit:
        for g in enumerate_realizations(s, limit=oracle_limit):
            if is_k_connected(g, k):
                return RealizationResult(g, "exact")
        return RealizationResult(None, "exact")

    # A connected graph on phi vertices needs phi - 1 edges.
    if (
        not erdos_gallai_graphic(s)
        or s[-1] < k
        or len(s) <= k
        or s.degree_sum < 2 * (len(s) - 1)
    ):
        return RealizationResult(None, "exact")

    g = _join_components(_havel_hakimi(s))
    rng = random.Random(8128)
    cap = 10 * len(s) ** 2
    kappa = vertex_connectivity(g, upper_bound=k)
    for _ in range(cap):
        if kappa >= k:
            return RealizationResult(g, "heuristic")
        edges = list(g.edges())
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4:
            continue
        if rng.random() < 0.5:
            c, d = d, c
        if g.has_edge(a, c) or g.has_edge(b, d):
            continue
        candidate = _swap(g, a, b, c, d)
        new_kappa = vertex_connectivity(candidate, upper_bound=k)
        if new_kappa >= kappa:
            g = candidate
            kappa = new_kappa
    if kappa >= k:
        return RealizationResult(g, "heuristic")
    return RealizationResult(None, "heuristic")
