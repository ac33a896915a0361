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

One policy covers connectivity: the constructions (base_k_regular,
augment_chain, build_G1, build_G2) are closed-form recipes whose
connectivity is proved in their docstrings and checked by the test suite
(TestBaseKRegular, TestAugmentChain, TestWitnessGraphs, acceptance
criteria 2 and 4); they compute no connectivity at run time.  Only
realize_k_connected, a search, measures connectivity at run time: it
starts from a Havel-Hakimi realization, connected by construction
whenever some realization is (the proof is in _havel_hakimi), and
measures kappa at every step.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from .errors import (
    AugmentationStuck,
    KOutOfRange,
    NTooSmall,
    TargetOutOfRange,
    TooLarge,
)
from .graph_core import (
    SimpleGraph,
    _bits,
    _component,
    degree_sequence,
    is_k_connected,
    vertex_connectivity,
)
from .oracle import DEFAULT_ENUMERATION_LIMIT, _enumerate_masks
from .sequence_core import DegreeSequence, erdos_gallai_graphic

__all__ = [
    "MAX_CHAIN_TERMS",
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

# Caps rows times n in augment_chain: each row holds an n-term degree
# sequence and an n-vertex graph, so a chain to C(n, 2) is Theta(n^3).
MAX_CHAIN_TERMS = 1_000_000


def base_k_regular(n: int, k: int) -> SimpleGraph:
    """Circulant base graph: k-regular when n*k is even, else one vertex
    of degree k+1 (n, k both odd), with (n*k+1)/2 edges.

    Each vertex joins its floor(k/2) nearest neighbors on both sides of a
    cycle; odd k adds diameters (n even) or half-diameters with a single
    doubly-covered vertex (n odd).

    Its connectivity is k for k >= 2, 1 for k = 1 with n <= 3, and 0 for
    k = 1 with n >= 4.  For k >= 2 the graph is Harary's H_{k,n} up to
    relabeling, and Harary proved kappa(H_{k,n}) = k ("The maximum
    connectivity of a graph", PNAS 48, 1962); kappa <= k holds anyway, as
    some vertex has degree k.  For even k, and for odd k with even n, the
    edges here are exactly Harary's.  For odd k and odd n, Harary adds
    the chords {i, i + (n+1)/2} for 0 <= i <= (n-1)/2, doubly covering 0;
    this adds {i, i + h} for 0 <= i <= h, h = (n-1)/2, doubly covering h.
    The chord {i, i + h} is {j, j + h + 1} with j = i + h, as
    j + h + 1 = i + n; so the rotation x -> x - h (mod n) takes these
    chords onto Harary's, and so does the reflection x -> h - x.  Both
    maps keep cyclic distances, so they fix the floor(k/2) cycle layers.
    For k = 1 the graph has ceil(n/2) edges: a path on n = 2 or 3
    vertices, and fewer than the n - 1 a connected graph needs once
    n >= 4, so it has more than one component.
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


class ChainStep(NamedTuple):
    """One row of an augmentation chain: a graph, its sequence, its size."""

    sequence: DegreeSequence
    epsilon: int
    graph: SimpleGraph


def augment_chain(n: int, k: int, epsilon_target: int) -> list[ChainStep]:
    """Walk from the k-regular base to epsilon_target edges, one per step.

    Each step adds the missing edge whose sorted end degrees are least,
    ties broken by lowest label pair, so each sequence is the previous
    one with two terms incremented.  Below the target, which is at most
    C(n,2), some edge is always missing.

    The base is k-connected except for k = 1 with n >= 4 (the proof is
    in base_k_regular); those bases raise AugmentationStuck.  Each later
    graph is G + e for a k-connected G: it keeps G's n > k vertices, and
    a set X that separates G + e separates G, its spanning subgraph, so
    |X| >= k.  A chain whose rows hold more than MAX_CHAIN_TERMS sequence
    terms in all (rows times n) raises TooLarge before any step is built.
    """
    base = base_k_regular(n, k)
    lo, hi = base.edge_count, comb(n, 2)
    if not lo <= epsilon_target <= hi:
        raise TargetOutOfRange(
            f"epsilon target {epsilon_target} outside feasible range"
            f" [{lo}, {hi}] for n = {n}, k = {k}"
        )
    if k == 1 and n >= 4:
        raise AugmentationStuck(
            f"chain graph with {lo} edges failed the {k}-connectivity verification"
        )
    rows = epsilon_target - lo + 1
    if rows * n > MAX_CHAIN_TERMS:
        raise TooLarge(
            f"chain of {rows} rows of {n} terms exceeds the cap of"
            f" {MAX_CHAIN_TERMS} terms"
        )
    adj = list(base._adj)
    # by_degree[d]: the vertices of degree d
    by_degree = [0] * n
    for v, row in enumerate(adj):
        by_degree[row.bit_count()] |= 1 << v
    graphs = [base]
    for _ in range(lo, epsilon_target):
        a, b = _least_degree_pair(adj, by_degree)
        for v, w in ((a, b), (b, a)):
            d = adj[v].bit_count()
            by_degree[d] ^= 1 << v
            by_degree[d + 1] |= 1 << v
            adj[v] |= 1 << w
        graphs.append(SimpleGraph._from_masks(n, adj))
    return [ChainStep(degree_sequence(g), lo + i, g) for i, g in enumerate(graphs)]


def _least_degree_pair(adj: list[int], by_degree: list[int]) -> tuple[int, int]:
    """The missing pair (a, b), a < b, least by its sorted end degrees,
    then by (a, b); some pair must be missing.

    Let d1 be the least degree with a vertex that misses an edge.  Every
    vertex a vertex of degree d1 misses has degree >= d1 (a lower one
    would have come first), so the least pair has degrees d1 and d2, the
    least degree in the union of what the degree-d1 vertices miss.
    """
    full = (1 << len(adj)) - 1
    for d1, low in enumerate(by_degree):
        missed = 0
        for v in _bits(low):
            missed |= full ^ adj[v] ^ 1 << v
        if missed:
            break
    high = next(m for m in by_degree[d1:] if m & missed)
    for a in _bits(low | high):
        # the other class's vertices above a that a misses
        partners = (high if low >> a & 1 else low) & ~adj[a] >> (a + 1) << (a + 1)
        if partners:
            return a, (partners & -partners).bit_length() - 1


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
    """Degree-preserving 2-swap: edges ab and cd become ac and bd.

    The caller guarantees that a, b, c, d are distinct, that ab and cd
    are edges and that ac and bd are not, so each flip below removes one
    edge and adds one.
    """
    adj = list(g._adj)
    adj[a] ^= 1 << b | 1 << c
    adj[b] ^= 1 << a | 1 << d
    adj[c] ^= 1 << d | 1 << a
    adj[d] ^= 1 << c | 1 << b
    return SimpleGraph._from_masks(g.n, adj)


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
    small = (1 << (k + 1)) - 1
    large = ((1 << (k - 1)) - 1) | (((1 << n) - 1) & ~small)
    adj = [
        ((small if small >> v & 1 else 0) | (large if large >> v & 1 else 0))
        & ~(1 << v)
        for v in range(n)
    ]
    return SimpleGraph._from_masks(n, adj)


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
    """Not k-connected, but every single edge addition makes it so.

    Decided by structure, with no flow: g is maximal exactly when it is
    K_n with n <= k, or exactly k-1 vertices have degree n-1 and deleting
    them leaves two non-empty cliques with no edge between them, that is,
    g = K_{k-1} join (K_a + K_b) with a, b >= 1.

    Such a g is maximal.  K_n with n <= k is not k-connected and has no
    missing edge.  In the join the k-1 universal vertices U separate the
    cliques, and every missing edge ab joins them.  A separator X of
    g + ab must contain U, and X - U must cut the two cliques joined by
    ab, so it holds a or b: |X| >= k.  As g + ab has n >= k + 1
    vertices, it is k-connected (it is K_{k+1} when a = b = 1).

    Conversely let g be maximal and not complete, and S a minimum
    separator, |S| < k.  An edge added inside S, inside a component of
    g - S, or from S to a component leaves S a separator, so all those
    edges are present; with three components, an edge between two of them
    leaves S parting the third.  So g - S is two cliques A and B, each
    joined to all of S, and S is exactly the set of degree n-1.  If
    |S| < k - 1, add an A-B edge ab with, say, |A| >= 2: S + a is a
    separator of size < k.  With |A| = |B| = 1, g + ab is K_n with
    n <= k.  Either way g was not maximal, so |S| = k - 1.
    """
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    adj = g._adj
    full = (1 << g.n) - 1
    universal = sum(1 << v for v in range(g.n) if adj[v] | 1 << v == full)
    if universal == full:
        return g.n <= k
    if universal.bit_count() != k - 1:
        return False
    rest = full & ~universal
    side_a = _component(adj, rest)
    side_b = rest & ~side_a
    # an empty side_b fails the test below: side_a would be universal
    return all(
        adj[v] | 1 << v == universal | (side_a if side_a >> v & 1 else side_b)
        for v in _bits(rest)
    )


class RealizationResult(NamedTuple):
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
    """Greedy realization of a graphic s that is connected whenever it can be.

    Each round lays off the vertex v of least positive residual degree d
    (highest label on ties): v is joined to the d other vertices of
    highest residual degree (lowest labels on ties) and leaves the pool,
    as does every partner whose residual drops to 0.  Kleitman and Wang
    (Discrete Math. 6, 1973) showed that laying off any vertex this way
    keeps a graphic sequence graphic, so the rounds never run out of
    partners.

    When the sum of s is at least 2(phi - 1), the graph is connected, so
    no repair pass is needed.  By induction on phi, for a graphic s of
    positive terms with that sum: for phi = 2, s is 1,1 and the graph is
    one edge.  For phi >= 3, let v be laid off first, with the least term
    d.  The residual on the other phi - 1 vertices stays positive: a
    partner drops to 0 only if its degree was 1, and as partners have the
    highest degrees, every term would then be 1, so phi >= 2(phi - 1)
    would give phi <= 2.  The residual also keeps the sum bound: for
    d = 1 its sum is sum - 2 >= 2(phi - 2); for d >= 2 every term is at
    least d, so sum - 2d >= (phi - 2)d >= 2(phi - 2).  The later rounds
    are this same construction on the residual, which is graphic, so they
    build a connected graph on the other vertices, and v joins it by
    d >= 1 edges.
    """
    n = len(s)
    adj = [0] * n
    residual = list(s.terms)
    live = list(range(n))
    while live:
        live.sort(key=lambda u: (-residual[u], u))
        v = live.pop()
        for u in live[: residual[v]]:
            adj[v] |= 1 << u
            adj[u] |= 1 << v
            residual[u] -= 1
            if not residual[u]:
                live.remove(u)
    return SimpleGraph._from_masks(n, adj)


def realize_k_connected(
    s: DegreeSequence, k: int, *, oracle_limit: int = DEFAULT_ENUMERATION_LIMIT
) -> RealizationResult:
    """Find a k-connected graph with degree sequence s, best effort.

    Small sequences (phi <= oracle_limit) are settled exactly by
    enumeration: the first k-connected realization in labeled order,
    found among the twin-orbit representatives (see oracle).  Larger ones
    first get the three certain negatives out of the way (not graphic,
    minimum term below k, fewer than phi - 1 edges), then run a
    degree-preserving local search: start from a greedy realization that
    lays off the smallest degree first, which is connected once the
    negatives are out of the way, and apply random 2-swaps that never
    lower connectivity, up to 10*phi^2 attempts.  A failed search is
    labeled "heuristic" -- it proves nothing.
    """
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if len(s) <= oracle_limit:
        for masks, _ in _enumerate_masks(s.terms, twins=True):
            g = SimpleGraph._from_masks(len(s), masks)
            if is_k_connected(g, k):
                return RealizationResult(g, "exact")
        return RealizationResult(None, "exact")

    # A connected graph on phi vertices needs phi - 1 edges; with that
    # many, _havel_hakimi's graph is connected.  phi > k needs no test:
    # Erdos-Gallai at r = 1 gives k <= s[-1] <= s[0] <= phi - 1.
    if (
        not erdos_gallai_graphic(s)
        or s[-1] < k
        or s.degree_sum < 2 * (len(s) - 1)
    ):
        return RealizationResult(None, "exact")

    g = _havel_hakimi(s)
    rng = random.Random(8128)
    kappa = vertex_connectivity(g, upper_bound=k)
    for _ in range(10 * len(s) ** 2):
        if kappa >= k:
            break
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
    return RealizationResult(g if kappa >= k else None, "heuristic")
