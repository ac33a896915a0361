"""Exhaustive ground truth at small scale.

Everything here answers questions by enumeration, never by formula:
all labeled realizations of a degree sequence, exact k-connectedness of
each, extremal edge counts, and sweep audits that compare the arithmetic
predicates of :mod:`kconnseq.sequence_core` against enumerated truth.

The verdicts and the theorem audits weigh realizations by twin swaps
instead of listing every labeled graph.  The backtracking enumerator
completes one pivot's neighbourhood per step.  Two candidates with the
same residual degree and the same neighbours so far are twins: they have
no edges among themselves, so swapping them fixes the partial graph and
every residual degree, and the completions of the two branches map one
to one under that relabeling, with equal connectivity.  So only the
branch that takes the lowest-labeled members of each twin class is
walked, weighted by prod C(class size, members taken).  A realization
count is the sum of these weights, exactly the labeled count.  A theorem
audit reads one side, the greatest or least connectivity, from the
representatives alone, and stops walking once that side is settled.
enumerate_realizations still lists every labeled graph.

Connectivity is decided by brute-force vertex-subset removal -- a second,
independent route from the max-flow computation in graph_core, so the two
can cross-check each other in tests.

The edge-count questions (the corollary audit and the largest
non-k-connected graph) enumerate only graphs that can fail k-connectivity.
A graph that is not complete and has kappa < k loses its connectivity to
some removal set S with |S| < k, and S leaves it with a component A that
holds the lowest surviving vertex.  So it lies in the family (S, A): the
graphs with no edge between A and B, the rest of V - S.  Every member of
a family has kappa <= |S| < k, so the families plus K_n (when n - 1 < k)
are exactly the graphs that are not k-connected.  Each candidate still
goes through removal-set kappa; a family only chooses what to look at.

Audits parallelize over sequences (or removal sets) with
ProcessPoolExecutor; results are merged in task-submission order and then
sorted, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import os
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .errors import KOutOfRange, NTooSmall, TooLarge
from .graph_core import SimpleGraph, _bits, _component, complete_graph
from .sequence_core import (
    DegreeSequence,
    corollary_threshold,
    theorem1_check,
    theorem2_check,
)

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "HARD_ENUMERATION_CAP",
    "SequenceVerdict",
    "DiscrepancyReport",
    "enumerate_realizations",
    "oracle_graphic",
    "oracle_verdict",
    "oracle_max_edges_non_k_connected",
    "audit_theorem1",
    "audit_theorem2",
    "audit_corollary",
    "all_degree_sequences",
]

# Default per-call ceiling on the vertex count of exhaustive enumeration.
# 8 keeps the worst case (2^28 potential edge subsets before pruning)
# inside an interactive budget; callers may raise it per invocation.
DEFAULT_ENUMERATION_LIMIT = 8
# The CLI refuses --oracle-limit beyond this, whatever the caller says.
HARD_ENUMERATION_CAP = 10


# -- enumeration core --------------------------------------------------------


def _enumerate_masks(
    terms: Sequence[int], twins: bool = False
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (adjacency masks, weight) of the labeled graphs realizing ``terms``.

    Backtracking: repeatedly take the vertex of largest residual degree
    (ties: lowest label) and branch over every way to complete its whole
    neighborhood among vertices that still need edges.  Each labeled graph
    arises from exactly one branch sequence, so there are no duplicates.

    Without ``twins`` every labeled graph comes once, with weight 1.  With
    ``twins`` only one branch per orbit of twin swaps is taken (see
    _twin_branches), and the weight is the number of labeled graphs the
    yielded one stands for.  The yielded graphs keep their labeled order.
    """
    n = len(terms)
    if sum(terms) % 2 == 1:
        return
    if any(t > n - 1 for t in terms):
        return
    adj = [0] * n
    residual = list(terms)

    def rec(weight: int) -> Iterator[tuple[tuple[int, ...], int]]:
        pivot = -1
        best = 0
        for v in range(n):
            if residual[v] > best:
                best = residual[v]
                pivot = v
        if pivot < 0:
            yield tuple(adj), weight
            return
        row = adj[pivot]
        cands = [
            u
            for u in range(n)
            if u != pivot and residual[u] > 0 and not (row >> u) & 1
        ]
        need = residual[pivot]
        if len(cands) < need:
            return
        residual[pivot] = 0
        if twins:
            branches = _twin_branches(cands, need, residual, adj)
        else:
            branches = ((chosen, 1) for chosen in combinations(cands, need))
        for chosen, orbit in branches:
            for u in chosen:
                adj[pivot] |= 1 << u
                adj[u] |= 1 << pivot
                residual[u] -= 1
            yield from rec(weight * orbit)
            for u in chosen:
                adj[pivot] &= ~(1 << u)
                adj[u] &= ~(1 << pivot)
                residual[u] += 1
        residual[pivot] = need

    yield from rec(1)


def _twin_branches(
    cands: list[int], need: int, residual: list[int], adj: list[int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The choices of ``need`` candidates that take the lowest-labeled
    members of each twin class, each with the size of its orbit.

    Two candidates are twins when they have the same residual degree and
    the same neighborhood so far.  Candidates have no edges among
    themselves (edges so far all touch earlier pivots), so swapping two
    twins fixes the partial graph and every residual degree: branches
    that differ by twin swaps have completions that map one to one under
    a relabeling, with the same connectivity.  A choice taking t_i of the
    m_i members of each class i stands for prod C(m_i, t_i) branches.
    The choices come in the order of combinations(cands, need), and each
    skipped branch is a twin swap of a taken one that comes earlier.
    """
    prev_bit = {}
    cls = {}
    sizes: list[int] = []
    classes: dict[tuple[int, int], int] = {}
    last: dict[tuple[int, int], int] = {}
    for u in cands:
        key = (residual[u], adj[u])
        if key not in classes:
            classes[key] = len(sizes)
            sizes.append(0)
        cls[u] = classes[key]
        sizes[cls[u]] += 1
        prev_bit[u] = 1 << last[key] if key in last else 0
        last[key] = u
    for chosen in combinations(cands, need):
        taken = [0] * len(sizes)
        mask = 0
        for u in chosen:
            if prev_bit[u] & ~mask:
                break
            mask |= 1 << u
            taken[cls[u]] += 1
        else:
            orbit = 1
            for m, t in zip(sizes, taken):
                orbit *= comb(m, t)
            yield chosen, orbit


_SEPARATORS: dict[tuple[int, int], list[int]] = {}


def _separators(n: int, k: int) -> list[int]:
    """Every vertex set of at most min(k - 1, n - 2) vertices, as masks.

    Ordered by size, then within a size as combinations(range(n), size)
    lists them; the empty set comes first.
    """
    top = min(k - 1, n - 2)
    masks = _SEPARATORS.get((n, top))
    if masks is None:
        masks = [
            sum(1 << v for v in subset)
            for size in range(top + 1)
            for subset in combinations(range(n), size)
        ]
        _SEPARATORS[n, top] = masks
    return masks


def _first_separator(adj: Sequence[int], n: int, cap: int) -> int | None:
    """The first vertex set whose removal disconnects the graph, as a mask.

    Sets are tried in the order of _separators(n, cap): by size, from 0
    (the graph itself) up to min(cap, n - 1) - 1.  Only graph_core's
    connectivity test is used, never a flow.  None when no such set is
    small enough.
    """
    full = (1 << n) - 1
    for rm in _separators(n, cap):
        live = full & ~rm
        if _component(adj, live) != live:
            return rm
    return None


def _kappa_capped(adj: Sequence[int], n: int, cap: int) -> int:
    """min(vertex connectivity, cap), by trying every small removal set.

    Independent of the flow-based computation in graph_core: searches
    removal subsets of size 0, 1, 2, ... directly (_first_separator).  No
    subset up to size n - 2 disconnecting the graph means the graph is
    complete, where connectivity is n - 1 by convention.
    """
    if n <= 1:
        return 0
    rm = _first_separator(adj, n, cap)
    return min(cap, n - 1) if rm is None else rm.bit_count()


def _separated_graphs(
    n: int, removed: int, m: int, min_degree: int
) -> Iterator[tuple[int, list[int]]]:
    """(edge mask, adjacency) of the m-edge graphs that ``removed`` separates.

    The vertices outside ``removed`` split into A, which holds the lowest
    of them, and a non-empty B.  For each split, every graph with exactly
    m edges and no A-B edge is yielded, so a graph with several such
    splits comes once per split.  Splits where a side is too small for
    its vertices to reach ``min_degree`` are skipped: a vertex of a side
    sees at most the rest of its side and ``removed``.  Bit i of the edge
    mask is the i-th pair of combinations(range(n), 2), so its set bits
    list the edges in sorted order.
    """
    min_side = max(1, min_degree - removed.bit_count() + 1)
    pairs = list(combinations(range(n), 2))
    rest = ((1 << n) - 1) & ~removed
    low = rest & -rest
    others = rest ^ low
    sub = others
    while True:
        side_a = low | sub
        side_b = rest ^ side_a
        na, nb = side_a.bit_count(), side_b.bit_count()
        if min(na, nb) >= min_side and len(pairs) - na * nb >= m:
            allowed = [
                i
                for i, (a, b) in enumerate(pairs)
                if not (side_a >> a & 1 and side_b >> b & 1)
                and not (side_b >> a & 1 and side_a >> b & 1)
            ]
            full = 0
            base = [0] * n
            for i in allowed:
                a, b = pairs[i]
                full |= 1 << i
                base[a] |= 1 << b
                base[b] |= 1 << a
            for dropped in combinations(allowed, len(allowed) - m):
                mask = full
                adj = base.copy()
                for i in dropped:
                    a, b = pairs[i]
                    mask ^= 1 << i
                    adj[a] ^= 1 << b
                    adj[b] ^= 1 << a
                yield mask, adj
        if not sub:
            return
        sub = (sub - 1) & others


def _violation(adj: Sequence[int], n: int, k: int, enforce: bool) -> int | None:
    """kappa-hat of a graph that is in scope and not k-connected, else None.

    In scope means minimum degree >= k when ``enforce`` is set.
    """
    if enforce and any(row.bit_count() < k for row in adj):
        return None
    kap = _kappa_capped(adj, n, k)
    return kap if kap < k else None


def _map(fn, tasks: list, jobs: int | None, chunksize: int = 1) -> list:
    """fn over tasks in submission order; a process pool when jobs > 1.

    The pool has at most one worker per CPU: with the fork start method
    it starts every worker at once.  An exception or Ctrl-C in the parent
    cancels the tasks not yet started instead of waiting for them.
    """
    if jobs is None or jobs <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
    try:
        results = list(pool.map(fn, tasks, chunksize=chunksize))
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return results


# -- public enumeration API ---------------------------------------------------


def enumerate_realizations(
    s: DegreeSequence, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[SimpleGraph]:
    """Every labeled graph on 0..phi-1 where vertex i has degree s[i].

    Each graph is yielded exactly once; the stream is empty iff the
    sequence is not graphic.  Raises TooLarge when phi exceeds ``limit``.
    """
    if len(s) > limit:
        raise TooLarge(f"phi = {len(s)} exceeds enumeration limit {limit}")
    return (
        SimpleGraph._from_masks(len(s), masks)
        for masks, _ in _enumerate_masks(s.terms)
    )


def oracle_graphic(s: DegreeSequence, *, limit: int = DEFAULT_ENUMERATION_LIMIT) -> bool:
    """Graphicality by exhaustion: does any realization exist?"""
    for _ in enumerate_realizations(s, limit=limit):
        return True
    return False


class SequenceVerdict(NamedTuple):
    """Enumerated truth about one (sequence, k) pair.

    all_k_connected is None ("not applicable") exactly when the sequence
    has no realization at all.
    """

    sequence: DegreeSequence
    k: int
    graphic: bool
    exists_k_connected: bool
    all_k_connected: bool | None
    realization_count: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "sequence": list(self.sequence.terms),
            "k": self.k,
            "graphic": self.graphic,
            "exists_k_connected": self.exists_k_connected,
            "all_k_connected": self.all_k_connected,
            "realization_count": self.realization_count,
        }


def oracle_verdict(
    s: DegreeSequence, k: int, *, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> SequenceVerdict:
    """Exact existential and universal k-connectedness of s's realizations.

    realization_count is the number of labeled realizations, computed as
    a weighted sum over twin-orbit representatives (see the module
    docstring): swapping twins relabels a realization without changing
    its connectivity, so each representative stands for its whole orbit.
    Connectivity checks stop once both booleans are settled.
    """
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if len(s) > limit:
        raise TooLarge(f"phi = {len(s)} exceeds enumeration limit {limit}")
    n = len(s)
    count = 0
    exists = False
    all_k = True
    for adj, weight in _enumerate_masks(s.terms, twins=True):
        count += weight
        if not exists or all_k:
            if _kappa_capped(adj, n, k) >= k:
                exists = True
            else:
                all_k = False
    return SequenceVerdict(
        sequence=s,
        k=k,
        graphic=count > 0,
        exists_k_connected=exists,
        all_k_connected=None if count == 0 else all_k,
        realization_count=count,
    )


def oracle_max_edges_non_k_connected(
    n: int,
    k: int,
    enforce_min_degree: bool,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> int | None:
    """Largest edge count of an n-vertex graph that is NOT k-connected.

    Scans edge counts downward from C(n,2).  At each count it enumerates
    the graphs some set of fewer than k vertices separates, plus K_n when
    n - 1 < k (see the module docstring: together these are every graph
    that is not k-connected), optionally keeping only those with minimum
    degree >= k, and stops at the first count where one is confirmed by
    removal-set kappa.  Returns None when no graph qualifies at all (e.g.
    the min-degree constraint is unsatisfiable on n vertices).
    """
    if n < 1:
        raise NTooSmall(f"n must be >= 1, got {n}")
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    if n > limit:
        raise TooLarge(f"n = {n} exceeds enumeration limit {limit}")
    max_edges = comb(n, 2)
    separators = _separators(n, k)
    min_degree = k if enforce_min_degree else 0
    complete = complete_graph(n)._adj
    if n - 1 < k and _violation(complete, n, k, enforce_min_degree) is not None:
        return max_edges
    for m in range(max_edges, -1, -1):
        for removed in separators:
            for _mask, adj in _separated_graphs(n, removed, m, min_degree):
                if _violation(adj, n, k, enforce_min_degree) is not None:
                    return m
    return None


# -- audit sweeps -------------------------------------------------------------


def all_degree_sequences(n: int) -> Iterator[DegreeSequence]:
    """Every non-increasing positive sequence of length n with terms <= n-1.

    This is the audit universe: it includes sequences the predicates
    reject, so both directions of each equivalence get exercised.
    """
    if n < 1:
        raise NTooSmall(f"n must be >= 1, got {n}")
    return map(DegreeSequence, combinations_with_replacement(range(n - 1, 0, -1), n))


def _profile_worker(args: tuple[tuple[int, ...], int, bool]) -> int | None:
    """The least (``least``) or greatest kappa-hat over one sequence's
    twin-orbit representatives; None when it has no realization.

    kappa-hat is kappa capped at k_cap and, changing no value, at the
    least term delta: K_n has kappa = n - 1 = delta, and otherwise the
    delta neighbours of a least-degree vertex separate it from a
    non-neighbour.  The greatest walk stops at that ceiling, the least at
    0; the least caps each kappa at the least so far, so it tries only
    smaller separators.
    """
    terms, k_cap, least = args
    n = len(terms)
    ceiling = min(k_cap, terms[-1])
    bound, settled = (ceiling, 0) if least else (0, ceiling)
    found = False
    for adj, _weight in _enumerate_masks(terms, twins=True):
        found = True
        kap = _kappa_capped(adj, n, bound if least else ceiling)
        bound = min(bound, kap) if least else max(bound, kap)
        if bound == settled:
            break
    return bound if found else None


def _sequence_profiles(
    n: int, k_max: int, limit: int, jobs: int | None, least: bool
) -> list[tuple[tuple[int, ...], int | None]]:
    """(terms, _profile_worker's bound) for every sequence of length n."""
    if n > limit:
        raise TooLarge(f"n = {n} exceeds enumeration limit {limit}")
    if k_max < 1:
        raise KOutOfRange(f"k_max must be >= 1, got {k_max}")
    universe = [s.terms for s in all_degree_sequences(n)]
    tasks = [(terms, k_max, least) for terms in universe]
    return list(zip(universe, _map(_profile_worker, tasks, jobs, chunksize=16)))


class DiscrepancyReport(NamedTuple):
    """Outcome of sweeping one predicate against enumerated truth.

    ``entries`` lists exactly the comparisons where the predicate and the
    enumeration disagree, sorted lexicographically (sequence first, then
    k; violating graphs sort by edge count then edge list).  ``boundary``
    is only present for the necessity audit: sequences sitting exactly at
    the edge-count bound, recorded whether or not they agree.

    Entries are read-only.  The [a, b] pair lists in a corollary entry's
    ``edges`` are shared by every entry holding that edge, and
    to_json_dict copies entries only one level deep.
    """

    subject: str
    universe: dict
    entries: tuple[dict, ...]
    summary: dict
    boundary: tuple[dict, ...] | None = None

    @property
    def has_discrepancies(self) -> bool:
        return bool(self.entries)

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "subject": self.subject,
            "universe": dict(self.universe),
            "entries": [dict(e) for e in self.entries],
        }
        if self.boundary is not None:
            out["boundary"] = [dict(b) for b in self.boundary]
        out["summary"] = dict(self.summary)
        return out


def _theorem_rows(
    check, bounds: list[tuple[tuple[int, ...], int]], n: int, k_max: int
) -> tuple[list[tuple], int]:
    """Evaluate one theorem's predicate against enumerated truth.

    ``bounds`` pairs each compared sequence with the kappa-hat bound that
    decides its claim: true at k exactly when the bound is >= k.  Returns
    a row (terms, k, claimed, observed, the predicate's thresholds) per
    sequence and k, and the comparison count; keeping each whole report
    would cost about 1 KB more per row.

    Only k < n makes a row.  For k >= n a term is at most n - 1 < k, so
    min_degree fails and both theorems claim false; kappa <= n - 1 < k,
    so both observations are false; and 2(C(n-2, 2) + 2k - 1) >=
    n^2 - n + 4 > n(n - 1) >= the degree sum, so no sequence sits on
    theorem 2's bound.  Those comparisons all agree, and are counted.
    """
    rows = []
    for terms, bound in bounds:
        s = DegreeSequence(terms)
        for k in range(1, min(k_max, n - 1) + 1):
            report = check(s, k)
            rows.append((terms, k, report.verdict, bound >= k, report.thresholds))
    return rows, len(bounds) * k_max


def _theorem_report(
    subject: str, n: int, k_max: int, sequence_count: int, rows: list, comparisons: int
) -> DiscrepancyReport:
    """The report on _theorem_rows' rows: an entry where claim and truth differ."""
    entries = [
        {
            "theorem": subject,
            "sequence": list(terms),
            "k": k,
            "claimed": claimed,
            "observed": observed,
        }
        for terms, k, claimed, observed, _thresholds in rows
        if claimed != observed
    ]
    entries.sort(key=lambda e: (e["sequence"], e["k"]))
    return DiscrepancyReport(
        subject=subject,
        universe={"n": n, "k_max": k_max, "sequence_count": sequence_count},
        entries=tuple(entries),
        summary={"comparisons": comparisons, "discrepancies": len(entries)},
    )


def audit_theorem1(
    n: int,
    k_max: int,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    jobs: int | None = None,
) -> DiscrepancyReport:
    """Compare the four-condition feasibility predicate with enumeration.

    For every sequence in the length-n universe and every k in 1..k_max,
    the claim "some k-connected realization exists" is checked against
    exhaustive truth; disagreements become report entries.
    """
    profiles = _sequence_profiles(n, k_max, limit, jobs, least=False)
    # A sequence with no realization observes false.
    bounds = [(terms, hi or 0) for terms, hi in profiles]
    rows, comparisons = _theorem_rows(theorem1_check, bounds, n, k_max)
    return _theorem_report("theorem1", n, k_max, len(profiles), rows, comparisons)


def audit_theorem2(
    n: int,
    k_max: int,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    jobs: int | None = None,
) -> DiscrepancyReport:
    """Compare the necessity predicate with enumeration.

    Only sequences with at least one realization are compared ("all
    realizations are k-connected" is vacuous otherwise).  Sequences whose
    epsilon sits exactly on the bound C(phi-2,2)+2k-1 land in the
    ``boundary`` annex regardless of agreement.
    """
    profiles = _sequence_profiles(n, k_max, limit, jobs, least=True)
    bounds = [(terms, lo) for terms, lo in profiles if lo is not None]
    rows, comparisons = _theorem_rows(theorem2_check, bounds, n, k_max)
    report = _theorem_report("theorem2", n, k_max, len(profiles), rows, comparisons)
    boundary = [
        {
            "sequence": list(terms),
            "k": k,
            "epsilon_bound": thresholds["necessity_bound"],
            "claimed": claimed,
            "observed": observed,
        }
        for terms, k, claimed, observed, thresholds in rows
        if sum(terms) == 2 * thresholds["necessity_bound"]
    ]
    boundary.sort(key=lambda e: (e["sequence"], e["k"]))
    summary = {**report.summary, "boundary_cases": len(boundary)}
    return report._replace(summary=summary, boundary=tuple(boundary))


def _corollary_worker(args: tuple[int, int, int, bool, int]) -> list[tuple]:
    """(edge mask, kappa-hat, degrees) of each violator with at least lo
    edges whose first separator (see _first_separator) is ``removed``.

    A violator lies in the family of every set that separates it, but
    only the shard of its first separator keeps it, so the shards never
    overlap.  Nor does a shard repeat a mask from the corollary threshold
    up: a graph with no edge across two different A-B splits misses at
    least 2(n - |removed|) - 3 pairs, more than the 2n - 3 - 2k that the
    threshold leaves when |removed| < k.  Below the threshold the dict in
    _corollary_violators merges repeats.
    """
    n, k, lo, enforce, removed = args
    found = []
    for m in range(lo, comb(n, 2) + 1):
        for mask, adj in _separated_graphs(n, removed, m, k if enforce else 0):
            if enforce and any(row.bit_count() < k for row in adj):
                continue
            if _first_separator(adj, n, k) == removed:
                degs = sorted((row.bit_count() for row in adj), reverse=True)
                found.append((mask, removed.bit_count(), degs))
    return found


def _corollary_violators(
    n: int, k: int, lo: int, enforce: bool, jobs: int | None
) -> dict[int, tuple[int, list[int]]]:
    """Edge mask -> (kappa-hat, degrees) of every graph with at least lo
    edges that is in scope and not k-connected (see audit_corollary)."""
    tasks = [(n, k, lo, enforce, rm) for rm in _separators(n, k)]
    found = {
        mask: (kap, degs)
        for shard in _map(_corollary_worker, tasks, jobs)
        for mask, kap, degs in shard
    }
    max_edges = comb(n, 2)
    if n - 1 < k and max_edges >= lo:
        kap = _violation(complete_graph(n)._adj, n, k, enforce)
        if kap is not None:
            found[(1 << max_edges) - 1] = (kap, [n - 1] * n)
    return found


def audit_corollary(
    n: int,
    k: int,
    enforce_min_degree: bool,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    jobs: int | None = None,
) -> DiscrepancyReport:
    """Check "edge count >= threshold forces k-connected" by enumeration.

    Every labeled n-vertex graph at or above corollary_threshold(n, k)
    (optionally restricted to minimum degree >= k) that is not k-connected
    becomes an entry.  An empty entry list means the claim held on this
    instance under the chosen regime.

    The violators are enumerated, not the whole universe.  A graph that is
    not complete and has kappa < k is separated by some vertex set S with
    |S| < k (and |S| <= n - 2) into the component A holding the lowest
    vertex outside S and a non-empty rest B; so the sweep runs through
    every S and every split of V - S into such A and B, and takes every
    graph above the threshold with no A-B edge, plus K_n when n - 1 < k.
    Each one passes the min-degree filter and removal-set kappa before it
    becomes an entry.  A graph that several sets S separate is kept only
    for the first of them, the set removal-set kappa finds, so there is
    one task per removal set S and the tasks never overlap.

    ``graphs_checked`` (and ``universe.graph_count``) is the number of
    labeled graphs the claim covers, sum of C(C(n,2), m) over m from the
    threshold to C(n,2): the universe the entries are complete for, not
    the number of candidates the sweep visited.
    """
    if n > limit:
        raise TooLarge(f"n = {n} exceeds enumeration limit {limit}")
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    threshold = corollary_threshold(n, k)
    max_edges = comb(n, 2)
    found = _corollary_violators(n, k, threshold, enforce_min_degree, jobs)
    edge_lists = [[a, b] for a, b in combinations(range(n), 2)]

    def order(mask: int) -> tuple[int, int]:
        # Equal-length edge lists compare at their lowest differing pair,
        # and the list holding it sorts first.  Reversing the mask's bits
        # makes that pair the most significant bit.
        return mask.bit_count(), -int(f"{mask:0{max_edges}b}"[::-1], 2)

    entries = [
        {
            "theorem": "corollary",
            "k": k,
            "edge_count": mask.bit_count(),
            "edges": [edge_lists[i] for i in _bits(mask)],
            "degree_sequence": found[mask][1],
            "claimed": True,
            "observed": False,
            "connectivity": found[mask][0],
        }
        for mask in sorted(found, key=order)
    ]
    graphs_checked = sum(comb(max_edges, m) for m in range(threshold, max_edges + 1))
    universe = {
        "n": n,
        "k": k,
        "enforce_min_degree": enforce_min_degree,
        "threshold": threshold,
        "max_edges": max_edges,
        "graph_count": graphs_checked,
    }
    summary = {
        "graphs_checked": graphs_checked,
        "violations": len(entries),
    }
    return DiscrepancyReport(
        subject="corollary",
        universe=universe,
        entries=tuple(entries),
        summary=summary,
    )
