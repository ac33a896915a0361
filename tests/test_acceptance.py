"""Acceptance gate: one test per criterion, exact ranges, timed budgets.

The terminal summary hook in conftest.py turns these into one
PASS/FAIL line per criterion.

Criterion 2 checks G2 against the exact boundary.  For n >= k+4 the
witness sequence has a k-connected realization and G2 must be one.  At
n = k+3 it has none: the sequence is (k+2)^(k-1), k^4, the k-1 vertices
of degree n-1 see every other vertex, and once they are deleted the four
remaining vertices have one edge each, a perfect matching on four
vertices.  So every realization has a (k-1)-vertex cut, and there G2
must reach the best connectivity any realization has, which is k-1.
"""

import json
import random
import time
from itertools import combinations_with_replacement
from math import comb

import pytest

from kconnseq import (
    SimpleGraph,
    associated_pair,
    augment_chain,
    audit_corollary,
    audit_theorem1,
    audit_theorem2,
    build_G1,
    build_G2,
    corollary_threshold,
    degree_sequence,
    enumerate_realizations,
    erdos_gallai_graphic,
    internally_disjoint_path_count,
    is_k_connected,
    is_maximally_non_k_connected,
    normalize,
    oracle_verdict,
    vertex_connectivity,
    witness_sequence,
)
from kconnseq.cli import canonical_json

import bruteforce

pytestmark = pytest.mark.acceptance


def test_criterion_1_witness_arithmetic():
    """epsilon(witness_sequence(n,k)) = C(n-2,2) + 2k - 1 for k<=6, n<=20."""
    start = time.perf_counter()
    for k in range(1, 7):
        for n in range(k + 3, 21):
            pair = associated_pair(witness_sequence(n, k))
            assert pair.epsilon_integral, (n, k)
            assert pair.epsilon == comb(n - 2, 2) + 2 * k - 1, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_witness_connectivity():
    """For k <= 4, k+3 <= n <= 10: kappa(G1) = k-1 everywhere, G2
    realizes witness_sequence(n,k), and kappa(G2) = k for n >= k+4.  At
    n = k+3, kappa(G2) equals the largest kappa over all realizations,
    which is k-1: no k-connected realization exists there."""
    start = time.perf_counter()
    failures = []
    for k in range(1, 5):
        for n in range(k + 3, 11):
            c1 = vertex_connectivity(build_G1(n, k))
            if c1 != k - 1:
                failures.append(f"G1(n={n},k={k}): connectivity {c1} != {k - 1}")
            g2 = build_G2(n, k)
            s = witness_sequence(n, k)
            # sorted raw degrees, so an isolated vertex is reported, not raised
            degrees = tuple(sorted(map(g2.degree, range(g2.n)), reverse=True))
            if degrees != s.terms:
                failures.append(f"G2(n={n},k={k}): degrees {degrees} != {s.terms}")
            c2 = vertex_connectivity(g2)
            if n >= k + 4:
                if c2 != k:
                    failures.append(f"G2(n={n},k={k}): connectivity {c2} != {k}")
                continue
            best = max(vertex_connectivity(g) for g in enumerate_realizations(s))
            if c2 != best:
                failures.append(
                    f"G2(n={n},k={k}): connectivity {c2} != best realization {best}"
                )
            if best != k - 1 or oracle_verdict(s, k).exists_k_connected:
                failures.append(
                    f"witness(n={n},k={k}): best realization {best}, expected {k - 1}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    assert not failures, (
        f"{len(failures)} connectivity shortfalls in {elapsed:.2f}s: "
        + "; ".join(failures)
    )


def test_criterion_3_g1_maximality():
    """Adding any missing edge to G1 yields a k-connected graph.

    Checked edge by edge with flow connectivity, then through the
    structural test in is_maximally_non_k_connected."""
    start = time.perf_counter()
    for k in range(1, 5):
        for n in range(k + 3, 11):
            g1 = build_G1(n, k)
            edges = list(g1.edges())
            missing = [e for e in bruteforce.all_pairs(n) if not g1.has_edge(*e)]
            assert missing and not is_k_connected(g1, k), (n, k)
            for e in missing:
                assert is_k_connected(SimpleGraph(n, edges + [e]), k), (n, k, e)
            assert is_maximally_non_k_connected(g1, k), (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_4_chain_reproduction():
    """Full chains for (5,2), (6,2), (5,3), (7,3): verified k-connected
    at every step, regular first row, complete-graph last row."""
    start = time.perf_counter()
    for n, k in [(5, 2), (6, 2), (5, 3), (7, 3)]:
        steps = augment_chain(n, k, comb(n, 2))
        if (n * k) % 2 == 0:
            first, lo = (k,) * n, n * k // 2
        else:
            first, lo = (k + 1,) + (k,) * (n - 1), (n * k + 1) // 2
        assert steps[0].sequence.terms == first, (n, k)
        assert steps[-1].sequence.terms == (n - 1,) * n, (n, k)
        assert [s.epsilon for s in steps] == list(range(lo, comb(n, 2) + 1)), (n, k)
        for step in steps:
            assert step.graph.edge_count == step.epsilon
            assert is_k_connected(step.graph, k), (n, k, step.epsilon)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_5_graphicality_cross_validation():
    """Erdos-Gallai agrees with enumeration non-emptiness for every
    non-increasing positive sequence with phi <= 7 and terms <= 6."""
    start = time.perf_counter()
    checked = 0
    for phi in range(1, 8):
        for terms in combinations_with_replacement(range(6, 0, -1), phi):
            s = normalize(terms)
            fast = erdos_gallai_graphic(s)
            slow = any(True for _ in enumerate_realizations(s))
            assert fast == slow, terms
            checked += 1
    assert checked == sum(comb(5 + phi, phi) for phi in range(1, 8))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 5min"


def test_criterion_6_frozen_audits(golden_dir):
    """All committed audit reports reproduce byte-identically, with one
    worker and with two."""
    start = time.perf_counter()
    golden_names = sorted(p.name for p in golden_dir.glob("*.json"))
    expected = sorted(
        [f"theorem{t}_n{n}_kmax3.json" for t in (1, 2) for n in range(2, 8)]
        + [
            f"corollary_n{n}_k{k}_{regime}.json"
            for n in range(2, 7)
            for k in (1, 2)
            for regime in ("mindeg", "all")
        ]
        + ["corollary_n7_k2_mindeg.json"]
    )
    assert golden_names == expected

    def recompute(name: str, jobs) -> bytes:
        stem = name.removesuffix(".json")
        parts = stem.split("_")
        if parts[0] in ("theorem1", "theorem2"):
            n = int(parts[1][1:])
            kmax = int(parts[2][4:])
            fn = audit_theorem1 if parts[0] == "theorem1" else audit_theorem2
            report = fn(n, kmax, jobs=jobs)
        else:
            n, k = int(parts[1][1:]), int(parts[2][1:])
            report = audit_corollary(n, k, parts[3] == "mindeg", jobs=jobs)
        return canonical_json(report.to_json_dict()).encode()

    for name in golden_names:
        frozen = (golden_dir / name).read_bytes()
        assert recompute(name, None) == frozen, f"{name} drifted (sequential)"
        assert recompute(name, 2) == frozen, f"{name} drifted (2 workers)"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 10min"


def test_criterion_7_menger_consistency():
    """On 500 random graphs with n <= 6: pairwise path count equals the
    brute-force minimum separator, and connectivity <= minimum degree."""
    start = time.perf_counter()
    rng = random.Random(1729)
    for trial in range(500):
        n = rng.randint(2, 6)
        edges = bruteforce.random_edges(n, rng, p=rng.choice([0.2, 0.4, 0.6, 0.8]))
        g = SimpleGraph(n, edges)
        assert vertex_connectivity(g) <= min(g.degree(v) for v in range(n))
        for a in range(n):
            for b in range(a + 1, n):
                if g.has_edge(a, b):
                    continue
                paths = internally_disjoint_path_count(g, a, b)
                assert paths == bruteforce.min_separator(n, edges, a, b), (
                    trial, edges, a, b,
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 1min"


def test_criterion_8_corollary_identity(golden_dir):
    """Threshold closed form for n <= 50, k <= 10, plus the four frozen
    guarded-regime corollary audits."""
    start = time.perf_counter()
    for n in range(3, 51):
        for k in range(1, 11):
            assert corollary_threshold(n, k) == comb(n - 2, 2) + 2 * k
    for n, k in [(5, 1), (6, 1), (6, 2), (7, 2)]:
        report = audit_corollary(n, k, True)
        frozen = (golden_dir / f"corollary_n{n}_k{k}_mindeg.json").read_bytes()
        assert canonical_json(report.to_json_dict()).encode() == frozen, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 5min"
