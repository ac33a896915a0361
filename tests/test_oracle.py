"""Exhaustive enumeration and the audit reports built on top of it.

enumerate_realizations is the package's source of combinatorial truth,
so it gets the most paranoid treatment: exact counts against a dumb
edge-subset scan, and a connectivity route (removal subsets) compared
with the flow route from graph_core.
"""

import json
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kconnseq import (
    DEFAULT_ENUMERATION_LIMIT,
    DiscrepancyReport,
    SimpleGraph,
    TooLarge,
    all_degree_sequences,
    audit_corollary,
    audit_theorem1,
    audit_theorem2,
    build_G1,
    corollary_threshold,
    degree_sequence,
    enumerate_realizations,
    erdos_gallai_graphic,
    normalize,
    oracle_graphic,
    oracle_max_edges_non_k_connected,
    oracle_verdict,
    vertex_connectivity,
    witness_sequence,
)

import bruteforce


class TestEnumeration:
    def test_known_counts(self):
        assert len(list(enumerate_realizations(normalize([2, 2, 2, 2, 2])))) == 12
        assert len(list(enumerate_realizations(normalize([3, 3, 1, 1])))) == 0
        assert len(list(enumerate_realizations(normalize([3, 3, 3, 3])))) == 1
        assert len(list(enumerate_realizations(normalize([1, 1])))) == 1

    def test_each_graph_realizes_the_sequence(self):
        s = normalize([3, 2, 2, 2, 1])
        graphs = list(enumerate_realizations(s))
        assert graphs
        for g in graphs:
            assert [g.degree(v) for v in range(g.n)] == list(s.terms)
        # no duplicates
        assert len(set(graphs)) == len(graphs)

    def test_limit_enforced(self):
        with pytest.raises(TooLarge):
            list(enumerate_realizations(normalize([1] * 9)))
        # an explicit limit overrides the default
        assert list(enumerate_realizations(normalize([1] * 10), limit=10))

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_edge_subset_scan(self, raw):
        raw.sort(reverse=True)
        count = sum(1 for _ in enumerate_realizations(normalize(raw)))
        assert count == bruteforce.count_realizations(tuple(raw))

    def test_count_matches_on_six_vertices(self):
        for terms in [(2, 2, 2, 2, 2, 2), (3, 3, 2, 2, 1, 1), (5, 3, 2, 2, 2, 2)]:
            count = sum(1 for _ in enumerate_realizations(normalize(terms)))
            assert count == bruteforce.count_realizations(terms)


class TestOracleGraphic:
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_erdos_gallai(self, raw):
        s = normalize(raw)
        assert oracle_graphic(s) == erdos_gallai_graphic(s)


class TestOracleVerdict:
    def test_five_cycle_is_necessarily_2_connected(self):
        v = oracle_verdict(normalize([2, 2, 2, 2, 2]), 2)
        assert v.graphic and v.exists_k_connected and v.all_k_connected
        assert v.realization_count == 12

    def test_unrealizable_sequence(self):
        v = oracle_verdict(normalize([3, 3, 1, 1]), 1)
        assert not v.graphic
        assert not v.exists_k_connected
        assert v.all_k_connected is None
        assert v.realization_count == 0

    def test_matching_has_no_connected_realization(self):
        v = oracle_verdict(normalize([1, 1, 1, 1]), 1)
        assert v.graphic and not v.exists_k_connected
        assert v.all_k_connected is False

    def test_json_shape(self, load_schema):
        import jsonschema

        v = oracle_verdict(normalize([2, 2, 2, 2, 2]), 2)
        jsonschema.validate(v.to_json_dict(), load_schema("sequence_verdict"))


class TestRecords:
    def test_verdict_fields_are_read_only(self):
        v = oracle_verdict(normalize([2, 2, 2, 2, 2]), 2)
        with pytest.raises(AttributeError):
            v.realization_count = 0
        assert v.realization_count == 12

    def test_report_fields_are_read_only(self):
        report = audit_theorem1(4, 2)
        with pytest.raises(AttributeError):
            report.entries = ()
        assert report.has_discrepancies

    def test_boundary_defaults_to_none(self):
        report = DiscrepancyReport(
            subject="theorem1", universe={}, entries=(), summary={}
        )
        assert report.boundary is None
        assert "boundary" not in report.to_json_dict()


def labeled_profile(s, cap):
    """(count, min kappa-hat, max kappa-hat) over the labeled stream."""
    from kconnseq.oracle import _kappa_capped

    kappas = [_kappa_capped(g._adj, len(s), cap) for g in enumerate_realizations(s)]
    if not kappas:
        return 0, 0, 0
    return len(kappas), min(kappas), max(kappas)


class TestTwinOrbits:
    """The twin cut weighs representatives instead of listing every
    labeled graph; the labeled stream is the reference."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_weighted_profile_matches_labeled_stream(self, n):
        from kconnseq.oracle import _profile_worker

        for s in all_degree_sequences(n):
            assert _profile_worker((s.terms, n)) == labeled_profile(s, n), s

    def test_twin_cut_prunes(self):
        from kconnseq.oracle import _enumerate_masks

        reps = list(_enumerate_masks((2,) * 6, twins=True))
        assert sum(w for _, w in reps) == 70
        assert len(reps) < 70

    @given(st.integers(0, 2**28 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_labeled_stream(self, edge_mask, k):
        # The degrees of a graph's non-isolated vertices (bit i of the mask
        # is the i-th pair of 0..7): graphic, and with phi terms in
        # 1..phi-1, some term repeats.
        degrees = [0] * 8
        for i, (a, b) in enumerate(combinations(range(8), 2)):
            if edge_mask >> i & 1:
                degrees[a] += 1
                degrees[b] += 1
        assume(any(degrees))
        s = normalize([d for d in degrees if d])
        assert len(set(s.terms)) < len(s)
        count, lo, hi = labeled_profile(s, k)
        v = oracle_verdict(s, k)
        assert v.realization_count == count
        assert v.exists_k_connected == (hi >= k)
        assert v.all_k_connected == (lo >= k)


class TestKappaRoutesAgree:
    """Removal-subset connectivity (oracle) vs max-flow (graph_core)."""

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_capped_connectivity_matches_flow(self, n, seed):
        import random

        from kconnseq.oracle import _kappa_capped

        rng = random.Random(seed)
        edges = bruteforce.random_edges(n, rng)
        g = SimpleGraph(n, edges)
        adj = list(g._adj)
        kappa = vertex_connectivity(g)
        for cap in range(0, n + 1):
            assert _kappa_capped(adj, n, cap) == min(kappa, cap)


class TestAuditTheorem1:
    def test_discrepancies_at_n4(self):
        report = audit_theorem1(4, 2)
        found = {(tuple(e["sequence"]), e["k"]) for e in report.entries}
        assert found == {((1, 1, 1, 1), 1), ((3, 3, 1, 1), 1), ((3, 3, 3, 1), 1)}
        assert all(e["claimed"] and not e["observed"] for e in report.entries)
        assert report.has_discrepancies

    def test_entries_sorted_and_deterministic(self):
        a = audit_theorem1(5, 3)
        b = audit_theorem1(5, 3, jobs=2)
        assert a.to_json_dict() == b.to_json_dict()
        keys = [(e["sequence"], e["k"]) for e in a.entries]
        assert keys == sorted(keys)

    def test_rejects_oversized_n(self):
        with pytest.raises(TooLarge):
            audit_theorem1(DEFAULT_ENUMERATION_LIMIT + 1, 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            all_degree_sequences(n)
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            audit_theorem1(n, 1)

    def test_one_vertex_universe_is_empty(self):
        assert list(all_degree_sequences(1)) == []
        assert audit_theorem1(1, 1).summary == {"comparisons": 0, "discrepancies": 0}

    def test_n8_audit_is_quick(self):
        # 585,786 labeled realizations over 3,003 sequences, weighed by
        # twin orbits; the labeled engine took about 20 s here.
        start = time.perf_counter()
        report = audit_theorem1(8, 3)
        assert time.perf_counter() - start < 10.0
        assert report.summary == {"comparisons": 9009, "discrepancies": 880}


class TestAuditTheorem2:
    def test_five_cycle_discrepancy_present(self):
        report = audit_theorem2(5, 2)
        found = {(tuple(e["sequence"]), e["k"]) for e in report.entries}
        assert ((2, 2, 2, 2, 2), 2) in found
        # every discrepancy here is a sequence below the bound that is
        # nevertheless necessarily k-connected
        assert all(not e["claimed"] and e["observed"] for e in report.entries)

    def test_boundary_annex_contains_witness_sequences(self):
        report = audit_theorem2(7, 2, jobs=2)
        witness = list(witness_sequence(7, 2).terms)
        hits = [b for b in report.boundary if b["sequence"] == witness and b["k"] == 2]
        assert len(hits) == 1
        # the witness pair proves the bound tight: realizable both ways
        assert hits[0]["claimed"] is False
        assert hits[0]["observed"] is False
        assert hits[0]["epsilon_bound"] == 13

    def test_boundary_restricted_to_realizable(self):
        report = audit_theorem2(5, 2)
        for b in report.boundary:
            assert oracle_verdict(normalize(b["sequence"]), b["k"]).graphic


class TestAuditCorollary:
    def test_min_degree_regime_holds_at_n6(self):
        report = audit_corollary(6, 2, True)
        assert not report.has_discrepancies
        assert report.summary["violations"] == 0

    def test_unrestricted_regime_fails_at_n6(self):
        report = audit_corollary(6, 1, False)
        assert report.summary["violations"] == 336
        first = report.entries[0]
        assert first["edge_count"] == corollary_threshold(6, 1)
        assert first["connectivity"] == 0
        assert first["observed"] is False and first["claimed"] is True

    def test_entries_sorted_by_size_then_edges(self):
        report = audit_corollary(6, 1, False)
        keys = [(e["edge_count"], e["edges"]) for e in report.entries]
        assert keys == sorted(keys)

    def test_parallel_matches_sequential(self):
        a = audit_corollary(5, 2, False)
        b = audit_corollary(5, 2, False, jobs=2)
        assert a.to_json_dict() == b.to_json_dict()

    def test_report_json_validates(self, load_schema):
        import jsonschema

        schema = load_schema("discrepancy_report")
        jsonschema.validate(audit_corollary(5, 1, False).to_json_dict(), schema)
        jsonschema.validate(audit_theorem1(4, 2).to_json_dict(), schema)
        jsonschema.validate(audit_theorem2(5, 2).to_json_dict(), schema)

    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in range(2, 7) for k in range(1, n + 2)] + [(7, 3)],
    )
    def test_matches_exhaustive_reference(self, n, k):
        # Same entries, kappa values and degree lists as scanning every
        # labeled graph above the threshold.  One scan serves both
        # regimes: the min-degree violators are those with degrees >= k.
        scan = [
            (list(map(list, edges)), kap, degs)
            for edges, kap, degs in bruteforce.corollary_violations(n, k, False)
        ]
        for enforce in (False, True):
            want = [v for v in scan if not enforce or v[2][-1] >= k]
            report = audit_corollary(n, k, enforce)
            got = [
                (e["edges"], e["connectivity"], e["degree_sequence"])
                for e in report.entries
            ]
            assert got == want, enforce
            assert report.summary["violations"] == len(want)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_min_degree_sweep_below_the_threshold(self, n):
        # Above the threshold the min-degree regime has no violators, so
        # its family pruning only shows from a lower starting count.
        from kconnseq.graph_core import _bits
        from kconnseq.oracle import _corollary_violators

        pairs = bruteforce.all_pairs(n)
        seen = 0
        for k in range(1, n + 1):
            lo = corollary_threshold(n, k) - 3
            found = _corollary_violators(n, k, lo, True, None)
            got = sorted(
                ([list(pairs[i]) for i in _bits(mask)], kap, degs)
                for mask, (kap, degs) in found.items()
            )
            want = bruteforce.corollary_violations(n, k, True, lo)
            assert got == sorted((list(map(list, e)), kap, d) for e, kap, d in want), k
            seen += len(want)
        assert n < 4 or seen

    @pytest.mark.parametrize("n", range(2, 8))
    def test_shards_never_repeat_a_mask_at_the_threshold(self, n):
        # From the threshold up, two A-B splits of one removal set never
        # leave room for the same graph, so no worker has to dedupe.
        from kconnseq.oracle import _separated_graphs, _separators

        for k in range(1, 5):
            lo = corollary_threshold(n, k)
            for min_degree in (0, k):
                for removed in _separators(n, k):
                    masks = [
                        mask
                        for m in range(lo, comb(n, 2) + 1)
                        for mask, _ in _separated_graphs(n, removed, m, min_degree)
                    ]
                    assert len(masks) == len(set(masks)), (n, k, removed)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graph_below_k(self, n):
        # No vertex set separates K_n; the sweep adds it when n - 1 < k.
        # (The audit's threshold lies above C(n,2) for those k.)
        from kconnseq.oracle import _corollary_violators

        full = (1 << comb(n, 2)) - 1
        found = _corollary_violators(n, n, comb(n, 2), False, None)
        assert found == {full: (n - 1, [n - 1] * n)}
        assert _corollary_violators(n, n - 1, comb(n, 2), False, None) == {}

    def test_parallel_shards_merge_like_serial(self):
        # At k = 3 one graph can lie in the shards of several removal sets.
        report = audit_corollary(7, 3, False, jobs=2)
        assert report.to_json_dict() == audit_corollary(7, 3, False).to_json_dict()
        assert report.summary["violations"] == 1722

    def test_large_audit_is_quick(self):
        # n = 8 covers 11,698,223 labeled graphs; only separated ones are built.
        start = time.perf_counter()
        report = audit_corollary(8, 2, True)
        assert time.perf_counter() - start < 10.0
        assert report.summary == {"graphs_checked": 11_698_223, "violations": 0}

    def test_every_golden_validates(self, golden_dir, load_schema):
        import jsonschema

        schema = load_schema("discrepancy_report")
        goldens = sorted(golden_dir.glob("*.json"))
        assert len(goldens) == 33
        for path in goldens:
            jsonschema.validate(json.loads(path.read_text()), schema)


class TestMaxEdges:
    def test_small_values(self):
        assert oracle_max_edges_non_k_connected(4, 1, True) == 2
        assert oracle_max_edges_non_k_connected(5, 1, True) == 4
        assert oracle_max_edges_non_k_connected(5, 2, True) == 6

    def test_extremal_graph_attains_the_maximum(self):
        # G1 is the maximizer: threshold - 1 edges in the guarded regime
        assert oracle_max_edges_non_k_connected(5, 2, True) == build_G1(5, 2).edge_count
        assert oracle_max_edges_non_k_connected(6, 2, True) == build_G1(6, 2).edge_count

    def test_threshold_relation(self):
        # one edge below the corollary threshold, in the guarded regime
        for n, k in [(5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (7, 2), (7, 3), (7, 4)]:
            assert (
                oracle_max_edges_non_k_connected(n, k, True)
                == corollary_threshold(n, k) - 1
            )

    def test_unrestricted_maximum_is_larger(self):
        # clique plus an isolated-ish pendant beats the guarded maximum
        assert oracle_max_edges_non_k_connected(6, 2, False) == 11

    def test_none_when_nothing_qualifies(self):
        assert oracle_max_edges_non_k_connected(3, 2, True) is None

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("enforce", [True, False], ids=["mindeg", "all"])
    def test_matches_exhaustive_scan(self, n, enforce):
        for k in range(1, n + 2):
            assert oracle_max_edges_non_k_connected(
                n, k, enforce
            ) == bruteforce.max_edges_non_k_connected(n, k, enforce), k


class TestSeparatedGraphs:
    """The families behind the corollary audit and the max-edge scan."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_families_are_exactly_the_non_k_connected_graphs(self, n):
        from kconnseq.oracle import _separated_graphs, _separators

        pairs = bruteforce.all_pairs(n)
        for k in range(1, n + 1):
            generated = set()
            for m in range(len(pairs) + 1):
                for removed in _separators(n, k):
                    for mask, adj in _separated_graphs(n, removed, m, 0):
                        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                        assert len(edges) == m
                        rows = [0] * n
                        for a, b in edges:
                            rows[a] |= 1 << b
                            rows[b] |= 1 << a
                        assert adj == rows
                        generated.add(frozenset(edges))
            expected = {
                frozenset(edges)
                for m in range(len(pairs))  # K_n is handled on its own
                for edges in combinations(pairs, m)
                if bruteforce.vertex_connectivity(n, edges) < k
            }
            assert generated == expected, k

