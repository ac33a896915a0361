"""Constructions: regular bases, augmentation chains, witness pairs,
and the best-effort sequence realizer.

Connectivity facts asserted here are the enumeration-verified ones; the
two known boundary families where the idealized invariants break
(1-regular bases on n >= 4, witness pairs at n = k+3) are pinned to
their true values.
"""

import signal
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconnseq import (
    AugmentationStuck,
    KOutOfRange,
    NTooSmall,
    TargetOutOfRange,
    TooLarge,
    all_degree_sequences,
    augment_chain,
    base_k_regular,
    build_G1,
    build_G2,
    complete_graph,
    degree_sequence,
    enumerate_realizations,
    erdos_gallai_graphic,
    is_k_connected,
    is_maximally_non_k_connected,
    normalize,
    oracle_verdict,
    realize_k_connected,
    vertex_connectivity,
    witness_sequence,
)
from kconnseq.graph_core import SimpleGraph, is_connected
from kconnseq import realization
from kconnseq.realization import _havel_hakimi

import bruteforce


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError instead of hanging (POSIX alarm)."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBaseKRegular:
    def test_small_instances(self):
        g = base_k_regular(5, 3)
        assert g.edge_count == 8
        assert degree_sequence(g).terms == (4, 3, 3, 3, 3)
        assert vertex_connectivity(g) == 3
        assert base_k_regular(4, 3) == complete_graph(4)

    def test_rejects_bad_k(self):
        with pytest.raises(KOutOfRange):
            base_k_regular(5, 0)
        with pytest.raises(KOutOfRange):
            base_k_regular(5, 5)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(2, 13) for k in range(1, n)]
    )
    def test_degree_sequence_shape(self, n, k):
        g = base_k_regular(n, k)
        if (n * k) % 2 == 0:
            assert degree_sequence(g).terms == (k,) * n
            assert g.edge_count == n * k // 2
        else:
            assert degree_sequence(g).terms == (k + 1,) + (k,) * (n - 1)
            assert g.edge_count == (n * k + 1) // 2

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(3, 13) for k in range(2, n)]
    )
    def test_connectivity_equals_k(self, n, k):
        assert vertex_connectivity(base_k_regular(n, k)) == k

    def test_one_regular_graphs(self):
        # matchings: connected only when n = 2 (and n = 3 via the extra
        # half-diameter edge); beyond that a 1-regular graph cannot be
        # connected, so the kappa = k identity necessarily stops there
        assert vertex_connectivity(base_k_regular(2, 1)) == 1
        assert vertex_connectivity(base_k_regular(3, 1)) == 1
        for n in range(4, 41):
            g = base_k_regular(n, 1)
            assert vertex_connectivity(g) == 0

    @pytest.mark.parametrize("n", range(2, 41))
    def test_chain_is_stuck_iff_the_base_is_not_k_connected(self, n):
        # augment_chain decides from the closed form below, with no flow
        for k in range(1, n):
            base = base_k_regular(n, k)
            assert vertex_connectivity(base) == (k if k >= 2 or n <= 3 else 0)
            try:
                augment_chain(n, k, base.edge_count)
                stuck = False
            except AugmentationStuck:
                stuck = True
            assert stuck == (not is_k_connected(base, k)), (n, k)


class TestAugmentChain:
    def test_five_vertices_k2_full_chain(self):
        steps = augment_chain(5, 2, 10)
        assert len(steps) == 6
        assert steps[0].sequence.terms == (2, 2, 2, 2, 2)
        assert steps[-1].sequence.terms == (4, 4, 4, 4, 4)
        assert [st.epsilon for st in steps] == list(range(5, 11))

    def test_odd_odd_chain_rows(self):
        steps = augment_chain(5, 3, 9)
        assert [st.sequence.terms for st in steps] == [
            (4, 3, 3, 3, 3),
            (4, 4, 4, 3, 3),
        ]

    def test_every_step_is_verified(self):
        # removal-set kappa, independent of the flow check on the base
        for n in range(4, 10):
            for k in range(2, n):
                for step in augment_chain(n, k, n * (n - 1) // 2):
                    edges = list(step.graph.edges())
                    assert bruteforce.vertex_connectivity(n, edges) >= k
                    assert step.epsilon == step.graph.edge_count
                    assert step.sequence == degree_sequence(step.graph)

    def test_chain_computes_no_connectivity(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("augment_chain computed connectivity")

        monkeypatch.setattr(realization, "is_k_connected", forbidden)
        monkeypatch.setattr(realization, "vertex_connectivity", forbidden)
        assert len(augment_chain(7, 3, 15)) == 5
        with pytest.raises(AugmentationStuck) as stuck:
            augment_chain(6, 1, 10)
        assert str(stuck.value) == (
            "chain graph with 3 edges failed the 1-connectivity verification"
        )

    def test_chain_terms_cap(self, monkeypatch):
        # rows * n: augment_chain(5, 2, 7) has 3 rows of 5 terms
        monkeypatch.setattr(realization, "MAX_CHAIN_TERMS", 15)
        assert len(augment_chain(5, 2, 7)) == 3
        with pytest.raises(TooLarge, match="4 rows of 5 terms"):
            augment_chain(5, 2, 8)
        # the range and stuck checks come first
        with pytest.raises(TargetOutOfRange):
            augment_chain(5, 2, 11)
        with pytest.raises(AugmentationStuck):
            augment_chain(6, 1, 10)

    def test_consecutive_steps_increment_two_terms(self):
        steps = augment_chain(7, 3, 15)
        for prev, cur in zip(steps, steps[1:]):
            assert cur.epsilon == prev.epsilon + 1
            diff = sum(cur.sequence.terms) - sum(prev.sequence.terms)
            assert diff == 2

    def test_matches_the_sort_key_rule(self):
        """Every chain adds the pairs the one-key-per-missing-pair rule
        picks, at every feasible target."""
        for n in range(3, 15):
            for k in range(2, n):
                base = base_k_regular(n, k)
                lo, hi = base.edge_count, n * (n - 1) // 2
                pairs = bruteforce.min_degree_chain(n, list(base.edges()), hi - lo)
                graphs = [base]
                for a, b in pairs:
                    graphs.append(SimpleGraph(n, [*graphs[-1].edges(), (a, b)]))
                for target in range(lo, hi + 1):
                    steps = augment_chain(n, k, target)
                    assert [step.graph for step in steps] == graphs[: target - lo + 1]

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            augment_chain(5, 2, 4)
        with pytest.raises(TargetOutOfRange):
            augment_chain(5, 2, 11)

    def test_one_regular_base_cannot_start_a_chain(self):
        # base_k_regular(6,1) is a perfect matching, never 1-connected
        with pytest.raises(AugmentationStuck):
            augment_chain(6, 1, 10)


class TestRecords:
    def test_chain_step_fields_are_read_only(self):
        step = augment_chain(5, 2, 6)[-1]
        with pytest.raises(AttributeError):
            step.epsilon = 0
        assert step.epsilon == 6

    def test_result_fields_are_read_only(self):
        result = realize_k_connected(normalize([2, 2, 2]), 2)
        with pytest.raises(AttributeError):
            result.method = "heuristic"
        assert result.found and result.method == "exact"


class TestWitnessSequence:
    def test_known_values(self):
        assert witness_sequence(7, 2).terms == (6, 4, 4, 4, 4, 2, 2)
        assert witness_sequence(6, 1).terms == (3, 3, 3, 3, 1, 1)

    def test_preconditions(self):
        with pytest.raises(KOutOfRange):
            witness_sequence(6, 0)
        with pytest.raises(NTooSmall):
            witness_sequence(5, 3)

    @given(st.integers(1, 6), st.integers(0, 10))
    def test_multiplicity_formula(self, k, slack):
        n = k + 3 + slack
        s = witness_sequence(n, k)
        assert len(s) == n
        assert s.terms == (n - 1,) * (k - 1) + (n - 3,) * (n - k - 1) + (k, k)


class TestWitnessGraphs:
    def test_g1_known_instances(self):
        g = build_G1(7, 2)
        assert g.edge_count == 13
        assert vertex_connectivity(g) == 1
        assert degree_sequence(g) == witness_sequence(7, 2)

        g = build_G1(6, 1)  # two disjoint cliques
        assert g.edge_count == 7
        assert vertex_connectivity(g) == 0

        g = build_G1(8, 3)  # C(6,2) + 2*3 - 1 edges
        assert g.edge_count == 20
        assert vertex_connectivity(g) == 2

    def test_g2_known_instances(self):
        assert vertex_connectivity(build_G2(7, 2)) == 2
        assert vertex_connectivity(build_G2(6, 1)) == 1

    @pytest.mark.parametrize("k", range(1, 6))
    def test_pair_shares_the_witness_sequence(self, k):
        for n in range(k + 3, min(k + 6, 10) + 1):
            s = witness_sequence(n, k)
            assert degree_sequence(build_G1(n, k)) == s
            assert degree_sequence(build_G2(n, k)) == s

    @pytest.mark.parametrize("k", range(1, 6))
    def test_g1_connectivity_is_k_minus_1(self, k):
        for n in range(k + 3, min(k + 6, 10) + 1):
            assert vertex_connectivity(build_G1(n, k)) == k - 1

    @pytest.mark.parametrize("k", range(1, 6))
    def test_g2_connectivity(self, k):
        # at n = k+3 the sequence has no k-connected realization at all
        # (all three labeled realizations are (k-1)-connected), so the
        # edge swap cannot help; from n = k+4 on it always reaches k
        assert vertex_connectivity(build_G2(k + 3, k)) == k - 1
        for n in range(k + 4, min(k + 6, 10) + 1):
            assert vertex_connectivity(build_G2(n, k)) >= k

    def test_no_k_connected_realization_exists_at_the_boundary(self):
        for k in (1, 2, 3):
            s = witness_sequence(k + 3, k)
            graphs = list(enumerate_realizations(s))
            assert len(graphs) == 3
            assert all(not is_k_connected(g, k) for g in graphs)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_g1_is_maximally_non_k_connected(self, k):
        for n in range(k + 3, min(k + 6, 9) + 1):
            g1 = build_G1(n, k)
            assert is_maximally_non_k_connected(g1, k)

    def test_g2_is_not_maximal_when_k_connected(self):
        assert not is_maximally_non_k_connected(build_G2(7, 2), 2)

    def test_maximality_definition(self):
        # a 4-cycle is not 3-connected but adding one chord does not make
        # it 3-connected either
        cycle = build_G1(5, 2)
        assert is_maximally_non_k_connected(cycle, 2)
        from kconnseq import SimpleGraph

        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_maximally_non_k_connected(c4, 3)


class TestMaximalityByStructure:
    """The structural test against the per-edge definition in bruteforce."""

    @pytest.mark.parametrize("n", range(0, 6))
    def test_every_small_graph(self, n):
        pairs = bruteforce.all_pairs(n)
        maximal = 0
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            g = SimpleGraph(n, edges)
            for k in range(1, n + 2):
                want = bruteforce.is_maximally_non_k_connected(n, edges, k)
                assert is_maximally_non_k_connected(g, k) == want, (edges, k)
                maximal += want
        assert maximal

    @pytest.mark.parametrize("k", range(1, 5))
    def test_witness_pairs(self, k):
        for n in range(k + 3, 13):
            for g in (build_G1(n, k), build_G2(n, k)):
                want = bruteforce.is_maximally_non_k_connected(n, g.edges(), k)
                assert is_maximally_non_k_connected(g, k) == want, (n, k)


class TestRealizeKConnected:
    def test_exact_positive(self):
        result = realize_k_connected(normalize([2, 2, 2, 2, 2]), 2)
        assert result.found and result.method == "exact"
        assert is_k_connected(result.graph, 2)
        assert degree_sequence(result.graph).terms == (2, 2, 2, 2, 2)

    def test_exact_negative_not_graphic(self):
        result = realize_k_connected(normalize([3, 3, 1, 1]), 1)
        assert not result.found and result.method == "exact"

    def test_exact_negative_graphic_but_disconnected(self):
        result = realize_k_connected(normalize([1, 1, 1, 1]), 1)
        assert not result.found and result.method == "exact"

    def test_witness_sequence_is_realizable(self):
        result = realize_k_connected(witness_sequence(7, 2), 2)
        assert result.found and result.method == "exact"
        assert is_k_connected(result.graph, 2)

    def test_large_negative_by_min_degree(self):
        s = normalize([3] * 11 + [1])
        result = realize_k_connected(s, 2)
        assert not result.found and result.method == "exact"

    def test_heuristic_positive_regular(self):
        s = normalize([3] * 12)
        result = realize_k_connected(s, 3)
        assert result.found and result.method == "heuristic"
        assert degree_sequence(result.graph) == s
        assert is_k_connected(result.graph, 3)

    def test_heuristic_positive_irregular(self):
        s = normalize([5] * 9 + [3])
        result = realize_k_connected(s, 3)
        assert result.found and result.method == "heuristic"
        assert degree_sequence(result.graph) == s
        assert is_k_connected(result.graph, 3)

    def test_k_must_be_positive(self):
        with pytest.raises(KOutOfRange):
            realize_k_connected(normalize([2, 2, 2]), 0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exact_branch_returns_first_labeled_realization(self, n):
        # The twin cut keeps the labeled order, and the first k-connected
        # labeled graph is always a representative.
        for s in all_degree_sequences(n):
            for k in (1, 2, 3):
                first = next(
                    (g for g in enumerate_realizations(s) if is_k_connected(g, k)),
                    None,
                )
                assert realize_k_connected(s, k).graph == first, (s, k)

    def test_exact_negative_on_eight_vertices(self):
        # 4^8 has thousands of labeled 4-regular realizations, none
        # 5-connected (kappa <= min degree).
        with time_limit(10):
            result = realize_k_connected(normalize([4] * 8), 5)
        assert (result.graph, result.method) == (None, "exact")

    def test_swap_search_realizes_every_small_k_connected_pair(self):
        # Past the oracle, every (s, k) with phi <= 7 that enumeration
        # realizes k-connected.  The Havel-Hakimi start is already
        # k-connected for all but a few, such as 4,4,3,3,3,3 with k = 3,
        # and those run the random 2-swaps.
        pairs = []
        for n in range(2, 8):
            for s in all_degree_sequences(n):
                for k in range(1, n):
                    if not oracle_verdict(s, k).exists_k_connected:
                        break
                    pairs.append((s, k))
        assert len(pairs) == 599
        short = [
            (s, k)
            for s, k in pairs
            if vertex_connectivity(_havel_hakimi(s), upper_bound=k) < k
        ]
        assert (normalize([4, 4, 3, 3, 3, 3]), 3) in short
        assert len(short) == 5
        for s, k in pairs:
            result = realize_k_connected(s, k, oracle_limit=0)
            assert result.found, (s, k)
            assert degree_sequence(result.graph) == s
            assert vertex_connectivity(result.graph) >= k, (s, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_negative_when_k_reaches_phi(self, n):
        # No test of phi > k is needed past the oracle: a graphic s has
        # s[-1] <= s[0] <= phi - 1, so s[-1] >= k >= phi fails the graphic
        # or the minimum-term negative.  Terms run up to phi + 1 so that
        # sequences with s[-1] >= k occur.
        for terms in combinations_with_replacement(range(n + 1, 0, -1), n):
            for k in (n, n + 1):
                result = realize_k_connected(normalize(terms), k, oracle_limit=0)
                assert result == (None, "exact"), (terms, k)

    def test_exact_negative_too_few_edges_for_a_tree(self):
        # Above the oracle limit, with fewer than phi - 1 edges: no
        # connected realization, settled without any search.
        for raw in ([1] * 10, [2] * 9 + [1] * 4):
            with time_limit(10):
                result = realize_k_connected(normalize(raw), 1)
            assert not result.found and result.method == "exact"

    def test_tree_sequence_is_realized(self):
        # Exactly phi - 1 edges, the fewest a connected graph can have:
        # the greedy start is already a tree.
        s = normalize([3] * 6 + [2] * 4 + [1] * 8)
        with time_limit(10):
            result = realize_k_connected(s, 1)
        assert result.found
        assert degree_sequence(result.graph) == s
        assert is_connected(result.graph)


@st.composite
def connected_graphs(draw, max_n):
    """A random tree on 2..max_n vertices plus up to n extra edges: its
    degree sequence is graphic and sums to at least 2(phi - 1)."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    ends = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(ends, ends), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return SimpleGraph(n, edges)


class TestConnectedByConstruction:
    """The greedy start lays off the smallest degree first, which makes
    it connected whenever any realization is."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_connected_iff_some_realization_is(self, n):
        for s in all_degree_sequences(n):
            if not erdos_gallai_graphic(s):
                continue
            g = _havel_hakimi(s)
            assert degree_sequence(g) == s
            assert is_connected(g) == oracle_verdict(s, 1).exists_k_connected, s

    @given(connected_graphs(max_n=200))
    @settings(max_examples=60, deadline=None)
    def test_connected_when_a_connected_realization_exists(self, g):
        s = degree_sequence(g)
        h = _havel_hakimi(s)
        assert degree_sequence(h) == s
        assert bruteforce.is_connected(h.n, list(h.edges()))
