"""Graph container, constructors, and the two connectivity routes.

The flow-based vertex_connectivity here is cross-examined against the
brute-force removal search in bruteforce.py on every random graph.
"""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconnseq import (
    MAX_VERTICES,
    DuplicateEdge,
    KOutOfRange,
    NonPositiveTerm,
    SameVertex,
    SelfLoop,
    SimpleGraph,
    TooLarge,
    VertexOutOfRange,
    augment_chain,
    complete_graph,
    degree_sequence,
    internally_disjoint_path_count,
    is_connected,
    is_k_connected,
    normalize,
    realize_k_connected,
    vertex_connectivity,
)
from kconnseq.graph_core import _component, _split_digraph, _vertex_capacity_max_flow

import bruteforce


def graph_strategy(max_n=7):
    """Random labeled graphs as (n, edge subset) draws."""

    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, max_n))
        pairs = bruteforce.all_pairs(n)
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return SimpleGraph(n, [e for e, keep in zip(pairs, picks) if keep])

    return graphs()


@st.composite
def mid_size_graphs(draw):
    """Random graphs on 8..14 vertices at a drawn edge density."""
    n = draw(st.integers(8, 14))
    p = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return SimpleGraph(n, bruteforce.random_edges(n, rng, p))


@st.composite
def flow_cases(draw):
    """(graph, a, b, cap) on 2..30 vertices, with ab an edge or not, and
    sometimes with every common neighbour of a and b cut away from b, so
    that the paths a-x-y-b carry the flow."""
    n = draw(st.integers(2, 30))
    p = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    ab = (min(a, b), max(a, b))
    edges = [e for e in bruteforce.random_edges(n, rng, p) if e != ab]
    if draw(st.booleans()):
        near_a = {v for e in edges if a in e for v in e}
        edges = [e for e in edges if b not in e or not near_a & set(e)]
    if draw(st.booleans()):
        edges.append(ab)
    cap = draw(st.one_of(st.none(), st.integers(0, n)))
    return SimpleGraph(n, edges), a, b, cap


class TestSimpleGraph:
    def test_rejects_loops_duplicates_and_bad_labels(self):
        with pytest.raises(SelfLoop):
            SimpleGraph(3, [(1, 1)])
        with pytest.raises(DuplicateEdge):
            SimpleGraph(3, [(0, 1), (1, 0)])
        with pytest.raises(VertexOutOfRange):
            SimpleGraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            SimpleGraph(-1, [])

    def test_vertex_count_cap(self):
        assert SimpleGraph(MAX_VERTICES).n == MAX_VERTICES
        with pytest.raises(TooLarge):
            SimpleGraph(MAX_VERTICES + 1)

    def test_is_immutable(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(AttributeError):
            del g.n
        assert g.n == 3 and g.edge_count == 3

    def test_pickle_round_trip(self):
        g = SimpleGraph(5, [(0, 1), (1, 4), (2, 3)])
        step = augment_chain(5, 2, 6)[-1]
        result = realize_k_connected(normalize([2, 2, 2, 2]), 2)
        assert result.found
        for value in (g, SimpleGraph(0), step, result):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)

    def test_accessors(self):
        g = SimpleGraph(4, [(0, 1), (2, 1)])
        assert g.has_edge(1, 0) and g.has_edge(1, 2)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.edge_count == 2
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_equality_and_hash(self):
        a = SimpleGraph(3, [(0, 1), (1, 2)])
        b = SimpleGraph(3, [(2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != SimpleGraph(3, [(0, 1)])
        assert a != SimpleGraph(4, [(0, 1), (1, 2)])


class TestCombinators:
    def test_complete_and_empty(self):
        assert complete_graph(4).edge_count == 6
        assert complete_graph(1).edge_count == 0
        assert SimpleGraph(5).edge_count == 0


class TestDegreeSequence:
    def test_matches_definition(self):
        g = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert degree_sequence(g).terms == (3, 2, 2, 1)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(NonPositiveTerm):
            degree_sequence(SimpleGraph(3, [(0, 1)]))


class TestConnectivityKnownValues:
    def test_complete_graphs(self):
        for n in range(2, 7):
            assert vertex_connectivity(complete_graph(n)) == n - 1

    def test_single_vertex_and_disconnected(self):
        assert vertex_connectivity(SimpleGraph(1, [])) == 0
        assert vertex_connectivity(SimpleGraph(4, [(0, 1), (2, 3)])) == 0

    def test_cycle_path_star(self):
        cycle = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        path = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        star = SimpleGraph(5, [(0, v) for v in range(1, 5)])
        assert vertex_connectivity(cycle) == 2
        assert vertex_connectivity(path) == 1
        assert vertex_connectivity(star) == 1

    def test_petersen_graph(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        petersen = SimpleGraph(10, outer + inner + spokes)
        assert vertex_connectivity(petersen) == 3

    def test_dominating_vertex_does_not_hide_a_cut(self):
        # hub adjacent to everyone, rest is two pendant pairs: the hub is
        # a cut vertex even though it is adjacent to every other vertex
        hub = SimpleGraph(5, [(0, v) for v in range(1, 5)] + [(1, 2), (3, 4)])
        assert vertex_connectivity(hub) == 1

    def test_upper_bound_cap(self):
        g = complete_graph(6)
        assert vertex_connectivity(g, upper_bound=3) == 3
        assert vertex_connectivity(g, upper_bound=99) == 5

    def test_negative_upper_bound_rejected(self):
        # checked first: a disconnected graph would otherwise give 0
        for g in (complete_graph(6), SimpleGraph(4, [(0, 1), (2, 3)])):
            with pytest.raises(KOutOfRange, match="upper_bound must be >= 0, got -3"):
                vertex_connectivity(g, upper_bound=-3)
            assert vertex_connectivity(g, upper_bound=0) == 0

    def test_separator_through_the_min_degree_vertex(self):
        # Vertex 0 (degree 4, the lowest-labelled minimum) sees 1, 2 of the
        # triangle A = {1, 2, 3} and 4, 5 of the triangle B = {4, 5, 6};
        # 7 and 8 see all of A and B.  {0, 7, 8} is the only 3-separator,
        # so every path count from 0 reaches delta = 4 and kappa = 3 shows
        # only between non-adjacent neighbours of 0, such as 1 and 4.
        a, b, t = [1, 2, 3], [4, 5, 6], [7, 8]
        edges = [(0, 1), (0, 2), (0, 4), (0, 5)]
        edges += [(x, y) for side in (a, b) for x in side for y in side if x < y]
        edges += [(x, y) for x in a + b for y in t]
        g = SimpleGraph(9, edges)
        degrees = [g.degree(v) for v in range(9)]
        assert degrees[0] == min(degrees) == 4
        assert all(
            internally_disjoint_path_count(g, 0, w) == 4 for w in (3, 6, 7, 8)
        )
        assert internally_disjoint_path_count(g, 1, 4) == 3
        assert vertex_connectivity(g) == 3 == bruteforce.vertex_connectivity(9, edges)
        assert vertex_connectivity(g, upper_bound=4) == 3
        assert is_k_connected(g, 3) and not is_k_connected(g, 4)


class TestMengerPathCounts:
    def test_distinct_endpoints_required(self):
        with pytest.raises(SameVertex):
            internally_disjoint_path_count(complete_graph(3), 1, 1)

    def test_cycle_and_clique(self):
        cycle = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert internally_disjoint_path_count(cycle, 0, 2) == 2
        assert internally_disjoint_path_count(complete_graph(4), 0, 1) == 3

    def test_disconnected_pair(self):
        g = SimpleGraph(4, [(0, 1), (2, 3)])
        assert internally_disjoint_path_count(g, 0, 2) == 0

    @given(graph_strategy(max_n=6))
    @settings(max_examples=60)
    def test_adjacent_pairs_count_the_direct_edge(self, g):
        edges = list(g.edges())
        for a, b in edges:
            removed = SimpleGraph(g.n, [e for e in edges if e != (a, b)])
            assert internally_disjoint_path_count(g, a, b) == (
                1 + internally_disjoint_path_count(removed, a, b)
            )


    @given(flow_cases())
    @settings(max_examples=300, deadline=None)
    def test_flow_matches_the_deque_bfs_reference(self, case):
        g, a, b, cap = case
        base = _split_digraph(g)
        out, inn = list(base[0]), list(base[1])
        ref = bruteforce.split_digraph(g.n, list(g.edges()))
        assert out == ref
        assert inn == [
            sum(1 << u for u in range(2 * g.n) if ref[u] >> v & 1)
            for v in range(2 * g.n)
        ]
        got = _vertex_capacity_max_flow(base, a, b, cap)
        assert got == bruteforce.vertex_capacity_max_flow(ref, a, b, cap)
        assert base == (out, inn)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_flow_matches_the_reference_on_every_small_graph(self, n):
        pairs = bruteforce.all_pairs(n)
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            base = _split_digraph(SimpleGraph(n, edges))
            ref = bruteforce.split_digraph(n, edges)
            for a, b in itertools.permutations(range(n), 2):
                for cap in (None, 1, 2, 3):
                    assert _vertex_capacity_max_flow(base, a, b, cap) == (
                        bruteforce.vertex_capacity_max_flow(ref, a, b, cap)
                    ), (edges, a, b, cap)

    def test_common_neighbours_stay_out_of_the_search(self):
        # 2 is the only common neighbour of 0 and 1.  A search that may
        # enter its nodes finds 0-3-2-1 as a second path through 2.
        g = SimpleGraph(4, [(0, 2), (1, 2), (0, 3), (2, 3)])
        assert internally_disjoint_path_count(g, 0, 1) == 1

    def test_direct_arc_gives_no_greedy_end(self):
        # Left in the sink's in-mask, the arc 0_out -> 1_in would make 0's
        # own in-node an end, and the greedy step would count 0-2-0-1.
        g = SimpleGraph(3, [(0, 1), (0, 2)])
        assert internally_disjoint_path_count(g, 0, 1) == 1

    def test_greedy_short_path_is_rerouted(self):
        # 0 and 5 share no neighbour.  The greedy pass routes 0-1-3-5 (1 is
        # the first x, 3 its first y), which leaves 2 no free y; the BFS
        # path 0-2-3-1-4-5 cancels the arc 1 -> 3, leaving 0-2-3-5 and
        # 0-1-4-5.
        g = SimpleGraph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
        assert internally_disjoint_path_count(g, 0, 5) == 2
        assert bruteforce.min_separator(6, list(g.edges()), 0, 5) == 2

    def test_settled_flows_copy_nothing(self):
        class NoCopy(list):
            def copy(self):
                raise AssertionError("a settled flow copied its base")

        # K5 less the edge 0-1: the three common neighbours reach cap 3;
        # with the edge 0-1 back, the direct arc and two of them reach 3.
        for g in (SimpleGraph(5, [e for e in bruteforce.all_pairs(5) if e != (0, 1)]),
                  complete_graph(5)):
            out, inn = _split_digraph(g)
            base = (NoCopy(out), NoCopy(inn))
            assert _vertex_capacity_max_flow(base, 0, 1, cap=3) == 3
            assert _vertex_capacity_max_flow(base, 0, 1, cap=0) == 0
            assert base == (out, inn)

    @given(graph_strategy(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_path_counts_match_removal_sets(self, g):
        """Menger by removal search: the smallest a-b separator, plus the
        direct edge when a and b are adjacent."""
        edges = list(g.edges())
        for a, b in bruteforce.all_pairs(g.n):
            if g.has_edge(a, b):
                rest = [e for e in edges if e != (a, b)]
                want = 1 + bruteforce.min_separator(g.n, rest, a, b)
            else:
                want = bruteforce.min_separator(g.n, edges, a, b)
            assert internally_disjoint_path_count(g, a, b) == want
            assert internally_disjoint_path_count(g, b, a) == want


class TestIsKConnected:
    def test_k_zero_is_always_true(self):
        assert is_k_connected(SimpleGraph(1, []), 0)
        assert is_k_connected(SimpleGraph(4, [(0, 1), (2, 3)]), 0)

    def test_negative_k_rejected(self):
        with pytest.raises(KOutOfRange):
            is_k_connected(complete_graph(3), -1)

    def test_needs_more_than_k_vertices(self):
        assert not is_k_connected(complete_graph(3), 3)
        assert is_k_connected(complete_graph(4), 3)

    @given(graph_strategy(max_n=6), st.integers(0, 6))
    @settings(max_examples=60)
    def test_agrees_with_vertex_connectivity(self, g, k):
        expected = k == 0 or (g.n > k and vertex_connectivity(g) >= k)
        assert is_k_connected(g, k) == expected


class TestAgainstBruteForce:
    """The flow route must agree with naive removal search everywhere."""

    @given(graph_strategy(max_n=7))
    @settings(max_examples=120, deadline=None)
    def test_vertex_connectivity_matches(self, g):
        edges = sorted(g.edges())
        kappa = bruteforce.vertex_connectivity(g.n, edges)
        assert vertex_connectivity(g) == kappa
        for u in range(g.n + 1):
            assert vertex_connectivity(g, upper_bound=u) == min(kappa, u)

    @given(graph_strategy(max_n=8))
    @settings(max_examples=120, deadline=None)
    def test_caps_of_one_need_only_connectivity(self, g):
        assert is_k_connected(g, 1) == (g.n >= 2 and is_connected(g))
        kappa = bruteforce.vertex_connectivity(g.n, sorted(g.edges()))
        for u in (0, 1):
            assert vertex_connectivity(g, upper_bound=u) == min(kappa, u)

    @given(mid_size_graphs())
    @settings(max_examples=60, deadline=None)
    def test_vertex_connectivity_matches_all_pairs(self, g):
        """The pair selection against the minimum over every pair it skips."""
        non_adjacent = [
            (a, b) for a, b in bruteforce.all_pairs(g.n) if not g.has_edge(a, b)
        ]
        kappa = min(
            (internally_disjoint_path_count(g, a, b) for a, b in non_adjacent),
            default=g.n - 1,
        )
        assert vertex_connectivity(g) == kappa
        for u in range(g.n + 1):
            assert vertex_connectivity(g, upper_bound=u) == min(kappa, u)

    @given(graph_strategy(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_connectivity_bounded_by_min_degree(self, g):
        if g.n >= 2:
            assert vertex_connectivity(g) <= min(g.degree(v) for v in range(g.n))

    @given(graph_strategy(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_adding_an_edge_never_hurts(self, g):
        before = vertex_connectivity(g)
        comp = [e for e in bruteforce.all_pairs(g.n) if not g.has_edge(*e)]
        if comp:
            rng = random.Random(g.edge_count)
            a, b = comp[rng.randrange(len(comp))]
            added = SimpleGraph(g.n, [*g.edges(), (a, b)])
            assert vertex_connectivity(added) >= before

    @given(graph_strategy(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_is_connected_matches(self, g):
        assert list(g.edges()) == sorted(g.edges())
        assert is_connected(g) == bruteforce.is_connected(g.n, sorted(g.edges()))

    @given(graph_strategy(max_n=7), st.data())
    @settings(max_examples=120, deadline=None)
    def test_component_search_matches(self, g, data):
        live = data.draw(st.integers(1, (1 << g.n) - 1))
        removed = [v for v in range(g.n) if not live >> v & 1]
        edges = sorted(g.edges())
        connected = bruteforce.is_connected(g.n, edges, removed=removed)
        assert (_component(g._adj, live) == live) == connected
        assert _component(g._adj, 0) == 0
