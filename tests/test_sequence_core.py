"""Degree-sequence arithmetic and the two feasibility predicates."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kconnseq import (
    DegreeSequence,
    EmptySequence,
    KconnseqError,
    NonIntegerTerm,
    NonPositiveTerm,
    TermsNotSorted,
    associated_pair,
    corollary_threshold,
    erdos_gallai_graphic,
    normalize,
    theorem1_check,
    theorem2_check,
)

from bruteforce import count_realizations, is_graphic

sequences = st.lists(st.integers(1, 8), min_size=1, max_size=8).map(normalize)
small_sequences = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(normalize)


class TestDegreeSequence:
    def test_rejects_empty(self):
        with pytest.raises(EmptySequence):
            DegreeSequence(())
        with pytest.raises(EmptySequence):
            normalize([])

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveTerm):
            DegreeSequence((3, 2, 0))
        with pytest.raises(NonPositiveTerm):
            normalize([1, -1])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            DegreeSequence((2.0, 1.0))

    def test_rejects_increasing_order(self):
        with pytest.raises(ValueError):
            DegreeSequence((1, 2, 3))

    @pytest.mark.parametrize(
        "terms, error, base, message",
        [
            (
                (1.0,),
                NonIntegerTerm,
                TypeError,
                "degree terms must be integers, got 1.0",
            ),
            (
                (1, 2),
                TermsNotSorted,
                ValueError,
                "terms must be non-increasing; use normalize()",
            ),
        ],
        ids=["non-integer", "increasing"],
    )
    def test_errors_are_package_errors(self, terms, error, base, message):
        with pytest.raises(KconnseqError) as raised:
            DegreeSequence(terms)
        assert type(raised.value) is error
        assert isinstance(raised.value, base)
        assert str(raised.value) == message

    def test_normalize_sorts_descending(self):
        assert normalize([2, 4, 4, 2, 6]).terms == (6, 4, 4, 2, 2)

    def test_str_is_comma_joined(self):
        assert str(normalize([2, 4, 6])) == "6,4,2"

    def test_equal_and_hashed_by_terms(self):
        s = DegreeSequence((3, 3, 2))
        assert s == normalize([2, 3, 3])
        assert hash(s) == hash(normalize([2, 3, 3]))
        assert s != DegreeSequence((3, 3, 3))
        assert len({s, normalize([3, 2, 3]), DegreeSequence((2, 2))}) == 2

    def test_not_equal_to_a_plain_tuple(self):
        s = DegreeSequence((3, 3, 2))
        assert s != (3, 3, 2) and (3, 3, 2) != s
        assert s not in {(3, 3, 2)}

    def test_orders_by_terms(self):
        seqs = [normalize(t) for t in ([2, 2, 2], [3, 1, 1, 1], [2, 2], [3, 3])]
        assert [x.terms for x in sorted(seqs)] == [
            (2, 2), (2, 2, 2), (3, 1, 1, 1), (3, 3)
        ]
        short, long = DegreeSequence((2, 2)), DegreeSequence((2, 2, 2))
        assert short < long <= long and long > short >= short
        with pytest.raises(TypeError):
            DegreeSequence((2, 2)) < (3, 3)

    def test_read_only(self):
        s = DegreeSequence((2, 1, 1))
        with pytest.raises(AttributeError):
            s.terms = (1, 1)
        with pytest.raises(AttributeError):
            s.extra = 1
        with pytest.raises(AttributeError):
            del s.terms
        assert s.terms == (2, 1, 1)

    def test_repr_and_pickle(self):
        s = DegreeSequence((2, 1, 1))
        assert repr(s) == "DegreeSequence(terms=(2, 1, 1))"
        assert pickle.loads(pickle.dumps(s)) == s

    @given(sequences)
    def test_sequence_protocol(self, s):
        assert len(s) == s.phi == len(s.terms)
        assert list(s) == list(s.terms)
        assert s[0] == max(s.terms) and s[-1] == min(s.terms)


class TestAssociatedPair:
    def test_epsilon_is_half_the_degree_sum(self):
        pair = associated_pair(normalize([6, 4, 4, 4, 4, 2, 2]))
        assert pair.phi == 7
        assert pair.epsilon == Fraction(13)
        assert pair.epsilon_integral
        assert pair.epsilon_str() == "13"

    def test_odd_degree_sum_stays_exact(self):
        pair = associated_pair(normalize([2, 1]))
        assert pair.epsilon == Fraction(3, 2)
        assert not pair.epsilon_integral
        assert pair.epsilon_str() == "3/2"

    def test_json_epsilon_in_lowest_terms(self):
        even = associated_pair(normalize([6, 4, 4, 4, 4, 2, 2]))
        odd = associated_pair(normalize([2, 1]))
        assert (even.degree_sum, odd.degree_sum) == (26, 3)
        assert even.to_json_dict() == {
            "phi": 7,
            "epsilon": {"numerator": 13, "denominator": 1, "integral": True},
        }
        assert odd.to_json_dict() == {
            "phi": 2,
            "epsilon": {"numerator": 3, "denominator": 2, "integral": False},
        }
        assert type(even.epsilon) is Fraction and type(odd.epsilon) is Fraction

    @given(sequences)
    def test_epsilon_identity(self, s):
        pair = associated_pair(s)
        assert pair.epsilon * 2 == s.degree_sum
        d = pair.to_json_dict()
        assert d["epsilon"]["numerator"] / d["epsilon"]["denominator"] == pair.epsilon


class TestTheorem1:
    """The four counting conditions for "some realization is k-connected"."""

    def test_witness_sequence_passes_at_its_k(self):
        report = theorem1_check(normalize([6, 4, 4, 4, 4, 2, 2]), 2)
        assert report.verdict
        assert [c.passed for c in report.checks] == [True] * 4

    def test_min_degree_condition_fails_above_k(self):
        report = theorem1_check(normalize([6, 4, 4, 4, 4, 2, 2]), 3)
        assert not report.verdict
        assert not report.check("min_degree").passed
        assert report.check("max_degree").passed

    def test_odd_degree_sum_fails_integrality(self):
        report = theorem1_check(normalize([3, 2, 2]), 1)
        assert not report.check("epsilon_integral").passed
        assert not report.verdict

    def test_max_degree_condition(self):
        # a term of phi would need a loop or parallel edge
        report = theorem1_check(normalize([3, 1, 1, 1]), 1)
        assert report.verdict
        report = theorem1_check(normalize([3, 3, 3]), 1)
        assert not report.check("max_degree").passed

    def test_epsilon_range_condition(self):
        # K_6: epsilon = 15 hits the C(phi,2) ceiling exactly
        report = theorem1_check(normalize([5, 5, 5, 5, 5, 5]), 5)
        assert report.check("epsilon_range").passed
        # k*phi/2 = 7.5 > epsilon = 6: too few edges to be 3-connected
        report = theorem1_check(normalize([3, 3, 2, 2, 2]), 3)
        assert not report.check("epsilon_range").passed
        assert not report.verdict

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            theorem1_check(normalize([2, 2, 2]), 0)

    @given(small_sequences, st.integers(1, 4))
    def test_verdict_is_conjunction_of_checks(self, s, k):
        report = theorem1_check(s, k)
        assert report.verdict == all(c.passed for c in report.checks)
        assert report.k == k and report.sequence == s

    @given(small_sequences, st.integers(1, 4))
    def test_report_json_shape(self, s, k):
        d = theorem1_check(s, k).to_json_dict()
        assert d["schema_version"] == 1
        assert d["subject"] == "theorem1"
        assert [c["name"] for c in d["checks"]] == [
            "epsilon_integral",
            "max_degree",
            "min_degree",
            "epsilon_range",
        ]


class TestTheorem2:
    """Theorem 1's conditions plus the edge-count bound that forces
    every realization to be k-connected."""

    def test_witness_sits_exactly_on_the_bound(self):
        report = theorem2_check(normalize([6, 4, 4, 4, 4, 2, 2]), 2)
        assert not report.verdict
        check = report.check("epsilon_exceeds_bound")
        assert not check.passed
        assert "epsilon = 13 <= C(phi-2,2) + 2k - 1 = 13" in check.reason
        assert report.thresholds["necessity_bound"] == 13

    def test_one_more_edge_clears_the_bound(self):
        report = theorem2_check(normalize([6, 5, 4, 4, 4, 3, 2]), 2)
        assert report.check("epsilon_exceeds_bound").passed
        assert report.verdict

    @given(small_sequences, st.integers(1, 4))
    def test_theorem2_implies_theorem1(self, s, k):
        if theorem2_check(s, k).verdict:
            assert theorem1_check(s, k).verdict

    @given(small_sequences, st.integers(1, 4))
    def test_checks_extend_theorem1(self, s, k):
        r1, r2 = theorem1_check(s, k), theorem2_check(s, k)
        assert [c.name for c in r2.checks[:-1]] == [c.name for c in r1.checks]
        assert r2.checks[-1].name == "epsilon_exceeds_bound"


class TestCorollaryThreshold:
    def test_known_values(self):
        assert corollary_threshold(7, 2) == 14
        assert corollary_threshold(5, 1) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            corollary_threshold(1, 1)
        with pytest.raises(ValueError):
            corollary_threshold(5, 0)

    @given(st.integers(2, 60), st.integers(1, 12))
    def test_closed_form(self, n, k):
        assert corollary_threshold(n, k) == (n * n - 5 * n + 6 + 4 * k) // 2
        assert (n * n - 5 * n + 6 + 4 * k) % 2 == 0


class TestErdosGallai:
    def test_known_values(self):
        assert erdos_gallai_graphic(normalize([2, 2, 2, 2, 2]))
        assert not erdos_gallai_graphic(normalize([3, 3, 1, 1]))
        assert not erdos_gallai_graphic(normalize([4, 4, 4, 2, 2]))
        assert erdos_gallai_graphic(normalize([1, 1]))
        assert not erdos_gallai_graphic(normalize([1]))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_agrees_with_exhaustive_realization_count(self, raw):
        s = normalize(raw)
        assert erdos_gallai_graphic(s) == (count_realizations(s.terms) > 0)

    @given(st.data())
    def test_agrees_with_havel_hakimi(self, data):
        # Terms up to phi - 1 and a mostly even sum keep over a quarter of
        # the draws graphic, so both answers get exercised up to phi = 80.
        phi = data.draw(st.integers(1, 80))
        term = st.integers(1, max(phi - 1, 1))
        raw = data.draw(st.lists(term, min_size=phi, max_size=phi))
        if sum(raw) % 2 and data.draw(st.booleans()):
            raw[0] = raw[0] - 1 if raw[0] > 1 else raw[0] + 1
        s = normalize(raw)
        assert erdos_gallai_graphic(s) == is_graphic(s.terms)
