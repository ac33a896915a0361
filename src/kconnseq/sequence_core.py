"""Degree-sequence types and the arithmetic feasibility predicates.

The package documents and checks three claims about a non-increasing
sequence ``s`` of positive integers with associated pair ``(phi, epsilon)``
(length, half the term sum):

* theorem 1 -- ``s`` has a k-connected realization iff ``epsilon`` is an
  integer, ``s_1 <= phi - 1``, ``s_n >= k`` and
  ``k*phi/2 <= epsilon <= C(phi, 2)``;
* theorem 2 -- every realization of ``s`` is k-connected iff theorem 1
  holds and ``epsilon > C(phi - 2, 2) + 2k - 1``;
* corollary -- every simple graph on ``n`` vertices with at least
  ``(n^2 - 5n + 6 + 4k) / 2`` edges is k-connected.

The functions here evaluate the predicates *as stated*; they make no claim
of matching ground truth.  Exhaustive verification lives in
:mod:`kconnseq.oracle`, whose audits compare these predicates against
enumeration and report every disagreement.
"""

from __future__ import annotations

from functools import total_ordering
from math import comb
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import (
    EmptySequence,
    KOutOfRange,
    NonIntegerTerm,
    NonPositiveTerm,
    NTooSmall,
    TermsNotSorted,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DegreeSequence",
    "AssociatedPair",
    "ConditionCheck",
    "ConditionReport",
    "normalize",
    "associated_pair",
    "theorem1_check",
    "theorem2_check",
    "corollary_threshold",
    "erdos_gallai_graphic",
]


@total_ordering
class DegreeSequence:
    """A non-increasing sequence of positive integer degrees.

    Read-only.  It equals, hashes and orders by ``terms``, and equals
    only another DegreeSequence, never a plain tuple.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[int, ...]):
        if not terms:
            raise EmptySequence("degree sequence must be non-empty")
        for t in terms:
            if not isinstance(t, int):
                raise NonIntegerTerm(f"degree terms must be integers, got {t!r}")
            if t <= 0:
                raise NonPositiveTerm(f"degree terms must be positive, got {t}")
        if any(a < b for a, b in zip(terms, terms[1:])):
            raise TermsNotSorted("terms must be non-increasing; use normalize()")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("DegreeSequence is immutable")

    def __delattr__(self, name):
        raise AttributeError("DegreeSequence is immutable")

    def __reduce__(self):
        return DegreeSequence, (self.terms,)

    def __repr__(self) -> str:
        return f"DegreeSequence(terms={self.terms!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms < other.terms

    @property
    def phi(self) -> int:
        """Length of the sequence (vertex count of any realization)."""
        return len(self.terms)

    @property
    def degree_sum(self) -> int:
        return sum(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]

    def __str__(self) -> str:
        return ",".join(str(t) for t in self.terms)


def normalize(raw: Iterable[int]) -> DegreeSequence:
    """Sort raw degrees into the canonical non-increasing order.

    Raises EmptySequence on an empty input and NonPositiveTerm on any
    entry <= 0 (a degree-0 vertex never occurs in a k-connected graph
    for k >= 1, so zeros are rejected outright).
    """
    return DegreeSequence(tuple(sorted(raw, reverse=True)))


class AssociatedPair(NamedTuple):
    """The pair (phi, epsilon) = (length, half the term sum).

    epsilon is kept exact: ``degree_sum`` is the integer 2*epsilon, and
    the fractional view is only materialized on demand.  A non-integral
    epsilon (odd degree sum) makes the sequence immediately unrealizable.
    """

    phi: int
    degree_sum: int

    @property
    def epsilon(self) -> Fraction:
        from fractions import Fraction  # fractions imports decimal: load on use

        return Fraction(self.degree_sum, 2)

    @property
    def epsilon_integral(self) -> bool:
        return self.degree_sum % 2 == 0

    def epsilon_str(self) -> str:
        if self.epsilon_integral:
            return str(self.degree_sum // 2)
        return f"{self.degree_sum}/2"

    def to_json_dict(self) -> dict:
        # epsilon = degree_sum / 2, in lowest terms.
        if self.epsilon_integral:
            numerator, denominator = self.degree_sum // 2, 1
        else:
            numerator, denominator = self.degree_sum, 2
        return {
            "phi": self.phi,
            "epsilon": {
                "numerator": numerator,
                "denominator": denominator,
                "integral": self.epsilon_integral,
            },
        }


def associated_pair(s: DegreeSequence) -> AssociatedPair:
    """Compute (phi, epsilon) for a degree sequence, exactly."""
    return AssociatedPair(phi=len(s), degree_sum=s.degree_sum)


class ConditionCheck(NamedTuple):
    name: str
    passed: bool
    reason: str


class ConditionReport(NamedTuple):
    """Per-condition verdicts for one predicate evaluation.

    ``verdict`` is the conjunction of all listed checks; the checks appear
    in the order the predicate states them.
    """

    subject: str
    k: int
    sequence: DegreeSequence
    pair: AssociatedPair
    checks: tuple[ConditionCheck, ...]
    thresholds: dict[str, int]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "subject": self.subject,
            "sequence": list(self.sequence.terms),
            "k": self.k,
            "pair": self.pair.to_json_dict(),
            "verdict": self.verdict,
            "checks": [
                {"name": c.name, "passed": c.passed, "reason": c.reason}
                for c in self.checks
            ],
            "thresholds": dict(self.thresholds),
        }


def _theorem1_parts(s: DegreeSequence, k: int):
    """Validate k; return theorem 1's pair, four checks and thresholds."""
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    pair = associated_pair(s)
    phi, dsum = pair.phi, pair.degree_sum
    eps = pair.epsilon_str()
    c1 = ConditionCheck(
        "epsilon_integral",
        pair.epsilon_integral,
        f"degree sum {dsum} is {'even' if pair.epsilon_integral else 'odd'};"
        f" epsilon = {eps}",
    )
    c2 = ConditionCheck(
        "max_degree",
        s[0] <= phi - 1,
        f"s_1 = {s[0]} {'<=' if s[0] <= phi - 1 else '>'} phi - 1 = {phi - 1}",
    )
    c3 = ConditionCheck(
        "min_degree",
        s[-1] >= k,
        f"s_n = {s[-1]} {'>=' if s[-1] >= k else '<'} k = {k}",
    )
    # Both bounds compared in doubled form 2*epsilon = degree sum, exactly.
    lo_ok = dsum >= k * phi
    hi_ok = dsum <= phi * (phi - 1)
    c4 = ConditionCheck(
        "epsilon_range",
        lo_ok and hi_ok,
        f"k*phi/2 = {k * phi}/2 {'<=' if lo_ok else '>'} epsilon = {eps}"
        f" {'<=' if hi_ok else '>'} C(phi,2) = {comb(phi, 2)}",
    )
    thresholds = {
        "max_term_allowed": phi - 1,
        "min_term_required": k,
        "degree_sum_min": k * phi,
        "epsilon_max": comb(phi, 2),
    }
    return pair, (c1, c2, c3, c4), thresholds


def theorem1_check(s: DegreeSequence, k: int) -> ConditionReport:
    """Evaluate the four k-connected-sequence conditions (theorem 1).

    Purely arithmetic; the verdict is the literal predicate, not a claim
    about realizability.  Use oracle.audit_theorem1 for the comparison
    against exhaustive ground truth.
    """
    pair, checks, thresholds = _theorem1_parts(s, k)
    return ConditionReport("theorem1", k, s, pair, checks, thresholds)


def theorem2_check(s: DegreeSequence, k: int) -> ConditionReport:
    """Evaluate the necessarily-k-connected conditions (theorem 2).

    The report carries theorem 1's four checks plus the strict edge-count
    bound epsilon > C(phi-2, 2) + 2k - 1.
    """
    pair, checks, thresholds = _theorem1_parts(s, k)
    bound = comb(max(pair.phi - 2, 0), 2) + 2 * k - 1
    over = pair.degree_sum > 2 * bound
    extra = ConditionCheck(
        "epsilon_exceeds_bound",
        over,
        f"epsilon = {pair.epsilon_str()} {'>' if over else '<='}"
        f" C(phi-2,2) + 2k - 1 = {bound}",
    )
    thresholds["necessity_bound"] = bound
    return ConditionReport("theorem2", k, s, pair, checks + (extra,), thresholds)


def corollary_threshold(n: int, k: int) -> int:
    """Edge count from which the corollary declares every graph k-connected.

    Equals (n^2 - 5n + 6 + 4k) / 2, which is always an integer because
    n^2 - 5n is even; identical to C(n-2, 2) + 2k.
    """
    if n < 2:
        raise NTooSmall(f"n must be >= 2, got {n}")
    if k < 1:
        raise KOutOfRange(f"k must be >= 1, got {k}")
    return comb(n - 2, 2) + 2 * k


def erdos_gallai_graphic(s: DegreeSequence) -> bool:
    """Erdos-Gallai test: is s the degree sequence of some simple graph?

    Independent of the enumeration oracle; the two deciders are
    cross-validated over the full small-sequence universe in the tests.
    Runs in O(n): the terms are non-increasing, so for each r the terms
    >= r are a prefix terms[:p] whose end p only moves left as r grows,
    and sum(min(t, r) for t in terms[r:]) is r per term of
    terms[r:max(p, r)] plus a suffix sum.
    """
    terms = s.terms
    n = len(terms)
    if sum(terms) % 2 != 0:
        return False
    suffix = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + terms[j]
    prefix = 0
    p = n
    for r in range(1, n + 1):
        prefix += terms[r - 1]
        while p and terms[p - 1] < r:
            p -= 1
        split = max(p, r)
        if prefix > r * (r - 1) + r * (split - r) + suffix[split]:
            return False
    return True
