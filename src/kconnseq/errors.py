"""Exception types shared across the package."""


class KconnseqError(Exception):
    """Base class for all errors raised by this package."""


class EmptySequence(KconnseqError, ValueError):
    """A degree sequence must contain at least one term."""


class NonPositiveTerm(KconnseqError, ValueError):
    """Degree sequences are restricted to positive integers."""


class NonIntegerTerm(KconnseqError, TypeError):
    """Degree terms must be ints."""


class TermsNotSorted(KconnseqError, ValueError):
    """Degree-sequence terms must be non-increasing; normalize() sorts them."""


class SelfLoop(KconnseqError, ValueError):
    """Simple graphs contain no loops."""


class DuplicateEdge(KconnseqError, ValueError):
    """Simple graphs contain no parallel edges."""


class VertexOutOfRange(KconnseqError, ValueError):
    """A vertex label fell outside 0..n-1."""


class SameVertex(KconnseqError, ValueError):
    """Path queries need two distinct endpoints."""


class KOutOfRange(KconnseqError, ValueError):
    """Connectivity targets must satisfy 1 <= k <= n-1."""


class NTooSmall(KconnseqError, ValueError):
    """A vertex or sequence count fell below its minimum: witness
    constructions need n >= k+3, and no count may be negative."""


class TargetOutOfRange(KconnseqError, ValueError):
    """An augmentation target lies outside the feasible edge-count range."""


class AugmentationStuck(KconnseqError, RuntimeError):
    """An augmentation chain violated an invariant it was meant to keep.

    Raised instead of silently repairing: a chain's base graph is not
    k-connected (the 1-regular bases on n >= 4).
    """


class TooLarge(KconnseqError, ValueError):
    """A size exceeded a configured limit (enumeration, vertex count)."""


class EdgeListParseError(KconnseqError, ValueError):
    """An edge-list file violated the format grammar.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"{message} at line {line_number}")
