"""Decide, construct, and audit k-connected degree sequences.

A degree sequence is *k-connected* when at least one of its realizations
is a k-connected graph, and *necessarily k-connected* when all of them
are.  This package evaluates the arithmetic conditions for both
properties, constructs the graphs behind them (regular circulant bases,
edge-augmentation chains, and the G1/G2 witness pair), and audits every
condition against an exhaustive small-instance enumeration oracle.
"""

from .errors import (
    AugmentationStuck,
    DuplicateEdge,
    EdgeListParseError,
    EmptySequence,
    KconnseqError,
    KOutOfRange,
    NonIntegerTerm,
    NonPositiveTerm,
    NTooSmall,
    SameVertex,
    SelfLoop,
    TargetOutOfRange,
    TermsNotSorted,
    TooLarge,
    VertexOutOfRange,
)
from .sequence_core import (
    AssociatedPair,
    ConditionCheck,
    ConditionReport,
    DegreeSequence,
    associated_pair,
    corollary_threshold,
    erdos_gallai_graphic,
    normalize,
    theorem1_check,
    theorem2_check,
)
from .graph_core import (
    MAX_VERTICES,
    SimpleGraph,
    complete_graph,
    degree_sequence,
    internally_disjoint_path_count,
    is_connected,
    is_k_connected,
    vertex_connectivity,
)
from .realization import (
    MAX_CHAIN_TERMS,
    ChainStep,
    RealizationResult,
    augment_chain,
    base_k_regular,
    build_G1,
    build_G2,
    is_maximally_non_k_connected,
    realize_k_connected,
    witness_sequence,
)
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    HARD_ENUMERATION_CAP,
    DiscrepancyReport,
    SequenceVerdict,
    all_degree_sequences,
    audit_corollary,
    audit_theorem1,
    audit_theorem2,
    enumerate_realizations,
    oracle_graphic,
    oracle_max_edges_non_k_connected,
    oracle_verdict,
)
from .edgelist import (
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)

__version__ = "0.1.0"
