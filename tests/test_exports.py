"""The package's public surface: what ``import kconnseq`` re-exports, and
the base class of the errors it raises."""

import inspect

import pytest

import kconnseq
from kconnseq import edgelist, errors, graph_core, oracle, realization, sequence_core

SUBMODULES = (sequence_core, graph_core, realization, oracle, edgelist)


def test_every_declared_name_exists():
    for module in SUBMODULES:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_package_reexports_exactly_the_declared_names():
    exceptions = {
        name: value
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, Exception)
    }
    declared = {
        name: getattr(module, name) for module in SUBMODULES for name in module.__all__
    }
    public = {
        name: value
        for name, value in vars(kconnseq).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {**declared, **exceptions}


PAIR = sequence_core.DegreeSequence((1, 1))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (sequence_core.theorem1_check, (PAIR, 0), "k must be >= 1, got 0"),
        (sequence_core.theorem2_check, (PAIR, -2), "k must be >= 1, got -2"),
        (sequence_core.corollary_threshold, (1, 1), "n must be >= 2, got 1"),
        (sequence_core.corollary_threshold, (4, 0), "k must be >= 1, got 0"),
        (oracle.oracle_verdict, (PAIR, 0), "k must be >= 1, got 0"),
        (oracle.oracle_max_edges_non_k_connected, (0, 1, True), "n must be >= 1, got 0"),
        (oracle.oracle_max_edges_non_k_connected, (3, 0, False), "k must be >= 1, got 0"),
        (oracle.all_degree_sequences, (0,), "n must be >= 1, got 0"),
        (oracle.audit_theorem1, (3, 0), "k_max must be >= 1, got 0"),
        (oracle.audit_theorem2, (3, -1), "k_max must be >= 1, got -1"),
        (oracle.audit_corollary, (4, 0, True), "k must be >= 1, got 0"),
        (graph_core.SimpleGraph, (-1,), "vertex count must be >= 0, got -1"),
    ],
    ids=lambda p: p.__name__ if callable(p) else None,
)
def test_range_errors_are_package_errors(call, args, message):
    with pytest.raises(errors.KconnseqError) as raised:
        call(*args)
    assert str(raised.value) == message
    assert isinstance(raised.value, ValueError)
