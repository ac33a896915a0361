"""The package's public surface: what ``import kconnseq`` re-exports."""

import inspect

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
