"""Run the executable examples embedded in module docstrings.

The package-level docstring quickstart and the per-class examples are
part of the public documentation contract; this test keeps them honest.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro",
    "repro.fields.gf",
    "repro.fields.primes",
    "repro.steiner.spherical",
    "repro.steiner.boolean",
    "repro.matching.dinic",
    "repro.tensor.packed",
    "repro.tensor.ndpacked",
    "repro.tensor.bcss",
    "repro.core.partition",
    "repro.core.parallel_sttsv",
    "repro.machine.machine",
    "repro.apps.deflation",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
