"""Lazy package exports (:mod:`repro._lazy`).

Every package ``__init__`` resolves its ``__all__`` on first read, so
the public API is the one the eager imports gave: every name resolves
through ``getattr``, ``dir()`` lists it, and ``from package import *``
binds it, while importing a package loads none of its submodules.
"""

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_every_package_is_covered():
    assert {"repro.core", "repro.machine.transport", "repro.service"} <= set(PACKAGES)
    assert len(PACKAGES) == 16


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_and_are_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert not inspect.ismodule(value), f"{package}.{name} is a module"
        assert name in listed


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(repro.core, "no_such_name")
    assert not hasattr(repro.machine, "no_such_name")


def test_submodule_imports_still_work():
    from repro.core import bounds
    from repro.machine import transport

    assert inspect.ismodule(bounds) and inspect.ismodule(transport)
    assert bounds.sttsv_lower_bound is repro.sttsv_lower_bound


def test_transport_registry_builds_shm_lazily():
    from repro.machine.transport import TRANSPORTS, SharedMemoryTransport
    from repro.machine.transport.shm import SharedMemoryTransport as defined

    assert set(TRANSPORTS) == {"simulated", "shm"}
    assert SharedMemoryTransport is defined
    assert repro.machine.SharedMemoryTransport is defined


def _fresh(code: str):
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def test_exports_are_not_shadowed_by_their_submodules():
    """A name that is also a submodule's name (``repro.core.sttsm``)
    must still be the function after every submodule was imported."""
    shadowed = _fresh(
        "import importlib, inspect, json, pkgutil, repro\n"
        "infos = list(pkgutil.walk_packages(repro.__path__, 'repro.'))\n"
        "for info in infos:\n"
        "    if not info.name.endswith('__main__'):\n"
        "        importlib.import_module(info.name)\n"
        "bad = [f'{p}.{n}' for p in ['repro'] + [i.name for i in infos if i.ispkg]\n"
        "       for n in importlib.import_module(p).__all__\n"
        "       if inspect.ismodule(getattr(importlib.import_module(p), n))]\n"
        "print(json.dumps(bad))\n"
    )
    assert shadowed == []


def test_importing_a_package_loads_no_submodule():
    loaded = _fresh(
        "import json, sys\n"
        "import repro, repro.core, repro.machine, repro.service, repro.tensor\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert "repro.core" in loaded
    # Only what the functions named after their own submodules import
    # loads eagerly (repro.core.sttsm, repro.core.sttsv_ndim).
    unloaded = (
        "repro.service.", "repro.machine.", "repro.apps", "repro.planner",
        "repro.steiner", "repro.obs", "repro.core.plans",
        "repro.core.parallel_sttsv", "repro.tensor.dense",
    )
    assert [m for m in loaded if m.startswith(unloaded)] == []
