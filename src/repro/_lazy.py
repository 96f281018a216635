"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names in one table, submodule →
names, and binds :func:`lazy_exports`'s two functions as its module
``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.plans": ("SequentialPlan", "sequential_plan"),
    })

A name's submodule is imported the first time the name is read, and the
value is then bound in the package, so later reads are plain attribute
lookups. Importing a package therefore loads none of its submodules: a
process that uses one module of a package (a served process, say) does
not pay for the rest.

A name that is also the name of a submodule of the same package (the
function ``repro.core.sttsm`` of ``repro.core.sttsm``) cannot be lazy:
importing the submodule binds the module under that name. Such names are
imported eagerly in the ``__init__`` instead.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair of ``package``.

    ``table`` maps a defining submodule's full name to the names the
    package exports from it.
    """
    source: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__
