"""Exports a package loads on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules
imports all of them when *any* of them is imported, so a process that
needs one module pays for every sibling — the server, for one, would
import the linter, the XML serializer and the data generators it never
runs.  :func:`lazy_exports` gives such a package a module-level
``__getattr__`` that imports a submodule only when one of its names is
first read::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.prxml.parser": ("parse_pxml", "parse_pxml_file"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``: each name in
    ``exports`` (``module -> names``) is imported from its module on
    first access and then cached in the package namespace."""
    namespace = sys.modules[package].__dict__
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
