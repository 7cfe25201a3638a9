"""The tree's one lazy-export idiom (PEP 562).

A package surface names what it offers without importing it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.datagen.base": ("DataSet", "DataType"),
        ...
    })

The defining module is imported on first attribute access and the value
is cached in the package's namespace, so ``from pkg import Name``,
``pkg.Name``, ``dir(pkg)`` and ``from pkg import *`` behave as if the
names had been imported eagerly.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Mapping
from importlib import import_module
from typing import Any


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the module named ``package``.

    ``exports`` maps a defining module to the names it provides;
    ``submodules`` are children of ``package`` exported as modules.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }
    origin.update((name, f"{package}.{name}") for name in submodules)
    children = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = import_module(origin[name])
        value = module if name in children else getattr(module, name)
        vars(sys.modules[package])[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(origin.keys() | vars(sys.modules[package]).keys())

    return __getattr__, __dir__, sorted(origin)
