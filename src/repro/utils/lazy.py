"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from its submodules would import every one
of them, and everything they import, as soon as anything under it loads:
``import repro.cache`` would cost numpy and the schedulers.  Instead the
package declares where each name lives and binds this module's
``__getattr__``/``__dir__`` pair: a name is imported on its first access and
then cached in the package namespace, so later lookups are plain attribute
reads.  ``from package import name``, ``from package import *`` (through
``__all__``) and ``dir(package)`` behave as with eager imports.

>>> import repro.utils
>>> repro.utils.format_table(["a"], [[1]]).splitlines()[0].strip()
'a'
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` of *package*, which re-exports *exports*.

    *exports* maps a submodule name relative to *package* (``"trace"`` for
    ``package.trace``) to the names it provides.
    """
    origin = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
