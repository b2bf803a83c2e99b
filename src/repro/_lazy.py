"""Lazy package facades (PEP 562): a package names its exports, a
submodule loads on first use.

Every ``repro`` package states what it re-exports as one ``submodule →
names`` table; :func:`facade` turns the table into the package's
``__all__``, ``__getattr__`` and ``__dir__``.  Importing the package then
loads nothing below it, and the first read of a name imports just the
submodule that defines it and caches the object in the package's own
globals — later reads are plain attribute lookups, and code that patches
``vars(package)[name]`` (the perf ledger's spans) finds the name where an
eager import would have left it.  Threads may resolve the same name at
once: the import is serialised by importlib's per-module lock and the
cache write is idempotent.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def facade(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package named ``package``.

    ``exports`` maps a submodule's name relative to the package
    (``"specs"``, ``"sim.partition"``) to the names re-exported from it; an
    empty sequence exports the submodule itself.
    """
    origin = {name: sub for sub, names in exports.items() for name in names or (sub,)}
    namespace = vars(sys.modules[package])
    public = list(origin)  # the package's ``__all__``: what it adds there, ``dir()`` lists too

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{origin[name]}")
        value = namespace[name] = getattr(module, name) if exports[origin[name]] else module
        return value

    def __dir__() -> list[str]:
        return list(namespace.keys() | set(public))

    return public, __getattr__, __dir__
