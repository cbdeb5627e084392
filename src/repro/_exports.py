"""Lazy package exports (PEP 562): a package imports a submodule on first use.

A package ``__init__`` lists what it re-exports as one map from submodule
to names and builds its module hooks from it::

    if TYPE_CHECKING:
        from .rs import ReedSolomonCode, SinglyExtendedRS

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, {"rs": ("ReedSolomonCode", "SinglyExtendedRS")}
    )

Nothing is imported until a name is first read; the value is then cached
in the package namespace.  A name equal to its submodule's name exports the
submodule itself.  Any other submodule also resolves as an attribute on
first read, as it would after an eager import.  The ``TYPE_CHECKING`` block
repeats the map for mypy and the REPRO2xx resolver.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping
from typing import Any


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]], local: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package named ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the names
    it provides; ``local`` names what the ``__init__`` defines itself.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        sub = owner.get(name, name)
        if not name.startswith("__"):
            try:
                module = importlib.import_module(f"{package}.{sub}")
            except ModuleNotFoundError as exc:
                if name in owner or exc.name != f"{package}.{sub}":
                    raise
            else:
                value = module if name == sub else getattr(module, name)
                namespace[name] = value
                return value
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    return [*local, *owner], __getattr__, __dir__
