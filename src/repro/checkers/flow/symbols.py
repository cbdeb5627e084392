"""Name resolution through aliases and re-exports.

Turns a local attribute chain (``_obs.counter``, ``np.random.default_rng``,
``plan.execute_chunk``) into a fully qualified name by following the
module's import bindings, and - when the target lands in a loaded package
``__init__`` that merely re-exports it - chases the re-export chain to the
defining module.  That is what lets a rule written against
``repro.campaign.plan.execute_chunk`` fire regardless of whether a call
site spells it ``execute_chunk()``, ``plan.execute_chunk()`` or
``cp.execute_chunk()``.  A lazily exporting package (:mod:`repro._exports`)
declares its re-exports only under ``if TYPE_CHECKING:``; those bindings
count too, since the import bindings come from the whole module AST.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .project import ModuleInfo, Project


def attr_chain(node: ast.expr) -> tuple[str, ...]:
    """``np.random.default_rng`` -> ``("np", "random", "default_rng")``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


@dataclass(frozen=True)
class ResolvedFunction:
    """A call target resolved to a def inside the loaded project."""

    module: ModuleInfo
    local_name: str  # "fn" or "Class.method" inside the module
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def qualname(self) -> str:
        return f"{self.module.name}:{self.local_name}"


class Resolver:
    """Qualified-name resolution over one loaded :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project

    def qualify(self, module: ModuleInfo, chain: tuple[str, ...]) -> str | None:
        """Fully qualified dotted name for a local attribute chain.

        Returns ``None`` when the chain does not start at an imported or
        module-level name (e.g. it is rooted at a local variable).
        """
        if not chain:
            return None
        root = chain[0]
        binding = module.imports.get(root)
        if binding is not None:
            qual = ".".join((binding.target, *chain[1:]))
        elif root in module.functions or root in module.module_assigns:
            qual = ".".join((module.name, *chain))
        else:
            return None
        return self._chase_reexports(qual)

    def _chase_reexports(self, qualname: str, _depth: int = 0) -> str:
        """Follow ``from .x import y`` chains through loaded ``__init__``s."""
        if _depth > 10:  # cycle guard; re-export chains are shallow in practice
            return qualname
        owner = self.project._owning_module(qualname)
        if owner is None:
            return qualname
        info = self.project.modules[owner]
        owner_pkg = owner[: -len(".__init__")] if owner.endswith(".__init__") else owner
        rest = qualname[len(owner_pkg):].lstrip(".")
        if not rest:
            return qualname
        head, _, tail = rest.partition(".")
        binding = info.imports.get(head)
        if binding is None:
            return qualname
        retarget = f"{binding.target}.{tail}" if tail else binding.target
        if retarget == qualname:
            return qualname
        return self._chase_reexports(retarget, _depth + 1)

    def resolve_call(self, module: ModuleInfo, call: ast.Call) -> ResolvedFunction | None:
        """The project function a call targets, if it is one."""
        chain = attr_chain(call.func)
        qual = self.qualify(module, chain)
        if qual is None:
            return None
        return self.find_function(qual)

    def find_function(self, qualname: str) -> ResolvedFunction | None:
        """Split a qualified name into (owning module, def) if loaded."""
        owner = self.project._owning_module(qualname)
        if owner is None:
            return None
        info = self.project.modules[owner]
        owner_pkg = owner[: -len(".__init__")] if owner.endswith(".__init__") else owner
        local = qualname[len(owner_pkg):].lstrip(".")
        node = info.functions.get(local)
        if node is None:
            return None
        return ResolvedFunction(module=info, local_name=local, node=node)

    def matches(self, module: ModuleInfo, expr: ast.expr, *targets: str) -> bool:
        """Whether ``expr`` (an attr chain) resolves to any qualified target."""
        qual = self.qualify(module, attr_chain(expr))
        return qual is not None and qual in targets
