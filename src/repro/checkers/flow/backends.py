"""GF-kernel contract rules (REPRO23x).

The GF(2^m) kernel in ``repro.galois.backends`` obeys two structural
contracts (DESIGN.md 6f): every precomputed table is surrendered through
``clear_cache`` so ``repro.galois.batch.clear_cache()`` really drops all
state, and kernels never mutate their input arrays (the same ``words``
matrix is re-screened by the decoders and by differential tests).  This
family pins each:

* REPRO232 - a module-level mutable container in the kernel module that no
  ``clear_cache``-family function in the same module clears.  An uncleared
  module cache survives ``clear_cache()`` and leaks stale per-field tables
  across field rebuilds.
* REPRO233 - a kernel function writes through one of its parameters
  (subscript/augmented assignment, a mutating ndarray method, or ``out=``
  aliasing), including through local views of a parameter.  Input mutation
  would make kernel results order-dependent and corrupt the shared arrays
  the engines re-screen.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..core import Rule, Violation
from .dataflow import FlowChecker
from .project import ModuleInfo, Project
from .symbols import Resolver

UNCLEARED_CACHE = Rule(
    code="REPRO232",
    name="uncleared-backend-cache",
    summary="every module-level cache in the GF kernel module must be dropped by clear_cache",
    hint="clear it inside a clear_cache/clear_*_cache function in the same module",
    rationale=(
        "a cache that survives clear_cache() leaks stale per-field tables "
        "across field rebuilds, which the cache-hygiene tests cannot see"
    ),
)

INPLACE_MUTATION = Rule(
    code="REPRO233",
    name="backend-mutates-input",
    summary="GF kernels must not mutate their input arrays in place",
    hint="operate on a copy or write into a locally allocated output array",
    rationale=(
        "the decoders re-screen the same arrays; in-place writes would make "
        "results depend on call order and break bit-identity"
    ),
)

_KERNEL_MODULE = "repro.galois.backends"

#: ndarray methods that mutate the receiver.
_MUTATING_METHODS = frozenset(
    {"sort", "fill", "resize", "put", "partition", "setfield", "itemset", "setflags"}
)


def _violation(rule: Rule, module: ModuleInfo, node: ast.AST, message: str) -> Violation:
    return Violation(
        rule=rule,
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


class BackendContractChecker(FlowChecker):
    rules = (UNCLEARED_CACHE, INPLACE_MUTATION)

    def check_project(self, project: Project, resolver: Resolver) -> Iterator[Violation]:
        module = project.modules.get(_KERNEL_MODULE)
        if module is not None:
            yield from self._check_uncleared_caches(module)
            yield from self._check_inplace_mutation(module)

    # -- REPRO232 --------------------------------------------------------------

    def _check_uncleared_caches(self, module: ModuleInfo) -> Iterator[Violation]:
        if not module.mutable_globals:
            return
        cleared = _names_cleared_in_cache_clearers(module)
        for name, line in sorted(module.mutable_globals.items(), key=lambda kv: kv[1]):
            if name in cleared:
                continue
            yield _violation(
                UNCLEARED_CACHE, module, _line_anchor(line),
                f"module-level container {name!r} is not dropped by any "
                "clear_cache function; stale tables survive clear_cache()",
            )

    # -- REPRO233 --------------------------------------------------------------

    def _check_inplace_mutation(self, module: ModuleInfo) -> Iterator[Violation]:
        for local_name, fn in module.functions.items():
            params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
            params.discard("self")
            params.discard("cls")
            if not params:
                continue
            aliased = _param_view_aliases(fn, params)
            watched = params | aliased
            yield from self._scan_mutations(fn, local_name, watched, module)

    def _scan_mutations(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        local_name: str,
        watched: set[str],
        module: ModuleInfo,
    ) -> Iterator[Violation]:
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue  # rebinding a name is fine; writing through it is not
                    name = _subscript_base(target)
                    if name in watched:
                        yield _violation(
                            INPLACE_MUTATION, module, target,
                            f"{local_name}() writes into parameter-backed "
                            f"array {name!r} in place",
                        )
            elif isinstance(sub, ast.AugAssign):
                name = _subscript_base(sub.target)
                if name is None and isinstance(sub.target, ast.Name):
                    name = sub.target.id
                if name in watched:
                    yield _violation(
                        INPLACE_MUTATION, module, sub.target,
                        f"{local_name}() mutates parameter-backed array "
                        f"{name!r} via augmented assignment",
                    )
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in watched
                ):
                    yield _violation(
                        INPLACE_MUTATION, module, sub,
                        f"{local_name}() calls mutating method "
                        f".{func.attr}() on parameter {func.value.id!r}",
                    )
                for kw in sub.keywords:
                    if (
                        kw.arg == "out"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in watched
                    ):
                        yield _violation(
                            INPLACE_MUTATION, module, kw.value,
                            f"{local_name}() writes into parameter "
                            f"{kw.value.id!r} via out=",
                        )


class _LineAnchor:
    """Minimal AST-node stand-in carrying only a source position."""

    def __init__(self, line: int) -> None:
        self.lineno = line
        self.col_offset = 0


def _line_anchor(line: int) -> ast.AST:
    return _LineAnchor(line)  # type: ignore[return-value]


def _names_cleared_in_cache_clearers(module: ModuleInfo) -> set[str]:
    """Globals dropped (``.clear()`` or rebound) inside clear-cache defs."""
    cleared: set[str] = set()
    for local_name, fn in module.functions.items():
        short = local_name.rsplit(".", 1)[-1]
        if not (short == "clear_cache" or (short.startswith("clear_") and short.endswith("_cache"))):
            continue
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("clear", "pop")
                and isinstance(sub.func.value, ast.Name)
            ):
                cleared.add(sub.func.value.id)
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        cleared.add(target.id)
    return cleared


def _param_view_aliases(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, params: set[str]
) -> set[str]:
    """Local names bound to views of parameters (``row = acc[j]``, ``t = x.T``)."""
    aliased: set[str] = set(params)
    for _ in range(4):  # short fixpoint: view-of-view chains are shallow
        grew = False
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Assign):
                continue
            value = sub.value
            base: str | None = None
            if isinstance(value, ast.Name):
                base = value.id
            elif isinstance(value, ast.Subscript):
                base = _subscript_base(value)
            elif isinstance(value, ast.Attribute) and value.attr in ("T", "real", "imag", "flat"):
                if isinstance(value.value, ast.Name):
                    base = value.value.id
            if base is None or base not in aliased:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name) and target.id not in aliased:
                    aliased.add(target.id)
                    grew = True
        if not grew:
            break
    return aliased - params


def _subscript_base(node: ast.expr) -> str | None:
    """``acc[j][k]`` / ``acc[j, k]`` -> ``"acc"`` (None for other shapes)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None
