"""Worker-boundary safety rules (REPRO21x).

A campaign worker is a separate *process*: everything it needs must arrive
by value (pickled through the dispatch call) and everything process-local -
open handles, module-global mutable state - must be re-created on the
worker side.  ``campaign/supervisor.py`` is the reference pattern: workers
receive plain data and rebuild everything else locally.  The fleet wire
(``campaign/fleet``) is the same boundary stretched over a socket - its
frame sends are dispatch sites too, and JSON framing makes the invariants
even harder: an RNG or handle cannot cross at all, so it must be flagged
where the send happens.  These rules pin that pattern:

* REPRO211 - the callable shipped to a worker is a closure (lambda or
  nested def) capturing enclosing-scope state, or a module-level function
  that reads its own module's mutable globals.  Under ``fork`` such state
  is a stale copy, under ``spawn`` it is re-imported fresh - either way the
  worker and parent silently disagree.
* REPRO213 - an open file handle (``open(...)`` / ``*.open(...)`` result)
  is shipped across the boundary.  Descriptors do not survive pickling and
  fork-inherited handles corrupt each other's buffers; workers must open
  their own paths.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from ..core import Rule, Violation
from .dataflow import FlowChecker, Scope, build_scope, iter_dispatch_sites, iter_function_scopes
from .project import ModuleInfo, Project
from .symbols import Resolver, attr_chain

WORKER_CLOSURE = Rule(
    code="REPRO211",
    name="worker-captures-state",
    summary="worker callables must not capture closure or module-global mutable state",
    hint="pass a module-level function and ship its inputs as explicit arguments",
    rationale=(
        "captured state is a stale copy under fork and re-imported under "
        "spawn; the worker and parent silently compute from different views"
    ),
)

HANDLE_TO_WORKER = Rule(
    code="REPRO213",
    name="handle-shipped-to-worker",
    summary="open file handles must not cross the worker boundary",
    hint="ship the path and open it inside the worker",
    rationale=(
        "descriptors do not survive pickling, and fork-shared handles "
        "interleave writes and corrupt each other's buffers"
    ),
)


def _violation(rule: Rule, module: ModuleInfo, node: ast.AST, message: str) -> Violation:
    return Violation(
        rule=rule,
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _is_handle_open(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    chain = attr_chain(expr.func)
    return bool(chain) and chain[-1] == "open"


def _expr_traces_to(
    expr: ast.expr,
    scope: Scope,
    test: Callable[[ast.expr], bool],
    _depth: int = 0,
) -> bool:
    """Whether ``expr`` is, or is a name bound to, a match for ``test``."""
    if _depth > 8:
        return False
    if test(expr):
        return True
    if isinstance(expr, ast.Name):
        hit = scope.lookup(expr.id)
        if hit is None:
            return False
        owner, values = hit
        return any(_expr_traces_to(v, owner, test, _depth + 1) for v in values)
    return False


class WorkerBoundaryChecker(FlowChecker):
    rules = (WORKER_CLOSURE, HANDLE_TO_WORKER)

    def check_project(self, project: Project, resolver: Resolver) -> Iterator[Violation]:
        for module in project.modules.values():
            for _name, scope in iter_function_scopes(module):
                for site in iter_dispatch_sites(scope, module, resolver):
                    yield from self._check_callable(site.target, scope, module)
                    for expr in site.shipped:
                        yield from self._check_shipped(expr, scope, module)

    # -- REPRO211 --------------------------------------------------------------

    def _check_callable(
        self,
        target: ast.expr | None,
        scope: Scope,
        module: ModuleInfo,
    ) -> Iterator[Violation]:
        if target is None:
            return
        fn: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef | None = None
        if isinstance(target, ast.Lambda):
            fn = target
        elif isinstance(target, ast.Name) and target.id in scope.nested:
            fn = scope.nested[target.id]
        if fn is not None:
            captured = self._closure_captures(fn, scope, module)
            if captured:
                names = ", ".join(sorted(captured))
                yield _violation(
                    WORKER_CLOSURE, module, target,
                    "worker callable is a closure capturing enclosing-scope "
                    f"state ({names}); use a module-level function with "
                    "explicit arguments",
                )
            return
        # module-level function: flag reads of same-module mutable globals
        if isinstance(target, ast.Name) and target.id in module.functions:
            fn_node = module.functions[target.id]
            touched = self._mutable_global_reads(fn_node, module)
            for name, node in touched:
                yield _violation(
                    WORKER_CLOSURE, module, node,
                    f"worker entry {target.id}() reads module-global mutable "
                    f"state {name!r}; workers must receive state by argument "
                    "or rebuild it locally",
                )

    @staticmethod
    def _closure_captures(
        fn: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef,
        scope: Scope,
        module: ModuleInfo,
    ) -> set[str]:
        """Free variables of ``fn`` that are bound in the enclosing function."""
        inner = build_scope(fn, module, parent=scope)
        captured: set[str] = set()
        for sub in ast.walk(fn):
            if not (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)):
                continue
            name = sub.id
            if name in inner.params or name in inner.bindings or name in inner.nested:
                continue
            if name in scope.params or name in scope.bindings:
                captured.add(name)
        return captured

    @staticmethod
    def _mutable_global_reads(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, module: ModuleInfo
    ) -> list[tuple[str, ast.AST]]:
        mutables = module.mutable_globals
        if not mutables:
            return []
        local = _param_and_local_names(fn)
        out: list[tuple[str, ast.AST]] = []
        seen: set[str] = set()
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in mutables
                and sub.id not in local
                and sub.id not in seen
            ):
                seen.add(sub.id)
                out.append((sub.id, sub))
        return out

    # -- REPRO213 --------------------------------------------------------------

    def _check_shipped(
        self, expr: ast.expr, scope: Scope, module: ModuleInfo
    ) -> Iterator[Violation]:
        if _expr_traces_to(expr, scope, _is_handle_open):
            yield _violation(
                HANDLE_TO_WORKER, module, expr,
                "open file handle shipped into a worker; pass the path and "
                "open it worker-side",
            )


def _param_and_local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
    return names
