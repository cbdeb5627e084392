"""Intraprocedural dataflow with interprocedural summaries.

Three building blocks shared by every REPRO2xx rule family:

* **Scopes** - a per-function binding table (every RHS ever assigned to a
  name, including ``with ... as`` targets and nested-def declarations) with
  a parent link, so closure captures can be traced to their defining scope.
* **RNG provenance** - a conservative classifier mapping an expression to
  where its randomness comes from: an explicit seed (:data:`RNG_SEEDED`),
  nothing (:data:`RNG_UNSEEDED` - ``default_rng()`` / ``default_rng(None)``
  / an unseeded bit generator), a threaded parameter
  (:data:`RNG_PARAM`), or a spawned child (:data:`RNG_SPAWNED`).
  Unknown shapes classify :data:`NOT_RNG`; the rules only fire on what the
  analysis can prove.
* **Worker dispatch sites** - the process-boundary crossings: a callable
  plus its shipped arguments for ``ProcessPoolExecutor.submit``/``map``,
  ``multiprocessing.Pool.apply*``/``*map*`` and ``Process(target=...,
  args=(...))`` launches, plus the fleet wire (``write_frame`` /
  ``send_frame`` / ``FrameLink.send`` - JSON frames shipped to agent
  processes over a socket).  Everything in ``shipped`` crosses into
  another process, which is exactly where the 20x/21x invariants bite.

Plus a small generic taint engine (:func:`tainted_names`,
:func:`expr_tainted`) used by the obs-purity family: a caller supplies an
``is_source`` predicate and gets back the set of names that (transitively)
carry source-derived values.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .project import ModuleInfo
from .symbols import Resolver, attr_chain

# -- scopes --------------------------------------------------------------------


@dataclass
class Scope:
    """Binding table for one function (or the module itself)."""

    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda / Module
    module: ModuleInfo
    parent: "Scope | None" = None
    params: set[str] = field(default_factory=set)
    bindings: dict[str, list[ast.expr]] = field(default_factory=dict)
    nested: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(default_factory=dict)

    def bind(self, name: str, value: ast.expr) -> None:
        self.bindings.setdefault(name, []).append(value)

    def lookup(self, name: str) -> "tuple[Scope, list[ast.expr]] | None":
        """Innermost scope binding ``name`` plus its RHS expressions."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope, scope.bindings[name]
            if name in scope.params:
                return scope, []
            scope = scope.parent
        return None

    def is_param(self, name: str) -> bool:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.params:
                return True
            if name in scope.bindings:
                return False  # shadowed by a local binding
            scope = scope.parent
        return False


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def build_scope(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    module: ModuleInfo,
    parent: Scope | None = None,
) -> Scope:
    """Binding table for one function body (nested defs are not entered)."""
    scope = Scope(node=node, module=module, parent=parent, params=_param_names(node))
    body = node.body if isinstance(node.body, list) else [ast.Expr(node.body)]
    _walk_bindings(body, scope)
    return scope


def _walk_bindings(body: list[ast.stmt], scope: Scope) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.nested[stmt.name] = stmt
            continue  # nested bodies get their own scope
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                _bind_target(target, stmt.value, scope)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            _bind_target(stmt.target, stmt.value, scope)
        elif isinstance(stmt, ast.AugAssign):
            _bind_target(stmt.target, stmt.value, scope)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    _bind_target(item.optional_vars, item.context_expr, scope)
        elif isinstance(stmt, ast.For):
            _bind_target(stmt.target, stmt.iter, scope)
        # recurse into compound statements (same scope)
        for child_body in _child_bodies(stmt):
            _walk_bindings(child_body, scope)


def _bind_target(target: ast.expr, value: ast.expr, scope: Scope) -> None:
    if isinstance(target, ast.Name):
        scope.bind(target.id, value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind_target(elt, value, scope)


def _child_bodies(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    for fname in ("body", "orelse", "finalbody"):
        block = getattr(stmt, fname, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(stmt, "handlers", []):
        yield handler.body


def iter_function_scopes(module: ModuleInfo) -> Iterator[tuple[str, Scope]]:
    """``(local_name, scope)`` for every module-level def (incl. methods)."""
    for local_name, node in module.functions.items():
        yield local_name, build_scope(node, module)


# -- RNG provenance ------------------------------------------------------------

RNG_SEEDED = "seeded"
RNG_UNSEEDED = "unseeded"
RNG_PARAM = "param"
RNG_SPAWNED = "spawned"
NOT_RNG = "not-rng"

#: parameter names conventionally carrying a threaded Generator.
RNG_PARAM_NAMES = frozenset({"rng", "gen", "generator", "bit_generator"})

#: numpy bit-generator constructors (unseeded without arguments).
_BITGEN_NAMES = frozenset({"PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"})

#: fully qualified RNG factory names.
_DEFAULT_RNG_QUALS = frozenset({"numpy.random.default_rng"})
_GENERATOR_QUALS = frozenset({"numpy.random.Generator"})
_SEEDSEQ_QUALS = frozenset({"numpy.random.SeedSequence"})


def _is_rng_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    chain = attr_chain(annotation)
    return bool(chain) and chain[-1] == "Generator"


def rng_param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters that (by name or annotation) carry a Generator."""
    out: set[str] = set()
    for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
        if arg.arg in RNG_PARAM_NAMES or _is_rng_annotation(arg.annotation):
            out.add(arg.arg)
    return out


def _seed_argument(call: ast.Call) -> ast.expr | None:
    """The seed expression of a ``default_rng``-shaped call, if present."""
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "seed":
            return kw.value
    return None


def classify_rng(
    expr: ast.expr,
    scope: Scope | None,
    module: ModuleInfo,
    resolver: Resolver,
    _depth: int = 0,
) -> str:
    """Provenance of ``expr`` as a random generator (conservative)."""
    if _depth > 8:
        return NOT_RNG
    if isinstance(expr, ast.Name):
        if scope is not None and scope.is_param(expr.id):
            return RNG_PARAM if expr.id in RNG_PARAM_NAMES else NOT_RNG
        hit = scope.lookup(expr.id) if scope is not None else None
        values = hit[1] if hit else module.module_assigns.get(expr.id, [])
        owner = hit[0] if hit else None
        kinds = {
            classify_rng(value, owner, module, resolver, _depth + 1) for value in values
        }
        kinds.discard(NOT_RNG)
        if not kinds:
            return NOT_RNG
        for kind in (RNG_UNSEEDED, RNG_PARAM, RNG_SPAWNED, RNG_SEEDED):
            if kind in kinds:
                return kind
        return NOT_RNG
    if isinstance(expr, ast.BoolOp):  # rng or default_rng(...)
        kinds = {
            classify_rng(v, scope, module, resolver, _depth + 1) for v in expr.values
        }
        kinds.discard(NOT_RNG)
        for kind in (RNG_UNSEEDED, RNG_PARAM, RNG_SPAWNED, RNG_SEEDED):
            if kind in kinds:
                return kind
        return NOT_RNG
    if isinstance(expr, ast.IfExp):
        kinds = {
            classify_rng(v, scope, module, resolver, _depth + 1)
            for v in (expr.body, expr.orelse)
        }
        kinds.discard(NOT_RNG)
        for kind in (RNG_UNSEEDED, RNG_PARAM, RNG_SPAWNED, RNG_SEEDED):
            if kind in kinds:
                return kind
        return NOT_RNG
    if not isinstance(expr, ast.Call):
        return NOT_RNG
    chain = attr_chain(expr.func)
    if not chain:
        return NOT_RNG
    qual = resolver.qualify(module, chain)
    tail = chain[-1]
    # default_rng(...): the canonical factory.
    if (qual in _DEFAULT_RNG_QUALS) or (qual is None and tail == "default_rng"):
        seed = _seed_argument(expr)
        if seed is None or (isinstance(seed, ast.Constant) and seed.value is None):
            return RNG_UNSEEDED
        return RNG_SEEDED
    # Generator(bitgen): provenance follows the bit generator.
    if (qual in _GENERATOR_QUALS) or (qual is None and tail == "Generator"):
        if expr.args:
            inner = classify_rng(expr.args[0], scope, module, resolver, _depth + 1)
            return inner if inner != NOT_RNG else RNG_SEEDED
        return RNG_UNSEEDED
    # Bare bit-generator construction.
    if tail in _BITGEN_NAMES and (qual is None or qual.startswith("numpy.random.")):
        return RNG_UNSEEDED if _seed_argument(expr) is None else RNG_SEEDED
    # SeedSequence(...) and anything.spawn(...): explicitly threaded.
    if (qual in _SEEDSEQ_QUALS) or tail == "SeedSequence":
        return RNG_SEEDED
    if tail == "spawn":
        return RNG_SPAWNED
    return NOT_RNG


#: Generator methods that are *derivation*, not draws.
_NON_DRAW_METHODS = frozenset({"spawn", "bit_generator"})


def draws_from_params(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """RNG parameters this function actually draws from."""
    rng_params = rng_param_names(node)
    if not rng_params:
        return set()
    drawn: set[str] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in rng_params
            and func.attr not in _NON_DRAW_METHODS
        ):
            drawn.add(func.value.id)
    return drawn


# -- worker dispatch sites -----------------------------------------------------

#: pool-method names that ship work to another process.
_POOL_METHODS = frozenset(
    {"submit", "map", "apply", "apply_async", "starmap", "starmap_async",
     "imap", "imap_unordered", "map_async"}
)

#: constructor names that create a process pool.
_POOL_CTOR_TAILS = frozenset({"ProcessPoolExecutor", "Pool"})
_POOL_CTOR_QUALS = frozenset(
    {"concurrent.futures.ProcessPoolExecutor", "multiprocessing.Pool"}
)

#: fleet frame-send call tails: the scheduler/agent socket boundary.  A
#: frame crosses into another *process on another machine*, so everything
#: the 21x rules forbid across a fork/spawn boundary is forbidden here too
#: (and more: frames are JSON, so RNGs/handles cannot even be
#: pickled across - they must be flagged at the send site).
_FLEET_SEND_TAILS = frozenset({"write_frame", "send_frame"})

#: constructor tail that binds a framed fleet connection endpoint.
_FLEET_LINK_CTOR_TAILS = frozenset({"FrameLink"})


@dataclass(frozen=True)
class DispatchSite:
    """One process-boundary crossing: a call that ships work to a worker."""

    call: ast.Call
    kind: str  # "pool" | "process"
    target: ast.expr | None  # the callable shipped (None when unresolvable)
    shipped: tuple[ast.expr, ...]  # every argument expression crossing the boundary


def _expand_shipped(exprs: Iterator[ast.expr] | tuple[ast.expr, ...]) -> tuple[ast.expr, ...]:
    """Each shipped expression plus the elements of container literals.

    ``pool.apply_async(fn, (rng,))`` and ``pool.map(fn, [rng] * n)`` ship the
    rng just as surely as ``pool.submit(fn, rng)`` does; unpacking tuples,
    lists, dicts, starred args and concat/repeat operands keeps the 20x/21x
    rules blind to none of them.
    """
    out: list[ast.expr] = []
    stack = list(exprs)
    while stack:
        expr = stack.pop()
        out.append(expr)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            stack.extend(expr.elts)
        elif isinstance(expr, ast.Dict):
            stack.extend(v for v in expr.values if v is not None)
        elif isinstance(expr, ast.Starred):
            stack.append(expr.value)
        elif isinstance(expr, ast.BinOp):
            stack.extend((expr.left, expr.right))
    return tuple(out)


def _is_pool_ctor(call: ast.Call, module: ModuleInfo, resolver: Resolver) -> bool:
    chain = attr_chain(call.func)
    if not chain:
        return False
    qual = resolver.qualify(module, chain)
    if qual is not None and qual in _POOL_CTOR_QUALS:
        return True
    return qual is None and chain[-1] in _POOL_CTOR_TAILS


def _binds_pool(name: str, scope: Scope, module: ModuleInfo, resolver: Resolver) -> bool:
    hit = scope.lookup(name)
    if hit is None:
        return False
    _, values = hit
    return any(
        isinstance(v, ast.Call) and _is_pool_ctor(v, module, resolver) for v in values
    )


def _binds_fleet_link(name: str, scope: Scope) -> bool:
    hit = scope.lookup(name)
    if hit is None:
        return False
    _, values = hit
    return any(
        isinstance(v, ast.Call)
        and (chain := attr_chain(v.func))
        and chain[-1] in _FLEET_LINK_CTOR_TAILS
        for v in values
    )


def iter_dispatch_sites(
    scope: Scope, module: ModuleInfo, resolver: Resolver
) -> Iterator[DispatchSite]:
    """Worker dispatch calls lexically inside ``scope``'s function body."""
    node = scope.node
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        # pool.submit(fn, *args) / pool.map(fn, iterable)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_METHODS
            and isinstance(func.value, ast.Name)
            and _binds_pool(func.value.id, scope, module, resolver)
        ):
            yield DispatchSite(
                call=sub,
                kind="pool",
                target=sub.args[0] if sub.args else None,
                shipped=_expand_shipped(
                    tuple(sub.args[1:]) + tuple(kw.value for kw in sub.keywords)
                ),
            )
            continue
        # write_frame(writer, frame) / conn.send_frame(frame): the fleet
        # wire.  The first positional of the free-function form is the
        # transport, not cargo; everything after it ships to a peer process.
        chain = attr_chain(func)
        if chain and chain[-1] in _FLEET_SEND_TAILS:
            cargo = tuple(sub.args[1:]) if len(sub.args) > 1 else tuple(sub.args)
            yield DispatchSite(
                call=sub,
                kind="fleet",
                target=None,  # frames carry data, never callables
                shipped=_expand_shipped(
                    cargo + tuple(kw.value for kw in sub.keywords)
                ),
            )
            continue
        # link.send(frame) where link is a FrameLink
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "send"
            and isinstance(func.value, ast.Name)
            and _binds_fleet_link(func.value.id, scope)
        ):
            yield DispatchSite(
                call=sub,
                kind="fleet",
                target=None,
                shipped=_expand_shipped(
                    tuple(sub.args) + tuple(kw.value for kw in sub.keywords)
                ),
            )
            continue
        # Process(target=fn, args=(...), kwargs={...})
        if chain and chain[-1] == "Process":
            target: ast.expr | None = None
            shipped: tuple[ast.expr, ...] = ()
            for kw in sub.keywords:
                if kw.arg == "target":
                    target = kw.value
                elif kw.arg in ("args", "kwargs"):
                    shipped += (kw.value,)
            if target is not None:
                yield DispatchSite(
                    call=sub, kind="process", target=target,
                    shipped=_expand_shipped(shipped),
                )


# -- rule-family base ----------------------------------------------------------


class FlowChecker:
    """Base class: one REPRO2xx rule family, run over the whole project."""

    rules: tuple = ()

    def check_project(self, project: object, resolver: Resolver) -> Iterator:
        raise NotImplementedError  # pragma: no cover


# -- generic taint -------------------------------------------------------------


def expr_tainted(
    expr: ast.expr,
    tainted: set[str],
    is_source: Callable[[ast.expr], bool],
) -> bool:
    """Whether any sub-expression is a source or a tainted name load."""
    for sub in ast.walk(expr):
        if is_source(sub):
            return True
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in tainted:
            return True
    return False


def tainted_names(
    scope: Scope,
    is_source: Callable[[ast.expr], bool],
) -> set[str]:
    """Fixpoint of names carrying source-derived values in ``scope``."""
    tainted: set[str] = set()
    for _ in range(len(scope.bindings) + 1):
        changed = False
        for name, values in scope.bindings.items():
            if name in tainted:
                continue
            if any(expr_tainted(value, tainted, is_source) for value in values):
                tainted.add(name)
                changed = True
        if not changed:
            break
    return tainted
