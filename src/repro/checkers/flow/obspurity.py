"""Observability-purity rule (REPRO22x).

``repro.obs`` is contractually *write-only* from the instrumented hot
layers: counters and spans absorb facts about the run, but no measured
value may ever flow back into a tally or a returned result (DESIGN.md 6e -
"off-by-default, never perturbs seeded results").  The per-file lints
cannot see that contract because it is a dataflow property; this family
makes it mechanical:

* REPRO221 - inside the instrumented hot layers (``galois``, ``codes``,
  ``faults``, ``reliability``, ``schemes``, ``perf``), a value *read* from the obs
  layer (a snapshot, a counter/gauge/histogram read, a span record or its
  duration) reaches a ``return`` expression or a ``Tally``/``guard_tally``
  argument.  Writing (``counter.add``, ``histogram.observe``) stays legal
  everywhere; it is the read-back edge that would let an operational knob
  perturb published numbers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..core import Rule, Violation
from .dataflow import FlowChecker, build_scope, expr_tainted, tainted_names
from .project import ModuleInfo, Project
from .symbols import Resolver, attr_chain

OBS_INTO_RESULT = Rule(
    code="REPRO221",
    name="obs-read-into-result",
    summary="obs-layer reads must not flow into tallies or hot-layer return values",
    hint="keep obs write-only in the hot path; read snapshots in reporting code",
    rationale=(
        "an obs-derived value reaching a tally or return couples published "
        "numbers to whether observability was enabled, breaking the "
        "never-perturbs contract the differential suite certifies"
    ),
)

#: second path component of modules the rule applies to (the hot layers).
_HOT_LAYERS = frozenset(
    {"galois", "codes", "faults", "reliability", "schemes", "perf"}
)

#: obs-module calls whose return value carries measurement data.  The
#: streaming layer (DESIGN.md 6j) extends the family: encoded deltas,
#: merged stream snapshots and stream statistics are all measurement
#: reads just like a registry snapshot.
_VALUE_READ_CALLS = frozenset(
    {"snapshot", "spans_snapshot", "summarize", "read_snapshots",
     "record_span", "span", "delta", "counter_total", "series", "stats",
     "watch_snapshot"}
)

#: obs handle constructors; reads *on the handle* are the taint source.
_HANDLE_CTORS = frozenset(
    {"counter", "gauge", "histogram", "DeltaEncoder", "StreamMerger",
     "SeriesRing"}
)

#: attribute/method reads on obs handles and span records that yield data.
_HANDLE_READS = frozenset(
    {"value", "values", "count", "total", "sum", "mean", "max", "min",
     "duration", "as_dict", "rate", "buckets", "delta", "snapshot",
     "counter_total", "series", "stats", "points", "last", "dropped"}
)

#: tally sinks: constructing or guarding a tally from tainted values.
_TALLY_SINKS = frozenset(
    {"repro.reliability.outcomes.Tally", "repro.errors.guard_tally"}
)
_TALLY_SINK_TAILS = frozenset({"Tally", "guard_tally"})


def _hot_layer(module: ModuleInfo) -> bool:
    parts = module.name.split(".")
    return (
        module.in_project
        and len(parts) >= 2
        and parts[0] == "repro"
        and parts[1] in _HOT_LAYERS
    )


def _obs_aliases(module: ModuleInfo) -> set[str]:
    """Local names bound (directly) to repro.obs modules or symbols."""
    return {
        local
        for local, binding in module.imports.items()
        if binding.target == "repro.obs" or binding.target.startswith("repro.obs.")
    }


class ObsPurityChecker(FlowChecker):
    rules = (OBS_INTO_RESULT,)

    def check_project(self, project: Project, resolver: Resolver) -> Iterator[Violation]:
        for module in project.modules.values():
            if not _hot_layer(module):
                continue
            aliases = _obs_aliases(module)
            if not aliases:
                continue
            handle_names = _module_handle_names(module, aliases)
            for local_name, node in module.functions.items():
                yield from self._check_function(
                    node, local_name, module, resolver, aliases, handle_names
                )

    def _check_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        local_name: str,
        module: ModuleInfo,
        resolver: Resolver,
        aliases: set[str],
        module_handles: set[str],
    ) -> Iterator[Violation]:
        scope = build_scope(node, module)
        local_handles = set(module_handles)
        for name, values in scope.bindings.items():
            if any(_is_handle_ctor(v, aliases) for v in values):
                local_handles.add(name)

        def is_source(expr: ast.expr) -> bool:
            return _is_obs_read(expr, aliases, local_handles)

        tainted = tainted_names(scope, is_source)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                if expr_tainted(sub.value, tainted, is_source):
                    yield Violation(
                        rule=OBS_INTO_RESULT, path=module.path,
                        line=sub.lineno, col=sub.col_offset,
                        message=(
                            f"{local_name}() returns a value derived from an "
                            "obs-layer read"
                        ),
                    )
            elif isinstance(sub, ast.Call) and _is_tally_sink(sub, module, resolver):
                for arg in (*sub.args, *(kw.value for kw in sub.keywords)):
                    if expr_tainted(arg, tainted, is_source):
                        yield Violation(
                            rule=OBS_INTO_RESULT, path=module.path,
                            line=arg.lineno, col=arg.col_offset,
                            message=(
                                "obs-derived value flows into a tally in "
                                f"{local_name}()"
                            ),
                        )


def _module_handle_names(module: ModuleInfo, aliases: set[str]) -> set[str]:
    """Module-level names bound to obs counter/gauge/histogram handles."""
    return {
        name
        for name, values in module.module_assigns.items()
        if any(_is_handle_ctor(v, aliases) for v in values)
    }


def _is_handle_ctor(expr: ast.expr, aliases: set[str]) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    chain = attr_chain(expr.func)
    if len(chain) >= 2 and chain[0] in aliases and chain[-1] in _HANDLE_CTORS:
        return True
    # direct-import form: ``from repro.obs import DeltaEncoder`` then
    # ``DeltaEncoder(...)`` - the local name is itself the obs alias.
    return (
        len(chain) == 1 and chain[0] in aliases and chain[0] in _HANDLE_CTORS
    )


def _is_obs_read(expr: ast.expr, aliases: set[str], handles: set[str]) -> bool:
    """An expression whose value carries obs measurement data."""
    # alias.snapshot(...) and friends
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if len(chain) >= 2 and chain[0] in aliases and chain[-1] in _VALUE_READ_CALLS:
            return True
        # handle.value() / record.as_dict() method-call form
        if (
            isinstance(expr.func, ast.Attribute)
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id in handles
            and expr.func.attr in _HANDLE_READS
        ):
            return True
        return False
    # handle.value attribute form
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in handles
        and expr.attr in _HANDLE_READS
    ):
        return True
    return False


def _is_tally_sink(call: ast.Call, module: ModuleInfo, resolver: Resolver) -> bool:
    chain = attr_chain(call.func)
    if not chain:
        return False
    qual = resolver.qualify(module, chain)
    if qual is not None:
        return qual in _TALLY_SINKS
    return chain[-1] in _TALLY_SINK_TAILS
