"""Project-wide dataflow checker tier (REPRO2xx rules).

Where the REPRO1xx families lint one file at a time, this tier loads every
checked file into a :class:`~repro.checkers.flow.project.Project`, resolves
names through aliases and re-exports
(:class:`~repro.checkers.flow.symbols.Resolver`), and runs intraprocedural
dataflow with interprocedural summaries
(:mod:`~repro.checkers.flow.dataflow`) to check the cross-module invariants
the reproduction's numbers rest on:

* ``REPRO20x`` seed provenance       (:mod:`.seeds`)
* ``REPRO21x`` worker-boundary safety (:mod:`.workers`)
* ``REPRO22x`` obs purity            (:mod:`.obspurity`)
* ``REPRO23x`` GF-kernel contract    (:mod:`.backends`)

Suppression works exactly like the per-file tier: a ``# repro:
noqa-REPRO201`` comment on the flagged line waives that rule there.  Entry
point: :func:`run_flow_checks`; the combined CLI lives behind
``python -m repro check``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path

from ..core import Rule, Violation
from .backends import BackendContractChecker
from .dataflow import FlowChecker
from .obspurity import ObsPurityChecker
from .project import ModuleInfo, Project
from .seeds import SeedProvenanceChecker
from .symbols import Resolver
from .workers import WorkerBoundaryChecker

__all__ = [
    "BackendContractChecker",
    "FlowChecker",
    "ModuleInfo",
    "ObsPurityChecker",
    "Project",
    "Resolver",
    "SeedProvenanceChecker",
    "WorkerBoundaryChecker",
    "all_flow_rules",
    "default_flow_checkers",
    "run_flow_checks",
    "run_flow_checks_on_project",
    "run_flow_checks_on_sources",
]


def default_flow_checkers() -> list[FlowChecker]:
    return [
        SeedProvenanceChecker(),
        WorkerBoundaryChecker(),
        ObsPurityChecker(),
        BackendContractChecker(),
    ]


def all_flow_rules() -> list[Rule]:
    """Every REPRO2xx rule, sorted by code."""
    rules: list[Rule] = []
    for checker in default_flow_checkers():
        rules.extend(checker.rules)
    return sorted(rules, key=lambda r: r.code)


def _filter(
    violations: Iterable[Violation],
    project: Project,
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> list[Violation]:
    out: list[Violation] = []
    seen: set[tuple[str, str, int, int, str]] = set()
    for violation in violations:
        code = violation.code
        key = (code, violation.path, violation.line, violation.col, violation.message)
        if key in seen:  # e.g. one worker entry dispatched from several sites
            continue
        seen.add(key)
        if select and not any(code.startswith(s) for s in select):
            continue
        if ignore and any(code.startswith(s) for s in ignore):
            continue
        module = project.by_path.get(violation.path)
        if module is not None:
            codes = module.noqa.get(violation.line)
            if codes and ("*" in codes or code in codes):
                continue
        out.append(violation)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def run_flow_checks_on_project(
    project: Project,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Violation]:
    """Run every flow rule family over an already-loaded project."""
    resolver = Resolver(project)
    violations: list[Violation] = []
    for checker in default_flow_checkers():
        violations.extend(checker.check_project(project, resolver))
    return _filter(violations, project, select, ignore)


def run_flow_checks(
    files: Iterable[str | Path],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Violation]:
    """Load ``files`` from disk and run the REPRO2xx tier over them."""
    return run_flow_checks_on_project(Project.load(files), select, ignore)


def run_flow_checks_on_sources(
    sources: dict[str, str],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Violation]:
    """In-memory variant (the fixture corpus feeds ``{path: source}``)."""
    return run_flow_checks_on_project(Project.from_sources(sources), select, ignore)
