"""Custom static-invariant checkers for the PAIR reproduction.

Two tiers share the rule/violation model in :mod:`repro.checkers.core`:

* **Per-file rules (REPRO1xx)** lint one source file at a time -
  determinism (10x), GF-domain safety (11x), code-parameter validity
  (12x), API conformance (13x).  Run as
  ``python -m repro.checkers src tests benchmarks``.  Catalogue:
  DESIGN.md section 6c.
* **Project-wide dataflow rules (REPRO2xx)** in :mod:`repro.checkers.flow`
  load the whole file set, resolve names through aliases/re-exports and
  track dataflow across module boundaries - seed provenance (20x),
  worker-boundary safety (21x), obs purity (22x), GF-kernel contract (23x).
  Catalogue: DESIGN.md section 6g.

``python -m repro check`` runs both tiers in one pass
(:mod:`repro.checkers.runner`), subtracts the fingerprint baseline
(:mod:`repro.checkers.baseline`) and can export SARIF 2.1.0
(:mod:`repro.checkers.sarif`) for CI code-scanning upload.
"""

from __future__ import annotations

from .baseline import DEFAULT_BASELINE, Baseline, violation_fingerprint
from .conformance import ConformanceChecker
from .core import (
    ALL_CODES,
    Checker,
    FileContext,
    Rule,
    Violation,
    all_rules,
    check_paths,
    check_source,
    iter_python_files,
    parse_noqa,
    report,
)
from .determinism import DeterminismChecker
from .flow import (
    all_flow_rules,
    run_flow_checks,
    run_flow_checks_on_project,
    run_flow_checks_on_sources,
)
from .gfsafety import GFSafetyChecker
from .params import CodeParamsChecker
from .runner import CheckResult, full_catalogue, run_checks
from .sarif import to_sarif, write_sarif

__all__ = [
    "ALL_CODES",
    "Baseline",
    "CheckResult",
    "Checker",
    "CodeParamsChecker",
    "ConformanceChecker",
    "DEFAULT_BASELINE",
    "DeterminismChecker",
    "FileContext",
    "GFSafetyChecker",
    "Rule",
    "Violation",
    "all_flow_rules",
    "all_rules",
    "check_paths",
    "check_source",
    "full_catalogue",
    "iter_python_files",
    "parse_noqa",
    "report",
    "run_checks",
    "run_flow_checks",
    "run_flow_checks_on_project",
    "run_flow_checks_on_sources",
    "to_sarif",
    "violation_fingerprint",
    "write_sarif",
]
