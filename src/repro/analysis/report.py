"""One-shot markdown report: re-derive the experiment record from code.

``python -m repro report -o report.md`` runs a condensed version of every
table/figure harness (analytic reliability sweep, performance suite, burst
coverage, overheads, energy, scaling headroom) and writes a self-contained
markdown report - the automated counterpart of the hand-curated
EXPERIMENTS.md.

The heavy experiments use reduced sample counts by default (``quick=True``)
so the whole report builds in about a minute; pass ``quick=False`` for
bench-grade settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dram.addressing import AddressMapper
from ..dram.config import RANK_X8_5CHIP
from ..perf.energy import energy_row
from ..perf.overheads import overhead_row
from ..perf.timing_sim import simulate
from ..perf.trace import generate_trace
from ..perf.workloads import WORKLOADS
from ..reliability.analytic import build_model
from ..reliability.batch import run_burst_lengths_batched
from ..reliability.exact import ExactRunConfig
from ..schemes import EccScheme, default_schemes
from ..utils.atomic_io import atomic_write_text
from .sweep import geomean, log_space, max_tolerable_ber


@dataclass
class ReportConfig:
    quick: bool = True

    @property
    def samples(self) -> int:
        return 250 if self.quick else 1200

    @property
    def burst_trials(self) -> int:
        return 8 if self.quick else 20

    @property
    def trace_requests(self) -> int:
        return 6000 if self.quick else 20000


def _md_table(rows: list[dict]) -> str:
    """Markdown pipe table from dict rows."""
    if not rows:
        return "(no data)\n"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for row in rows:
        out.append("| " + " | ".join(str(row.get(c, "-")) for c in cols) + " |")
    return "\n".join(out) + "\n"


def section_configurations(schemes: list[EccScheme]) -> str:
    rows = [s.description() for s in schemes]
    return "## Scheme configurations (T1)\n\n" + _md_table(rows)


def section_reliability(schemes: list[EccScheme], config: ReportConfig) -> str:
    bers = log_space(1e-7, 1e-3, 7)
    models = {s.name: build_model(s, samples=config.samples) for s in schemes}
    rows = []
    for ber in bers:
        row = {"ber": f"{ber:.0e}"}
        for name, model in models.items():
            probs = model.line_probs(ber)
            row[name] = f"{probs['sdc'] + probs['due']:.2e}"
        rows.append(row)
    fails = {
        name: [float(r[name]) for r in rows] for name in models
    }
    ratios = [
        f"{x / p:.1e}" for x, p in zip(fails["xed"], fails["pair"])
    ]
    body = "## Reliability vs weak-cell BER (F2)\n\n" + _md_table(rows)
    body += f"\nPAIR/XED failure ratio across the sweep: {', '.join(ratios)}\n"
    return body


def section_performance(schemes: list[EccScheme], config: ReportConfig) -> str:
    mapper = AddressMapper(RANK_X8_5CHIP)
    results: dict[str, dict[str, float]] = {}
    for wname, wcfg in WORKLOADS.items():
        from dataclasses import replace

        trace = generate_trace(replace(wcfg, requests=config.trace_requests), mapper)
        results[wname] = {
            s.name: simulate(trace, s.timing_overlay, s.name, wname).throughput
            for s in schemes
        }
    rows = []
    for wname, per_scheme in results.items():
        pair = per_scheme["pair"]
        rows.append(
            {"workload": wname}
            | {n: f"{v / pair:.3f}" for n, v in per_scheme.items()}
        )
    gm_rows = []
    for s in schemes:
        gm = geomean(results[w][s.name] / results[w]["pair"] for w in results)
        gm_rows.append({"scheme": s.name, "geomean_vs_pair": f"{gm:.3f}"})
    return (
        "## Performance (F5)\n\nThroughput normalized to PAIR:\n\n"
        + _md_table(rows)
        + "\n"
        + _md_table(gm_rows)
    )


def section_bursts(schemes: list[EccScheme], config: ReportConfig) -> str:
    lengths = [2, 4, 8, 12, 16]
    rows = []
    for s in schemes:
        tallies = run_burst_lengths_batched(
            s, lengths, ExactRunConfig(trials=config.burst_trials, seed=0)
        )
        rows.append(
            {"scheme": s.name}
            | {
                f"b={b}": f"{(tallies[b].ok + tallies[b].ce) / tallies[b].total:.2f}"
                for b in lengths
            }
        )
    return "## Burst survival (F4)\n\n" + _md_table(rows)


def section_overheads(schemes: list[EccScheme]) -> str:
    rows = [overhead_row(s) for s in schemes]
    energy = [energy_row(s) for s in schemes]
    return (
        "## Implementation overheads (T2)\n\n"
        + _md_table(rows)
        + "\n## Energy per access (T3)\n\n"
        + _md_table(energy)
    )


def section_headroom(schemes: list[EccScheme], config: ReportConfig) -> str:
    models = {
        s.name: build_model(s, samples=config.samples)
        for s in schemes
        if s.name != "no-ecc"
    }
    rows = []
    for target in (1e-12, 1e-15):
        row = {"failure_target": f"{target:.0e}"}
        for name, model in models.items():
            row[name] = f"{max_tolerable_ber(model, target):.2e}"
        rows.append(row)
    return "## Scaling headroom: max tolerable BER (F9)\n\n" + _md_table(rows)


def report_manifest(config: ReportConfig | None = None) -> dict:
    """Machine-readable description of what a report build would contain.

    This is the stable JSON surface behind ``python -m repro report --json``:
    the settings and section/scheme lineup, without running the (slow)
    experiments themselves.  Golden-schema tests pin its keys.
    """
    config = config or ReportConfig()
    return {
        "kind": "report_manifest",
        "settings": "quick" if config.quick else "full",
        "samples": config.samples,
        "burst_trials": config.burst_trials,
        "trace_requests": config.trace_requests,
        "schemes": [s.name for s in default_schemes()],
        "sections": [
            "configurations",
            "reliability",
            "performance",
            "bursts",
            "overheads",
            "headroom",
        ],
    }


def generate_report(config: ReportConfig | None = None) -> str:
    """Build the full markdown report string."""
    config = config or ReportConfig()
    schemes = default_schemes()
    parts = [
        "# PAIR reproduction - generated experiment report\n",
        f"(settings: {'quick' if config.quick else 'full'}; see EXPERIMENTS.md "
        "for the curated record and DESIGN.md for reconstruction notes)\n",
        section_configurations(schemes),
        section_reliability(schemes, config),
        section_performance(schemes, config),
        section_bursts(schemes, config),
        section_overheads(schemes),
        section_headroom(schemes, config),
    ]
    return "\n".join(parts)


def write_report(path: str, config: ReportConfig | None = None) -> str:
    """Generate and write the report; returns the path.

    Written atomically so an interrupt mid-report never leaves a
    half-generated markdown file at the destination.
    """
    content = generate_report(config)
    atomic_write_text(path, content)
    return path
