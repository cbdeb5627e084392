"""The pipeline's layers: which public functions make up each, and its metrics.

:func:`install` wraps the functions below with a :class:`tracing.Tracer`;
:func:`summarize` turns one repetition's spans into the per-layer metrics.

Every ``<layer>_s`` metric is a self time (time in the layer's calls minus
time in wrapped calls nested inside them), summed over every process that
ran the layer: the benchmark process and, for a campaign, its forked
workers.  ``campaign.worker_tables_s`` is the exception: the inclusive time
workers spent measuring conditional tables.  ``coverage_frac`` and
``unattributed_s`` are taken on the benchmark process alone, the caller
that waits for the answer.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from typing import Any

from repro.campaign import plan as campaign_plan
from repro.campaign.manifest import Manifest
from repro.campaign.supervisor import Supervisor
from repro.codes.base import BlockCode, DecodeStatus
from repro.dram.device import DramDevice
from repro.dram.mapping import SecWordLayout, SegmentedLayout
from repro.faults.sampler import FaultOverlay
from repro.galois.backends import KernelBackend
from repro.reliability import batch, conditional, outcomes, rareevent
from repro.reliability.analytic import ReliabilityModel
from repro.reliability.outcomes import Tally
from repro.schemes.base import EccScheme

from tracing import Before, Note, Tracer, self_times

#: span name -> self-time metric.  These are the named layers.
LAYER_TIMES = {
    "galois.screen": "galois.screen_s",
    "galois.chien": "galois.chien_s",
    "codes.decode": "codes.decode_s",
    "faults.overlay": "faults.overlay_s",
    "faults.mask": "faults.mask_s",
    "dram.clean_check": "dram.clean_check_s",
    "dram.row_read": "dram.row_read_s",
    "dram.layout": "dram.layout_s",
    "schemes.read": "schemes.read_s",
    "reliability.presample": "reliability.presample_s",
    "reliability.classify": "reliability.classify_s",
    "reliability.tables": "reliability.tables_s",
    "reliability.analytic": "reliability.analytic_s",
    "reliability.sampler": "reliability.sampler_s",
    "reliability.splitting": "reliability.splitting_s",
    "reliability.merge": "reliability.merge_s",
    "campaign.plan": "campaign.plan_s",
    "campaign.manifest": "campaign.manifest_s",
    "campaign.wait": "campaign.wait_s",
}

#: unit of every per-layer metric.
UNITS = {
    **{metric: "s" for metric in LAYER_TIMES.values()},
    "galois.screen_rows": "count",
    "galois.chien_calls": "count",
    "codes.words": "count",
    "codes.dirty_frac": "ratio",
    "codes.detected_frac": "ratio",
    "codes.words_per_s": "1/s",
    "faults.mask_calls": "count",
    "faults.mask_miss_frac": "ratio",
    "faults.mask_nonempty_frac": "ratio",
    "dram.clean_skip_frac": "ratio",
    "schemes.reads": "count",
    "reliability.table_builds": "count",
    "reliability.table_hits": "count",
    "reliability.sampler_trials_per_s": "1/s",
    "reliability.ess_frac": "ratio",
    "campaign.manifest_saves": "count",
    "campaign.chunk_p50_s": "s",
    "campaign.chunk_max_s": "s",
    "campaign.worker_busy_frac": "ratio",
    "campaign.worker_tables_s": "s",
    "campaign.retries": "count",
    "campaign.quarantined": "count",
    "coverage_frac": "ratio",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def _classes(bases: tuple[type, ...]) -> list[type]:
    """The bases and every subclass of them loaded so far."""
    found = list(bases)
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


def _wrap_methods(tracer: Tracer, bases: tuple[type, ...], attrs: tuple[str, ...],
                  name: str, note: Note | None = None,
                  before: Before | None = None) -> None:
    for cls in _classes(bases):
        for attr in attrs:
            fn = vars(cls).get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                tracer.wrap(cls, attr, name, note, before)


def _wrap_function(tracer: Tracer, fn: Any, name: str, note: Note | None = None,
                   before: Before | None = None) -> None:
    """Wrap ``fn`` in every loaded ``repro`` module that binds it by name."""
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        if vars(module).get(fn.__name__) is fn:
            tracer.wrap(module, fn.__name__, name, note, before)


# -- what each call adds to the counts ----------------------------------------


def _rows(args, kwargs, result, state):
    return int(result.shape[0])


def _decoded(args, kwargs, result, state):
    results = result if isinstance(result, list) else [result]
    dirty = detected = 0
    for res in results:
        if res.status is not DecodeStatus.OK:
            dirty += 1
            detected += res.status is DecodeStatus.DETECTED
    return (len(results), dirty, detected)


def _mask_cached(args, kwargs):
    overlay, bank, row = args[0], args[1], args[2]
    return (bank, row) in overlay._cache


def _mask(args, kwargs, result, cached):
    return (not cached, result is not None)


def _truth(args, kwargs, result, state):
    return bool(result)


def _line_reads(args, kwargs, result, state):
    return len(result) if isinstance(result, list) else 1


def _tables_before(args, kwargs):
    return len(conditional._TABLE_CACHE)


def _table_built(args, kwargs, result, before):
    return len(conditional._TABLE_CACHE) > before


def _chunk_trials(args, kwargs, result, state):
    payload = args[3] if len(args) > 3 else kwargs["payload"]
    return int(payload["trials"])


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions where they are looked up."""
    _wrap_methods(tracer, (KernelBackend,), ("syndromes",), "galois.screen", _rows)
    _wrap_methods(tracer, (KernelBackend,), ("chien_roots",), "galois.chien")
    _wrap_methods(tracer, (BlockCode,), ("decode", "decode_batch"), "codes.decode",
                  _decoded)
    _wrap_methods(tracer, (FaultOverlay,), ("__init__",), "faults.overlay")
    _wrap_methods(tracer, (FaultOverlay,), ("mask_for_row",), "faults.mask",
                  _mask, _mask_cached)
    _wrap_methods(tracer, (DramDevice,), ("row_is_clean",), "dram.clean_check", _truth)
    _wrap_methods(tracer, (DramDevice,), ("row_with_faults",), "dram.row_read")
    _wrap_methods(tracer, (SegmentedLayout, SecWordLayout),
                  ("gather", "gather_many", "scatter"), "dram.layout")
    _wrap_methods(tracer, (EccScheme,), ("read_lines", "read_line"), "schemes.read",
                  _line_reads)
    for fn in (batch.iid_epochs, batch.single_fault_specs):
        _wrap_function(tracer, fn, "reliability.presample")
    _wrap_function(tracer, outcomes.classify, "reliability.classify")
    for fn in (conditional.measure_symbol_code, conditional.measure_bit_code):
        _wrap_function(tracer, fn, "reliability.tables", _table_built, _tables_before)
    _wrap_methods(tracer, (ReliabilityModel,), ("sweep",), "reliability.analytic")
    _wrap_function(tracer, rareevent.rareevent_chunk_tally, "reliability.sampler",
                   _chunk_trials)
    # a span of its own, so that the sampler's self time excludes it
    _wrap_function(tracer, rareevent.line_law, "reliability.line_law")
    _wrap_function(tracer, rareevent.run_splitting_iid, "reliability.splitting")
    _wrap_methods(tracer, (Tally,), ("merge",), "reliability.merge")
    _wrap_function(tracer, campaign_plan.build_plan, "campaign.plan")
    _wrap_methods(tracer, (Manifest,), ("save",), "campaign.manifest")
    _wrap_methods(tracer, (Supervisor,), ("run",), "campaign.wait")


def summarize(spans: list, pid: int, wall: float,
              diag: dict[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of one repetition, and its per-process breakdown.

    Counts come from the outermost call of a layer only: a decode inside a
    decode, or a line read inside a batch of line reads, is one piece of
    work.
    """
    name_of = {(span[5], span[3]): span[0] for span in spans}
    own: dict = defaultdict(float)  # (process, span name) -> self seconds
    calls: dict = defaultdict(int)
    outer_time: dict = defaultdict(float)  # inclusive time of outermost calls
    outer: dict = defaultdict(list)  # span name -> attrs of outermost calls
    every: dict = defaultdict(list)  # (process, span name) -> attrs of calls
    for span, self_s in self_times(spans):
        name, start, end, _, parent, span_pid, attrs = span
        side = "parent" if span_pid == pid else "worker"
        own[side, name] += self_s
        calls[side, name] += 1
        if attrs is not None:
            every[side, name].append(attrs)
        if name_of.get((span_pid, parent)) != name:
            outer_time[side, name] += end - start
            if attrs is not None:
                outer[name].append(attrs)

    def both(table: dict, name: str) -> Any:
        return table["parent", name] + table["worker", name]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    decodes = outer["codes.decode"]
    words = sum(a[0] for a in decodes)
    dirty = sum(a[1] for a in decodes)
    masks = both(every, "faults.mask")
    clean = both(every, "dram.clean_check")
    tables = both(every, "reliability.tables")
    builds = sum(1 for built in tables if built)
    chunk_spans = diag.get("chunk_spans", [])
    named = sum(own["parent", name] for name in LAYER_TIMES)

    metrics = {metric: both(own, name) for name, metric in LAYER_TIMES.items()}
    metrics.update({
        "galois.screen_rows": sum(outer["galois.screen"]),
        "galois.chien_calls": both(calls, "galois.chien"),
        "codes.words": words,
        "codes.dirty_frac": ratio(dirty, words),
        "codes.detected_frac": ratio(sum(a[2] for a in decodes), dirty),
        "codes.words_per_s": ratio(words, both(outer_time, "codes.decode")),
        "faults.mask_calls": len(masks),
        "faults.mask_miss_frac": ratio(sum(1 for miss, _ in masks if miss), len(masks)),
        "faults.mask_nonempty_frac": ratio(sum(1 for _, hit in masks if hit), len(masks)),
        "dram.clean_skip_frac": ratio(sum(clean), len(clean)),
        "schemes.reads": sum(outer["schemes.read"]),
        "reliability.table_builds": builds,
        "reliability.table_hits": len(tables) - builds,
        "reliability.sampler_trials_per_s": ratio(
            sum(both(every, "reliability.sampler")), both(own, "reliability.sampler")
        ),
        "reliability.ess_frac": diag.get("ess_frac", 1.0),
        "campaign.manifest_saves": both(calls, "campaign.manifest"),
        "campaign.chunk_p50_s": statistics.median(chunk_spans) if chunk_spans else 0.0,
        "campaign.chunk_max_s": max(chunk_spans, default=0.0),
        "campaign.worker_busy_frac": ratio(
            sum(chunk_spans), wall * diag.get("workers", 1)
        ),
        "campaign.worker_tables_s": outer_time["worker", "reliability.tables"],
        "campaign.retries": diag.get("retries", 0),
        "campaign.quarantined": diag.get("quarantined", 0),
        "coverage_frac": ratio(named, wall),
        "unattributed_s": wall - named,
    })
    breakdown = {
        "self_s": {key: own[key] for key, count in calls.items() if count},
        "calls": dict(calls),
        "worker_table_builds": sum(
            1 for built in every["worker", "reliability.tables"] if built
        ),
    }
    return {key: float(value) for key, value in metrics.items()}, breakdown


def report(name: str, seed: int, wall: float, overhead: float,
           metrics: dict[str, float], breakdown: dict[str, Any],
           diag: dict[str, Any]) -> str:
    """The human-readable traced-run report of one repetition."""
    lines = [
        f"traced run of {name}, seed {seed}: wall_s {wall:.3f} traced "
        f"(trace_overhead_frac {overhead:+.3f})",
        f"{'span':<24}{'process':<9}{'self_s':>10}{'of wall':>9}{'calls':>10}",
    ]
    for (side, span), self_s in sorted(
        breakdown["self_s"].items(), key=lambda item: -item[1]
    ):
        unnamed = "" if span in LAYER_TIMES else "  (not a named layer)"
        lines.append(
            f"{span:<24}{side:<9}{self_s:>10.4f}{self_s / wall:>9.1%}"
            f"{breakdown['calls'][side, span]:>10}{unnamed}"
        )
    lines.append(
        f"named layers cover {metrics['coverage_frac']:.1%} of the benchmark "
        f"process's wall_s; unattributed_s {metrics['unattributed_s']:.4f}"
    )
    counts = [
        f"{key} {value:.6g}" for key, value in metrics.items()
        if key not in LAYER_TIMES.values() and key not in ("coverage_frac", "unattributed_s")
    ]
    lines.append("counts: " + ", ".join(counts))
    if diag.get("chunks"):
        lines.append(table_rebuild_verdict(metrics, breakdown, diag))
    return "\n".join(lines)


def table_rebuild_verdict(metrics: dict[str, float], breakdown: dict[str, Any],
                          diag: dict[str, Any]) -> str:
    """Does every forked campaign chunk re-measure PAIR's conditional tables?

    Confirmed when the workers measured a table in every chunk and table
    time is at least half of the workers' chunk time.
    """
    builds = breakdown["worker_table_builds"]
    chunks = diag["chunks"]
    busy = sum(diag.get("chunk_spans", []))
    tables = metrics["campaign.worker_tables_s"]
    share = tables / busy if busy else 0.0
    verdict = "CONFIRMED" if builds >= chunks and share >= 0.5 else "REFUTED"
    return (
        f"table-rebuild hypothesis {verdict}: workers measured {builds} tables in "
        f"{chunks} chunks and spent {tables:.3f} s of {busy:.3f} s chunk time "
        f"({share:.1%}) measuring them; worker_busy_frac "
        f"{metrics['campaign.worker_busy_frac']:.3f}"
    )
