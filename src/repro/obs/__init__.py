"""repro.obs - lightweight, zero-dependency observability (DESIGN.md 6e).

Two cooperating pieces, both off by default and both guaranteed never to
perturb seeded results:

* :mod:`~repro.obs.metrics` - a process-local registry of counters, gauges
  and fixed-bucket histograms whose snapshots merge commutatively across
  processes and runs;
* :mod:`~repro.obs.trace` - span-based tracing with monotonic timing and
  nesting, bounded retention.

Instrumentation sites across the hot layers (``galois.batch``, ``codes.rs``,
``reliability.batch``, ``campaign.supervisor``, ``perf.timing_sim``) guard
every record with :func:`enabled`, so a disabled build pays one global load
per batch-level event.  Exports are crash-safe JSON-Lines files written
through :mod:`repro.utils.atomic_io`; ``python -m repro obs report`` merges
and renders them.

Typical use::

    from repro import obs

    obs.enable()
    ...  # run an engine
    obs.write_snapshots("obs.jsonl", [obs.snapshot("my-run"), obs.spans_snapshot()])
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .export import format_report, read_snapshots, summarize, write_snapshots
    from .metrics import (
        DURATION_BUCKETS_S,
        RATE_BUCKETS,
        REGISTRY,
        SIZE_BUCKETS,
        SNAPSHOT_VERSION,
        Counter,
        Gauge,
        Histogram,
        Registry,
        absorb,
        counter,
        disable,
        enable,
        enabled,
        enabled_scope,
        gauge,
        histogram,
        merge_snapshots,
        reset,
        snapshot,
    )
    from .openmetrics import metric_name, parse_openmetrics, render_openmetrics
    from .stream import (
        DELTA_KIND,
        SERIES_RING_POINTS,
        DeltaEncoder,
        SeriesRing,
        StreamMerger,
        frame_is_empty,
    )
    from .top import (
        fetch_watch_endpoint,
        load_watch_dir,
        load_watch_events,
        render_dashboard,
        run_top,
    )
    from .trace import (
        MAX_SPANS,
        SpanRecord,
        dropped_spans,
        finished_spans,
        next_span_id,
        record_span,
        span,
        span_dicts_snapshot,
        spans_snapshot,
        stable_trace_id,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "Registry", "REGISTRY", "SNAPSHOT_VERSION",
                "DURATION_BUCKETS_S", "RATE_BUCKETS", "SIZE_BUCKETS", "absorb", "counter",
                "disable", "enable", "enabled", "enabled_scope", "gauge", "histogram",
                "merge_snapshots", "reset", "snapshot"),
    "trace": ("MAX_SPANS", "SpanRecord", "dropped_spans", "finished_spans", "next_span_id",
              "record_span", "span", "span_dicts_snapshot", "spans_snapshot",
              "stable_trace_id"),
    "export": ("format_report", "read_snapshots", "summarize", "write_snapshots"),
    "openmetrics": ("metric_name", "parse_openmetrics", "render_openmetrics"),
    "stream": ("DELTA_KIND", "SERIES_RING_POINTS", "DeltaEncoder", "SeriesRing",
               "StreamMerger", "frame_is_empty"),
    "top": ("fetch_watch_endpoint", "load_watch_dir", "load_watch_events",
            "render_dashboard", "run_top"),
}, local=("reset_spans", "reset_all"))


def reset_spans() -> None:
    """Forget all finished spans and the drop count (:func:`repro.obs.trace.reset`)."""
    from . import trace

    trace.reset()


def reset_all() -> None:
    """Reset metrics and spans together (fresh CLI run / test isolation)."""
    from . import metrics, trace

    metrics.reset()
    trace.reset()
