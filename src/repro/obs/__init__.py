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

from .export import format_report, read_snapshots, summarize, write_snapshots
from .openmetrics import metric_name, parse_openmetrics, render_openmetrics
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
from .trace import reset as reset_spans

__all__ = [
    "Counter",
    "DeltaEncoder",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "SNAPSHOT_VERSION",
    "DELTA_KIND",
    "DURATION_BUCKETS_S",
    "RATE_BUCKETS",
    "SERIES_RING_POINTS",
    "SIZE_BUCKETS",
    "MAX_SPANS",
    "SeriesRing",
    "SpanRecord",
    "StreamMerger",
    "absorb",
    "fetch_watch_endpoint",
    "frame_is_empty",
    "load_watch_dir",
    "load_watch_events",
    "metric_name",
    "next_span_id",
    "parse_openmetrics",
    "render_dashboard",
    "render_openmetrics",
    "run_top",
    "stable_trace_id",
    "counter",
    "disable",
    "dropped_spans",
    "enable",
    "enabled",
    "enabled_scope",
    "finished_spans",
    "format_report",
    "gauge",
    "histogram",
    "merge_snapshots",
    "read_snapshots",
    "record_span",
    "reset",
    "reset_spans",
    "reset_all",
    "snapshot",
    "span",
    "span_dicts_snapshot",
    "spans_snapshot",
    "summarize",
    "write_snapshots",
]


def reset_all() -> None:
    """Reset metrics and spans together (fresh CLI run / test isolation)."""
    reset()
    reset_spans()
