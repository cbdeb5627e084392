"""Scheduler-side fleet telemetry: stream aggregation + health signals.

The scheduler feeds this module three kinds of facts - "agent X sent a
frame", "agent X streamed this obs delta", "agent X committed chunk C in
D seconds" - and gets back the derived signals a mission-control view
needs (DESIGN.md section 6j):

* **chunk-rate EWMA**: per-agent completions per second, an exponentially
  weighted average over inter-completion intervals (``alpha`` = 0.3 by
  default: responsive within ~3 chunks, stable against one hiccup);
* **straggler score**: the agent's EWMA chunk *duration* divided by the
  fleet median of the same - 1.0 is "typical", 2.0 is "takes twice as
  long as the median peer" (the work-stealing victim ordering made
  quantitative);
* **ETA**: chunks remaining over the summed per-agent rates; ``None``
  until at least one agent has a rate;
* **lease churn**: granted/expired/stolen counts straight off the
  :class:`~repro.campaign.fleet.leases.LeaseTable`.

Streamed obs deltas land in a :class:`repro.obs.stream.StreamMerger`, so
the merged counters/gauges (trials/s, rare-event ESS, ...) ride the same
watch payload.  All timestamps are the scheduler's own monotonic clock,
stamped on arrival - agent clocks never cross the wire, so skew cannot
corrupt a series.

Everything here is *operational* state: it lives and dies with the
scheduler process, is never fingerprinted, and can be wrong or stale
without affecting one bit of a tally (the no-perturbation contract the
fleet tests prove).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from ...obs.metrics import SNAPSHOT_VERSION
from ...obs.stream import StreamMerger

#: EWMA smoothing for rates and durations (weight on the newest sample).
EWMA_ALPHA = 0.3

#: watch payload schema tag (golden-schema tested).
WATCH_KIND = "fleet_watch"


@dataclass
class AgentHealth:
    """Everything the scheduler has learned about one agent's behaviour."""

    last_seen: float = 0.0  # monotonic stamp of the last frame
    chunks_done: int = 0
    ewma_interval_s: float | None = None  # between chunk completions
    ewma_duration_s: float | None = None  # lease grant -> result
    last_result_at: float | None = None

    def chunk_rate(self) -> float:
        """Completions per second (EWMA); 0.0 before the second result."""
        if not self.ewma_interval_s or self.ewma_interval_s <= 0.0:
            return 0.0
        return 1.0 / self.ewma_interval_s


class FleetTelemetry:
    """Aggregate live agent signals into watch payloads and exposition."""

    def __init__(self, alpha: float = EWMA_ALPHA,
                 tracked_series: tuple[str, ...] = ()):
        self.alpha = alpha
        self.merger = StreamMerger(tracked_series=tracked_series)
        self.agents: dict[str, AgentHealth] = {}
        self.telemetry_frames = 0
        self.telemetry_rejected = 0

    # -- fact ingestion --------------------------------------------------------

    def _health(self, agent: str) -> AgentHealth:
        health = self.agents.get(agent)
        if health is None:
            health = self.agents[agent] = AgentHealth()
        return health

    def saw(self, agent: str, now: float) -> None:
        """Any frame from ``agent`` counts as liveness."""
        self._health(agent).last_seen = now

    def ingest(self, agent: str, delta: Any, now: float) -> bool:
        """Apply one streamed obs delta (receiver-stamped at ``now``)."""
        self.saw(agent, now)
        ok = isinstance(delta, dict) and self.merger.apply(delta, at=now)
        if ok:
            self.telemetry_frames += 1
        else:
            self.telemetry_rejected += 1
        return bool(ok)

    def chunk_done(self, agent: str, duration_s: float, now: float) -> None:
        """An agent's result frame committed a chunk after ``duration_s``."""
        health = self._health(agent)
        health.last_seen = now
        health.chunks_done += 1
        if health.last_result_at is not None:
            interval = max(1e-9, now - health.last_result_at)
            health.ewma_interval_s = self._ewma(health.ewma_interval_s, interval)
        health.last_result_at = now
        if duration_s > 0.0:
            health.ewma_duration_s = self._ewma(
                health.ewma_duration_s, duration_s
            )

    def _ewma(self, prior: float | None, sample: float) -> float:
        if prior is None:
            return sample
        return self.alpha * sample + (1.0 - self.alpha) * prior

    # -- derived signals -------------------------------------------------------

    def fleet_rate(self) -> float:
        """Summed per-agent chunk rates (chunks per second)."""
        return sum(h.chunk_rate() for h in self.agents.values())

    def straggler_score(self, agent: str) -> float:
        """EWMA duration over the fleet median; 1.0 until comparable data."""
        health = self.agents.get(agent)
        if health is None or health.ewma_duration_s is None:
            return 1.0
        durations = [
            h.ewma_duration_s
            for h in self.agents.values()
            if h.ewma_duration_s is not None
        ]
        median = statistics.median(durations)
        if median <= 0.0:
            return 1.0
        return health.ewma_duration_s / median

    def eta_s(self, chunks_remaining: int) -> float | None:
        """Seconds to drain the backlog at current rates (None if unknown)."""
        if chunks_remaining <= 0:
            return 0.0
        rate = self.fleet_rate()
        if rate <= 0.0:
            return None
        return chunks_remaining / rate

    # -- payloads --------------------------------------------------------------

    def watch_snapshot(self, *, state: str, chunks_done: int,
                       total_chunks: int, quarantined: int,
                       leases: dict[str, Any], now: float) -> dict[str, Any]:
        """The ``fleet status --watch`` / HTTP ``/status`` payload."""
        merged = self.merger.snapshot(label="fleet-stream")
        stream_stats = self.merger.stats()
        agents: dict[str, Any] = {}
        for name, health in sorted(self.agents.items()):
            agents[name] = {
                "chunk_rate": round(health.chunk_rate(), 6),
                "straggler_score": round(self.straggler_score(name), 4),
                "chunks_done": health.chunks_done,
                "last_seen_age_s": round(max(0.0, now - health.last_seen), 3),
                "stream": stream_stats.get(
                    name,
                    {"frames": 0, "duplicates": 0, "gaps": 0, "last_seq": -1},
                ),
            }
        backlog = max(0, total_chunks - chunks_done - quarantined)
        eta = self.eta_s(backlog)
        return {
            "kind": WATCH_KIND,
            "version": SNAPSHOT_VERSION,
            "state": state,
            "chunks_done": chunks_done,
            "total_chunks": total_chunks,
            "backlog": backlog,
            "quarantined": quarantined,
            "fleet_rate": round(self.fleet_rate(), 6),
            "eta_s": round(eta, 3) if eta is not None else None,
            "lease_churn": {
                "active": len(leases.get("active", [])),
                "granted": int(leases.get("granted", 0)),
                "expired": int(leases.get("expired", 0)),
                "stolen": int(leases.get("stolen", 0)),
            },
            "telemetry_frames": self.telemetry_frames,
            "agents": agents,
            "counters": merged["counters"],
            "gauges": merged["gauges"],
        }

    def openmetrics_families(self, now: float) -> list[dict[str, Any]]:
        """Labelled per-agent health families for the ``/metrics`` endpoint."""
        rate_samples = []
        straggler_samples = []
        chunks_samples = []
        age_samples = []
        for name, health in sorted(self.agents.items()):
            labels = {"agent": name}
            rate_samples.append((labels, health.chunk_rate()))
            straggler_samples.append((labels, self.straggler_score(name)))
            chunks_samples.append((labels, health.chunks_done))
            age_samples.append((labels, max(0.0, now - health.last_seen)))
        return [
            {"name": "fleet.agent.chunk_rate", "type": "gauge",
             "help": "per-agent chunk completions per second (EWMA)",
             "samples": rate_samples},
            {"name": "fleet.agent.straggler_score", "type": "gauge",
             "help": "EWMA chunk duration over the fleet median",
             "samples": straggler_samples},
            {"name": "fleet.agent.chunks_done", "type": "counter",
             "help": "chunks committed per agent this scheduler lifetime",
             "samples": chunks_samples},
            {"name": "fleet.agent.last_seen_age", "type": "gauge",
             "help": "seconds since the last frame from this agent",
             "samples": age_samples},
        ]
