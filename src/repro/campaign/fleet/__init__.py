"""Distributed campaign execution: scheduler, agents, and their wire.

``repro.campaign.fleet`` shards one campaign's deterministic chunk plan
across many worker agents over a length-prefixed JSON socket protocol.
Fault tolerance is the contract, not a feature: leases with heartbeats,
work-stealing for stragglers, the retry/backoff/quarantine core it shares
with the local supervisor (:mod:`repro.campaign.retry`), crash-safe
manifest journaling (a killed scheduler resumes bit-identically),
graceful degradation to the in-process supervisor when no agents show
up, and a deterministic network-chaos harness that proves each of those
properties under test.  See DESIGN.md §6h and
``python -m repro fleet --help``.
"""

from typing import TYPE_CHECKING

from ..._exports import lazy_exports

if TYPE_CHECKING:
    from .agent import AgentKilled, AgentPolicy, AgentSummary, FleetAgent, run_agent
    from .cache import CACHE_VERSION, ResultCache
    from .events import EVENTS_NAME, EventLog, read_events
    from .leases import Lease, LeaseTable
    from .protocol import (
        MAX_FRAME_BYTES,
        PROTOCOL_VERSION,
        FrameLink,
        encode_frame,
        read_frame,
        write_frame,
    )
    from .scheduler import (
        SIDECAR_NAME,
        FleetPolicy,
        FleetScheduler,
        fleet_status,
        serve_campaign,
    )
    from .telemetry import WATCH_KIND, AgentHealth, FleetTelemetry

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "agent": ("AgentKilled", "AgentPolicy", "AgentSummary", "FleetAgent", "run_agent"),
    "cache": ("CACHE_VERSION", "ResultCache"),
    "events": ("EVENTS_NAME", "EventLog", "read_events"),
    "leases": ("Lease", "LeaseTable"),
    "protocol": ("MAX_FRAME_BYTES", "PROTOCOL_VERSION", "FrameLink", "encode_frame",
                 "read_frame", "write_frame"),
    "scheduler": ("SIDECAR_NAME", "FleetPolicy", "FleetScheduler", "fleet_status",
                  "serve_campaign"),
    "telemetry": ("WATCH_KIND", "AgentHealth", "FleetTelemetry"),
})
