"""Resilient Monte-Carlo campaign runner.

Checkpoint/resume over the batched reliability engines, supervised worker
processes with retry/backoff and quarantine (a chunk that keeps failing is
surfaced, never routed to another engine), and a deterministic
chaos-injection harness that proves all of it under test.  See DESIGN.md
§6d and ``python -m repro campaign --help``.
"""

from .chaos import ChaosInjected, ChaosSchedule, FleetChaos
from .manifest import Manifest, fingerprint
from .plan import (
    PLAN_VERSION,
    CampaignPlan,
    ChunkSpec,
    build_plan,
    execute_chunk,
)
from .runner import (
    CampaignConfig,
    CampaignResult,
    campaign_status,
    resume_campaign,
    start_campaign,
)
from .supervisor import ChunkOutcome, Supervisor, SupervisorPolicy, terminate_worker

# imported after runner/supervisor: fleet depends on both being initialized
from .fleet import (
    FleetAgent,
    FleetPolicy,
    FleetScheduler,
    fleet_status,
    run_agent,
    serve_campaign,
)

__all__ = [
    "CampaignConfig",
    "CampaignPlan",
    "CampaignResult",
    "ChaosInjected",
    "ChaosSchedule",
    "ChunkOutcome",
    "ChunkSpec",
    "FleetAgent",
    "FleetChaos",
    "FleetPolicy",
    "FleetScheduler",
    "Manifest",
    "PLAN_VERSION",
    "Supervisor",
    "SupervisorPolicy",
    "build_plan",
    "campaign_status",
    "execute_chunk",
    "fingerprint",
    "fleet_status",
    "resume_campaign",
    "run_agent",
    "serve_campaign",
    "start_campaign",
    "terminate_worker",
]
