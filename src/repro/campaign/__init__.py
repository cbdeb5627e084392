"""Resilient Monte-Carlo campaign runner.

Checkpoint/resume over the batched reliability engines, supervised worker
processes with retry/backoff and quarantine (a chunk that keeps failing is
surfaced, never routed to another engine), and a deterministic
chaos-injection harness that proves all of it under test.  See DESIGN.md
§6d and ``python -m repro campaign --help``.

The fleet names load :mod:`repro.campaign.fleet` (and with it ``asyncio``)
on first use; a local campaign never imports it.
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .chaos import ChaosInjected, ChaosSchedule, FleetChaos
    from .fleet import (
        FleetAgent,
        FleetPolicy,
        FleetScheduler,
        fleet_status,
        run_agent,
        serve_campaign,
    )
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

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "chaos": ("ChaosInjected", "ChaosSchedule", "FleetChaos"),
    "manifest": ("Manifest", "fingerprint"),
    "plan": ("PLAN_VERSION", "CampaignPlan", "ChunkSpec", "build_plan", "execute_chunk"),
    "runner": ("CampaignConfig", "CampaignResult", "campaign_status", "resume_campaign",
               "start_campaign"),
    "supervisor": ("ChunkOutcome", "Supervisor", "SupervisorPolicy", "terminate_worker"),
    "fleet": ("FleetAgent", "FleetPolicy", "FleetScheduler", "fleet_status", "run_agent",
              "serve_campaign"),
})
