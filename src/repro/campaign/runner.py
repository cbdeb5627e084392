"""Campaign lifecycle: start, resume, status.

A *campaign* is a named directory plus a config.  ``start_campaign``
plans the chunks, writes the manifest and runs every pending chunk under
the supervisor; each committed chunk is checkpointed atomically, so the
process can die at any instant (SIGKILL included) and ``resume_campaign``
will finish exactly the chunks that are missing.  Because chunk inputs are
deterministic and tallies merge commutatively, the resumed result is
bit-identical to an uninterrupted run - and to the plain in-process
:func:`repro.reliability.batch.run_iid_batched` for ``kind="iid"``.

Resume refuses to touch a manifest whose config fingerprint differs from
the requested one (:class:`repro.errors.EngineMismatch`): checkpoints from
one (scheme, rates, trials, seed, chunking) universe must never be merged
into another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..errors import CampaignAborted, CampaignError
from ..faults.rates import DEFAULT_RATES, FaultRates
from ..obs import metrics as _obs
from ..obs import trace as _obs_trace
from ..reliability.exact import ExactRunConfig
from ..reliability.outcomes import Tally
from ..schemes import DEFAULT_SCHEME_CLASSES
from ..schemes.base import EccScheme
from .chaos import ChaosSchedule
from .manifest import Manifest, QuarantineRecord
from .plan import PLAN_VERSION, CampaignPlan, build_plan, parse_kind
from .supervisor import ChunkSpec, Supervisor, SupervisorPolicy


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that affects a campaign's result (and only that).

    Operational knobs (workers, timeouts, retries) live in
    :class:`~repro.campaign.supervisor.SupervisorPolicy` instead - they may
    change freely between a run and its resume without touching the
    fingerprint.
    """

    scheme: str = "pair"
    kind: str = "iid"  # "rareevent" or "single:<fault-type-value>"
    trials: int = 10_000
    seed: int = 0
    resample_faults_every: int = 1
    chunk_trials: int = 256
    rates: FaultRates = field(default_factory=lambda: DEFAULT_RATES)
    # rare-event (kind="rareevent") proposal parameters.  They change every
    # importance weight, so they are fingerprinted - but only for rareevent
    # campaigns, keeping every existing manifest's fingerprint stable.
    tilt: float = 0.0
    defensive: float = 0.05
    rare_samples: int = 400
    rare_table_seed: int = 0

    def __post_init__(self) -> None:
        parse_kind(self.kind)  # fail fast on an invalid kind
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.chunk_trials <= 0:
            raise ValueError("chunk_trials must be positive")
        if not 0.0 <= self.defensive < 1.0:
            raise ValueError("defensive mass must be in [0, 1)")
        if self.tilt != self.tilt or self.tilt in (float("inf"), float("-inf")):
            raise ValueError("tilt must be finite")
        if self.tilt != 0.0 and self.kind != "rareevent":
            raise ValueError("tilt is only meaningful for kind='rareevent'")

    def _rareevent_dict(self) -> dict[str, Any]:
        return {
            "tilt": self.tilt,
            "defensive": self.defensive,
            "samples": self.rare_samples,
            "table_seed": self.rare_table_seed,
        }

    def fingerprint_dict(self) -> dict[str, Any]:
        """The canonical, JSON-safe view that the manifest fingerprints."""
        out = {
            "plan_version": PLAN_VERSION,
            "scheme": self.scheme,
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "resample_faults_every": self.resample_faults_every,
            "chunk_trials": self.chunk_trials,
            "rates": asdict(self.rates),
        }
        if self.kind == "rareevent":
            out["rareevent"] = self._rareevent_dict()
        return out

    @classmethod
    def from_manifest_dict(cls, raw: dict[str, Any]) -> "CampaignConfig":
        rare = raw.get("rareevent", {})
        return cls(
            scheme=raw["scheme"],
            kind=raw["kind"],
            trials=raw["trials"],
            seed=raw["seed"],
            resample_faults_every=raw["resample_faults_every"],
            chunk_trials=raw["chunk_trials"],
            rates=FaultRates(**raw["rates"]),
            tilt=float(rare.get("tilt", 0.0)),
            defensive=float(rare.get("defensive", 0.05)),
            rare_samples=int(rare.get("samples", 400)),
            rare_table_seed=int(rare.get("table_seed", 0)),
        )

    def build_scheme(self) -> EccScheme:
        """Build the one scheme named ``scheme`` (not the whole line-up)."""
        by_name = {cls.name: cls for cls in DEFAULT_SCHEME_CLASSES}
        if self.scheme not in by_name:
            raise CampaignError(
                f"unknown scheme {self.scheme!r}; have {sorted(by_name)}"
            )
        return by_name[self.scheme]()

    def build_plan(self) -> CampaignPlan:
        return build_plan(
            self.build_scheme(),
            self.rates,
            ExactRunConfig(
                trials=self.trials,
                seed=self.seed,
                resample_faults_every=self.resample_faults_every,
            ),
            self.chunk_trials,
            kind=self.kind,
            rareevent=self._rareevent_dict() if self.kind == "rareevent" else None,
        )


@dataclass
class CampaignResult:
    """Merged view of a campaign after a run/resume pass."""

    tally: Tally
    chunks_total: int
    chunks_done: int
    quarantined: dict[int, QuarantineRecord]

    @property
    def complete(self) -> bool:
        return self.chunks_done == self.chunks_total and not self.quarantined

    @classmethod
    def from_manifest(cls, manifest: Manifest) -> "CampaignResult":
        return cls(
            tally=manifest.merged_tally(),
            chunks_total=manifest.total_chunks,
            chunks_done=len(manifest.chunks),
            quarantined=dict(manifest.quarantined),
        )

    def summary(self) -> dict[str, Any]:
        out = self.tally.as_dict()
        out["chunks_done"] = self.chunks_done
        out["chunks_total"] = self.chunks_total
        out["quarantined"] = sorted(self.quarantined)
        out["complete"] = self.complete
        return out


def start_campaign(directory: str | Path, config: CampaignConfig,
                   policy: SupervisorPolicy | None = None,
                   chaos: ChaosSchedule | None = None) -> CampaignResult:
    """Start (or continue) a campaign in ``directory``.

    If a manifest already exists there, its fingerprint must match
    ``config`` exactly; the call then behaves like a resume.
    """
    policy = policy or SupervisorPolicy()
    plan = config.build_plan()
    manifest = Manifest.open(directory, config.fingerprint_dict(), len(plan.chunks))
    specs = [spec for spec in plan.chunks if spec.index not in manifest.chunks]
    # Debounced manifest I/O: record_chunk batches saves (O(chunks) instead
    # of O(chunks**2) over a long campaign); every exit path below flushes,
    # and a SIGKILL loses at most save_every-1 records, which resume simply
    # re-runs - deterministic chunks make the lost work bit-identical.
    manifest.save_every = policy.manifest_save_every

    def on_success(spec: ChunkSpec, tally: Tally, attempts: int,
                   span: dict[str, Any] | None = None) -> None:
        manifest.record_chunk(spec.index, tally, spec.trials, attempts, span=span)
        committed = len(manifest.chunks)
        if chaos is not None and chaos.should_abort(committed):
            manifest.flush()
            raise CampaignAborted(
                f"chaos abort after {committed} committed chunks "
                f"(manifest {manifest.path} is consistent; resume to finish)"
            )

    def on_quarantine(spec: ChunkSpec, error: str, message: str,
                      attempts: int) -> None:
        manifest.quarantine_chunk(spec.index, error, message, attempts, spec.seed)

    if specs:
        supervisor = Supervisor(plan.kind, plan.scheme, plan.rates, plan.config,
                                policy, chaos=chaos, on_success=on_success,
                                on_quarantine=on_quarantine)
        # With observability on, this pass owns the process-local registry:
        # start it clean, and fold whatever was collected into the manifest
        # even when chaos (or a crash mid-run) aborts the pass - committed
        # chunks already carry their spans, so resume merges cleanly.
        if _obs.enabled():
            _obs.reset()
            _obs_trace.reset()
        try:
            supervisor.run(specs)
        finally:
            manifest.flush()
            if _obs.enabled():
                manifest.record_obs_metrics(
                    _obs.snapshot(f"campaign-{manifest.fingerprint[:12]}")
                )
    return CampaignResult.from_manifest(manifest)


def resume_campaign(directory: str | Path,
                    policy: SupervisorPolicy | None = None,
                    chaos: ChaosSchedule | None = None) -> CampaignResult:
    """Finish the pending chunks of the campaign checkpointed in ``directory``.

    The config is reconstructed from the manifest itself, so the only way
    to resume is with the exact original result universe.  Quarantined
    chunks get a fresh attempt budget.
    """
    config = CampaignConfig.from_manifest_dict(Manifest.load(directory).config)
    return start_campaign(directory, config, policy, chaos)


def campaign_status(directory: str | Path) -> dict[str, Any]:
    """Manifest summary without running anything."""
    return Manifest.load(directory).status()
