"""Deterministic chunk plans: the resumable unit of a campaign.

A campaign is a Monte-Carlo run split into self-contained *chunks*.  The
split reuses the batched engine's own seed derivation
(:func:`repro.reliability.batch.iid_epochs` /
:func:`~repro.reliability.batch.single_fault_specs`), so the set of chunks
- and every random draw inside each chunk - is a pure function of the
campaign config.  Two consequences the whole subsystem leans on:

* re-planning after a crash reproduces exactly the chunks of the original
  run, so a resume only needs to know *which chunk indices* are done;
* tallies are commutative counts, so merging chunks in any order (including
  a mix of freshly-run and checkpointed ones) gives the same result as one
  uninterrupted :func:`repro.reliability.batch.run_iid_batched` - bit for
  bit.

Chunks carry their pre-sampled coordinates/specs as picklable payloads, so
a chunk can execute in a supervised worker process with no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..faults.rates import FaultRates
from ..faults.types import FaultType
from ..reliability.batch import (
    iid_chunk_tally,
    iid_epochs,
    single_fault_chunk_tally,
    single_fault_specs,
)
from ..reliability.exact import ExactRunConfig
from ..reliability.outcomes import Tally
from ..schemes.base import EccScheme

#: bumped whenever chunking/seed derivation changes; part of the campaign
#: fingerprint, so an old manifest refuses to resume under a new plan.
PLAN_VERSION = 1


@dataclass(frozen=True)
class ChunkSpec:
    """One resumable work unit: index, diagnostics seed, size, payload."""

    index: int
    seed: int  # representative chip seed (diagnostics / error messages)
    trials: int
    payload: Any  # engine-specific, picklable


@dataclass(frozen=True)
class CampaignPlan:
    """The full deterministic decomposition of one campaign."""

    kind: str  # "iid" or "single:<fault-type-value>"
    scheme: EccScheme
    rates: FaultRates
    config: ExactRunConfig
    chunk_trials: int
    chunks: tuple[ChunkSpec, ...]

    @property
    def total_trials(self) -> int:
        return sum(chunk.trials for chunk in self.chunks)


def parse_kind(kind: str) -> FaultType | None:
    """Validate a campaign kind; returns the fault type for ``single:*``."""
    if kind in ("iid", "rareevent"):
        return None
    if kind.startswith("single:"):
        value = kind.split(":", 1)[1]
        try:
            return FaultType(value)
        except ValueError:
            valid = ", ".join(f.value for f in FaultType)
            raise ValueError(f"unknown fault type {value!r}; have: {valid}") from None
    raise ValueError(
        f"unknown campaign kind {kind!r}; use 'iid', 'rareevent' or 'single:<fault>'"
    )


def build_plan(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    chunk_trials: int,
    kind: str = "iid",
    rareevent: dict[str, Any] | None = None,
) -> CampaignPlan:
    """Derive the chunk set for a campaign config (pure, deterministic).

    ``kind="rareevent"`` plans importance-sampling chunks: each payload is
    a plain-number dict (start trial, size, tilt, defensive mass, table
    parameters from ``rareevent``) consumed by
    :func:`repro.reliability.rareevent.rareevent_chunk_tally`.  A zero tilt
    degenerates to the exact i.i.d. plan, so ``repro campaign --kind
    rareevent --tilt 0`` is bit-identical to ``--kind iid``.
    """
    fault_kind = parse_kind(kind)
    chunks: list[ChunkSpec] = []
    if kind == "rareevent":
        from ..reliability.rareevent import require_pure_ber

        params = rareevent or {}
        tilt = float(params.get("tilt", 0.0))
        if tilt != 0.0:
            require_pure_ber(rates, context="rareevent campaign")
            for index, start in enumerate(range(0, config.trials, chunk_trials)):
                payload = {
                    "start": start,
                    "trials": min(chunk_trials, config.trials - start),
                    "tilt": tilt,
                    "defensive": float(params.get("defensive", 0.05)),
                    "samples": int(params.get("samples", 400)),
                    "table_seed": int(params.get("table_seed", 0)),
                }
                chunks.append(
                    ChunkSpec(
                        index=index,
                        seed=config.seed * 7919 + start,
                        trials=payload["trials"],
                        payload=payload,
                    )
                )
            return CampaignPlan(
                kind=kind, scheme=scheme, rates=rates, config=config,
                chunk_trials=chunk_trials, chunks=tuple(chunks),
            )
        # tilt=0: fall through to the exact i.i.d. chunking below
    if fault_kind is None:
        epochs = iid_epochs(scheme, config)
        every = max(1, config.resample_faults_every)
        per_chunk = max(1, chunk_trials // every)
        for index, start in enumerate(range(0, len(epochs), per_chunk)):
            group = epochs[start : start + per_chunk]
            chunks.append(
                ChunkSpec(
                    index=index,
                    seed=group[0][0],
                    trials=sum(len(coords) for _, coords in group),
                    payload=group,
                )
            )
    else:
        specs = single_fault_specs(scheme, fault_kind, rates, config)
        for index, start in enumerate(range(0, len(specs), chunk_trials)):
            group = specs[start : start + chunk_trials]
            first_trial = group[0][0]
            chunks.append(
                ChunkSpec(
                    index=index,
                    seed=config.seed * 7919 + first_trial,
                    trials=len(group),
                    payload=group,
                )
            )
    return CampaignPlan(
        kind=kind,
        scheme=scheme,
        rates=rates,
        config=config,
        chunk_trials=chunk_trials,
        chunks=tuple(chunks),
    )


def prime_chunk(plan_kind: str, scheme: EccScheme, rates: FaultRates,
                spec: ChunkSpec) -> None:
    """Run the deterministic set-up that every chunk like ``spec`` repeats.

    The supervisor calls this once in the parent before it launches any
    worker, so forked workers inherit warm caches instead of re-measuring.
    For a tilted ``rareevent`` chunk that set-up is the line law: it
    measures the scheme's conditional tables (``conditional._TABLE_CACHE``)
    and fills the GF caches.  The tables are a pure function of
    ``(scheme, samples, table_seed)``, so a primed chunk's tally is
    bit-identical to a cold one; under the ``spawn`` start method workers
    simply measure them again.  Other kinds have nothing to prime.
    """
    if plan_kind == "rareevent" and isinstance(spec.payload, dict):
        from ..reliability.rareevent import line_law, require_pure_ber

        line_law(
            scheme, require_pure_ber(rates, context="rareevent campaign"),
            samples=int(spec.payload.get("samples", 400)),
            seed=int(spec.payload.get("table_seed", 0)),
        )


def execute_chunk(plan_kind: str, scheme: EccScheme, rates: FaultRates,
                  config: ExactRunConfig, spec: ChunkSpec,
                  backend: str | None = None) -> Tally:
    """Run one chunk to a tally.

    ``backend`` pins the GF kernel backend for the chunk (the supervisor
    passes the parent process's active selection so workers inherit it).
    Deliberately *not* part of the campaign fingerprint: backends are
    bit-identical, so the choice cannot affect any tally.
    """
    if plan_kind == "rareevent" and isinstance(spec.payload, dict):
        # tilted importance-sampling chunk (count-level sampler)
        from ..reliability.rareevent import rareevent_chunk_tally

        return rareevent_chunk_tally(scheme, rates, config, spec.payload, backend)
    if plan_kind in ("iid", "rareevent"):
        return iid_chunk_tally(scheme, rates, spec.payload, backend)
    return single_fault_chunk_tally(
        scheme, rates.with_ber(0.0), config.seed, spec.payload, backend
    )
