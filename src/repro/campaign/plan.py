"""Deterministic chunk plans: the resumable unit of a campaign.

A campaign is a Monte-Carlo run split into self-contained *chunks*.  The
split is the engine's own (:func:`repro.reliability.batch.iid_chunks` /
:func:`~repro.reliability.batch.single_fault_chunks` /
:func:`repro.reliability.rareevent.rareevent_chunks`), so the set of chunks
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
from typing import TYPE_CHECKING, Any

from ..faults.rates import FaultRates
from ..faults.types import FaultType
from ..reliability.batch import (
    iid_chunk_tally,
    iid_chunks,
    single_fault_chunk_tally,
    single_fault_chunks,
)
from ..reliability.exact import ExactRunConfig
from ..reliability.outcomes import Tally
from ..schemes.base import EccScheme

if TYPE_CHECKING:
    from ..reliability.rareevent import RareEventParams

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

    kind: str  # "iid", "rareevent" or "single:<fault-type-value>"
    scheme: EccScheme
    rates: FaultRates
    config: ExactRunConfig
    chunk_trials: int
    chunks: tuple[ChunkSpec, ...]



def parse_kind(kind: str) -> FaultType | None:
    """Validate a campaign kind; returns the fault type for ``single:*``."""
    if kind in ("iid", "rareevent"):
        return None
    if kind.startswith("single:"):
        value = kind.split(":", 1)[1]
        planted = [f.value for f in FaultType if f is not FaultType.SINGLE_CELL]
        if value not in planted:
            # weak cells are the i.i.d. process (kind 'iid'), not one planted fault
            raise ValueError(f"unknown fault type {value!r}; have: {', '.join(planted)}")
        return FaultType(value)
    raise ValueError(
        f"unknown campaign kind {kind!r}; use 'iid', 'rareevent' or 'single:<fault>'"
    )


def build_plan(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    chunk_trials: int,
    kind: str = "iid",
    rareevent: RareEventParams | None = None,
) -> CampaignPlan:
    """Derive the chunk set for a campaign config (pure, deterministic).

    ``kind="rareevent"`` plans importance-sampling chunks through
    :func:`repro.reliability.rareevent.rareevent_chunks`, the direct run's
    chunker, with the proposal ``rareevent`` (default ``RareEventParams()``).
    A zero tilt plans kind ``"iid"``, so a ``rareevent`` campaign at
    ``--tilt 0`` (pure weak-cell rates, as at every tilt) is bit-identical
    to ``repro rareevent --tilt 0``.
    """
    fault_kind = parse_kind(kind)
    chunks: list[ChunkSpec] = []
    if kind == "rareevent":
        from ..reliability.rareevent import RareEventParams, rareevent_chunks

        params = rareevent or RareEventParams()
        kind = "rareevent" if params.tilt != 0.0 else "iid"
    if kind == "rareevent":
        payloads = rareevent_chunks(scheme, rates, config, params, chunk_trials)
        for index, payload in enumerate(payloads):
            chunks.append(ChunkSpec(index, config.seed * 7919 + payload["start"],
                                    payload["trials"], payload))
    elif fault_kind is None:  # iid, and rareevent at tilt 0
        for index, group in enumerate(iid_chunks(scheme, config, chunk_trials)):
            trials = sum(len(coords) for _, coords in group)
            chunks.append(ChunkSpec(index, group[0][0], trials, group))
    else:
        groups = single_fault_chunks(scheme, fault_kind, rates, config, chunk_trials)
        for index, group in enumerate(groups):
            # the diagnostics seed of the chunk's first trial
            chunks.append(ChunkSpec(index, config.seed * 7919 + group[0][0], len(group), group))
    return CampaignPlan(
        kind=kind,
        scheme=scheme,
        rates=rates,
        config=config,
        chunk_trials=chunk_trials,
        chunks=tuple(chunks),
    )


def execute_chunk(plan_kind: str, scheme: EccScheme, rates: FaultRates,
                  config: ExactRunConfig, spec: ChunkSpec) -> Tally:
    """Run one chunk to a tally."""
    if plan_kind == "rareevent":
        # tilted importance-sampling chunk (count-level sampler)
        from ..reliability.rareevent import rareevent_chunk_tally

        return rareevent_chunk_tally(scheme, rates, config, spec.payload)
    if plan_kind == "iid":
        return iid_chunk_tally(scheme, rates, spec.payload)
    return single_fault_chunk_tally(scheme, rates.with_ber(0.0), config.seed, spec.payload)
