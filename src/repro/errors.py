"""Structured error taxonomy for long-running campaigns.

The Monte-Carlo campaigns behind the deep-BER-tail claims run 10^6-10^9
trials; at that scale worker crashes, hangs and numerical corruption are
events to be *classified and survived*, not stack traces.  Every failure
mode the campaign runner (:mod:`repro.campaign`) distinguishes gets its own
exception type so supervisors, manifests and tests can react by type rather
than by string-matching tracebacks:

* :class:`CampaignError`    - base class for every campaign-level failure;
* :class:`ChunkFailure`     - a worker process died (or its pool broke)
  while executing one chunk; carries the chunk id and seed;
* :class:`ChunkTimeout`     - a chunk exceeded its per-chunk wall budget
  and was terminated by the supervisor;
* :class:`EngineMismatch`   - a resume was attempted against a manifest
  whose config/scheme/rates fingerprint does not match;
* :class:`NumericalGuard`   - a tally came back numerically invalid
  (NaN, negative or inconsistent counts) and must not be merged;
* :class:`CampaignAborted`  - the campaign stopped before completion but
  left a consistent manifest behind (resumable).

The distributed fleet (:mod:`repro.campaign.fleet`) adds three more, all
still under :class:`CampaignError` so campaign-level handlers keep working:

* :class:`FleetProtocolError` - a frame on the scheduler/agent wire was
  malformed, oversized or of an incompatible protocol version;
* :class:`AgentFailure`       - an agent died, hung past its lease or
  reported an engine error; carries the agent name and chunk id;
* :class:`DuplicateMismatch`  - two executions of the same deterministic
  chunk returned *different* tallies.  Chunks are pure functions of the
  campaign config, so this means corruption somewhere (memory, wire, or a
  non-deterministic engine) and the campaign must stop rather than pick one.

:func:`guard_tally` is the shared validation choke point: every tally that
crosses a process boundary goes through it before being merged.
"""

from __future__ import annotations

from collections.abc import Sequence


class CampaignError(RuntimeError):
    """Base class for campaign-level failures (see module docstring)."""


class ChunkFailure(CampaignError):
    """A worker crashed (or raised) while executing one chunk."""

    def __init__(self, message: str, chunk_id: int | None = None,
                 seed: int | None = None):
        super().__init__(message)
        self.chunk_id = chunk_id
        self.seed = seed


class ChunkTimeout(CampaignError):
    """A chunk exceeded its wall-clock budget and was terminated."""

    def __init__(self, message: str, chunk_id: int | None = None,
                 seconds: float | None = None):
        super().__init__(message)
        self.chunk_id = chunk_id
        self.seconds = seconds


class EngineMismatch(CampaignError):
    """Resume refused: the manifest fingerprint does not match the config."""

    def __init__(self, message: str, expected: str | None = None,
                 got: str | None = None):
        super().__init__(message)
        self.expected = expected
        self.got = got


class NumericalGuard(CampaignError):
    """A tally is numerically invalid (NaN / negative / inconsistent)."""


class CampaignAborted(CampaignError):
    """The campaign stopped early but the manifest is consistent (resumable)."""


class FleetProtocolError(CampaignError):
    """A scheduler/agent wire frame was malformed, oversized or mis-versioned."""


class AgentFailure(CampaignError):
    """A fleet agent died, went silent past its lease, or reported an error."""

    def __init__(self, message: str, agent: str | None = None,
                 chunk_id: int | None = None):
        super().__init__(message)
        self.agent = agent
        self.chunk_id = chunk_id


class DuplicateMismatch(CampaignError):
    """Two executions of one deterministic chunk disagreed - never mergeable."""

    def __init__(self, message: str, chunk_id: int | None = None):
        super().__init__(message)
        self.chunk_id = chunk_id


def guard_tally(counts: Sequence[int | float], expected_total: int | None = None,
                context: str = "") -> None:
    """Validate raw outcome counts before they are merged into a campaign.

    ``counts`` is the ``(ok, ce, due, sdc)`` quadruple of one chunk tally.
    Raises :class:`NumericalGuard` when any count is NaN, non-finite,
    negative or non-integral, or when the counts do not sum to
    ``expected_total`` (the number of trials the chunk was asked to run).
    """
    where = f" in {context}" if context else ""
    if len(counts) != 4:
        raise NumericalGuard(f"expected 4 outcome counts{where}, got {len(counts)}")
    total = 0
    for name, value in zip(("ok", "ce", "due", "sdc"), counts):
        if value != value:  # NaN (also catches float("nan") without math import)
            raise NumericalGuard(f"{name} count is NaN{where}")
        if not isinstance(value, int):
            if not float(value).is_integer():
                raise NumericalGuard(f"{name} count {value!r} is not integral{where}")
            value = int(value)
        if value < 0:
            raise NumericalGuard(f"{name} count {value} is negative{where}")
        total += value
    if expected_total is not None and total != expected_total:
        raise NumericalGuard(
            f"counts sum to {total}, expected {expected_total} trials{where}"
        )


def guard_weighted(weighted: dict, expected_total: int | None = None,
                   context: str = "") -> None:
    """Validate a weighted (importance-sampled) accumulator before merging.

    ``weighted`` is the ``Tally.extra["weighted"]`` dict a rare-event chunk
    ships alongside its counts (see :mod:`repro.reliability.stats`): per
    outcome an integer ``count`` plus log-space weight sums ``log_w`` /
    ``log_w2`` (``None`` = empty).  Raises :class:`NumericalGuard` on any
    NaN/inf, negative count, structural damage, or a trial total that does
    not match ``expected_total``.
    """
    where = f" in {context}" if context else ""
    if not isinstance(weighted, dict) or not isinstance(weighted.get("outcomes"), dict):
        raise NumericalGuard(f"weighted tally is not an accumulator dict{where}")
    for key in ("version", "estimator", "tilt", "defensive", "n"):
        if key not in weighted:
            raise NumericalGuard(f"weighted tally lacks {key!r}{where}")
    for key in ("tilt", "defensive"):
        value = weighted[key]
        if not isinstance(value, (int, float)) or value != value or \
                value in (float("inf"), float("-inf")):
            raise NumericalGuard(f"weighted tally {key} is not finite{where}")
    total = 0
    for name in ("ok", "ce", "due", "sdc"):
        row = weighted["outcomes"].get(name)
        if not isinstance(row, dict):
            raise NumericalGuard(f"weighted tally lacks outcome {name!r}{where}")
        count = row.get("count")
        if not isinstance(count, int) or count < 0:
            raise NumericalGuard(
                f"weighted {name} count {count!r} is invalid{where}"
            )
        for key in ("log_w", "log_w2"):
            value = row.get(key, "missing")
            if value is None:
                if count != 0:
                    raise NumericalGuard(
                        f"weighted {name}.{key} empty but count={count}{where}"
                    )
                continue
            if not isinstance(value, (int, float)) or value != value or \
                    value in (float("inf"), float("-inf")):
                raise NumericalGuard(
                    f"weighted {name}.{key} {value!r} is not finite{where}"
                )
        total += count
    if not isinstance(weighted["n"], int) or total != weighted["n"]:
        raise NumericalGuard(
            f"weighted counts sum to {total}, recorded n={weighted['n']}{where}"
        )
    if expected_total is not None and total != expected_total:
        raise NumericalGuard(
            f"weighted counts sum to {total}, expected {expected_total} "
            f"trials{where}"
        )
