"""Deterministic chaos injection: prove the supervisor survives on purpose.

Robustness claims need an adversary.  A :class:`ChaosSchedule` injects
failures into chunk execution *by schedule* - keyed on (chunk index,
attempt number), never on wall clock or randomness - so a chaos test is
exactly reproducible and its assertions can be sharp ("chunk 1 crashes on
attempt 0, the retry succeeds, the final tally is bit-identical").

Fault kinds
-----------
* ``crash``   - the worker process dies hard (``os._exit``), like an OOM
  kill or segfault; the supervisor sees a dead process with no result.
* ``hang``    - the worker sleeps far past any reasonable deadline; the
  supervisor must enforce the per-chunk timeout and terminate it.
* ``raise``   - the engine raises inside the worker (simulating a bug in
  the decode kernels); the supervisor reports it, retries on the same
  engine, and quarantines the chunk once its attempts are spent.
* ``corrupt`` - the worker returns a numerically invalid tally (negative
  count), which must be caught by the NumericalGuard, not merged.
* ``abort``   - runner-level: stop the whole campaign after N chunks have
  been committed, simulating a mid-run SIGKILL; the manifest must stay
  consistent and a resume must finish the job.

Schedules parse from a compact spec string (used by the CLI and CI smoke)::

    crash:1,hang:2,raise:0,corrupt:3@1,abort:2

``kind:chunk`` injects on attempt 0 by default; ``@a`` (pipe-separated
``@0|2`` for several) names explicit attempts.  Every kind keys on
attempts the same way.

Network chaos (the fleet harness)
---------------------------------
:class:`FleetChaos` extends the same by-schedule philosophy to the
distributed scheduler (:mod:`repro.campaign.fleet`).  Agent faults key on
(agent name, nth lease that agent receives); frame faults key on (agent
name, outbound frame sequence number); the scheduler crash keys on the
number of committed chunks.  Nothing reads a wall clock or an unseeded RNG,
so a fleet chaos test replays exactly.

* ``kill``      - the agent dies abruptly on its nth lease (connection
  drops mid-chunk); the scheduler must requeue the lease at once.
* ``hang``      - the agent goes silent on its nth lease (heartbeats stop,
  the TCP connection stays open); the lease must expire and requeue, and
  the late result the agent eventually sends must be deduplicated.
* ``slow``      - the agent keeps heartbeating but delays its nth chunk;
  near end-of-campaign an idle peer must steal the straggler lease.
* ``partition`` - every frame the agent sends while working its nth lease
  is dropped (one-way network partition); heals on the next lease.
* ``drop`` / ``dup`` / ``reorder`` - the agent's nth outbound *frame* is
  dropped, duplicated, or delayed behind its successor.
* ``crash``     - scheduler-level: stop serving after N committed chunks,
  leaving a consistent manifest; a restarted scheduler must finish the
  campaign bit-identically.

Fleet specs look like::

    kill:a1@0,hang:a2@1,slow:a3@2,partition:a1@3,drop:a2@5,crash:4

Both grammars share one item parser (:func:`parse_items`): numbers are
non-negative integers, and a repeated item adds to the earlier one
(``crash:1@0,crash:1@2`` crashes chunk 1 on attempts 0 and 2).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..reliability.outcomes import Tally

#: how long a "hung" worker sleeps; any sane per-chunk timeout is far below.
HANG_SECONDS = 3600.0

_WORKER_KINDS = ("crash", "hang", "raise", "corrupt")


def _count(text: str, item: str) -> int:
    """``text`` as a non-negative integer, else ``ValueError`` naming ``item``."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"chaos item {item!r}: {text!r} is not a non-negative integer")
    return value


def _agent(text: str, item: str) -> str:
    if not text:
        raise ValueError(f"fleet chaos item {item!r} names no agent")
    return text


def parse_items(spec: str, label: str, kinds: tuple[str, ...], switch: str,
                key: Callable[[str, str], Any]) -> tuple[dict[str, dict], int | None]:
    """Parse ``kind:key[@n|m]`` items, plus one ``switch:N`` kind.

    Returns ``{kind: {key: numbers}}`` for ``kinds`` (numbers default to
    ``{0}``; a repeated item adds to them) and the smallest ``N`` given for
    ``switch`` (``None`` if absent).  ``key`` parses the key text; ``label``
    names the grammar in error messages.
    """
    tables: dict[str, dict] = {kind: {} for kind in kinds}
    switch_at: int | None = None
    for item in filter(None, (part.strip() for part in spec.split(","))):
        kind, colon, rest = item.partition(":")
        if not colon:
            raise ValueError(f"bad {label} item {item!r}; want kind:key[@n|m]")
        if kind == switch:
            at = _count(rest, item)
            switch_at = at if switch_at is None else min(switch_at, at)
            continue
        if kind not in tables:
            have = ", ".join((*kinds, switch))
            raise ValueError(f"unknown {label} kind {kind!r}; have {have}")
        target, at_sign, numbers_text = rest.partition("@")
        numbers = (
            frozenset(_count(n, item) for n in numbers_text.split("|"))
            if at_sign else frozenset({0})
        )
        parsed = key(target, item)
        tables[kind][parsed] = tables[kind].get(parsed, frozenset()) | numbers
    return tables, switch_at


class ChaosInjected(RuntimeError):
    """Raised inside a worker by a scheduled ``raise`` fault."""


@dataclass(frozen=True)
class ChaosSchedule:
    """Scheduled failure injection for one campaign run.

    Each worker-fault mapping goes from chunk index to the frozenset of
    attempt numbers that fault; ``abort_after`` is the runner-level kill
    switch (``None`` disables it).
    """

    crash: dict[int, frozenset[int]] = field(default_factory=dict)
    hang: dict[int, frozenset[int]] = field(default_factory=dict)
    raises: dict[int, frozenset[int]] = field(default_factory=dict)
    corrupt: dict[int, frozenset[int]] = field(default_factory=dict)
    abort_after: int | None = None

    @classmethod
    def parse(cls, spec: str) -> "ChaosSchedule":
        """Build a schedule from the compact spec string (see module doc)."""
        tables, abort_after = parse_items(spec, "chaos", _WORKER_KINDS, "abort", _count)
        return cls(crash=tables["crash"], hang=tables["hang"],
                   raises=tables["raise"], corrupt=tables["corrupt"],
                   abort_after=abort_after)

    # -- worker-side hooks ----------------------------------------------------

    def fire_pre_execute(self, chunk: int, attempt: int) -> None:
        """Apply crash/hang/raise faults scheduled for this attempt.

        Runs inside the worker process, before the chunk computes.
        """
        if attempt in self.crash.get(chunk, frozenset()):
            os._exit(13)  # simulate OOM-kill/segfault: no cleanup, no result
        if attempt in self.hang.get(chunk, frozenset()):
            time.sleep(HANG_SECONDS)
        if attempt in self.raises.get(chunk, frozenset()):
            raise ChaosInjected(
                f"injected engine failure in chunk {chunk} (attempt {attempt})"
            )

    def corrupt_tally(self, chunk: int, attempt: int, tally: Tally) -> Tally:
        """Apply a scheduled ``corrupt`` fault to a finished chunk tally."""
        if attempt in self.corrupt.get(chunk, frozenset()):
            return Tally(ok=tally.ok, ce=tally.ce, due=tally.due, sdc=-1)
        return tally

    # -- runner-side hook ------------------------------------------------------

    def should_abort(self, chunks_committed: int) -> bool:
        return self.abort_after is not None and chunks_committed >= self.abort_after


#: fleet fault kinds that key on (agent, nth lease).
_FLEET_LEASE_KINDS = ("kill", "hang", "slow", "partition")
#: fleet fault kinds that key on (agent, outbound frame sequence number).
_FLEET_FRAME_KINDS = ("drop", "dup", "reorder")


@dataclass(frozen=True)
class FleetChaos:
    """Scheduled agent/network/scheduler faults for one fleet campaign.

    Lease-keyed maps go from agent name to the set of lease ordinals (the
    nth lease that agent receives, 0-based) that fault; frame-keyed maps go
    from agent name to outbound frame sequence numbers.  ``crash_after`` is
    the scheduler-side kill switch.  ``hang_seconds`` / ``slow_seconds``
    bound how long the corresponding faults stall - tests shrink them so a
    hung agent wakes up *after* its lease expired and exercises the
    late-result path.
    """

    kill: dict[str, frozenset[int]] = field(default_factory=dict)
    hang: dict[str, frozenset[int]] = field(default_factory=dict)
    slow: dict[str, frozenset[int]] = field(default_factory=dict)
    partition: dict[str, frozenset[int]] = field(default_factory=dict)
    drop: dict[str, frozenset[int]] = field(default_factory=dict)
    dup: dict[str, frozenset[int]] = field(default_factory=dict)
    reorder: dict[str, frozenset[int]] = field(default_factory=dict)
    crash_after: int | None = None
    hang_seconds: float = 30.0
    slow_seconds: float = 5.0

    @classmethod
    def parse(cls, spec: str, hang_seconds: float = 30.0,
              slow_seconds: float = 5.0) -> "FleetChaos":
        """Build a fleet schedule from the compact spec string.

        ``kind:agent`` faults the agent's lease 0 (its first) by default;
        ``@n`` (pipe-separated ``@0|2`` for several) names explicit lease
        ordinals, or frame sequence numbers for drop/dup/reorder;
        ``crash:N`` stops the scheduler after N commits.
        """
        tables, crash_after = parse_items(
            spec, "fleet chaos", (*_FLEET_LEASE_KINDS, *_FLEET_FRAME_KINDS),
            "crash", _agent,
        )
        return cls(**tables, crash_after=crash_after, hang_seconds=hang_seconds,
                   slow_seconds=slow_seconds)

    # -- agent-side hooks (lease-keyed) ---------------------------------------

    def fires_kill(self, agent: str, nth_lease: int) -> bool:
        return nth_lease in self.kill.get(agent, frozenset())

    def fires_hang(self, agent: str, nth_lease: int) -> bool:
        return nth_lease in self.hang.get(agent, frozenset())

    def fires_slow(self, agent: str, nth_lease: int) -> bool:
        return nth_lease in self.slow.get(agent, frozenset())

    def fires_partition(self, agent: str, nth_lease: int) -> bool:
        return nth_lease in self.partition.get(agent, frozenset())

    # -- link-side hooks (frame-keyed) ----------------------------------------

    def frame_dropped(self, agent: str, seq: int) -> bool:
        return seq in self.drop.get(agent, frozenset())

    def frame_duplicated(self, agent: str, seq: int) -> bool:
        return seq in self.dup.get(agent, frozenset())

    def frame_reordered(self, agent: str, seq: int) -> bool:
        return seq in self.reorder.get(agent, frozenset())

    # -- scheduler-side hook ---------------------------------------------------

    def should_crash(self, chunks_committed: int) -> bool:
        return self.crash_after is not None and chunks_committed >= self.crash_after
