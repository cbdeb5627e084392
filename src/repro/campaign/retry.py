"""A chunk's fate: commit, retry after a backoff, or quarantine.

Both executors of a campaign - the local supervisor and the fleet
scheduler - decide what happens to a chunk here, so they cannot drift
apart.  :func:`accept_result` guards a result and builds the tally it
commits; :class:`RetryQueue` decides which chunk runs next, when, and
when a failing one is quarantined; :func:`check_policy` is the range
check both executors' policies run when they are built.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import guard_tally, guard_weighted
from ..obs import metrics as _obs
from ..reliability.outcomes import Tally
from .plan import ChunkSpec

#: failure kinds both executors distinguish (counters, quarantine records).
FAIL_CRASH = "crash"
FAIL_TIMEOUT = "timeout"
FAIL_RAISE = "raise"
FAIL_NUMERICAL = "numerical"

# Observability (DESIGN.md 6e): failures are rare next to the decode work
# they interrupt, so each one is counted, with the backoff it waited.
_C_RETRIES = _obs.counter("campaign.retries")
_C_QUARANTINES = _obs.counter("campaign.quarantines")
_C_FAILURES = {
    kind: _obs.counter(f"campaign.failures.{kind}")
    for kind in (FAIL_CRASH, FAIL_TIMEOUT, FAIL_RAISE, FAIL_NUMERICAL)
}
_H_BACKOFF = _obs.histogram("campaign.backoff_wait_s", _obs.DURATION_BUCKETS_S)
_JITTER_SALT = 0xBAC0FF


def policy_error(policy: Any, name: str, want: str) -> ValueError:
    value = getattr(policy, name)
    return ValueError(f"{type(policy).__name__}.{name} must be {want}, got {value!r}")


def check_policy(policy: Any, *, at_least_one: Sequence[str] = (),
                 counts: Sequence[str] = (), positive: Sequence[str] = (),
                 non_negative: Sequence[str] = ()) -> None:
    """Raise ``ValueError`` naming the first field of ``policy`` out of range.

    ``at_least_one`` fields must be >= 1, ``counts`` >= 0, ``positive``
    finite and > 0, and ``non_negative`` finite and >= 0.
    """
    rules = (
        (at_least_one, ">= 1", lambda v: v >= 1),
        (counts, ">= 0", lambda v: v >= 0),
        (positive, "finite and > 0", lambda v: math.isfinite(v) and v > 0),
        (non_negative, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
    )
    for names, want, valid in rules:
        for name in names:
            if not valid(getattr(policy, name)):
                raise policy_error(policy, name, want)


def accept_result(spec: ChunkSpec, counts: Sequence[Any],
                  weighted: dict[str, Any] | None, context: str) -> Tally:
    """Guard one chunk result and build the tally it commits.

    Raises :class:`repro.errors.NumericalGuard` (a ``numerical`` failure)
    unless the counts are non-negative integers summing to the chunk's
    trials and any weighted accumulator is well formed.
    """
    guard_tally(counts, expected_total=spec.trials, context=context)
    if weighted is not None:
        guard_weighted(weighted, expected_total=spec.trials, context=context)
    ok, ce, due, sdc = (int(count) for count in counts)
    return Tally(ok=ok, ce=ce, due=due, sdc=sdc,
                 extra={"weighted": weighted} if weighted else {})


@dataclass
class ChunkRetries:
    """One chunk's retry bookkeeping: its next attempt and past failures."""

    attempt: int = 0
    failures: list[str] = field(default_factory=list)


class RetryQueue:
    """Chunks waiting to run, in ready-time order, with their retry budgets.

    Failed attempt ``a`` is retried after ``min(backoff_cap, backoff *
    2**a) * jitter`` seconds, the jitter drawn in [0.5, 1.5) from a
    generator seeded by the campaign seed (REPRO101/102: it changes sleep
    lengths, never tallies); after ``retries + 1`` failed attempts the
    chunk is quarantined.  ``policy`` is either executor's policy.  A chunk
    committed while queued leaves a stale heap entry, which is skipped.
    """

    def __init__(self, indices: Iterable[int], policy: Any, seed: int):
        self.retries = policy.retries
        self.backoff = policy.backoff
        self.backoff_cap = policy.backoff_cap
        self._heap = [(0.0, index) for index in indices]
        heapq.heapify(self._heap)
        self._queued = {index for _, index in self._heap}
        self._chunks: dict[int, ChunkRetries] = {}
        self._jitter = np.random.default_rng([seed, _JITTER_SALT])

    def __len__(self) -> int:
        return len(self._queued)

    def __contains__(self, index: int) -> bool:
        return index in self._queued

    def chunk(self, index: int) -> ChunkRetries:
        """The retry bookkeeping of chunk ``index``."""
        return self._chunks.setdefault(index, ChunkRetries())

    def next_ready(self) -> float | None:
        """When the earliest queued chunk is ready; ``None`` if none is queued."""
        while self._heap and self._heap[0][1] not in self._queued:
            heapq.heappop(self._heap)  # stale: committed while queued
        return self._heap[0][0] if self._heap else None

    def pop_ready(self, now: float) -> tuple[int, int] | None:
        """Dequeue the next chunk ready at ``now``: ``(chunk, attempt)``."""
        ready_at = self.next_ready()
        if ready_at is None or ready_at > now:
            return None
        _, index = heapq.heappop(self._heap)
        self._queued.discard(index)
        return index, self.chunk(index).attempt

    def discard(self, index: int) -> None:
        """Forget a committed chunk; a heap entry it left is now stale."""
        self._queued.discard(index)
        self._chunks.pop(index, None)

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before retrying failed ``attempt`` (draws jitter)."""
        jitter = 0.5 + float(self._jitter.random())  # in [0.5, 1.5)
        return min(self.backoff_cap, self.backoff * 2**attempt) * jitter

    def fail(self, index: int, attempt: int, kind: str, message: str) -> bool:
        """Charge failed ``attempt`` of chunk ``index``; True if requeued.

        False: its ``retries + 1`` attempts are spent and the caller
        records the quarantine.
        """
        state = self.chunk(index)
        state.failures.append(f"attempt {attempt} {kind}: {message}")
        observe = _obs.enabled()
        if observe:
            _C_FAILURES[kind].add(1)
        if attempt >= self.retries:
            if observe:
                _C_QUARANTINES.add(1)
            return False
        delay = self.backoff_delay(attempt)
        if observe:
            _C_RETRIES.add(1)
            _H_BACKOFF.observe(delay)
        state.attempt = attempt + 1
        self._queued.add(index)
        heapq.heappush(self._heap, (time.monotonic() + delay, index))
        return True
