"""Lease bookkeeping: the scheduler's in-flight work ledger.

A *lease* is the unit of fault tolerance: chunk ``c`` is leased to agent
``a`` until ``deadline``; heartbeats push the deadline forward, silence
lets it lapse.  The table answers the three questions the scheduler asks
every tick:

* which leases have expired (requeue their chunks),
* which chunks are still covered (don't requeue those),
* which unexpired lease is the best *steal* candidate (oldest outstanding
  chunk with fewer active copies than the cap) when the pending queue has
  drained but the campaign hasn't.

Nothing here is durable on purpose: chunk *results* are journaled into the
manifest, and chunk inputs are a pure function of the config, so a
restarted scheduler reconstructs "what still needs doing" from the
manifest alone and simply issues fresh leases.  The table's summary is
journaled to the ``fleet.json`` sidecar for ``fleet status`` - operational
visibility, never a correctness input.

Lease ids are sequential (``L000001``...), not random: two schedulers must
never share a directory anyway (the sidecar carries the owner's pid), and
deterministic ids keep chaos-test transcripts reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Lease:
    """One grant of one chunk to one agent, alive until ``deadline``."""

    lease_id: str
    chunk: int
    agent: str
    attempt: int
    issued: float  # monotonic grant time
    deadline: float  # monotonic expiry unless heartbeats extend it
    stolen_from: str | None = None  # lease id this one speculates against

    @property
    def is_steal(self) -> bool:
        return self.stolen_from is not None

    def as_dict(self) -> dict[str, Any]:
        return {
            "lease_id": self.lease_id,
            "chunk": self.chunk,
            "agent": self.agent,
            "attempt": self.attempt,
            "stolen_from": self.stolen_from,
        }


@dataclass
class LeaseTable:
    """Active leases, indexed by id and by chunk."""

    timeout: float
    _leases: dict[str, Lease] = field(default_factory=dict)
    _by_chunk: dict[int, set[str]] = field(default_factory=dict)
    _next_id: int = 1
    granted: int = 0
    expired: int = 0
    stolen: int = 0

    def grant(self, chunk: int, agent: str, attempt: int,
              now: float | None = None,
              stolen_from: str | None = None) -> Lease:
        now = time.monotonic() if now is None else now
        lease = Lease(
            lease_id=f"L{self._next_id:06d}", chunk=chunk, agent=agent,
            attempt=attempt, issued=now,
            deadline=now + self.timeout, stolen_from=stolen_from,
        )
        self._next_id += 1
        self._leases[lease.lease_id] = lease
        self._by_chunk.setdefault(chunk, set()).add(lease.lease_id)
        self.granted += 1
        if stolen_from is not None:
            self.stolen += 1
        return lease

    # -- liveness -------------------------------------------------------------

    def heartbeat(self, lease_id: str, now: float | None = None) -> bool:
        """Extend a lease's deadline; ``False`` if it no longer exists."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        now = time.monotonic() if now is None else now
        lease.deadline = now + self.timeout
        return True

    def expire_due(self, now: float | None = None) -> list[Lease]:
        """Remove and return every lease past its deadline."""
        now = time.monotonic() if now is None else now
        due = [lease for lease in self._leases.values() if lease.deadline < now]
        for lease in due:
            self._remove(lease.lease_id)
            self.expired += 1
        return due

    # -- release --------------------------------------------------------------

    def get(self, lease_id: str) -> Lease | None:
        return self._leases.get(lease_id)

    def release(self, lease_id: str) -> Lease | None:
        """Remove one lease (its agent reported a result or an error)."""
        lease = self._leases.get(lease_id)
        if lease is not None:
            self._remove(lease_id)
        return lease

    def release_chunk(self, chunk: int) -> list[Lease]:
        """Remove every lease on ``chunk`` (it just got committed)."""
        out = [self._leases[lid] for lid in sorted(self._by_chunk.get(chunk, ()))]
        for lease in out:
            self._remove(lease.lease_id)
        return out

    def drop_agent(self, agent: str) -> list[Lease]:
        """Remove every lease held by ``agent`` (its connection died)."""
        out = [
            lease for lease in self._leases.values() if lease.agent == agent
        ]
        for lease in sorted(out, key=lambda le: le.lease_id):
            self._remove(lease.lease_id)
        return out

    def _remove(self, lease_id: str) -> None:
        lease = self._leases.pop(lease_id)
        holders = self._by_chunk.get(lease.chunk)
        if holders is not None:
            holders.discard(lease_id)
            if not holders:
                del self._by_chunk[lease.chunk]

    # -- queries --------------------------------------------------------------

    def covered_chunks(self) -> set[int]:
        """Chunks some live lease is still working on."""
        return set(self._by_chunk)

    def copies(self, chunk: int) -> int:
        return len(self._by_chunk.get(chunk, ()))

    def steal_candidate(self, agent: str, max_copies: int) -> Lease | None:
        """Oldest outstanding lease worth re-issuing to an idle ``agent``.

        A candidate must not already be at the copy cap, and the idle agent
        must not steal from itself (it would just run the chunk it is
        somehow already leased).  Oldest-first targets the worst straggler.
        """
        candidates = [
            lease
            for lease in self._leases.values()
            if lease.agent != agent
            and self.copies(lease.chunk) < max_copies
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda le: (le.issued, le.lease_id))

    def __len__(self) -> int:
        return len(self._leases)

    def journal(self) -> dict[str, Any]:
        """JSON-safe view for the ``fleet.json`` sidecar / ``fleet status``."""
        return {
            "active": [
                lease.as_dict()
                for lease in sorted(self._leases.values(), key=lambda le: le.lease_id)
            ],
            "granted": self.granted,
            "expired": self.expired,
            "stolen": self.stolen,
        }
