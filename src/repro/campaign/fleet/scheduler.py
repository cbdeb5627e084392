"""The fleet scheduler: leases, heartbeats, stealing, crash-safe commits.

One scheduler serves one campaign directory.  It owns the manifest (the
single source of truth), leases pending chunks to connected agents over
the frame protocol, and survives - by contract, not by luck - every
failure the chaos harness can throw:

* **agent death** (connection torn mid-chunk): the agent's leases are
  requeued immediately as ``crash`` attempts;
* **agent silence** (heartbeats stop, connection open): the lease deadline
  lapses on the watchdog tick and the chunk requeues as a ``timeout``
  attempt; a *late* result from the silent agent is still accepted if the
  chunk is uncommitted (chunks are deterministic) or verified-identical
  and dropped if a peer got there first;
* **stragglers**: when the pending queue drains but leases are still out,
  an idle agent is speculatively granted a *copy* of the oldest
  outstanding lease (up to ``steal_copies`` per chunk); first result wins
  and the loser's duplicate is verified byte-identical - any disagreement
  between two runs of one deterministic chunk is corruption and stops the
  campaign (:class:`repro.errors.DuplicateMismatch`);
* **engine failures**: agent-reported raises and guard-rejected tallies
  reuse the supervisor's taxonomy - retry with seeded-jitter backoff on
  the same engine, quarantine after the budget;
* **its own death**: every commit goes through the manifest's debounced
  atomic writer and every exit path flushes, so a SIGKILLed scheduler
  restarted on the same directory re-plans, re-leases exactly the missing
  chunks, and converges on the bit-identical merged tally;
* **zero agents**: with ``degrade_after`` set, a scheduler nobody ever
  connected to falls back to the in-process PR-3 supervisor rather than
  waiting forever.

The wire ships names and counts only (chunk indices, lease ids, tally
quadruples); agents rebuild the plan locally from the config dict in the
``welcome`` frame, which is what makes work-stealing and requeues safe:
any two executions of chunk *i* anywhere in the fleet are the same pure
function call.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ...errors import (
    CampaignAborted,
    DuplicateMismatch,
    NumericalGuard,
    guard_tally,
    guard_weighted,
)
from ...obs import metrics as _obs
from ...obs import trace as _obs_trace
from ...obs.openmetrics import render_openmetrics
from ...obs.trace import stable_trace_id
from ...reliability.outcomes import Tally
from ...utils.atomic_io import atomic_write_json
from ..chaos import FleetChaos
from ..manifest import Manifest
from ..runner import CampaignConfig, CampaignResult, start_campaign
from ..supervisor import (
    FAIL_CRASH,
    FAIL_NUMERICAL,
    FAIL_RAISE,
    FAIL_TIMEOUT,
    SupervisorPolicy,
)
from .cache import ResultCache
from .events import EVENTS_NAME, EventLog
from .leases import LeaseTable
from .protocol import PROTOCOL_VERSION, FrameLink, read_frame_body
from .telemetry import FleetTelemetry

#: the scheduler's endpoint/lease sidecar, next to manifest.json.
SIDECAR_NAME = "fleet.json"

_C_LEASES = _obs.counter("fleet.leases_granted")
_C_EXPIRED = _obs.counter("fleet.leases_expired")
_C_STEALS = _obs.counter("fleet.steals")
_C_DUPES = _obs.counter("fleet.duplicates_dropped")
_C_LATE = _obs.counter("fleet.late_results")
_C_AGENT_FAILURES = _obs.counter("fleet.agent_failures")
_C_DEGRADATIONS = _obs.counter("fleet.degradations")


@dataclass(frozen=True)
class FleetPolicy:
    """Operational knobs for one scheduler; none can affect a tally."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: OS-assigned; the sidecar records the bound port
    lease_timeout: float = 10.0  # deadline without a heartbeat
    heartbeat_interval: float = 1.0  # what agents are told to beat at
    retries: int = 2  # extra attempts per chunk before quarantine
    backoff: float = 0.25  # base requeue backoff, doubles per attempt
    backoff_cap: float = 30.0
    steal_copies: int = 2  # max concurrent leases per chunk
    degrade_after: float | None = None  # no-agent fallback window, seconds
    tick: float = 0.05  # watchdog period
    idle_retry: float = 0.2  # what idle agents are told to wait
    drain_grace: float = 1.0  # keep answering 'done' this long after finish
    manifest_save_every: int = 4  # manifest debounce (flushed on every exit)
    event_log: bool = True  # append events.jsonl beside the manifest


@dataclass
class _ChunkState:
    """Retry bookkeeping for one not-yet-committed chunk."""

    attempt: int = 0
    failures: list[str] = field(default_factory=list)


class FleetScheduler:
    """Serve one campaign's chunks to fleet agents until it completes."""

    def __init__(self, directory: str | Path, config: CampaignConfig | None = None,
                 policy: FleetPolicy | None = None,
                 chaos: FleetChaos | None = None,
                 cache_dir: str | Path | None = None):
        self.directory = Path(directory)
        self.policy = policy or FleetPolicy()
        self.chaos = chaos
        if config is None:  # restart: the manifest is the config
            manifest = Manifest.load(self.directory)
            config = CampaignConfig.from_manifest_dict(manifest.config)
        self.config = config
        self.plan = config.build_plan()
        fp_dict = config.fingerprint_dict()
        if (self.directory / "manifest.json").exists():
            self.manifest = Manifest.load(self.directory)
            self.manifest.check_fingerprint(fp_dict)
            self.manifest.clear_quarantine()
        else:
            self.manifest = Manifest.create(
                self.directory, fp_dict, total_chunks=len(self.plan.chunks)
            )
        self.manifest.save_every = max(1, self.policy.manifest_save_every)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.leases = LeaseTable(timeout=self.policy.lease_timeout)
        # ready-time heap over pending chunks + the set that validates it
        self._pending_heap: list[tuple[float, int]] = []
        self._pending: set[int] = set()
        self._chunk_state: dict[int, _ChunkState] = {}
        for index in self.manifest.pending_indices():
            self._pending.add(index)
            heapq.heappush(self._pending_heap, (0.0, index))
            self._chunk_state[index] = _ChunkState()
        self.duplicates_dropped = 0
        self.late_results = 0
        self.telemetry = FleetTelemetry()
        self.events = EventLog(
            self.directory / EVENTS_NAME, enabled=self.policy.event_log
        )
        self.agents_seen: set[str] = set()
        self._live_agents: dict[str, FrameLink] = {}
        self._done = asyncio.Event()
        self._fatal: BaseException | None = None
        self._crashed = False
        self._degraded = False
        self._server: asyncio.AbstractServer | None = None
        self._started_at = time.monotonic()
        # seeded jitter: affects requeue ready-times only, never tallies
        self._jitter_rng = np.random.default_rng([config.seed, 0xF1EE7])

    # -- public lifecycle ------------------------------------------------------

    @property
    def endpoint(self) -> tuple[str, int] | None:
        """(host, port) once the server is bound."""
        if self._server is None or not self._server.sockets:
            return None
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve(self) -> CampaignResult:
        """Run until the campaign completes, degrades, or chaos crashes us."""
        if self._campaign_finished():
            self._write_sidecar("complete")
            return self._result()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.policy.host, port=self.policy.port
        )
        self._write_sidecar("serving")
        endpoint = self.endpoint
        self.events.emit(
            "serve_start", fingerprint=self.manifest.fingerprint,
            chunks_done=len(self.manifest.chunks),
            total_chunks=self.manifest.total_chunks,
            host=endpoint[0] if endpoint else None,
            port=endpoint[1] if endpoint else None,
        )
        watchdog = asyncio.ensure_future(self._watchdog())
        try:
            await self._done.wait()
            if not self._crashed and self._fatal is None and not self._degraded:
                # linger so polling agents hear 'done' instead of a dead socket
                await asyncio.sleep(self.policy.drain_grace)
        finally:
            watchdog.cancel()
            self._server.close()
            await self._server.wait_closed()
            for link in list(self._live_agents.values()):
                await link.close()
            self.manifest.flush()
            self.events.emit(
                "serve_exit", chunks_done=len(self.manifest.chunks),
                crashed=self._crashed, degraded=self._degraded,
                fatal=type(self._fatal).__name__ if self._fatal else None,
            )
            self.events.close()
        if self._fatal is not None:
            self._write_sidecar("failed")
            raise self._fatal
        if self._crashed:
            self._write_sidecar("crashed")
            raise CampaignAborted(
                f"fleet chaos crash after {len(self.manifest.chunks)} committed "
                f"chunks (manifest {self.manifest.path} is consistent; restart "
                "the scheduler to finish)"
            )
        if self._degraded:
            await self._run_degraded()
        result = self._result()
        self._write_sidecar("complete" if result.complete else "incomplete")
        if self.cache is not None and result.complete:
            self.cache.store(
                self.manifest.fingerprint, self.manifest.config, result.summary()
            )
        return result

    # -- connection handling ---------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        # sniff the first 4 bytes: an HTTP request line ("GET "/"HEAD")
        # gets the exposition endpoints on the same port every agent dials;
        # anything else is a frame length prefix and takes the normal path
        try:
            sniff = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        if sniff in (b"GET ", b"HEAD"):
            await self._serve_http(reader, writer, sniff)
            return
        link = FrameLink(reader, writer)
        agent: str | None = None
        try:
            frame = await read_frame_body(reader, sniff)
            while frame is not None:
                agent = await self._dispatch(link, frame, agent)
                frame = await link.recv()
        except ConnectionError:
            pass
        finally:
            if agent is not None and self._live_agents.get(agent) is link:
                del self._live_agents[agent]
                self._on_agent_lost(agent)
            await link.close()

    async def _dispatch(self, link: FrameLink, frame: dict[str, Any],
                        agent: str | None) -> str | None:
        """Handle one inbound frame; returns the connection's agent name."""
        kind = frame["type"]
        if kind == "hello":
            return await self._on_hello(link, frame, agent)
        if agent is None:
            return None  # ignore anything before a successful hello
        self.telemetry.saw(agent, time.monotonic())
        if kind == "request":
            await self._on_request(link, agent)
        elif kind == "heartbeat":
            self.leases.heartbeat(str(frame.get("lease_id", "")))
        elif kind == "telemetry":
            # advisory obs delta riding the heartbeat cadence; duplicates
            # and reordered frames are resolved by the merger's seq ledger
            self.telemetry.ingest(agent, frame.get("delta"), time.monotonic())
        elif kind == "result":
            self._on_result(agent, frame)
        elif kind == "error":
            self._on_error(agent, frame)
        elif kind == "bye":
            for lease in self.leases.drop_agent(agent):
                self._requeue_failure(
                    lease.chunk, lease.attempt, FAIL_CRASH,
                    f"agent {agent!r} left while holding lease {lease.lease_id}",
                )
        # unknown frame types are ignored: wire robustness beats strictness
        return agent

    async def _on_hello(self, link: FrameLink, frame: dict[str, Any],
                        agent: str | None) -> str | None:
        name = str(frame.get("agent", ""))
        if frame.get("protocol") != PROTOCOL_VERSION:
            await link.send({
                "type": "reject",
                "reason": f"protocol {frame.get('protocol')!r} != {PROTOCOL_VERSION}",
            })
            return agent
        claimed = frame.get("fingerprint")
        if claimed is not None and claimed != self.manifest.fingerprint:
            await link.send({
                "type": "reject",
                "reason": "campaign fingerprint mismatch (different config)",
            })
            return agent
        if not name:
            await link.send({"type": "reject", "reason": "agent name required"})
            return agent
        other = self._live_agents.get(name)
        if other is not None and other is not link:
            await link.send({
                "type": "reject", "reason": f"agent name {name!r} already connected",
            })
            return agent
        self._live_agents[name] = link
        if name not in self.agents_seen:
            self.events.emit("agent_join", agent=name)
        self.agents_seen.add(name)
        self.telemetry.saw(name, time.monotonic())
        await link.send({
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "fingerprint": self.manifest.fingerprint,
            "config": self.manifest.config,
            "heartbeat_interval": self.policy.heartbeat_interval,
            "lease_timeout": self.policy.lease_timeout,
        })
        return name

    async def _on_request(self, link: FrameLink, agent: str) -> None:
        if self._campaign_finished() or self._done.is_set():
            await link.send({"type": "done"})
            return
        now = time.monotonic()
        chunk = self._pop_ready(now)
        if chunk is not None:
            state = self._chunk_state[chunk]
            lease = self.leases.grant(chunk, agent, state.attempt, now)
            if _obs.enabled():
                _C_LEASES.add(1)
            self.events.emit(
                "lease_grant", agent=agent, chunk=chunk,
                lease_id=lease.lease_id, attempt=lease.attempt,
                trace_id=self._trace_id(chunk, lease.attempt),
            )
            await link.send(self._lease_frame(lease))
            return
        # nothing pending: steal a straggler if one qualifies, else idle
        victim = (
            self.leases.steal_candidate(agent, self.policy.steal_copies)
            if not self._pending
            else None
        )
        if victim is not None:
            lease = self.leases.grant(
                victim.chunk, agent, victim.attempt, now,
                stolen_from=victim.lease_id,
            )
            if _obs.enabled():
                _C_LEASES.add(1)
                _C_STEALS.add(1)
            self.events.emit(
                "lease_steal", agent=agent, chunk=lease.chunk,
                lease_id=lease.lease_id, victim=victim.lease_id,
                trace_id=self._trace_id(lease.chunk, lease.attempt),
            )
            await link.send(self._lease_frame(lease))
            return
        await link.send({"type": "idle", "retry_s": self.policy.idle_retry})

    def _trace_id(self, chunk: int, attempt: int) -> int:
        """Deterministic per-execution trace id both sides can derive."""
        return stable_trace_id(self.manifest.fingerprint, chunk, attempt)

    def _lease_frame(self, lease: Any) -> dict[str, Any]:
        return {
            "type": "lease",
            "lease_id": lease.lease_id,
            "chunk": lease.chunk,
            "attempt": lease.attempt,
            "stolen": lease.is_steal,
            # the trace id joins the scheduler's fleet.chunk span to the
            # agent's agent.chunk span for this exact (chunk, attempt)
            "trace": self._trace_id(lease.chunk, lease.attempt),
        }

    # -- result / failure handling --------------------------------------------

    def _on_result(self, agent: str, frame: dict[str, Any]) -> None:
        chunk = int(frame["chunk"])
        counts = tuple(frame["counts"])
        lease = self.leases.release(str(frame.get("lease_id", "")))
        if lease is None and chunk not in self.manifest.chunks:
            # the lease expired (hang/partition) but the work is still good:
            # chunks are deterministic, so a late result is the same result
            self.late_results += 1
            if _obs.enabled():
                _C_LATE.add(1)
        committed = self.manifest.chunks.get(chunk)
        if committed is not None:
            # first-result-wins: this is a stolen/late duplicate.  Identical
            # counts are expected (determinism) and dropped; different counts
            # mean corruption and must stop the campaign, not be voted on.
            if counts != (committed.ok, committed.ce, committed.due, committed.sdc):
                self._fatal = DuplicateMismatch(
                    f"chunk {chunk} returned {counts} from agent {agent!r} but "
                    f"({committed.ok}, {committed.ce}, {committed.due}, "
                    f"{committed.sdc}) is already committed - deterministic "
                    "chunks can only disagree through corruption",
                    chunk_id=chunk,
                )
                self._done.set()
                return
            self.duplicates_dropped += 1
            if _obs.enabled():
                _C_DUPES.add(1)
            return
        spec = self.plan.chunks[chunk]
        attempt = (
            lease.attempt if lease is not None else self._known_attempt(chunk)
        )
        weighted = frame.get("extra")
        try:
            guard_tally(counts, expected_total=spec.trials,
                        context=f"chunk {chunk} from agent {agent!r}")
            if weighted is not None:
                guard_weighted(weighted, expected_total=spec.trials,
                               context=f"chunk {chunk} from agent {agent!r}")
        except NumericalGuard as exc:
            self._requeue_failure(chunk, attempt, FAIL_NUMERICAL, str(exc))
            return
        now = time.monotonic()
        duration = now - lease.issued if lease is not None else 0.0
        trace = self._trace_id(chunk, attempt)
        snap = frame.get("obs")
        span_dict = None
        if _obs.enabled():
            if snap:
                _obs.absorb(snap)
            rec = _obs_trace.record_span(
                "fleet.chunk", duration, trace_id=trace, chunk=chunk,
                agent=agent, attempt=attempt + 1, trials=spec.trials,
            )
            span_dict = rec.as_dict() if rec is not None else None
        if snap and snap.get("source"):
            # per-agent obs section: which agent burned which cycles
            self.manifest.record_agent_obs(agent, dict(snap))
        self.telemetry.chunk_done(agent, duration, now)
        self.events.emit(
            "chunk_commit", agent=agent, chunk=chunk, attempt=attempt + 1,
            counts=list(counts), duration_s=round(duration, 6),
            trace_id=trace, agent_span=frame.get("span"),
        )
        tally = Tally(ok=int(counts[0]), ce=int(counts[1]),
                      due=int(counts[2]), sdc=int(counts[3]),
                      extra={"weighted": weighted} if weighted else {})
        self.manifest.record_chunk(
            chunk, tally, spec.trials, attempt + 1, span=span_dict,
        )
        self._pending.discard(chunk)
        self._chunk_state.pop(chunk, None)
        self.leases.release_chunk(chunk)  # retire any stolen copies
        if self.chaos is not None and self.chaos.should_crash(len(self.manifest.chunks)):
            self.manifest.flush()
            self._crashed = True
            self._done.set()
            return
        if self._campaign_finished():
            self._done.set()

    def _on_error(self, agent: str, frame: dict[str, Any]) -> None:
        chunk = int(frame["chunk"])
        lease = self.leases.release(str(frame.get("lease_id", "")))
        if _obs.enabled():
            _C_AGENT_FAILURES.add(1)
        if chunk in self.manifest.chunks:
            return  # a peer already finished it
        attempt = (
            lease.attempt if lease is not None else self._known_attempt(chunk)
        )
        self._requeue_failure(
            chunk, attempt, FAIL_RAISE,
            f"agent {agent!r} reported {frame.get('error')}: {frame.get('message')}",
        )

    def _on_agent_lost(self, agent: str) -> None:
        dropped = self.leases.drop_agent(agent)
        if dropped and _obs.enabled():
            _C_AGENT_FAILURES.add(1)
        for lease in dropped:
            self._requeue_failure(
                lease.chunk, lease.attempt, FAIL_CRASH,
                f"agent {agent!r} disconnected holding lease {lease.lease_id} "
                f"(chunk {lease.chunk})",
            )

    def _known_attempt(self, chunk: int) -> int:
        state = self._chunk_state.get(chunk)
        return state.attempt if state is not None else 0

    def _requeue_failure(self, chunk: int, attempt: int, kind: str,
                         message: str) -> None:
        """Supervisor-taxonomy retry: backoff+jitter, quarantine."""
        if chunk in self.manifest.chunks:
            return  # committed while the failure was in flight
        if self.leases.copies(chunk) > 0:
            return  # still covered by another live lease (a stolen copy)
        if chunk in self._pending:
            return  # already queued for retry
        state = self._chunk_state.setdefault(chunk, _ChunkState())
        state.failures.append(f"attempt {attempt} {kind}: {message}")
        attempts_done = attempt + 1
        if attempts_done > self.policy.retries:
            spec = self.plan.chunks[chunk]
            self.manifest.quarantine_chunk(
                chunk, kind, message, attempts_done, spec.seed
            )
            self.events.emit(
                "chunk_quarantine", chunk=chunk, kind=kind,
                attempts=attempts_done,
            )
            if self._campaign_finished():
                self._done.set()
            return
        state.attempt = attempts_done
        self.events.emit(
            "chunk_requeue", chunk=chunk, kind=kind, attempt=attempts_done,
        )
        delay = min(self.policy.backoff_cap, self.policy.backoff * 2**attempt)
        jitter = 0.5 + float(self._jitter_rng.random())  # in [0.5, 1.5)
        self._pending.add(chunk)
        heapq.heappush(
            self._pending_heap, (time.monotonic() + delay * jitter, chunk)
        )

    # -- pending queue ---------------------------------------------------------

    def _pop_ready(self, now: float) -> int | None:
        """Next pending chunk whose backoff has elapsed (heap + validity set)."""
        while self._pending_heap:
            ready_at, chunk = self._pending_heap[0]
            if chunk not in self._pending:
                heapq.heappop(self._pending_heap)  # stale entry (committed)
                continue
            if ready_at > now:
                return None
            heapq.heappop(self._pending_heap)
            self._pending.discard(chunk)
            return chunk
        return None

    # -- watchdog --------------------------------------------------------------

    async def _watchdog(self) -> None:
        last_journal = 0.0
        while not self._done.is_set():
            await asyncio.sleep(self.policy.tick)
            now = time.monotonic()
            for lease in self.leases.expire_due(now):
                if _obs.enabled():
                    _C_EXPIRED.add(1)
                self.events.emit(
                    "lease_expire", agent=lease.agent, chunk=lease.chunk,
                    lease_id=lease.lease_id,
                )
                self._requeue_failure(
                    lease.chunk, lease.attempt, FAIL_TIMEOUT,
                    f"lease {lease.lease_id} on chunk {lease.chunk} expired "
                    f"without a heartbeat from agent {lease.agent!r} "
                    f"({self.policy.lease_timeout:.1f}s budget)",
                )
            if (
                self.policy.degrade_after is not None
                and not self.agents_seen
                and now - self._started_at > self.policy.degrade_after
            ):
                self._degraded = True
                if _obs.enabled():
                    _C_DEGRADATIONS.add(1)
                self._done.set()
                return
            if self._campaign_finished():
                self._done.set()
                return
            if now - last_journal > 10 * self.policy.tick:
                self._write_sidecar("serving")
                # a periodic watch event makes the JSONL log replayable by
                # `obs top --in events.jsonl` without a live endpoint
                self.events.emit("watch", payload=self.watch_payload("serving"))
                last_journal = now

    # -- degradation -----------------------------------------------------------

    async def _run_degraded(self) -> None:
        """No agent ever connected: finish in-process via the PR-3 supervisor."""
        self.manifest.flush()
        policy = SupervisorPolicy(
            retries=self.policy.retries,
            backoff=self.policy.backoff,
            backoff_cap=self.policy.backoff_cap,
            manifest_save_every=max(1, self.policy.manifest_save_every),
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: start_campaign(self.directory, self.config, policy)
        )
        self.manifest = Manifest.load(self.directory)

    # -- state -----------------------------------------------------------------

    def _campaign_finished(self) -> bool:
        """Every chunk committed or quarantined, nothing pending or leased."""
        accounted = len(self.manifest.chunks) + len(
            set(self.manifest.quarantined) - set(self.manifest.chunks)
        )
        return (
            accounted >= self.manifest.total_chunks
            and not self._pending
            and len(self.leases) == 0
        )

    def _result(self) -> CampaignResult:
        return CampaignResult(
            tally=self.manifest.merged_tally(),
            chunks_total=self.manifest.total_chunks,
            chunks_done=len(self.manifest.chunks),
            quarantined=dict(self.manifest.quarantined),
        )

    def watch_payload(self, state: str) -> dict[str, Any]:
        """The live-view snapshot: health signals + merged stream metrics."""
        return self.telemetry.watch_snapshot(
            state=state,
            chunks_done=len(self.manifest.chunks),
            total_chunks=self.manifest.total_chunks,
            quarantined=len(
                set(self.manifest.quarantined) - set(self.manifest.chunks)
            ),
            leases=self.leases.journal(),
            now=time.monotonic(),
        )

    def _write_sidecar(self, state: str) -> None:
        endpoint = self.endpoint
        atomic_write_json(self.directory / SIDECAR_NAME, {
            "state": state,
            "host": endpoint[0] if endpoint else None,
            "port": endpoint[1] if endpoint else None,
            "pid": os.getpid(),
            "fingerprint": self.manifest.fingerprint,
            "chunks_done": len(self.manifest.chunks),
            "total_chunks": self.manifest.total_chunks,
            "agents_seen": sorted(self.agents_seen),
            "duplicates_dropped": self.duplicates_dropped,
            "late_results": self.late_results,
            "leases": self.leases.journal(),
            # the watch payload rides the sidecar so `fleet status --watch`
            # and `obs top --dir` work cross-process without the endpoint
            "telemetry": self.watch_payload(state),
        })

    # -- exposition (HTTP on the frame port) ----------------------------------

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter, sniff: bytes) -> None:
        """Answer one HTTP/1.x request on the frame port, then close.

        ``GET /metrics`` serves OpenMetrics text (merged stream metrics,
        the scheduler's own obs registry when enabled, and labelled
        per-agent health families, terminated by ``# EOF``); ``GET
        /status`` serves the watch payload as JSON.  One request per
        connection - a scrape is cheap and statelessness keeps this
        handler trivially safe next to the frame protocol.
        """
        try:
            raw = sniff + await asyncio.wait_for(
                reader.readuntil(b"\r\n"), timeout=5.0
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            writer.close()
            return
        parts = raw.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        head_only = sniff == b"HEAD"
        try:  # drain request headers up to the blank line (best effort)
            while True:
                line = await asyncio.wait_for(
                    reader.readuntil(b"\r\n"), timeout=1.0
                )
                if line in (b"\r\n", b"\n"):
                    break
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            pass
        if path.split("?", 1)[0] == "/metrics":
            now = time.monotonic()
            merged = self.telemetry.merger.snapshot(label="fleet-stream")
            own = _obs.snapshot(label="scheduler") if _obs.enabled() else {}
            for section in ("counters", "gauges", "histograms"):
                combined = dict(own.get(section, {}))
                combined.update(merged.get(section, {}))
                merged[section] = combined
            body = render_openmetrics(
                merged, families=self.telemetry.openmetrics_families(now)
            ).encode("utf-8")
            ctype = "application/openmetrics-text; version=1.0.0; charset=utf-8"
            status = "200 OK"
        elif path.split("?", 1)[0] == "/status":
            body = json.dumps(
                self.watch_payload("serving"), sort_keys=True
            ).encode("utf-8")
            ctype = "application/json"
            status = "200 OK"
        else:
            body = b"not found; try /metrics or /status\n"
            ctype = "text/plain"
            status = "404 Not Found"
        try:
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1")
                + (b"" if head_only else body)
            )
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass


def serve_campaign(directory: str | Path, config: CampaignConfig | None = None,
                   policy: FleetPolicy | None = None,
                   chaos: FleetChaos | None = None,
                   cache_dir: str | Path | None = None) -> CampaignResult:
    """Synchronous entry point: build a scheduler and serve to completion."""
    scheduler = FleetScheduler(
        directory, config, policy=policy, chaos=chaos, cache_dir=cache_dir
    )
    return asyncio.run(scheduler.serve())


def fleet_status(directory: str | Path) -> dict[str, Any]:
    """Manifest summary plus the fleet sidecar (if a scheduler ran here)."""
    status = Manifest.load(directory).status()
    sidecar = Path(directory) / SIDECAR_NAME
    if sidecar.exists():
        try:
            status["fleet"] = json.loads(sidecar.read_text())
        except json.JSONDecodeError:
            status["fleet"] = {"state": "unreadable"}
    return status
