"""The fleet agent: a lease-driven chunk worker speaking the frame protocol.

An agent is deliberately dumb: connect, say hello, and loop *request ->
lease -> execute -> result* until the scheduler says ``done``.  All the
sophistication lives scheduler-side (leases, stealing, retry taxonomy);
the agent's only obligations are the two halves of the liveness contract:

* **heartbeat** while a chunk computes, at the interval the ``welcome``
  frame dictates, so a healthy slow chunk is distinguishable from a dead
  agent;
* **rebuild locally**.  The welcome carries the campaign *config dict*,
  not the plan: the agent reconstructs
  :class:`~repro.campaign.runner.CampaignConfig` and calls
  ``build_plan()`` itself, so the wire never ships payloads, RNGs or
  open handles (the REPRO21x worker-boundary discipline) and any agent
  anywhere computes the bit-identical tally for chunk *i*.

Chunks execute in a thread (``run_in_executor``) so heartbeats keep
flowing; the GF kernels release no GIL worth fighting over for the chunk
sizes campaigns use, and process-level isolation already exists one layer
down if an operator wants it (run more agents, each is a process).

A lost connection is not an error: the agent re-reads the campaign
directory's ``fleet.json`` sidecar (when started with ``--dir``) and
reconnects - that is what lets a chaos test SIGKILL the scheduler and
restart it on a fresh port while the same agents finish the campaign.
The :class:`~repro.campaign.chaos.FleetChaos` hooks (kill / hang / slow /
partition, keyed on this agent's nth lease) live here because the agent
is the fault *source*; the scheduler must survive them without knowing
they were scheduled.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ...errors import AgentFailure
from ...obs import metrics as _obs
from ...obs import trace as _obs_trace
from ...obs.stream import DeltaEncoder, frame_is_empty
from ..chaos import FleetChaos
from ..plan import CampaignPlan, execute_chunk
from ..runner import CampaignConfig
from .protocol import PROTOCOL_VERSION, FrameLink
from .scheduler import SIDECAR_NAME


class AgentKilled(AgentFailure):
    """A scheduled ``kill`` fault fired: the agent dropped its connection."""


@dataclass(frozen=True)
class AgentPolicy:
    """Operational knobs for one agent; none can affect a tally."""

    connect_timeout: float = 10.0  # total window to (re)connect, seconds
    reconnect_delay: float = 0.1  # pause between connect attempts
    heartbeat_interval: float = 1.0  # overridden by the welcome frame


@dataclass
class AgentSummary:
    """What one agent did before the campaign ended (or it lost the fleet)."""

    agent: str
    chunks_done: int = 0
    steals_run: int = 0
    errors_sent: int = 0
    disconnects: int = 0
    saw_done: bool = False

    def as_dict(self) -> dict[str, Any]:
        return dict(vars(self))


class FleetAgent:
    """One named worker; ``run()`` serves leases until the campaign is done."""

    def __init__(self, name: str, host: str | None = None,
                 port: int | None = None,
                 directory: str | Path | None = None,
                 chaos: FleetChaos | None = None,
                 policy: AgentPolicy | None = None,
                 collect_obs: bool = False,
                 stream: bool = False):
        if directory is None and (host is None or port is None):
            raise AgentFailure(
                "agent needs an endpoint: either host+port or a campaign "
                "directory with a fleet.json sidecar", agent=name,
            )
        self.name = name
        self.host = host
        self.port = port
        self.directory = Path(directory) if directory is not None else None
        self.chaos = chaos
        self.policy = policy or AgentPolicy()
        # streaming needs something to stream: it implies per-chunk obs
        self.collect_obs = collect_obs or stream
        self.stream = stream
        self.summary = AgentSummary(agent=name)
        self._encoder = DeltaEncoder(name) if stream else None
        self._heartbeat_interval = self.policy.heartbeat_interval
        self._nth_lease = 0
        self._plan: CampaignPlan | None = None
        self._plan_fingerprint: str | None = None

    # -- endpoint discovery ----------------------------------------------------

    def _endpoint(self) -> tuple[str, int]:
        """Current scheduler endpoint: explicit host/port, or the sidecar.

        Re-read on every (re)connect attempt so a scheduler restarted on a
        fresh OS-assigned port is found without reconfiguring agents.
        """
        if self.directory is not None:
            sidecar = self.directory / SIDECAR_NAME
            try:
                raw = json.loads(sidecar.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConnectionError(f"no readable sidecar at {sidecar}") from exc
            host, port = raw.get("host"), raw.get("port")
            if raw.get("state") != "serving" or not host or not port:
                raise ConnectionError(f"no scheduler serving per {sidecar}")
            return str(host), int(port)
        assert self.host is not None and self.port is not None
        return self.host, self.port

    async def _connect(self) -> FrameLink:
        """Dial the scheduler, retrying inside the connect window."""
        deadline = time.monotonic() + self.policy.connect_timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                host, port = self._endpoint()
                reader, writer = await asyncio.open_connection(host, port)
                return FrameLink(reader, writer, self.chaos, self.name)
            except (ConnectionError, OSError) as exc:
                last = exc
                await asyncio.sleep(self.policy.reconnect_delay)
        raise AgentFailure(
            f"agent {self.name!r} could not reach a scheduler within "
            f"{self.policy.connect_timeout:.1f}s: {last}", agent=self.name,
        )

    # -- main loop -------------------------------------------------------------

    async def run(self) -> AgentSummary:
        """Serve leases until ``done``; reconnect across scheduler restarts.

        Returns the agent's summary.  If the scheduler vanishes and never
        comes back inside the connect window *after* this agent had already
        joined the fleet, the agent exits cleanly (the campaign is either
        finished or an operator's problem, and either way re-running the
        chunks later is free); failing to join at all raises
        :class:`~repro.errors.AgentFailure`.
        """
        ever_joined = False
        while True:
            try:
                link = await self._connect()
            except AgentFailure:
                if ever_joined:
                    return self.summary
                raise
            try:
                joined = await self._handshake(link)
                if not joined:
                    return self.summary
                ever_joined = True
                finished = await self._serve_leases(link)
                if finished:
                    self.summary.saw_done = True
                    return self.summary
            except (ConnectionError, OSError):
                pass  # scheduler died mid-frame: same as a clean EOF, reconnect
            finally:
                await link.close()
            self.summary.disconnects += 1

    async def _handshake(self, link: FrameLink) -> bool:
        await link.send({
            "type": "hello",
            "agent": self.name,
            "protocol": PROTOCOL_VERSION,
            "fingerprint": self._plan_fingerprint,  # None on first contact
        })
        reply = await link.recv_expect("welcome", "reject")
        if reply is None:
            raise ConnectionError("connection lost during handshake")
        if reply["type"] == "reject":
            raise AgentFailure(
                f"scheduler rejected agent {self.name!r}: {reply.get('reason')}",
                agent=self.name,
            )
        if self._plan is None or self._plan_fingerprint != reply["fingerprint"]:
            config = CampaignConfig.from_manifest_dict(reply["config"])
            self._plan = config.build_plan()
            self._plan_fingerprint = str(reply["fingerprint"])
        interval = float(reply.get("heartbeat_interval",
                                   self.policy.heartbeat_interval))
        self._heartbeat_interval = interval
        return True

    async def _serve_leases(self, link: FrameLink) -> bool:
        """Request/execute until ``done`` (True) or connection loss (False)."""
        while True:
            await link.send({"type": "request", "agent": self.name})
            reply = await link.recv_expect("lease", "idle", "done")
            if reply is None:
                return False
            if reply["type"] == "done":
                await link.send({"type": "bye", "agent": self.name})
                return True
            if reply["type"] == "idle":
                await asyncio.sleep(float(reply.get("retry_s", 0.2)))
                continue
            await self._work_lease(link, reply)

    async def _work_lease(self, link: FrameLink, lease: dict[str, Any]) -> None:
        nth = self._nth_lease
        self._nth_lease += 1
        chaos = self.chaos
        if chaos is not None and chaos.fires_kill(self.name, nth):
            # die abruptly mid-lease: no bye, no result, connection torn
            await link.close()
            raise AgentKilled(
                f"chaos kill fired on agent {self.name!r} lease #{nth}",
                agent=self.name, chunk_id=int(lease["chunk"]),
            )
        hang = chaos is not None and chaos.fires_hang(self.name, nth)
        slow = chaos is not None and chaos.fires_slow(self.name, nth)
        if chaos is not None and chaos.fires_partition(self.name, nth):
            link.partitioned = True  # heals when this lease's work is over
        heartbeats = None
        if not hang:
            # a hung agent is *silent*: no heartbeats, lease must expire
            heartbeats = asyncio.ensure_future(
                self._heartbeat_loop(link, str(lease["lease_id"]))
            )
        try:
            if hang:
                await asyncio.sleep(chaos.hang_seconds)  # type: ignore[union-attr]
            elif slow:
                await asyncio.sleep(chaos.slow_seconds)  # type: ignore[union-attr]
            await self._execute_and_report(link, lease)
        finally:
            if heartbeats is not None:
                heartbeats.cancel()
            link.partitioned = False

    async def _heartbeat_loop(self, link: FrameLink, lease_id: str) -> None:
        try:
            while True:
                await asyncio.sleep(self._heartbeat_interval)
                await link.send({
                    "type": "heartbeat", "agent": self.name, "lease_id": lease_id,
                })
                if self._encoder is not None:
                    # telemetry piggybacks on the heartbeat cadence: one
                    # advisory delta frame right behind each heartbeat, on
                    # the same chaos-armed link (drop/dup/reorder may eat it)
                    delta = self._encoder.delta()
                    if not frame_is_empty(delta):
                        await link.send({
                            "type": "telemetry",
                            "agent": self.name,
                            "lease_id": lease_id,
                            "delta": delta,
                        })
        except (ConnectionError, OSError):
            return  # the lease loop will notice the dead link and reconnect

    async def _execute_and_report(self, link: FrameLink,
                                  lease: dict[str, Any]) -> None:
        assert self._plan is not None
        chunk = int(lease["chunk"])
        spec = self._plan.chunks[chunk]
        plan = self._plan
        loop = asyncio.get_running_loop()

        trace = int(lease.get("trace", 0))

        def compute() -> tuple:
            if self.collect_obs:
                _obs.reset()
                _obs_trace.reset()
                _obs.enable()
            with _obs_trace.span(
                "agent.chunk", trace_id=trace,
                agent=self.name, chunk=chunk,
            ) as rec:
                tally = execute_chunk(plan.kind, plan.scheme, plan.rates, plan.config, spec)
            if self.collect_obs:
                snap = _obs.snapshot(f"agent-{self.name}-chunk-{chunk}")
                snap["source"] = self.name  # per-agent sections in obs report
            else:
                snap = None
            return (
                (tally.ok, tally.ce, tally.due, tally.sdc),
                snap,
                rec.as_dict() if rec is not None else None,
                tally.extra.get("weighted"),
            )

        try:
            counts, snap, span_dict, weighted = await loop.run_in_executor(
                None, compute)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.summary.errors_sent += 1
            await link.send({
                "type": "error",
                "agent": self.name,
                "lease_id": lease["lease_id"],
                "chunk": chunk,
                "error": type(exc).__name__,
                "message": str(exc),
            })
            return
        frame: dict[str, Any] = {
            "type": "result",
            "agent": self.name,
            "lease_id": lease["lease_id"],
            "chunk": chunk,
            "attempt": lease.get("attempt", 0),
            "counts": list(counts),
        }
        if snap is not None:
            frame["obs"] = snap
        if span_dict is not None:
            # the agent-side chunk span; the scheduler journals it beside
            # its own campaign.chunk span under the shared trace id
            frame["span"] = span_dict
        if weighted is not None:
            # rare-event weighted accumulator rides the result frame; absent
            # for count-only chunks so the wire format stays compatible.
            frame["extra"] = weighted
        await link.send(frame)
        self.summary.chunks_done += 1
        if lease.get("stolen"):
            self.summary.steals_run += 1


def run_agent(name: str, host: str | None = None, port: int | None = None,
              directory: str | Path | None = None,
              chaos: FleetChaos | None = None,
              policy: AgentPolicy | None = None,
              collect_obs: bool = False,
              stream: bool = False) -> AgentSummary:
    """Synchronous entry point: run one agent to completion."""
    agent = FleetAgent(
        name, host=host, port=port, directory=directory, chaos=chaos,
        policy=policy, collect_obs=collect_obs, stream=stream,
    )
    return asyncio.run(agent.run())
