"""Length-prefixed JSON frames: the scheduler/agent wire format.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding a single object with a ``type`` key.  JSON (not pickle)
is deliberate: the wire carries only *names and counts* - chunk indices,
lease ids, tally quadruples, obs snapshots - never executable payloads,
resolved backend objects, Generators or open handles.  Agents rebuild
everything process-local (the chunk plan, the GF backend, their RNGs) from
the campaign config dict, exactly the REPRO21x worker-boundary discipline;
:func:`write_frame` calls are recognized by the flow checkers as worker
dispatch sites so that discipline is machine-enforced.

Frame types
-----------
agent -> scheduler: ``hello`` (register), ``request`` (ask for a lease),
``heartbeat`` (extend a lease), ``telemetry`` (an advisory obs delta
piggybacked on the heartbeat cadence; see :mod:`repro.obs.stream`),
``result`` (a chunk tally), ``error`` (a structured engine failure),
``bye`` (clean disconnect).

scheduler -> agent: ``welcome`` (config + operational parameters),
``reject`` (fingerprint/version refusal), ``lease`` (a work grant),
``idle`` (nothing leasable right now), ``done`` (campaign complete).

``telemetry`` rides the existing version: unknown frame types are ignored
by both peers, so an old scheduler paired with a streaming agent simply
drops the deltas - telemetry is advisory and lossy by design (the
authoritative totals travel on ``result`` frames), which is also why the
chaos drop/dup/reorder schedule may eat them freely.

:class:`FrameLink` wraps one side of a connection and applies a
:class:`~repro.campaign.chaos.FleetChaos` schedule to *outbound* frames -
drop, duplicate, reorder, or a full partition window - which is how the
chaos harness simulates a hostile network without touching asyncio
internals.  Inbound frames are never tampered with: dropping a frame on
the sender models the same network as dropping it on the receiver, and
one-sided injection keeps the schedule deterministic.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from ...errors import FleetProtocolError
from ..chaos import FleetChaos

#: wire protocol version; a mismatched agent is rejected, never guessed at.
PROTOCOL_VERSION = 2

#: hard ceiling on one frame (a result frame with an obs snapshot is ~KBs;
#: anything near this size is a corrupt length prefix, not a real message).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


def encode_frame(frame: dict[str, Any]) -> bytes:
    """Serialize one frame to its length-prefixed wire bytes."""
    body = json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return _LEN.pack(len(body)) + body


async def write_frame(writer: asyncio.StreamWriter, frame: dict[str, Any]) -> None:
    """Send one frame and drain the transport."""
    writer.write(encode_frame(frame))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Receive one frame; ``None`` on a clean or torn connection close."""
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return await read_frame_body(reader, header)


async def read_frame_body(reader: asyncio.StreamReader,
                          header: bytes) -> dict[str, Any] | None:
    """Finish reading a frame whose 4-byte length prefix was already read.

    Split out of :func:`read_frame` so the scheduler can *sniff* the first
    bytes of a new connection (an HTTP ``GET`` vs a frame length prefix)
    and still fall through to normal frame handling.
    """
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"incoming frame claims {length} bytes (limit {MAX_FRAME_BYTES}); "
            "stream is corrupt or not speaking the fleet protocol"
        )
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FleetProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise FleetProtocolError("frame is not an object with a 'type' key")
    return frame


class FrameLink:
    """One endpoint's framed view of a connection, with chaos on the uplink.

    ``chaos``/``agent`` arm the outbound fault schedule (used by agents;
    the scheduler side always sends cleanly).  The outbound sequence
    counter feeds ``drop``/``dup``/``reorder`` keying; :attr:`partitioned`
    is the coarse switch for a partition window - while set, every
    outbound frame is silently discarded, which to the scheduler is
    indistinguishable from a one-way network partition.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 chaos: FleetChaos | None = None, agent: str = ""):
        self._reader = reader
        self._writer = writer
        self._chaos = chaos
        self._agent = agent
        self._seq_out = 0
        self._held: dict[str, Any] | None = None  # reorder buffer
        self.partitioned = False

    async def send(self, frame: dict[str, Any]) -> None:
        """Send one frame through the chaos schedule (if armed)."""
        seq, self._seq_out = self._seq_out, self._seq_out + 1
        chaos = self._chaos
        if chaos is None or not self._agent:
            await write_frame(self._writer, frame)
            return
        if self.partitioned or chaos.frame_dropped(self._agent, seq):
            return  # the network ate it
        if chaos.frame_reordered(self._agent, seq):
            self._held = frame  # delayed behind the next frame
            return
        await write_frame(self._writer, frame)
        if chaos.frame_duplicated(self._agent, seq):
            await write_frame(self._writer, frame)
        if self._held is not None:
            held, self._held = self._held, None
            await write_frame(self._writer, held)

    async def recv(self) -> dict[str, Any] | None:
        return await read_frame(self._reader)

    async def recv_expect(self, *types: str) -> dict[str, Any] | None:
        """Receive the next frame of one of ``types``, skipping strays.

        Duplicated frames (chaos, or a retransmitted ``welcome``) can leave
        unexpected frame types queued; a robust peer filters rather than
        desyncs.  Returns ``None`` on connection loss.
        """
        while True:
            frame = await self.recv()
            if frame is None or frame["type"] in types:
                return frame

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
