"""Scheme interface: a full read/write datapath over a rank of devices.

An :class:`EccScheme` owns the codeword layout inside each chip (and across
chips, for rank-level schemes), the encode path taken by writes and the
decode path taken by reads.  The reliability engines drive schemes through
:meth:`write_line` / :meth:`read_line`; the performance engine only consumes
:attr:`timing_overlay`.

Data conventions
----------------
A *line* is one rank access: ``(data_chips, pins, burst_length)`` bits.
``read_line`` returns a :class:`LineReadResult`: the bits the controller
would hand to the CPU plus the scheme's belief about them.  Whether that
belief is justified (miscorrection vs real correction) is judged by the
caller, who knows what was written.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

from ..dram.config import RankConfig
from ..dram.device import DramDevice, FaultOverlayProtocol
from ..dram.mapping import Footprint
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst

#: One batched read request: ``(chips, bank, row, col, bursts)`` - the same
#: tuple :meth:`EccScheme.read_line` takes positionally.
LineRead: TypeAlias = tuple[
    "list[DramDevice]", int, int, int, "dict[int, TransferBurst] | None"
]


@dataclass
class LineReadResult:
    """Outcome of reading one line through a scheme's datapath."""

    data: np.ndarray  # (data_chips, pins, burst_length) bits
    believed_good: bool  # scheme claims the data is correct
    corrections: int = 0  # symbols/bits the scheme corrected

    @property
    def detected_uncorrectable(self) -> bool:
        return not self.believed_good


class EccScheme(abc.ABC):
    """A complete ECC datapath over one rank."""

    #: short identifier used in tables and series labels
    name: str = "abstract"

    def __init__(self, rank: RankConfig):
        self.rank = rank

    # -- structural metadata -------------------------------------------------

    @property
    @abc.abstractmethod
    def timing_overlay(self) -> SchemeTimingOverlay:
        """Timing perturbations this scheme imposes on the datapath."""

    @property
    @abc.abstractmethod
    def storage_overhead(self) -> float:
        """In-DRAM redundancy storage relative to data capacity."""

    @property
    def chip_overhead(self) -> float:
        """Extra rank-level chips relative to data chips."""
        return self.rank.ecc_chips / self.rank.data_chips

    def description(self) -> dict[str, object]:
        """Configuration row for the T1 table."""
        return {
            "scheme": self.name,
            "storage_overhead": self.storage_overhead,
            "chip_overhead": self.chip_overhead,
            "read_latency_cycles": self.timing_overlay.read_latency_cycles,
            "burst_stretch": self.timing_overlay.burst_stretch,
            "masked_write_rmw_cycles": self.timing_overlay.write_rmw_cycles,
        }

    def read_footprint(self, col: int) -> Footprint | None:
        """Per-pin bit intervals a read of column ``col`` touches on any chip.

        Reads pass it to the devices, so fault masks are drawn over these
        cells only.  None (the default) reads whole rows.
        """
        return None

    # -- datapath -------------------------------------------------------------

    def make_devices(
        self, overlays: "list[FaultOverlayProtocol | None] | None" = None
    ) -> list[DramDevice]:
        """Instantiate the rank's chips, optionally with fault overlays."""
        overlays = overlays or [None] * self.rank.chips
        if len(overlays) != self.rank.chips:
            raise ValueError(f"expected {self.rank.chips} overlays")
        return [DramDevice(self.rank.device, ov) for ov in overlays]

    @abc.abstractmethod
    def write_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        data: np.ndarray,
    ) -> None:
        """Encode and store one line (shape ``(data_chips, pins, BL)``)."""

    @abc.abstractmethod
    def read_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        bursts: dict[int, TransferBurst] | None = None,
    ) -> LineReadResult:
        """Fetch one line through the full decode path.

        ``bursts`` optionally injects a write-path transfer burst per chip
        index (stored corrupted; see DESIGN.md on burst errors).
        """

    def read_lines(self, reads: list[LineRead]) -> list[LineReadResult]:
        """Decode many line reads; element-wise equivalent to :meth:`read_line`.

        ``reads`` is a sequence of ``(chips, bank, row, col, bursts)``
        tuples - each element may name a *different* chip set, so batches
        can span fault universes.  The base implementation is a plain loop;
        schemes with symbol decoders override it to push every codeword of
        every read through one ``decode_batch`` call.  Overrides must return
        results identical to the scalar path (the batched Monte-Carlo
        engines rely on this for bit-identical tallies).
        """
        return [
            self.read_line(chips, bank, row, col, bursts)
            for chips, bank, row, col, bursts in reads
        ]

    @property
    def line_shape(self) -> tuple[int, int, int]:
        """Shape of one line: ``(data_chips, pins, burst_length)``."""
        device = self.rank.device
        return (self.rank.data_chips, device.pins, device.burst_length)

    def _line_shape(self) -> tuple[int, int, int]:
        return self.line_shape

    def _check_line(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8) & 1
        if data.shape != self._line_shape():
            raise ValueError(f"expected line shape {self._line_shape()}, got {data.shape}")
        return data
