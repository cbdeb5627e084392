"""Scheme interface: a full read/write datapath over a rank of devices.

An :class:`EccScheme` owns the codeword layout inside each chip (and across
chips, for rank-level schemes), the encode path taken by writes and the
decode path taken by reads.  Every scheme has one reader,
:meth:`~EccScheme.read_lines`: it gathers the codewords of a whole batch of
reads and pushes them through one ``decode_batch`` call.  The reliability
engines and the scrubber drive schemes through :meth:`~EccScheme.write_line`
and ``read_lines``; :meth:`~EccScheme.read_line` is its one-read view.  The
performance engine only consumes :attr:`~EccScheme.timing_overlay`.

Data conventions
----------------
A *line* is one rank access: ``(data_chips, pins, burst_length)`` bits.
``read_lines`` returns a columnar :class:`BatchRead`: the bits the
controller would hand to the CPU plus the scheme's belief about them, one
row per read; ``read_line`` returns row 0 as a :class:`LineReadResult`.
Whether that belief is justified (miscorrection vs real correction) is
judged by the caller, who knows what was written.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

from ..dram.config import RankConfig
from ..dram.device import DramDevice, FaultOverlayProtocol
from ..dram.mapping import Footprint
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst

#: One read request: ``(chips, bank, row, col, bursts)`` - the arguments
#: :meth:`EccScheme.read_line` takes positionally.
LineRead: TypeAlias = tuple[
    "list[DramDevice]", int, int, int, "dict[int, TransferBurst] | None"
]


class DirtyReads(list):
    """Line reads whose dirty chip rows are known before the read.

    A list of :data:`LineRead` plus ``dirty``, the ``(read, chip)`` pairs,
    in order, that can read non-zero; every other chip row of the batch
    reads as zeros, so readers visit only these
    (:func:`._common.dirty_rows`).  The batched engines build one per chunk
    from the chunk's fault masks.
    """

    def __init__(self, reads: Sequence[LineRead], dirty: list[tuple[int, int]]):
        super().__init__(reads)
        self.dirty = dirty


@dataclass
class LineReadResult:
    """Outcome of reading one line through a scheme's datapath."""

    data: np.ndarray  # (data_chips, pins, burst_length) bits
    believed_good: bool  # scheme claims the data is correct
    corrections: int = 0  # symbols/bits the scheme corrected

    @property
    def detected_uncorrectable(self) -> bool:
        return not self.believed_good


class BatchRead:
    """Columnar result of reading a batch of lines through a scheme.

    Attributes
    ----------
    data:
        ``(batch, data_chips, pins, burst_length)`` uint8 bits handed to the
        CPU.
    believed_good:
        ``(batch,)`` bool: the scheme claims the line is correct.
    corrections:
        ``(batch,)`` int64 symbols/bits the scheme corrected per line.

    :meth:`row` is the per-line view, a :class:`LineReadResult`; iterating
    yields every row in order.
    """

    __slots__ = ("data", "believed_good", "corrections")

    def __init__(self, data: np.ndarray, believed_good: np.ndarray, corrections: np.ndarray):
        self.data = data
        self.believed_good = believed_good
        self.corrections = corrections

    @classmethod
    def clean(cls, count: int, line_shape: tuple[int, int, int]) -> "BatchRead":
        """``count`` all-zero lines, believed good, nothing corrected.

        What a read of fault-free, never-written rows returns; readers start
        from it and fill in the rows they decode.
        """
        return cls(
            np.zeros((count, *line_shape), dtype=np.uint8),
            np.ones(count, dtype=bool),
            np.zeros(count, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.believed_good)

    def row(self, i: int) -> LineReadResult:
        """Line ``i`` as a :class:`LineReadResult` (its data is a copy)."""
        return LineReadResult(
            data=self.data[i].copy(),
            believed_good=bool(self.believed_good[i]),
            corrections=int(self.corrections[i]),
        )

    def __iter__(self) -> Iterator[LineReadResult]:
        return (self.row(i) for i in range(len(self)))


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
        cells only.  None reads whole rows.  It must contain
        :meth:`decode_footprint`, which it is unless overridden.
        """
        return self.decode_footprint(col)

    def decode_footprint(self, col: int) -> Footprint | None:
        """Per-pin bit intervals the reader decodes for column ``col``: its
        windows hold these cells (:func:`._common.dirty_rows`).  None (the
        default) decodes whole rows."""
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

    def read_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        bursts: dict[int, TransferBurst] | None = None,
    ) -> LineReadResult:
        """Fetch one line through the full decode path: row 0 of :meth:`read_lines`.

        ``bursts`` optionally injects a write-path transfer burst per chip
        index (stored corrupted; see DESIGN.md on burst errors).
        """
        return self.read_lines([(chips, bank, row, col, bursts)]).row(0)

    @abc.abstractmethod
    def read_lines(self, reads: Sequence[LineRead]) -> BatchRead:
        """Fetch a batch of lines through the full decode path.

        ``reads`` is a sequence of ``(chips, bank, row, col, bursts)``
        tuples; each may name a *different* chip set, so a batch can span
        fault universes, and it may be a :class:`DirtyReads` that names its
        dirty chip rows.  A reader reads the footprint window of every chip
        row that can read non-zero (:func:`._common.dirty_rows`), turns the
        windows into codewords and decodes them in one ``decode_batch``
        call.
        """

    @property
    def line_shape(self) -> tuple[int, int, int]:
        """Shape of one line: ``(data_chips, pins, burst_length)``."""
        device = self.rank.device
        return (self.rank.data_chips, device.pins, device.burst_length)

    def _check_line(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8) & 1
        if data.shape != self.line_shape:
            raise ValueError(f"expected line shape {self.line_shape}, got {data.shape}")
        return data
