"""Conventional in-DRAM ECC: the (136, 128) Hamming SEC per column access.

This is the vendor-default IECC the PAIR paper argues against.  Its two
defining behaviours:

* the decode is *silent*: the chip corrects what it believes is a single-bit
  error and never reports anything to the controller.  Double errors mostly
  alias onto a single-bit syndrome (measured ~88% for the (136, 128) code)
  and the "correction" adds a third error - silent data corruption;
* writes narrower than the codeword need an internal read-correct-merge-
  encode sequence (the masked-write RMW penalty in DDR5 datasheets).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..codes.hamming import HammingSEC
from ..dram.config import RANK_X8_4CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, SecWordLayout
from ..dram.timing import SchemeTimingOverlay
from ._common import beat_major_windows, dirty_rows
from .base import BatchRead, EccScheme, LineRead


class ConventionalIecc(EccScheme):
    """On-die SEC(136,128), correction-only, no external signalling."""

    name = "iecc-sec"

    def __init__(self, rank: RankConfig = RANK_X8_4CHIP, read_latency_cycles: int = 2,
                 masked_write_rmw_cycles: int = 14):
        super().__init__(rank)
        device = rank.device
        self.layout = SecWordLayout(device, parity_bits=8)
        self.code = HammingSEC(self.layout.n, self.layout.k)
        self._read_latency = read_latency_cycles
        self._rmw_cycles = masked_write_rmw_cycles

    @property
    def timing_overlay(self) -> SchemeTimingOverlay:
        return SchemeTimingOverlay(
            name=self.name,
            read_latency_cycles=self._read_latency,
            write_rmw_cycles=self._rmw_cycles,
        )

    @property
    def storage_overhead(self) -> float:
        return self.layout.parity_bits / self.layout.k

    def decode_footprint(self, col: int) -> Footprint:
        return self.layout.access_footprint(col)

    def write_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        data: np.ndarray,
    ) -> None:
        data = self._check_line(data)
        for chip_idx in range(self.rank.data_chips):
            device = chips[chip_idx]
            row_bits = device.row_view(bank, row)
            word_data = data[chip_idx].T.reshape(-1)  # beat-major, layout order
            codeword = self.code.encode(word_data)
            self.layout.scatter(row_bits, col, codeword)

    def read_lines(self, reads: Sequence[LineRead]) -> BatchRead:
        """Every dirty chip word through one ``decode_batch`` call."""
        out = BatchRead.clean(len(reads), self.line_shape)
        dirty = list(dirty_rows(reads, self.rank.data_chips, self))
        if dirty:
            decoded = self.code.decode_batch(
                self.layout.window_words(np.stack([window for *_, window in dirty]))
            )
            read, chip = np.array([(i, chip_idx) for i, chip_idx, *_ in dirty]).T
            # Conventional IECC has no way to tell the controller anything:
            # on detection it silently forwards the (wrong) raw data.
            out.data[read, chip] = beat_major_windows(decoded.data, self.rank.device)
            np.add.at(out.corrections, read, decoded.corrections)
        return out
