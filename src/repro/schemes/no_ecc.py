"""The unprotected baseline: raw storage, no redundancy anywhere."""

from __future__ import annotations

import numpy as np

from ..dram.config import RANK_X8_4CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, window_span
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst
from ._common import access_window, faulty_row_with_burst
from .base import EccScheme, LineReadResult


class NoEcc(EccScheme):
    """No protection: every stored fault reaches the CPU as silent corruption."""

    name = "no-ecc"

    def __init__(self, rank: RankConfig = RANK_X8_4CHIP):
        super().__init__(rank)

    @property
    def timing_overlay(self) -> SchemeTimingOverlay:
        return SchemeTimingOverlay(name=self.name)

    @property
    def storage_overhead(self) -> float:
        return 0.0

    def read_footprint(self, col: int) -> Footprint:
        return (window_span(self.rank.device, col),)

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
            chips[chip_idx].write_access(bank, row, col, data[chip_idx])

    def read_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        bursts: dict[int, TransferBurst] | None = None,
    ) -> LineReadResult:
        bursts = bursts or {}
        bl = self.rank.device.burst_length
        footprint = self.read_footprint(col)
        out = np.zeros(self._line_shape(), dtype=np.uint8)
        for chip_idx in range(self.rank.data_chips):
            row_bits = faulty_row_with_burst(
                chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
            )
            out[chip_idx] = access_window(row_bits, col, bl)
        return LineReadResult(data=out, believed_good=True)
