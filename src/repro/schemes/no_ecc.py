"""The unprotected baseline: raw storage, no redundancy anywhere."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dram.config import RANK_X8_4CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, window_span
from ..dram.timing import SchemeTimingOverlay
from ._common import dirty_rows
from .base import BatchRead, EccScheme, LineRead


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

    def decode_footprint(self, col: int) -> Footprint:
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

    def read_lines(self, reads: Sequence[LineRead]) -> BatchRead:
        out = BatchRead.clean(len(reads), self.line_shape)
        # the footprint is the access window
        for i, chip_idx, _, window in dirty_rows(reads, self.rank.data_chips, self):
            out.data[i, chip_idx] = window
        return out
