"""Rank-level SEC-DED: the classic ECC-DIMM baseline (no on-die ECC).

Protects each 64-bit slice of the line with a Hsiao (72, 64) code whose
check bits live in the rank's ECC chip.  Included as the conventional
controller-side reference point in the reliability comparison: strong
against single cells per slice, detects doubles, but blind to anything the
slice-level code cannot see and unable to use in-DRAM information.
"""

from __future__ import annotations

import numpy as np

from ..codes.base import DecodeStatus
from ..codes.hamming import HsiaoSECDED
from ..dram.config import RANK_X8_5CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, window_span
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst
from ._common import access_window, faulty_row_with_burst
from .base import EccScheme, LineReadResult


class RankSecDed(EccScheme):
    """Controller-side (72, 64) SEC-DED per line slice, parity in ECC chip."""

    name = "rank-secded"

    def __init__(self, rank: RankConfig = RANK_X8_5CHIP, read_latency_cycles: int = 2):
        if rank.ecc_chips < 1:
            raise ValueError("rank SEC-DED needs an ECC chip")
        super().__init__(rank)
        self.code = HsiaoSECDED(72, 64)
        line_bits = rank.access_data_bits
        if line_bits % 64:
            raise ValueError("line must divide into 64-bit slices")
        self.slices = line_bits // 64
        ecc_bits = rank.device.access_data_bits
        if self.slices * 8 > ecc_bits:
            raise ValueError("ECC chip cannot hold the slice check bits")
        self._read_latency = read_latency_cycles

    @property
    def timing_overlay(self) -> SchemeTimingOverlay:
        return SchemeTimingOverlay(
            name=self.name, read_latency_cycles=self._read_latency
        )

    @property
    def storage_overhead(self) -> float:
        return 0.0  # redundancy lives in the extra chip, not in-die spare

    def read_footprint(self, col: int) -> Footprint:
        return (window_span(self.rank.device, col),)

    def _line_flat(self, data: np.ndarray) -> np.ndarray:
        """(chips, pins, BL) -> flat beat-major line bits."""
        return np.concatenate(
            [data[c].T.reshape(-1) for c in range(self.rank.data_chips)]
        )

    def _flat_to_line(self, flat: np.ndarray) -> np.ndarray:
        device = self.rank.device
        per_chip = device.access_data_bits
        return np.stack(
            [
                flat[c * per_chip : (c + 1) * per_chip]
                .reshape(device.burst_length, device.pins)
                .T
                for c in range(self.rank.data_chips)
            ]
        )

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
        flat = self._line_flat(data)
        checks = np.zeros(self.rank.device.access_data_bits, dtype=np.uint8)
        for s in range(self.slices):
            word = self.code.encode(flat[s * 64 : (s + 1) * 64])
            checks[s * 8 : (s + 1) * 8] = word[64:]
        device = self.rank.device
        ecc_window = checks.reshape(device.burst_length, device.pins).T
        chips[self.rank.data_chips].write_access(bank, row, col, ecc_window)

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
        raw = np.zeros(self._line_shape(), dtype=np.uint8)
        for chip_idx in range(self.rank.data_chips):
            row_bits = faulty_row_with_burst(
                chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
            )
            raw[chip_idx] = access_window(row_bits, col, bl)
        ecc_idx = self.rank.data_chips
        ecc_bits = faulty_row_with_burst(
            chips[ecc_idx], bank, row, col, bursts.get(ecc_idx), footprint
        )
        checks = access_window(ecc_bits, col, bl).T.reshape(-1)
        flat = self._line_flat(raw)
        believed_good = True
        corrections = 0
        out = flat.copy()
        for s in range(self.slices):
            word = np.concatenate([flat[s * 64 : (s + 1) * 64], checks[s * 8 : (s + 1) * 8]])
            result = self.code.decode(word)
            corrections += result.corrections
            if result.status is DecodeStatus.DETECTED:
                believed_good = False
            else:
                out[s * 64 : (s + 1) * 64] = result.data
        return LineReadResult(
            data=self._flat_to_line(out),
            believed_good=believed_good,
            corrections=corrections,
        )
