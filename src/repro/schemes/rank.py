"""Rank-level SEC-DED: the classic ECC-DIMM baseline (no on-die ECC).

Protects each 64-bit slice of the line with a Hsiao (72, 64) code whose
check bits live in the rank's ECC chip.  Included as the conventional
controller-side reference point in the reliability comparison: strong
against single cells per slice, detects doubles, but blind to anything the
slice-level code cannot see and unable to use in-DRAM information.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..codes.hamming import HsiaoSECDED
from ..dram.config import RANK_X8_5CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, window_span
from ..dram.timing import SchemeTimingOverlay
from ._common import beat_major_windows, dirty_rows
from .base import BatchRead, EccScheme, LineRead


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

    def decode_footprint(self, col: int) -> Footprint:
        return (window_span(self.rank.device, col),)

    def _line_flat(self, data: np.ndarray) -> np.ndarray:
        """(chips, pins, BL) -> flat beat-major line bits."""
        return np.concatenate(
            [data[c].T.reshape(-1) for c in range(self.rank.data_chips)]
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

    def read_lines(self, reads: Sequence[LineRead]) -> BatchRead:
        """The slices of every read with a dirty chip row (ECC chip
        included) through one ``decode_batch`` of ``(reads * slices, 72)`` words."""
        out = BatchRead.clean(len(reads), self.line_shape)
        device = self.rank.device
        chips = self.rank.data_chips
        bl = device.burst_length
        ecc = np.zeros((len(reads), device.pins, bl), dtype=np.uint8)
        dirty = np.zeros(len(reads), dtype=bool)
        # the footprint is the access window
        for i, chip_idx, _, window in dirty_rows(reads, chips + 1, self):
            dirty[i] = True
            if chip_idx < chips:
                out.data[i, chip_idx] = window
            else:
                ecc[i] = window
        rows = np.flatnonzero(dirty)
        if rows.size:
            count = len(rows)
            flat = out.data[rows].swapaxes(-1, -2).reshape(count, self.slices, 64)
            checks = ecc[rows].swapaxes(-1, -2).reshape(count, -1)[:, : self.slices * 8]
            words = np.concatenate([flat, checks.reshape(count, self.slices, 8)], axis=2)
            decoded = self.code.decode_batch(words.reshape(count * self.slices, self.code.n))
            # A flagged slice holds its received word: its raw bits pass on.
            out.data[rows] = beat_major_windows(
                decoded.data.reshape(count, chips, -1), device
            )
            out.believed_good[rows] = ~decoded.detected.reshape(count, self.slices).any(axis=1)
            out.corrections[rows] = decoded.corrections.reshape(count, self.slices).sum(axis=1)
        return out
