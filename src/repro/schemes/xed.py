"""XED: eXposed on-die ECC with rank-level XOR parity (ISCA 2016 baseline).

Each chip runs the same (136, 128) on-die SEC as conventional IECC, but when
the on-die decoder *detects* an uncorrectable word (a syndrome outside the
used column set) the chip transmits a catch-word instead of data.  The
controller then rebuilds the flagged chip RAID-3 style from the other chips
plus a dedicated XOR parity chip.

Failure structure (what the reliability benches measure):

* double weak cells in a word usually alias onto a single-bit syndrome and
  the chip miscorrects *silently* - no catch-word, the RAID never fires, and
  the corruption reaches the CPU.  This O(p^2) silent floor is the
  mechanism behind PAIR's ~10^6x reliability headline;
* two chips flagging simultaneously is detected-uncorrectable (DUE);
* a flagged chip is reconstructed from chips that may themselves have
  silently miscorrected, which converts those cases into SDC too.

The timing overlay inherits conventional IECC's masked-write RMW and adds
the catch-word check to the read path.
"""

from __future__ import annotations

import numpy as np

from ..codes.base import DecodeStatus
from ..codes.hamming import HammingSEC
from ..codes.parity import XorParity
from ..dram.config import RANK_X8_5CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, SecWordLayout
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst
from ._common import faulty_row_with_burst
from .base import EccScheme, LineReadResult


class Xed(EccScheme):
    """On-die SEC detect-expose plus one rank-level XOR parity chip."""

    name = "xed"

    def __init__(self, rank: RankConfig = RANK_X8_5CHIP, read_latency_cycles: int = 3,
                 masked_write_rmw_cycles: int = 14):
        if rank.ecc_chips < 1:
            raise ValueError("XED needs a parity chip in the rank")
        super().__init__(rank)
        self.layout = SecWordLayout(rank.device, parity_bits=8)
        self.code = HammingSEC(self.layout.n, self.layout.k)
        self.parity = XorParity(rank.data_chips)
        self._read_latency = read_latency_cycles
        self._rmw_cycles = masked_write_rmw_cycles

    @property
    def timing_overlay(self) -> SchemeTimingOverlay:
        # XED must keep the exposed on-die state and the rank parity
        # mutually consistent, so every write regenerates the on-die word
        # with an internal read-correct-merge-encode sequence [R] - the
        # reconstruction lever behind the paper's 14% performance claim.
        return SchemeTimingOverlay(
            name=self.name,
            read_latency_cycles=self._read_latency,
            write_rmw_cycles=self._rmw_cycles,
            rmw_on_all_writes=True,
        )

    @property
    def storage_overhead(self) -> float:
        return self.layout.parity_bits / self.layout.k

    def read_footprint(self, col: int) -> Footprint:
        # the parity chip stores its word in the same layout
        return self.layout.access_footprint(col)

    def _parity_chip_index(self) -> int:
        return self.rank.data_chips  # first ECC chip holds the XOR parity

    def write_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        data: np.ndarray,
    ) -> None:
        data = self._check_line(data)
        words = []
        for chip_idx in range(self.rank.data_chips):
            word_data = data[chip_idx].T.reshape(-1)
            words.append(word_data)
            codeword = self.code.encode(word_data)
            self.layout.scatter(chips[chip_idx].row_view(bank, row), col, codeword)
        parity_data = self.parity.parity(np.stack(words))
        parity_codeword = self.code.encode(parity_data)
        parity_chip = chips[self._parity_chip_index()]
        self.layout.scatter(parity_chip.row_view(bank, row), col, parity_codeword)

    def read_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        bursts: dict[int, TransferBurst] | None = None,
    ) -> LineReadResult:
        bursts = bursts or {}
        device_cfg = self.rank.device
        n_chips = self.rank.data_chips + 1  # data chips plus the parity chip
        chip_words = np.zeros((n_chips, self.layout.k), dtype=np.uint8)
        flagged: list[int] = []
        corrections = 0
        footprint = self.read_footprint(col)
        for chip_idx in range(n_chips):
            device = chips[self._parity_chip_index() if chip_idx == self.rank.data_chips else chip_idx]
            row_bits = faulty_row_with_burst(
                device, bank, row, col, bursts.get(chip_idx), footprint
            )
            word = self.layout.gather(row_bits, col)
            result = self.code.decode(word)
            corrections += result.corrections
            if result.status is DecodeStatus.DETECTED:
                flagged.append(chip_idx)
            chip_words[chip_idx] = result.data

        if len(flagged) > 1:
            # Multiple catch-words: RAID-3 cannot rebuild two lanes.
            data = chip_words[: self.rank.data_chips]
            return LineReadResult(
                data=self._to_line(data), believed_good=False, corrections=corrections
            )
        if len(flagged) == 1:
            lane = flagged[0]
            if lane < self.rank.data_chips:
                lanes = chip_words[: self.rank.data_chips].copy()
                rebuilt = self.parity.reconstruct(
                    lanes, chip_words[self.rank.data_chips], lane
                )
                lanes[lane] = rebuilt
                return LineReadResult(
                    data=self._to_line(lanes), believed_good=True,
                    corrections=corrections + 1,
                )
            # The parity chip itself flagged: data chips are believed fine.
        return LineReadResult(
            data=self._to_line(chip_words[: self.rank.data_chips]),
            believed_good=True,
            corrections=corrections,
        )

    def _to_line(self, words: np.ndarray) -> np.ndarray:
        device_cfg = self.rank.device
        return words.reshape(
            self.rank.data_chips, device_cfg.burst_length, device_cfg.pins
        ).transpose(0, 2, 1)
