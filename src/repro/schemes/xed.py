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

from collections.abc import Sequence

import numpy as np

from ..codes.hamming import HammingSEC
from ..codes.parity import XorParity
from ..dram.config import RANK_X8_5CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, SecWordLayout
from ..dram.timing import SchemeTimingOverlay
from ._common import beat_major_windows, dirty_rows
from .base import BatchRead, EccScheme, LineRead


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

    def decode_footprint(self, col: int) -> Footprint:
        # the parity chip stores its word in the same layout
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
        words = []
        for chip_idx in range(self.rank.data_chips):
            word_data = data[chip_idx].T.reshape(-1)
            words.append(word_data)
            codeword = self.code.encode(word_data)
            self.layout.scatter(chips[chip_idx].row_view(bank, row), col, codeword)
        parity_data = self.parity.parity(np.stack(words))
        parity_codeword = self.code.encode(parity_data)
        parity_chip = chips[self.rank.data_chips]  # first ECC chip holds the XOR parity
        self.layout.scatter(parity_chip.row_view(bank, row), col, parity_codeword)

    def read_lines(self, reads: Sequence[LineRead]) -> BatchRead:
        """Every dirty chip word (parity chip included) through one
        ``decode_batch`` call, then the RAID-3 rebuild over the reads with
        exactly one catch-word."""
        count = len(reads)
        chips = self.rank.data_chips
        # per read: the decoded words of the data chips, then the parity chip
        lanes = np.zeros((count, chips + 1, self.layout.k), dtype=np.uint8)
        flagged = np.zeros((count, chips + 1), dtype=bool)
        corrections = np.zeros(count, dtype=np.int64)
        dirty = list(dirty_rows(reads, chips + 1, self))
        if dirty:
            decoded = self.code.decode_batch(
                self.layout.window_words(np.stack([window for *_, window in dirty]))
            )
            read, chip = np.array([(i, chip_idx) for i, chip_idx, *_ in dirty]).T
            lanes[read, chip] = decoded.data
            flagged[read, chip] = decoded.detected
            np.add.at(corrections, read, decoded.corrections)
        flags = np.count_nonzero(flagged, axis=1)
        # One catch-word from a data chip: rebuild that lane from the others
        # and the parity chip.  A flagged parity chip leaves the data as is;
        # two or more catch-words are beyond RAID-3 (DUE).
        lane = flagged.argmax(axis=1)
        rebuild = np.flatnonzero((flags == 1) & (lane < chips))
        lost = lane[rebuild]
        lanes[rebuild, lost] ^= np.bitwise_xor.reduce(lanes[rebuild], axis=1)
        corrections[rebuild] += 1
        data = beat_major_windows(lanes[:, :chips], self.rank.device)
        return BatchRead(data, flags <= 1, corrections)
