"""DUO: on-die redundancy transferred out and decoded at the controller.

Reconstruction of the HPCA 2018 scheme on the DDR5-style subchannel used
throughout this repo (see DESIGN.md [R] notes).  The on-die ECC logic is
bypassed; its 6.25% redundancy *storage* is repurposed, streamed to the
controller over an extended burst (BL16 -> BL17), and combined with the ECC
chip into one long Reed-Solomon codeword per cacheline:

* 4 data chips x 16 symbols  = 64 data symbols (beat-aligned per chip);
* 4 data chips x 1 spare symbol + 8 ECC-chip symbols = 12 parity symbols;
* RS(76, 64) over GF(2^8), bounded-distance t = 6 - the code parameters the
  DUO paper itself deploys for a 64-byte line (512 data + 96 redundancy
  bits); the ECC chip's remaining capacity is reserved (bus CRC duties in
  the original design) [R].

Strong against random cells, but: the single long codeword spans every pin
of every chip, so per-pin bursts and structured faults smear across many
symbols; the decode sits at the controller behind a stretched burst; and
masked writes force a full controller-side read-modify-write of the line.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..codes.rs import ReedSolomonCode
from ..dram.config import RANK_X8_5CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, merge_spans, window_span
from ..dram.timing import SchemeTimingOverlay
from ..galois.gf2m import get_field
from ._common import beat_major_windows, dirty_rows
from .base import BatchRead, EccScheme, LineRead


class Duo(EccScheme):
    """Rank-level long-RS scheme with on-die redundancy transfer."""

    name = "duo"

    def __init__(self, rank: RankConfig = RANK_X8_5CHIP, read_latency_cycles: int = 4):
        if rank.ecc_chips < 1:
            raise ValueError("DUO needs an ECC chip in the rank")
        super().__init__(rank)
        device = rank.device
        if device.access_data_bits % 8:
            raise ValueError("access size must be byte-divisible")
        self.field = get_field(8)
        self.symbols_per_chip = device.access_data_bits // 8
        self.data_symbols = self.symbols_per_chip * rank.data_chips
        # one spare symbol per data chip + 8 ECC-chip symbols: the 96-bit
        # redundancy budget of the published DUO 64B code (t = 6)
        self.ecc_chip_symbols = 8
        self.parity_symbols = rank.data_chips + self.ecc_chip_symbols
        self.code = ReedSolomonCode(
            self.field, self.data_symbols + self.parity_symbols, self.data_symbols
        )
        self._read_latency = read_latency_cycles
        self._footprints: dict[int, Footprint] = {}
        bl = device.burst_length
        self._stretch = (bl + 1) / bl  # redundancy rides a 17th beat

    @property
    def timing_overlay(self) -> SchemeTimingOverlay:
        return SchemeTimingOverlay(
            name=self.name,
            read_latency_cycles=self._read_latency,
            burst_stretch=self._stretch,
            masked_write_extra_read=True,
        )

    @property
    def storage_overhead(self) -> float:
        # one spare symbol per chip access, same budget as conventional IECC
        return 8 / self.rank.device.access_data_bits

    # -- symbol packing --------------------------------------------------------

    def _chip_symbols(self, window: np.ndarray) -> np.ndarray:
        """Beat-aligned symbols of one chip's access window (pins, BL)."""
        flat = window.T.reshape(-1).astype(np.int64)  # beat-major bits
        shifts = np.arange(8, dtype=np.int64)
        return (flat.reshape(-1, 8) << shifts).sum(axis=-1)

    def _symbols_to_window(self, symbols: np.ndarray) -> np.ndarray:
        device = self.rank.device
        shifts = np.arange(8, dtype=np.int64)
        bits = ((np.asarray(symbols, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.uint8)
        return bits.reshape(device.burst_length, device.pins).T

    def _symbols_to_lines(self, symbols: np.ndarray) -> np.ndarray:
        """``(reads, data_symbols)`` -> lines ``(reads, data_chips, pins, BL)``."""
        shifts = np.arange(8, dtype=np.int64)
        bits = ((np.asarray(symbols, dtype=np.int64)[..., None] >> shifts) & 1).astype(np.uint8)
        return beat_major_windows(
            bits.reshape(len(bits), self.rank.data_chips, -1), self.rank.device
        )

    def _spare_symbol_slots(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """(pins, offsets) of a chip's per-access spare symbol (8 bits)."""
        device = self.rank.device
        idx = np.arange(8)
        pins = idx % device.pins
        per_pin = -(-8 // device.pins)
        offs = device.data_bits_per_pin_per_row + col * per_pin + idx // device.pins
        return pins, offs

    def decode_footprint(self, col: int) -> Footprint:
        # the ECC chip is read in its access window only; the spare slots
        # are a superset there.  Computed once per column.
        footprint = self._footprints.get(col)
        if footprint is None:
            _, offs = self._spare_symbol_slots(col)
            footprint = self._footprints[col] = merge_spans(
                [window_span(self.rank.device, col), (int(offs.min()), int(offs.max()) + 1)]
            )
        return footprint

    def _write_spare_symbol(self, row_bits: np.ndarray, col: int, value: int) -> None:
        pins, offs = self._spare_symbol_slots(col)
        row_bits[pins, offs] = (value >> np.arange(8)) & 1

    # -- datapath --------------------------------------------------------------

    def write_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        data: np.ndarray,
    ) -> None:
        data = self._check_line(data)
        data_syms = np.concatenate(
            [self._chip_symbols(data[c]) for c in range(self.rank.data_chips)]
        )
        codeword = self.code.encode(data_syms)
        parity = codeword[self.data_symbols :]
        for chip_idx in range(self.rank.data_chips):
            row_bits = chips[chip_idx].row_view(bank, row)
            bl = self.rank.device.burst_length
            row_bits[:, col * bl : (col + 1) * bl] = data[chip_idx]
            self._write_spare_symbol(row_bits, col, int(parity[chip_idx]))
        ecc_chip = chips[self.rank.data_chips]
        ecc_row = ecc_chip.row_view(bank, row)
        ecc_syms = np.zeros(self.symbols_per_chip, dtype=np.int64)
        ecc_syms[: self.ecc_chip_symbols] = parity[self.rank.data_chips :]
        bl = self.rank.device.burst_length
        ecc_row[:, col * bl : (col + 1) * bl] = self._symbols_to_window(ecc_syms)

    def read_lines(self, reads: Sequence[LineRead]) -> BatchRead:
        """Every read with a dirty chip row (ECC chip included) through one
        ``decode_batch`` call; skipped chip rows contribute zero symbols."""
        out = BatchRead.clean(len(reads), self.line_shape)
        chips = self.rank.data_chips
        per_chip = self.symbols_per_chip
        bl = self.rank.device.burst_length
        received = np.zeros((len(reads), self.code.n), dtype=np.int64)
        dirty = np.zeros(len(reads), dtype=bool)
        for i, chip_idx, _, window in dirty_rows(reads, chips + 1, self):
            dirty[i] = True
            # the access window, then the spare slots (_spare_symbol_slots):
            # read column-major, their bits are the spare symbol's in order
            symbols = self._chip_symbols(window[:, :bl])
            if chip_idx < chips:
                received[i, chip_idx * per_chip : (chip_idx + 1) * per_chip] = symbols
                spare = window[:, bl:].T.reshape(-1)[:8].astype(np.int64)
                received[i, self.data_symbols + chip_idx] = spare @ (1 << np.arange(8))
            else:
                received[i, self.data_symbols + chips :] = symbols[: self.ecc_chip_symbols]
        rows = np.flatnonzero(dirty)
        if rows.size:
            decoded = self.code.decode_batch(received[rows])
            # A row the decoder did not settle holds its received word: the
            # raw data DUO forwards on detection.
            out.data[rows] = self._symbols_to_lines(decoded.data)
            out.believed_good[rows] = ~decoded.detected
            out.corrections[rows] = decoded.corrections
        return out
