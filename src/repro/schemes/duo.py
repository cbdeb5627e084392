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

import numpy as np

from ..codes.base import DecodeStatus
from ..codes.rs import ReedSolomonCode
from ..dram.config import RANK_X8_5CHIP, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint, merge_spans, window_span
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst
from ..galois.gf2m import get_field
from ._common import access_window, faulty_row_with_burst
from .base import EccScheme, LineRead, LineReadResult


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

    def _spare_symbol_slots(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """(pins, offsets) of a chip's per-access spare symbol (8 bits)."""
        device = self.rank.device
        idx = np.arange(8)
        pins = idx % device.pins
        per_pin = -(-8 // device.pins)
        offs = device.data_bits_per_pin_per_row + col * per_pin + idx // device.pins
        return pins, offs

    def read_footprint(self, col: int) -> Footprint:
        # the ECC chip is read in its access window only; the spare slots
        # are a superset there
        _, offs = self._spare_symbol_slots(col)
        return merge_spans(
            [window_span(self.rank.device, col), (int(offs.min()), int(offs.max()) + 1)]
        )

    def _read_spare_symbol(self, row_bits: np.ndarray, col: int) -> int:
        pins, offs = self._spare_symbol_slots(col)
        bits = row_bits[pins, offs].astype(np.int64)
        return int((bits << np.arange(8)).sum())

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
        data_syms = []
        chip_spares = []
        for chip_idx in range(self.rank.data_chips):
            row_bits = faulty_row_with_burst(
                chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
            )
            data_syms.append(self._chip_symbols(access_window(row_bits, col, bl)))
            chip_spares.append(self._read_spare_symbol(row_bits, col))
        ecc_idx = self.rank.data_chips
        ecc_bits = faulty_row_with_burst(
            chips[ecc_idx], bank, row, col, bursts.get(ecc_idx), footprint
        )
        ecc_main = self._chip_symbols(access_window(ecc_bits, col, bl))
        received = np.concatenate(
            [np.concatenate(data_syms), chip_spares, ecc_main[: self.ecc_chip_symbols]]
        )
        result = self.code.decode(received)
        decoded = result.data if result.believed_good else received[: self.data_symbols]
        out = np.stack(
            [
                self._symbols_to_window(
                    decoded[c * self.symbols_per_chip : (c + 1) * self.symbols_per_chip]
                )
                for c in range(self.rank.data_chips)
            ]
        )
        return LineReadResult(
            data=out,
            believed_good=result.status is not DecodeStatus.DETECTED,
            corrections=result.corrections,
        )

    def read_lines(self, reads: list[LineRead]) -> list[LineReadResult]:
        """Batched reads: all dirty lines through one ``decode_batch`` call.

        Reads whose every chip row (ECC chip included) is fault-free and
        burst-free are all-zero codewords of this linear code and are
        classified OK without touching the decoder.
        """
        bl = self.rank.device.burst_length
        results: list[LineReadResult | None] = [None] * len(reads)
        pending: list[int] = []
        received_rows: list[np.ndarray] = []
        for i, (chips, bank, row, col, bursts) in enumerate(reads):
            bursts = bursts or {}
            footprint = self.read_footprint(col)
            if not bursts and all(
                chips[c].row_is_clean(bank, row, footprint) for c in range(self.rank.chips)
            ):
                results[i] = LineReadResult(
                    data=np.zeros(self._line_shape(), dtype=np.uint8),
                    believed_good=True,
                )
                continue
            data_syms = []
            chip_spares = []
            for chip_idx in range(self.rank.data_chips):
                row_bits = faulty_row_with_burst(
                    chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
                )
                data_syms.append(self._chip_symbols(access_window(row_bits, col, bl)))
                chip_spares.append(self._read_spare_symbol(row_bits, col))
            ecc_idx = self.rank.data_chips
            ecc_bits = faulty_row_with_burst(
                chips[ecc_idx], bank, row, col, bursts.get(ecc_idx), footprint
            )
            ecc_main = self._chip_symbols(access_window(ecc_bits, col, bl))
            received_rows.append(
                np.concatenate(
                    [np.concatenate(data_syms), chip_spares, ecc_main[: self.ecc_chip_symbols]]
                )
            )
            pending.append(i)
        if pending:
            decoded_batch = self.code.decode_batch(np.stack(received_rows))
            for i, received, result in zip(pending, received_rows, decoded_batch):
                decoded = (
                    result.data if result.believed_good else received[: self.data_symbols]
                )
                out = np.stack(
                    [
                        self._symbols_to_window(
                            decoded[c * self.symbols_per_chip : (c + 1) * self.symbols_per_chip]
                        )
                        for c in range(self.rank.data_chips)
                    ]
                )
                results[i] = LineReadResult(
                    data=out,
                    believed_good=result.status is not DecodeStatus.DETECTED,
                    corrections=result.corrections,
                )
        return results
