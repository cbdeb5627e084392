"""PAIR: pin-aligned in-DRAM ECC using the expandability of Reed-Solomon.

The paper's contribution, reconstructed (DESIGN.md sections 1 and 3):

* **Pin alignment.**  Each codeword's symbols are consecutive byte-sized
  slices of a single DQ pin line within the open row
  (:class:`~repro.dram.mapping.PinAlignedLayout`).  Transfer bursts and
  in-array column defects on a pin land in at most a couple of symbols of
  one codeword, and the per-pin decoders run in parallel.
* **Expandability.**  One mother Reed-Solomon decoder serves every device
  width: the codeword is a singly *extended* RS(256, 240) over GF(2^8)
  (t = 8) for the default geometry, and shortened siblings share the same
  generator for other segmentations (:meth:`PairScheme.for_device`).
  Expandability also covers the write path: because the code is linear, a
  column write updates parity with the XOR of precomputed impulse parities
  (:meth:`~repro.codes.rs.ReedSolomonCode.impulse_parities`) against the
  open row buffer - no read-modify-write cycle, which is where PAIR's
  performance edge over conventional IECC and XED comes from.
* **In-DRAM, self-contained.**  No rank-level parity chip and no burst
  extension: reads pay only a small pipelined decode latency.

For the alignment ablation (experiment F8) the same scheme can be built on
the conventional beat-aligned orientation at identical overhead by passing
``orientation="beat"``.
"""

from __future__ import annotations

import numpy as np

from ..codes.base import DecodeStatus
from ..codes.rs import SinglyExtendedRS
from ..dram.config import RANK_X8_4CHIP, DeviceConfig, RankConfig
from ..dram.device import DramDevice
from ..dram.mapping import BeatAlignedLayout, Footprint, PinAlignedLayout, SegmentedLayout
from ..dram.timing import SchemeTimingOverlay
from ..faults.types import TransferBurst
from ..galois.gf2m import get_field
from ._common import access_window, faulty_row_with_burst
from .base import EccScheme, LineRead, LineReadResult


class PairScheme(EccScheme):
    """Pin-aligned extended-RS in-DRAM ECC (the paper's architecture)."""

    name = "pair"

    def __init__(
        self,
        rank: RankConfig = RANK_X8_4CHIP,
        data_symbols: int = 240,
        parity_symbols: int = 16,
        orientation: str = "pin",
        read_latency_cycles: int = 2,
    ):
        super().__init__(rank)
        device = rank.device
        self.field = get_field(8)
        if orientation == "pin":
            self.layout: SegmentedLayout = PinAlignedLayout(
                device, data_symbols, parity_symbols
            )
        elif orientation == "beat":
            self.layout = BeatAlignedLayout(device, data_symbols, parity_symbols)
            self.name = "pair-beat"
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        self.orientation = orientation
        self.code = SinglyExtendedRS(
            self.field, data_symbols + parity_symbols, data_symbols
        )
        self._read_latency = read_latency_cycles
        self._impulse = None  # built lazily: (k, r-1) inner parity rows

    @classmethod
    def for_device(cls, device: DeviceConfig, **kwargs) -> "PairScheme":
        """Build PAIR on any device width (the expandability claim, F7).

        The rank keeps a 64-byte line: the number of chips adapts to the pin
        count so that ``chips * pins * BL`` stays 512 bits.
        """
        line_bits = 512
        chips = line_bits // (device.pins * device.burst_length)
        if chips * device.pins * device.burst_length != line_bits:
            raise ValueError(f"device {device.name} cannot carry a 64B line evenly")
        rank = RankConfig(device=device, data_chips=chips, ecc_chips=0)
        return cls(rank=rank, **kwargs)

    @property
    def timing_overlay(self) -> SchemeTimingOverlay:
        return SchemeTimingOverlay(
            name=self.name, read_latency_cycles=self._read_latency
        )

    @property
    def storage_overhead(self) -> float:
        return self.layout.r_sym / self.layout.k

    @property
    def t(self) -> int:
        """Symbol-correction capability per codeword."""
        return self.code.t

    def read_footprint(self, col: int) -> Footprint:
        return self.layout.access_footprint(col)

    # -- write path -------------------------------------------------------------

    def _impulse_table(self) -> np.ndarray:
        if self._impulse is None:
            self._impulse = self.code.inner.impulse_parities()
        return self._impulse

    def write_line(
        self,
        chips: list[DramDevice],
        bank: int,
        row: int,
        col: int,
        data: np.ndarray,
    ) -> None:
        """Store a line and incrementally update each touched codeword.

        Mirrors the hardware: the old data is already in the open row
        buffer, so parity is updated from the (old XOR new) delta without an
        array read-modify-write.
        """
        data = self._check_line(data)
        bl = self.rank.device.burst_length
        impulse = self._impulse_table()
        for chip_idx in range(self.rank.data_chips):
            row_bits = chips[chip_idx].row_view(bank, row)
            old_window = access_window(row_bits, col, bl).copy()
            access_window(row_bits, col, bl)[:, :] = data[chip_idx]
            delta_window = old_window ^ data[chip_idx]
            if not delta_window.any():
                continue
            for cw in self.layout.codewords_of_access(col):
                self._update_parity(row_bits, cw, col, impulse)

    def _update_parity(
        self, row_bits: np.ndarray, cw: int, col: int, impulse: np.ndarray
    ) -> None:
        """Recompute a codeword's parity from its (already updated) data.

        Uses the impulse-parity formulation: parity = XOR_i mul(d_i, P_i),
        evaluated over all data symbols (equivalently, hardware applies it
        to the delta only; the functional result is identical).
        """
        symbols = self.layout.gather(row_bits, cw)
        data_syms = symbols[: self.layout.k]
        products = self.field.mul(
            impulse, np.asarray(data_syms, dtype=np.int64)[:, None]
        )
        inner_parity = np.bitwise_xor.reduce(products, axis=0)
        ext = int(np.bitwise_xor.reduce(data_syms) ^ np.bitwise_xor.reduce(inner_parity))
        new_symbols = np.concatenate([data_syms, inner_parity, [ext]])
        self.layout.scatter(row_bits, cw, new_symbols)

    # -- read path --------------------------------------------------------------

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
        believed_good = True
        corrections = 0
        for chip_idx in range(self.rank.data_chips):
            row_bits = faulty_row_with_burst(
                chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
            )
            corrected_row = row_bits
            for cw in self.layout.codewords_of_access(col):
                symbols = self.layout.gather(row_bits, cw)
                result = self.code.decode(symbols)
                corrections += result.corrections
                if result.status is DecodeStatus.DETECTED:
                    believed_good = False
                elif result.corrections:
                    if corrected_row is row_bits:
                        corrected_row = row_bits.copy()
                    self.layout.scatter(corrected_row, cw, result.codeword)
            out[chip_idx] = access_window(corrected_row, col, bl)
        return LineReadResult(
            data=out, believed_good=believed_good, corrections=corrections
        )

    def read_lines(self, reads: list[LineRead]) -> list[LineReadResult]:
        """Batched reads: one ``decode_batch`` over every codeword touched.

        Chip rows with no faults inside the read's footprint and no burst
        are skipped outright - the all-zero row is a valid codeword of this
        linear code, so each of its segments decodes OK with zero
        corrections, exactly what the scalar path would report.  Only the
        dirty minority reaches the decoder.
        """
        bl = self.rank.device.burst_length
        count = len(reads)
        outs = [np.zeros(self._line_shape(), dtype=np.uint8) for _ in range(count)]
        believed = [True] * count
        corrections = [0] * count
        dirty: list[tuple[int, int, int, np.ndarray, tuple[int, ...]]] = []
        words: list[np.ndarray] = []
        for i, (chips, bank, row, col, bursts) in enumerate(reads):
            bursts = bursts or {}
            cws = self.layout.codewords_of_access(col)
            footprint = self.read_footprint(col)
            for chip_idx in range(self.rank.data_chips):
                burst = bursts.get(chip_idx)
                if burst is None and chips[chip_idx].row_is_clean(bank, row, footprint):
                    continue
                row_bits = faulty_row_with_burst(
                    chips[chip_idx], bank, row, col, burst, footprint
                )
                dirty.append((i, chip_idx, col, row_bits, cws))
                words.append(self.layout.gather_many(row_bits, cws))
        if words:
            results = self.code.decode_batch(np.concatenate(words, axis=0))
            pos = 0
            for i, chip_idx, col, row_bits, cws in dirty:
                for cw in cws:
                    result = results[pos]
                    pos += 1
                    corrections[i] += result.corrections
                    if result.status is DecodeStatus.DETECTED:
                        believed[i] = False
                    elif result.corrections:
                        # row_bits is already a private copy, safe to fix up
                        self.layout.scatter(row_bits, cw, result.codeword)
                outs[i][chip_idx] = access_window(row_bits, col, bl)
        return [
            LineReadResult(data=outs[i], believed_good=believed[i], corrections=corrections[i])
            for i in range(count)
        ]
