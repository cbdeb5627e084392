"""Sampling fault instances and materialising per-row error masks.

A :class:`FaultSampler` draws the persistent fault population of one device
from :class:`~repro.faults.rates.FaultRates`; the resulting
:class:`FaultOverlay` plugs into :class:`repro.dram.device.DramDevice` and
produces deterministic, reproducible flip masks per row.

Determinism matters: masks are derived from ``(seed, bank, row)`` substreams,
so reading the same row twice sees the same weak cells (inherent faults are
persistent), and two schemes evaluated against the same seed see the same
fault universe - the comparisons in the paper are paired.
"""

from __future__ import annotations

import numpy as np

from ..dram.config import DeviceConfig
from ..dram.mapping import Footprint
from .rates import FaultRates
from .types import FaultInstance, FaultType, TransferBurst


class FaultSampler:
    """Draws the structured-fault population of a device."""

    def __init__(self, config: DeviceConfig, rates: FaultRates, seed: int = 0):
        self.config = config
        self.rates = rates
        self.seed = seed

    def sample_faults(self) -> list[FaultInstance]:
        """Poisson-sample all persistent structured faults of the device."""
        rng = np.random.default_rng([self.seed, 0xFA017])
        faults: list[FaultInstance] = []
        faults += self._sample_rows(rng)
        faults += self._sample_columns(rng)
        faults += self._sample_pins(rng)
        faults += self._sample_mats(rng)
        return faults

    def _total_bits_per_pin(self) -> int:
        cfg = self.config
        return cfg.data_bits_per_pin_per_row + cfg.spare_bits_per_pin_per_row

    def _sample_rows(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.row_faults_per_device)
        return [
            FaultInstance(
                kind=FaultType.ROW,
                bank=int(rng.integers(cfg.banks)),
                row_start=int(rng.integers(cfg.rows_per_bank)),
                row_count=1,
                pin=-1,
                bit_start=0,
                bit_count=self._total_bits_per_pin(),
                density=rates.row_density,
            )
            for _ in range(count)
        ]

    def _sample_columns(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.column_faults_per_device)
        total_bits = self._total_bits_per_pin()
        out = []
        for _ in range(count):
            span = min(rates.column_rows, cfg.rows_per_bank)
            start = int(rng.integers(cfg.rows_per_bank - span + 1))
            out.append(
                FaultInstance(
                    kind=FaultType.COLUMN,
                    bank=int(rng.integers(cfg.banks)),
                    row_start=start,
                    row_count=span,
                    pin=int(rng.integers(cfg.pins)),
                    bit_start=int(rng.integers(total_bits)),
                    bit_count=1,
                    density=rates.column_density,
                )
            )
        return out

    def _sample_pins(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.pin_faults_per_device)
        return [
            FaultInstance(
                kind=FaultType.PIN_LINE,
                bank=int(rng.integers(cfg.banks)),
                row_start=0,
                row_count=cfg.rows_per_bank,
                pin=int(rng.integers(cfg.pins)),
                bit_start=0,
                bit_count=self._total_bits_per_pin(),
                density=rates.pin_density,
            )
            for _ in range(count)
        ]

    def _sample_mats(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.mat_faults_per_device)
        total_bits = self._total_bits_per_pin()
        out = []
        for _ in range(count):
            rows = min(rates.mat_rows, cfg.rows_per_bank)
            bits = min(rates.mat_bits, total_bits)
            out.append(
                FaultInstance(
                    kind=FaultType.MAT,
                    bank=int(rng.integers(cfg.banks)),
                    row_start=int(rng.integers(cfg.rows_per_bank - rows + 1)),
                    row_count=rows,
                    pin=int(rng.integers(cfg.pins)),
                    bit_start=int(rng.integers(total_bits - bits + 1)),
                    bit_count=bits,
                    density=rates.mat_density,
                )
            )
        return out


class _Substream:
    """One PCG64 substream read at chosen draw positions.

    numpy's PCG64 spends exactly one 64-bit output per double and
    ``advance(k)`` skips exactly ``k`` outputs, so draw ``i`` of the stream
    has the same value whether or not the draws before it were taken.
    Positions must be read in increasing order.
    """

    __slots__ = ("_rng", "_pos")

    def __init__(self, key: list[int]):
        self._rng = np.random.default_rng(key)
        self._pos = 0

    def window(self, base: int, stride: int, rows: int, spans: Footprint) -> np.ndarray:
        """Draws ``base + r * stride + offset``, shape ``(rows, span bits)``.

        Row ``r`` holds the draws at every offset of ``spans`` in order.
        """
        width = sum(end - start for start, end in spans)
        out = np.empty((rows, width))
        for r in range(rows):
            col = 0
            for start, end in spans:
                pos = base + r * stride + start
                if pos != self._pos:
                    self._rng.bit_generator.advance(pos - self._pos)
                self._rng.random(out=out[r, col : col + end - start])
                col += end - start
                self._pos = pos + end - start
        return out


class FaultOverlay:
    """Materialises deterministic flip masks per row.

    Combines the i.i.d. single-cell process with every structured fault whose
    footprint intersects the row.  Each process draws the cells of a row
    matrix in C order from its own ``(seed, bank, row, ...)`` substream; a
    mask asked for over a read's footprint takes only the draws of the cells
    inside it (:class:`_Substream`), so it equals the whole-row mask with
    every cell outside the footprint zeroed.  Masks are cached (bounded, per
    row and footprint) because schemes repeatedly read the same hot rows.
    """

    def __init__(
        self,
        config: DeviceConfig,
        rates: FaultRates,
        seed: int = 0,
        faults: list[FaultInstance] | None = None,
        cache_rows: int = 4096,
    ):
        self.config = config
        self.rates = rates
        self.seed = seed
        self.faults = (
            faults
            if faults is not None
            else FaultSampler(config, rates, seed).sample_faults()
        )
        self._cache: dict[tuple[int, int], dict[Footprint, np.ndarray | None]] = {}
        self._cache_rows = cache_rows
        # Index structured faults by bank for fast row lookups; a fault's
        # position in ``self.faults`` seeds its substream.
        self._by_bank: dict[int, list[tuple[int, FaultInstance]]] = {}
        for index, fault in enumerate(self.faults):
            self._by_bank.setdefault(fault.bank, []).append((index, fault))

    def faults_in_row(self, bank: int, row: int) -> list[FaultInstance]:
        return [f for _, f in self._by_bank.get(bank, ()) if f.affects_row(bank, row)]

    def mask_for_row(
        self, bank: int, row: int, shape: tuple[int, int],
        footprint: Footprint | None = None,
    ) -> np.ndarray | None:
        """Flip mask of a row over ``footprint`` (the whole row when None).

        Cells outside the footprint are zero; None when the mask would be
        all zero.
        """
        if footprint is None:
            footprint = ((0, shape[1]),)
        key = (bank, row)
        masks = self._cache.get(key)
        if masks is None:
            if len(self._cache) >= self._cache_rows:
                self._cache.clear()
            masks = self._cache[key] = {}
        elif footprint in masks:
            return masks[footprint]
        mask = masks[footprint] = self._build_mask(bank, row, shape, footprint)
        return mask

    def _build_mask(
        self, bank: int, row: int, shape: tuple[int, int], footprint: Footprint
    ) -> np.ndarray | None:
        pins, total_bits = shape
        # (rows, spans, bits, op) to combine, in the order the processes draw
        parts: list[tuple[slice, Footprint, np.ndarray, np.ufunc]] = []
        ber = self.rates.single_cell_ber
        cluster = self.rates.cell_cluster_per_bit
        if ber > 0 or cluster > 0:
            stream = _Substream([self.seed, bank, row, 0xCE11])
            if ber > 0:
                flips = stream.window(0, total_bits, pins, footprint) < ber
                if flips.any():
                    parts.append((slice(None), footprint, flips, np.bitwise_or))
            if cluster > 0:
                # an anchor flips itself and its along-pin right neighbour
                # (clusters never wrap), so each span also needs the anchor
                # just left of it
                wide = tuple((max(start - 1, 0), end) for start, end in footprint)
                base = pins * total_bits if ber > 0 else 0
                anchors = stream.window(base, total_bits, pins, wide) < cluster
                if anchors.any():
                    pairs, col = [], 0
                    for (start, end), (lo, _) in zip(footprint, wide):
                        own = anchors[:, col : col + end - lo]
                        cells = own[:, start - lo :].copy()
                        cells[:, 1 - (start - lo) :] |= own[:, :-1]
                        pairs.append(cells)
                        col += end - lo
                    parts.append((slice(None), footprint, np.hstack(pairs), np.bitwise_or))
        for index, fault in self._by_bank.get(bank, ()):
            if fault.affects_row(bank, row):
                part = self._fault_flips(fault, index, bank, row, shape, footprint)
                if part is not None:
                    parts.append(part)
        if not parts:
            return None
        mask = np.zeros(shape, dtype=np.uint8)
        for rows, where, bits, op in parts:
            col = 0
            for start, end in where:
                view = mask[rows, start:end]
                op(view, bits[:, col : col + end - start], out=view)
                col += end - start
        # two structured faults can cancel each other's flips
        return mask if mask.any() else None

    def _fault_flips(
        self, fault: FaultInstance, index: int, bank: int, row: int,
        shape: tuple[int, int], footprint: Footprint,
    ) -> tuple[slice, Footprint, np.ndarray, np.ufunc] | None:
        """One structured fault's flips inside ``footprint``, or None if none.

        The fault's substream draws its ``(pins, width)`` block (one pin's
        ``width`` bits for a single-pin fault) in C order.
        """
        pins, total_bits = shape
        bit_start = fault.bit_start
        bit_end = min(bit_start + fault.bit_count, total_bits)
        inside = tuple(
            (max(start, bit_start), min(end, bit_end))
            for start, end in footprint
            if start < bit_end and end > bit_start
        )
        if not inside:
            return None
        stream = _Substream([self.seed, bank, row, 0xFA1137 + index])
        local = tuple((start - bit_start, end - bit_start) for start, end in inside)
        if fault.pin < 0:
            rows, draws = slice(None), stream.window(0, bit_end - bit_start, pins, local)
        else:
            rows, draws = slice(fault.pin, fault.pin + 1), stream.window(0, 0, 1, local)
        flips = draws < fault.density
        return (rows, inside, flips, np.bitwise_xor) if flips.any() else None


def sample_transfer_burst(
    rng: np.random.Generator, config: DeviceConfig, rates: FaultRates
) -> TransferBurst | None:
    """Draw the (rare) transient burst event for one access."""
    if rates.transfer_burst_per_access <= 0:
        return None
    if rng.random() >= rates.transfer_burst_per_access:
        return None
    length = min(rates.transfer_burst_length, config.burst_length)
    start = int(rng.integers(config.burst_length - length + 1))
    return TransferBurst(
        pin=int(rng.integers(config.pins)), beat_start=start, length=length
    )


def burst_mask(config: DeviceConfig, burst: TransferBurst) -> np.ndarray:
    """Flip mask of one access, shape ``(pins, burst_length)``."""
    mask = np.zeros((config.pins, config.burst_length), dtype=np.uint8)
    mask[burst.pin, burst.beat_start : burst.beat_start + burst.length] = 1
    return mask
