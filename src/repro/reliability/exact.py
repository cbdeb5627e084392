"""Shared set-up of the decoder-in-the-loop Monte-Carlo engines.

The engines themselves live in :mod:`repro.reliability.batch`; they run
the *real* datapath: fault overlays on real devices, real
gather/decode/reconstruct logic, classification against known data.  They
are the ground truth the semi-analytic engine
(:mod:`repro.reliability.analytic`) is validated against, and the
workhorse for structured-fault and burst experiments where correlations
matter.  This module holds what every run shares: the run config, the chip
seeds of a fault universe and the planting of one structured fault.  The
engines build each chunk's universes from those seeds in one pass
(:func:`repro.reliability.batch._universe_reads`); the scalar oracle
builds one chip at a time from the same seeds.

Because every scheme here is linear, the all-zero line is a valid encoded
state of every scheme (encode(0) = 0), so trials run against zero-filled
devices and the observed error process is exactly the fault process - no
per-trial write traffic is needed.  A dedicated test suite verifies the
write path separately with random data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dram.config import DeviceConfig
from ..faults.rates import FaultRates
from ..faults.types import FaultInstance, FaultType
from ..schemes.base import EccScheme


@dataclass
class ExactRunConfig:
    """Parameters of one Monte-Carlo run."""

    trials: int = 1000
    seed: int = 0
    resample_faults_every: int = 1  # new fault universe every N trials


def _zero_line(scheme: EccScheme) -> np.ndarray:
    return np.zeros(scheme.line_shape, dtype=np.uint8)


def _chip_seeds(scheme: EccScheme, seed: int) -> list[int]:
    """Fault-universe seed of each chip of the rank."""
    return [seed * 1009 + chip_idx for chip_idx in range(scheme.rank.chips)]


def _plant_fault(
    kind: FaultType,
    rates: FaultRates,
    device: DeviceConfig,
    row: int,
    col: int,
    total_bits: int,
    rng: np.random.Generator,
) -> FaultInstance:
    """One fault instance of ``kind`` guaranteed to cover (row, col)."""
    bl = device.burst_length
    if kind is FaultType.ROW:
        return FaultInstance(
            kind, bank=0, row_start=row, row_count=1, pin=-1,
            bit_start=0, bit_count=total_bits, density=rates.row_density,
        )
    if kind is FaultType.COLUMN:
        # a bitline crossing the accessed window
        offset = col * bl + int(rng.integers(bl))
        return FaultInstance(
            kind, bank=0, row_start=0, row_count=device.rows_per_bank,
            pin=int(rng.integers(device.pins)), bit_start=offset, bit_count=1,
            density=rates.column_density,
        )
    if kind is FaultType.PIN_LINE:
        return FaultInstance(
            kind, bank=0, row_start=0, row_count=device.rows_per_bank,
            pin=int(rng.integers(device.pins)), bit_start=0, bit_count=total_bits,
            density=rates.pin_density,
        )
    if kind is FaultType.MAT:
        bits = min(rates.mat_bits, total_bits)
        start = col * bl  # anchor the mat on the accessed window
        start = min(start, total_bits - bits)
        return FaultInstance(
            kind, bank=0, row_start=row, row_count=rates.mat_rows,
            pin=int(rng.integers(device.pins)), bit_start=start, bit_count=bits,
            density=rates.mat_density,
        )
    if kind is FaultType.TRANSFER_BURST:
        # burst injected at read time; plant a no-op fault far away
        return FaultInstance(
            FaultType.MAT, bank=device.banks - 1, row_start=0, row_count=1,
            pin=0, bit_start=0, bit_count=1, density=0.0,
        )
    raise ValueError(f"cannot plant fault kind {kind}")
