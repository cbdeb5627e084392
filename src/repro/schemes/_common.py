"""Shared helpers for scheme datapaths."""

from __future__ import annotations

import numpy as np

from ..dram.device import DramDevice
from ..dram.mapping import Footprint
from ..faults.types import TransferBurst


def faulty_row_with_burst(
    device: DramDevice,
    bank: int,
    row: int,
    col: int,
    burst: TransferBurst | None,
    footprint: Footprint | None = None,
) -> np.ndarray:
    """Row contents as the ECC engine sees them for one access.

    Applies the persistent fault overlay inside ``footprint`` (the whole row
    when None) and, when a write-path transfer burst is being injected,
    flips the burst's beats inside the accessed column window (the burst
    corrupted the data as it was stored).
    """
    bits = device.row_with_faults(bank, row, footprint)
    if burst is not None:
        bl = device.config.burst_length
        base = col * bl + burst.beat_start
        end = min(base + burst.length, (col + 1) * bl)
        bits[burst.pin, base:end] ^= 1
    return bits


def access_window(bits: np.ndarray, col: int, burst_length: int) -> np.ndarray:
    """The ``(pins, BL)`` slice of a row matrix for column access ``col``."""
    return bits[:, col * burst_length : (col + 1) * burst_length]
