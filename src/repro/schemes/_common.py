"""Shared helpers for scheme datapaths."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..dram.config import DeviceConfig
from ..dram.device import DramDevice
from ..dram.mapping import Footprint
from ..faults.types import TransferBurst

if TYPE_CHECKING:
    from .base import LineRead


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


def beat_major_windows(bits: np.ndarray, device: DeviceConfig) -> np.ndarray:
    """Beat-major bit vectors ``(..., BL * pins)`` as access windows ``(..., pins, BL)``."""
    return bits.reshape(*bits.shape[:-1], device.burst_length, device.pins).swapaxes(-1, -2)


def dirty_rows(
    reads: Sequence[LineRead],
    chip_count: int,
    footprint_of: Callable[[int], Footprint | None],
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """``(read, chip, col, bits)`` of every chip row a batch of reads can see non-zero.

    Visits the first ``chip_count`` chips of each read.  A chip row with no
    burst and nothing stored or faulty inside the read's footprint
    (``footprint_of(col)``) reads as all zeros (:meth:`DramDevice.row_is_clean`)
    and is skipped: the all-zero word of a linear code decodes clean, so
    readers start from zero lines and decode only the rows yielded here.
    ``bits`` is a private copy of the faulty row, safe to correct in place.
    """
    for i, (chips, bank, row, col, bursts) in enumerate(reads):
        bursts = bursts or {}
        footprint = footprint_of(col)
        for chip_idx in range(chip_count):
            burst = bursts.get(chip_idx)
            device = chips[chip_idx]
            if burst is None and device.row_is_clean(bank, row, footprint):
                continue
            yield i, chip_idx, col, faulty_row_with_burst(
                device, bank, row, col, burst, footprint
            )
