"""Shared helpers for scheme datapaths."""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

import numpy as np

from ..dram.config import DeviceConfig
from ..dram.mapping import Footprint, footprint_columns, window_offset
from ..faults.types import TransferBurst
from .base import DirtyReads, EccScheme, LineRead


def access_window(bits: np.ndarray, col: int, burst_length: int) -> np.ndarray:
    """The ``(pins, BL)`` slice of a row matrix for column access ``col``."""
    return bits[:, col * burst_length : (col + 1) * burst_length]


def beat_major_windows(bits: np.ndarray, device: DeviceConfig) -> np.ndarray:
    """Beat-major bit vectors ``(..., BL * pins)`` as access windows ``(..., pins, BL)``."""
    return bits.reshape(*bits.shape[:-1], device.burst_length, device.pins).swapaxes(-1, -2)


def dirty_rows(
    reads: Sequence[LineRead], chip_count: int, scheme: EccScheme
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """``(read, chip, col, window)`` of every chip row a batch of reads can see non-zero.

    Visits the first ``chip_count`` chips of each read, or only the dirty
    pairs of a :class:`~.base.DirtyReads` batch.  ``window`` holds the chip
    row's cells inside ``scheme.decode_footprint(col)``, its intervals side
    by side, read through the read's footprint (``scheme.read_footprint``,
    :meth:`repro.dram.device.DramDevice.row_window`), with the read's
    transfer burst on that chip flipped in; it is read-only.  A chip row
    with no burst and nothing stored or faulty inside the footprint reads as
    zeros and is skipped: the all-zero word of a linear code decodes clean,
    so readers start from zero lines and decode only the rows yielded here.
    """
    pairs = (
        reads.dirty
        if isinstance(reads, DirtyReads)
        else itertools.product(range(len(reads)), range(chip_count))
    )
    for i, chip_idx in pairs:
        if chip_idx >= chip_count:
            continue
        chips, bank, row, col, bursts = reads[i]
        config = chips[chip_idx].config
        whole = ((0, config.data_bits_per_pin_per_row + config.spare_bits_per_pin_per_row),)
        footprint = scheme.read_footprint(col) or whole
        cells = scheme.decode_footprint(col) or whole
        window = chips[chip_idx].row_window(bank, row, footprint)
        if window is not None and footprint != cells:  # a wider read: cut its window
            columns = footprint_columns(footprint)
            window = window[:, np.searchsorted(columns, footprint_columns(cells))]
        burst = bursts.get(chip_idx) if bursts else None
        if burst is not None:
            window = _with_burst(config, window, cells, col, burst)
        if window is not None:
            yield i, chip_idx, col, window


def _with_burst(
    config: DeviceConfig, window: np.ndarray | None, cells: Footprint, col: int,
    burst: TransferBurst,
) -> np.ndarray:
    """A copy of a window over ``cells`` (zeros for None) with a write-path
    transfer burst's beats flipped inside column ``col``'s access window
    (the burst corrupted the data as it was stored)."""
    if window is None:
        window = np.zeros((config.pins, len(footprint_columns(cells))), dtype=np.uint8)
    else:
        window = window.copy()
    bl = config.burst_length
    base = window_offset(cells, col * bl)
    start = base + burst.beat_start
    window[burst.pin, start : min(start + burst.length, base + bl)] ^= 1
    return window
