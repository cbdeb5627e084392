"""Functional DRAM device model.

Stores row contents sparsely (only rows that were ever written) as
``(pins, bits_per_pin)`` uint8 bit matrices.  Persistent faults are applied
through an attached *fault overlay*: any object with a
``mask_window(bank, row, shape, footprint) -> np.ndarray | None`` method
(see :class:`repro.faults.sampler.FaultOverlay`).  Reads XOR the overlay
into the returned bits - the stored "truth" stays pristine so tests can
compare against it.  A read that names a *footprint* (the per-pin bit
intervals it decodes, :data:`repro.dram.mapping.Footprint`) sees the faults
inside it only; cells outside come back as stored.  Scheme readers read
footprint windows (:meth:`DramDevice.row_window`): the cells inside the
footprint only, its intervals side by side.

The device knows nothing about ECC; schemes in :mod:`repro.schemes` own the
codeword layout and drive the device through :meth:`row_view` /
:meth:`read_access` / :meth:`write_access`.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .config import DeviceConfig
from .mapping import Footprint, footprint_columns


class FaultOverlayProtocol(Protocol):
    """Anything that can produce persistent bit-flip masks per row."""

    def mask_window(
        self, bank: int, row: int, shape: tuple[int, int], footprint: Footprint
    ) -> np.ndarray | None:
        """Return the uint8 flip mask of a ``shape`` row's cells inside
        ``footprint``, at window size (:func:`repro.dram.mapping.footprint_columns`),
        or None when it would be all zero.  Callers do not write to it.
        """
        ...


class DramDevice:
    """One DRAM chip: sparse row storage plus an optional fault overlay."""

    def __init__(self, config: DeviceConfig, fault_overlay: FaultOverlayProtocol | None = None):
        self.config = config
        self.fault_overlay = fault_overlay
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        total = config.data_bits_per_pin_per_row + config.spare_bits_per_pin_per_row
        self._row_shape = (config.pins, total)

    # -- storage -------------------------------------------------------------

    def _check_coords(self, bank: int, row: int) -> None:
        if not 0 <= bank < self.config.banks:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= row < self.config.rows_per_bank:
            raise ValueError(f"row {row} out of range")

    def row_view(self, bank: int, row: int) -> np.ndarray:
        """Mutable pristine storage of a row (allocated on first touch)."""
        self._check_coords(bank, row)
        key = (bank, row)
        if key not in self._rows:
            self._rows[key] = np.zeros(self._row_shape, dtype=np.uint8)
        return self._rows[key]

    def row_with_faults(
        self, bank: int, row: int, footprint: Footprint | None = None
    ) -> np.ndarray:
        """Row contents as the sense amps would see them (faults applied).

        Only faults inside ``footprint`` are applied (all of them when None).
        """
        self._check_coords(bank, row)
        stored = self._rows.get((bank, row))
        # a row never written reads as zeros; reading it allocates no storage
        data = np.zeros(self._row_shape, np.uint8) if stored is None else stored.copy()
        footprint = footprint or ((0, self._row_shape[1]),)
        mask = self._mask(bank, row, footprint)
        if mask is not None:
            data[:, footprint_columns(footprint)] ^= mask
        return data

    def row_window(
        self, bank: int, row: int, footprint: Footprint | None = None
    ) -> np.ndarray | None:
        """The row's cells inside ``footprint`` as the sense amps see them.

        A ``(pins, width)`` window, the footprint's intervals side by side
        (the whole row when None); read-only, as it may be the overlay's
        cached mask.  None when nothing is stored in the row and no fault
        lies inside the footprint: the window reads as zeros.
        """
        self._check_coords(bank, row)
        footprint = footprint or ((0, self._row_shape[1]),)
        mask = self._mask(bank, row, footprint)
        stored = self._rows.get((bank, row))
        if stored is None:
            return mask
        window = stored[:, footprint_columns(footprint)]
        if mask is not None:
            window ^= mask
        return window

    def _mask(self, bank: int, row: int, footprint: Footprint) -> np.ndarray | None:
        if self.fault_overlay is None:
            return None
        return self.fault_overlay.mask_window(bank, row, self._row_shape, footprint)

    def row_is_clean(
        self, bank: int, row: int, footprint: Footprint | None = None
    ) -> bool:
        """True when a read of the row would return all zeros: the stored
        contents are absent or zero and the overlay has no mask for the row
        inside ``footprint``."""
        self._check_coords(bank, row)
        stored = self._rows.get((bank, row))
        if stored is not None and stored.any():
            return False
        return self._mask(bank, row, footprint or ((0, self._row_shape[1]),)) is None

    @property
    def touched_rows(self) -> int:
        return len(self._rows)

    # -- access-granularity API ------------------------------------------------

    def read_access(self, bank: int, row: int, col: int) -> np.ndarray:
        """Raw data bits of one column access, shape ``(pins, burst_length)``.

        Faults are applied; no ECC is involved at this level.
        """
        bl = self.config.burst_length
        if not 0 <= col < self.config.columns_per_row:
            raise ValueError(f"col {col} out of range")
        data = self.row_with_faults(bank, row)
        return data[:, col * bl : (col + 1) * bl]

    def write_access(self, bank: int, row: int, col: int, bits: np.ndarray) -> None:
        """Write one column access worth of raw data bits."""
        bl = self.config.burst_length
        if not 0 <= col < self.config.columns_per_row:
            raise ValueError(f"col {col} out of range")
        bits = np.asarray(bits, dtype=np.uint8) & 1
        if bits.shape != (self.config.pins, bl):
            raise ValueError(f"expected shape {(self.config.pins, bl)}, got {bits.shape}")
        self.row_view(bank, row)[:, col * bl : (col + 1) * bl] = bits
