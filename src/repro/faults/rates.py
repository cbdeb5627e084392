"""Fault-rate configuration.

Rates are expressed per *device* (probability that a device instance carries
at least one fault of the class, with the expected count Poisson around it),
except the single-cell rate which is a per-bit probability - the swept
x-axis of the reliability figures.

The default structured-fault magnitudes are reconstruction choices **[R]**
(see DESIGN.md): their *relative* ordering follows the published field
studies (cell faults dominate; columns and rows come next; pin-line and mat
faults are rarer), and the reliability benches report sensitivity to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .types import FaultType


#: fields that are per-bit or per-access probabilities, or densities.
_PROBABILITIES = (
    "single_cell_ber", "cell_cluster_per_bit", "transfer_burst_per_access",
    "row_density", "column_density", "pin_density", "mat_density",
)
#: expected structured-fault counts per device (Poisson means).
_PER_DEVICE = (
    "row_faults_per_device", "column_faults_per_device",
    "pin_faults_per_device", "mat_faults_per_device",
)
#: footprint extents, in rows, bits or beats.
_EXTENTS = ("mat_rows", "mat_bits", "column_rows", "transfer_burst_length")


@dataclass(frozen=True)
class FaultRates:
    """Fault process parameters for one device.

    Attributes
    ----------
    single_cell_ber:
        Per-bit probability that a stored cell is weak (reads flip).
    row_faults_per_device, column_faults_per_device,
    pin_faults_per_device, mat_faults_per_device:
        Expected number of persistent structured faults per device.
    row_density, column_density, pin_density, mat_density:
        Probability each footprint bit of such a fault is corrupted.
    mat_rows, mat_bits:
        Footprint extent of a mat fault (rows x per-pin bits).
    column_rows:
        Number of consecutive rows a column (bitline) fault spans.
    cell_cluster_per_bit:
        Per-bit probability that a cell anchors a correlated 2-cell cluster
        (the anchor and its along-pin neighbour both flip) - the adjacent
        double-cell failure mode field studies attribute to scaling.
    transfer_burst_per_access:
        Probability an access suffers a transient burst on one pin.
    transfer_burst_length:
        Beats corrupted by such a burst.
    """

    single_cell_ber: float = 1e-5
    cell_cluster_per_bit: float = 0.0
    row_faults_per_device: float = 2e-3
    column_faults_per_device: float = 4e-3
    pin_faults_per_device: float = 5e-4
    mat_faults_per_device: float = 1e-3
    row_density: float = 0.5
    column_density: float = 0.5
    pin_density: float = 0.5
    mat_density: float = 0.3
    mat_rows: int = 16
    mat_bits: int = 64
    column_rows: int = 4096
    transfer_burst_per_access: float = 1e-9
    transfer_burst_length: int = 8

    def __post_init__(self) -> None:
        for name in _PROBABILITIES:
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
        for name in _PER_DEVICE:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite rate >= 0, got {value!r}")
        for name in _EXTENTS:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")

    def with_ber(self, ber: float) -> "FaultRates":
        """Copy with a different single-cell BER (the sweep knob)."""
        return replace(self, single_cell_ber=ber)

    def pure_ber(self, ber: float | None = None) -> "FaultRates":
        """Copy with only the weak-cell process active.

        The rare-event tier (:mod:`repro.reliability.rareevent`) models the
        i.i.d. single-cell process exclusively and refuses rates with any
        structured class switched on; this is the canonical way to build
        the rates it accepts.  ``ber`` defaults to the current BER.
        """
        return self.only(FaultType.SINGLE_CELL).with_ber(
            self.single_cell_ber if ber is None else ber
        )

    def only(self, kind: FaultType) -> "FaultRates":
        """Copy keeping only one fault class active (breakdown experiment)."""
        zeroed = FaultRates(
            single_cell_ber=0.0,
            cell_cluster_per_bit=0.0,
            row_faults_per_device=0.0,
            column_faults_per_device=0.0,
            pin_faults_per_device=0.0,
            mat_faults_per_device=0.0,
            transfer_burst_per_access=0.0,
            row_density=self.row_density,
            column_density=self.column_density,
            pin_density=self.pin_density,
            mat_density=self.mat_density,
            mat_rows=self.mat_rows,
            mat_bits=self.mat_bits,
            column_rows=self.column_rows,
            transfer_burst_length=self.transfer_burst_length,
        )
        if kind is FaultType.SINGLE_CELL:
            return replace(zeroed, single_cell_ber=self.single_cell_ber)
        if kind is FaultType.ROW:
            return replace(zeroed, row_faults_per_device=self.row_faults_per_device)
        if kind is FaultType.COLUMN:
            return replace(zeroed, column_faults_per_device=self.column_faults_per_device)
        if kind is FaultType.PIN_LINE:
            return replace(zeroed, pin_faults_per_device=self.pin_faults_per_device)
        if kind is FaultType.MAT:
            return replace(zeroed, mat_faults_per_device=self.mat_faults_per_device)
        if kind is FaultType.TRANSFER_BURST:
            return replace(
                zeroed, transfer_burst_per_access=self.transfer_burst_per_access
            )
        raise ValueError(f"unknown fault type {kind}")


#: Baseline composite fault environment used by the reliability benches.
DEFAULT_RATES = FaultRates()
