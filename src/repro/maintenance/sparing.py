"""Row sparing: retiring degraded rows onto reserved spare rows.

DRAM devices ship with spare rows; post-package repair and runtime sparing
remap a failing row's address onto one of them.  In this model the top
``spare_rows_per_bank`` rows of every bank are reserved, and a remap table
redirects accesses.  Because the fault overlay is keyed by the *physical*
row, remapping genuinely escapes row-local faults (row faults, mats, the
row-crossing section of a column fault) - the same reason it works in real
devices.

:class:`MaintenanceController` glues the pieces together: it wraps a scheme
plus its chips, routes reads/writes through the remap table, and implements
the scrub -> identify -> retire -> migrate loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dram.device import DramDevice
from ..schemes.base import EccScheme, LineReadResult
from .scrubber import ScrubReport, Scrubber


class SpareExhausted(Exception):
    """No spare rows left in the bank."""


@dataclass
class SpareManager:
    """Remap table over the reserved spare region of each bank."""

    rows_per_bank: int
    spare_rows_per_bank: int = 64
    _remap: dict[tuple[int, int], int] = field(default_factory=dict)
    _next_spare: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.spare_rows_per_bank >= self.rows_per_bank:
            raise ValueError("spare region cannot cover the whole bank")

    @property
    def first_spare_row(self) -> int:
        return self.rows_per_bank - self.spare_rows_per_bank

    def resolve(self, bank: int, row: int) -> int:
        """Physical row serving a logical row (identity unless retired)."""
        return self._remap.get((bank, row), row)

    def is_retired(self, bank: int, row: int) -> bool:
        return (bank, row) in self._remap

    def retire(self, bank: int, row: int) -> int:
        """Allocate a spare for (bank, row); returns the physical spare row."""
        if self.is_retired(bank, row):
            return self._remap[(bank, row)]
        used = self._next_spare.get(bank, 0)
        if used >= self.spare_rows_per_bank:
            raise SpareExhausted(f"bank {bank} has no spare rows left")
        spare = self.first_spare_row + used
        self._next_spare[bank] = used + 1
        self._remap[(bank, row)] = spare
        return spare

    @property
    def retired_count(self) -> int:
        return len(self._remap)

    def addressable_rows(self) -> int:
        """Logical rows exposed to the address map (spares held back)."""
        return self.first_spare_row


class MaintenanceController:
    """Scheme + chips + sparing: the runtime repair loop."""

    def __init__(
        self,
        scheme: EccScheme,
        chips: list[DramDevice],
        spare_rows_per_bank: int = 64,
    ):
        self.scheme = scheme
        self.chips = chips
        self.spares = SpareManager(
            rows_per_bank=scheme.rank.device.rows_per_bank,
            spare_rows_per_bank=spare_rows_per_bank,
        )
        self.scrubber = Scrubber(scheme, chips)

    # -- address-translated datapath ----------------------------------------

    def write_line(self, bank: int, row: int, col: int, data: np.ndarray) -> None:
        physical = self.spares.resolve(bank, row)
        self.scheme.write_line(self.chips, bank, physical, col, data)

    def read_line(self, bank: int, row: int, col: int) -> LineReadResult:
        physical = self.spares.resolve(bank, row)
        return self.scheme.read_line(self.chips, bank, physical, col)

    # -- repair loop ----------------------------------------------------------

    def retire_row(self, bank: int, row: int) -> int:
        """Migrate a logical row onto a spare and update the remap.

        Data is carried over through the ECC read path, so correctable
        damage is healed by the migration; uncorrectable lines are copied
        as-is (the DUE signal already reached the OS for those).
        """
        old_physical = self.spares.resolve(bank, row)
        spare = self.spares.retire(bank, row)
        cols = range(self.scheme.rank.device.columns_per_row)
        old = self.scheme.read_lines(
            [(self.chips, bank, old_physical, col, None) for col in cols]
        )
        for col in cols:
            self.scheme.write_line(self.chips, bank, spare, col, old.data[col])
        return spare

    def scrub_and_repair(
        self,
        banks: tuple[int, ...],
        rows: tuple[int, ...],
        col_stride: int = 16,
        ce_line_threshold: int = 2,
        due_line_threshold: int = 1,
    ) -> tuple[ScrubReport, list[tuple[int, int]]]:
        """One maintenance cycle: scrub, retire what crossed the thresholds."""
        # scrub the *physical* rows currently serving the logical ones
        report = ScrubReport()
        for bank in banks:
            for row in rows:
                physical = self.spares.resolve(bank, row)
                health = self.scrubber.scrub_row(
                    bank, physical, report, col_stride=col_stride
                )
                # index findings by logical coordinates for the caller
                report.rows[(bank, row)] = report.rows.pop((bank, physical), health)
        retired = []
        for bank, row in report.degraded_rows(ce_line_threshold, due_line_threshold):
            self.retire_row(bank, row)
            retired.append((bank, row))
        return report, retired
