"""Patrol scrubbing over a rank.

A scrubber periodically walks the array, reads every line through the ECC
scheme and tallies what it finds.  Two purposes in this reproduction:

* it is how a system *notices* degradation (rows whose lines keep needing
  correction, or that have become uncorrectable) before demand reads hit
  silent-corruption territory;
* its per-row report feeds the sparing policy in
  :mod:`repro.maintenance.sparing`, which retires degraded rows.

Scrubbing cannot remove *persistent* weak cells (re-writing a weak cell
leaves it weak), so the scrubber deliberately does not "fix" anything - it
observes and reports; repair is the sparing layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dram.device import DramDevice
from ..schemes.base import EccScheme


@dataclass
class RowHealth:
    """Scrub findings for one row."""

    lines: int = 0
    corrected_lines: int = 0
    corrected_symbols: int = 0
    uncorrectable_lines: int = 0

    @property
    def clean(self) -> bool:
        return self.corrected_lines == 0 and self.uncorrectable_lines == 0


@dataclass
class ScrubReport:
    """Aggregate findings of one scrub pass."""

    rows: dict[tuple[int, int], RowHealth] = field(default_factory=dict)

    def health(self, bank: int, row: int) -> RowHealth:
        return self.rows.setdefault((bank, row), RowHealth())

    @property
    def lines_scanned(self) -> int:
        return sum(h.lines for h in self.rows.values())

    @property
    def corrected_lines(self) -> int:
        return sum(h.corrected_lines for h in self.rows.values())

    @property
    def uncorrectable_lines(self) -> int:
        return sum(h.uncorrectable_lines for h in self.rows.values())

    def degraded_rows(
        self, ce_line_threshold: int = 2, due_line_threshold: int = 1
    ) -> list[tuple[int, int]]:
        """Rows whose findings exceed the retirement thresholds."""
        out = []
        for key, health in self.rows.items():
            if (
                health.uncorrectable_lines >= due_line_threshold
                or health.corrected_lines >= ce_line_threshold
            ):
                out.append(key)
        return sorted(out)


class Scrubber:
    """Walks rows of a rank through the scheme's full read path."""

    def __init__(self, scheme: EccScheme, chips: list[DramDevice]):
        self.scheme = scheme
        self.chips = chips

    def scrub_row(
        self, bank: int, row: int, report: ScrubReport, col_stride: int = 1
    ) -> RowHealth:
        """Read every ``col_stride``-th line of one row, in one batch."""
        health = report.health(bank, row)
        cols = range(0, self.scheme.rank.device.columns_per_row, col_stride)
        lines = self.scheme.read_lines([(self.chips, bank, row, col, None) for col in cols])
        corrected = lines.believed_good & (lines.corrections > 0)
        health.lines += len(lines)
        health.uncorrectable_lines += int(np.count_nonzero(~lines.believed_good))
        health.corrected_lines += int(np.count_nonzero(corrected))
        health.corrected_symbols += int(lines.corrections[corrected].sum())
        return health

    def scrub(
        self,
        banks: tuple[int, ...],
        rows: tuple[int, ...],
        col_stride: int = 16,
    ) -> ScrubReport:
        """Scrub a row set across banks; returns the findings."""
        report = ScrubReport()
        for bank in banks:
            for row in rows:
                self.scrub_row(bank, row, report, col_stride=col_stride)
        return report
