"""Tests for patrol scrubbing."""

from repro.faults import FaultInstance, FaultOverlay, FaultRates, FaultType
from repro.maintenance import ScrubReport, Scrubber
from repro.schemes import PairScheme


def clean_rates(**overrides):
    base = dict(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )
    base.update(overrides)
    return FaultRates(**base)


def make_system(faults=(), ber=0.0, seed=1):
    scheme = PairScheme()
    overlays = [None] * scheme.rank.chips
    overlays[0] = FaultOverlay(
        scheme.rank.device, clean_rates(single_cell_ber=ber), seed=seed,
        faults=list(faults),
    )
    chips = scheme.make_devices(overlays)
    return scheme, chips


def row_fault(row, density=0.5):
    return FaultInstance(
        FaultType.ROW, bank=0, row_start=row, row_count=1, pin=-1,
        bit_start=0, bit_count=8192, density=density,
    )


def cell_fault(row, pin, offset):
    """A single persistent weak cell, as a degenerate mat."""
    return FaultInstance(
        FaultType.MAT, bank=0, row_start=row, row_count=1, pin=pin,
        bit_start=offset, bit_count=1, density=1.0,
    )


class TestScrubber:
    def test_clean_rows_report_clean(self):
        scheme, chips = make_system()
        report = Scrubber(scheme, chips).scrub(banks=(0,), rows=(1, 2), col_stride=60)
        assert report.lines_scanned == 16  # 480/60 cols x 2 rows
        assert report.corrected_lines == 0
        assert report.uncorrectable_lines == 0
        assert all(h.clean for h in report.rows.values())

    def test_weak_cells_show_as_corrections(self):
        scheme, chips = make_system(faults=[cell_fault(5, pin=0, offset=3)])
        report = Scrubber(scheme, chips).scrub(banks=(0,), rows=(5,), col_stride=8)
        # the cell sits in segment 0: every scrubbed access of that segment
        # decodes codeword 0 and corrects it
        health = report.rows[(0, 5)]
        assert health.corrected_lines > 0
        assert health.uncorrectable_lines == 0

    def test_row_fault_reports_uncorrectable(self):
        scheme, chips = make_system(faults=[row_fault(9)])
        report = Scrubber(scheme, chips).scrub(banks=(0,), rows=(9,), col_stride=60)
        assert report.rows[(0, 9)].uncorrectable_lines == report.rows[(0, 9)].lines

    def test_degraded_rows_thresholds(self):
        scheme, chips = make_system(faults=[row_fault(9)])
        scrubber = Scrubber(scheme, chips)
        report = scrubber.scrub(banks=(0,), rows=(8, 9), col_stride=120)
        degraded = report.degraded_rows(due_line_threshold=1)
        assert degraded == [(0, 9)]

    def test_row_counts_equal_per_line_reads(self):
        """One batched read of the row counts what column-by-column reads do."""
        scheme, chips = make_system(
            faults=[cell_fault(5, pin=0, offset=3), cell_fault(5, pin=2, offset=2000),
                    row_fault(5, density=0.002)],
            ber=2e-4,
        )
        health = Scrubber(scheme, chips).scrub_row(0, 5, ScrubReport(), col_stride=7)
        cols = range(0, scheme.rank.device.columns_per_row, 7)
        results = [scheme.read_line(chips, 0, 5, col) for col in cols]
        assert health.lines == len(results)
        assert health.uncorrectable_lines == sum(not r.believed_good for r in results)
        fixed = [r for r in results if r.believed_good and r.corrections]
        assert health.corrected_lines == len(fixed) > 0
        assert health.corrected_symbols == sum(r.corrections for r in fixed)

    def test_stride_controls_coverage(self):
        scheme, chips = make_system()
        scrubber = Scrubber(scheme, chips)
        fine = scrubber.scrub(banks=(0,), rows=(0,), col_stride=1)
        coarse = scrubber.scrub(banks=(0,), rows=(0,), col_stride=48)
        assert fine.lines_scanned == 480
        assert coarse.lines_scanned == 10

    def test_report_accumulates_across_rows(self):
        report = ScrubReport()
        report.health(0, 1).lines = 4
        report.health(0, 2).corrected_lines = 1
        assert report.lines_scanned == 4
        assert report.corrected_lines == 1
