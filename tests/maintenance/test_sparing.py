"""Tests for row sparing and the maintenance controller."""

import numpy as np
import pytest

from repro.faults import FaultInstance, FaultOverlay, FaultRates, FaultType
from repro.maintenance import MaintenanceController, SpareExhausted, SpareManager
from repro.schemes import PairScheme
from tests import oracle


def clean_rates():
    return FaultRates(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def row_fault(row, density=0.5):
    return FaultInstance(
        FaultType.ROW, bank=0, row_start=row, row_count=1, pin=-1,
        bit_start=0, bit_count=8192, density=density,
    )


def controller_with_faults(faults=(), spare_rows=8):
    scheme = PairScheme()
    overlays = [None] * scheme.rank.chips
    overlays[0] = FaultOverlay(
        scheme.rank.device, clean_rates(), seed=2, faults=list(faults)
    )
    chips = scheme.make_devices(overlays)
    return MaintenanceController(scheme, chips, spare_rows_per_bank=spare_rows)


class TestSpareManager:
    def test_identity_until_retired(self):
        spares = SpareManager(rows_per_bank=1024, spare_rows_per_bank=8)
        assert spares.resolve(0, 5) == 5
        assert not spares.is_retired(0, 5)

    def test_retire_allocates_from_spare_region(self):
        spares = SpareManager(rows_per_bank=1024, spare_rows_per_bank=8)
        spare = spares.retire(0, 5)
        assert spare == 1016  # first spare row
        assert spares.resolve(0, 5) == spare
        assert spares.retired_count == 1

    def test_retire_is_idempotent(self):
        spares = SpareManager(rows_per_bank=1024, spare_rows_per_bank=8)
        first = spares.retire(0, 5)
        assert spares.retire(0, 5) == first
        assert spares.retired_count == 1

    def test_exhaustion(self):
        spares = SpareManager(rows_per_bank=1024, spare_rows_per_bank=2)
        spares.retire(0, 1)
        spares.retire(0, 2)
        with pytest.raises(SpareExhausted):
            spares.retire(0, 3)

    def test_banks_have_independent_pools(self):
        spares = SpareManager(rows_per_bank=1024, spare_rows_per_bank=1)
        spares.retire(0, 1)
        spares.retire(1, 1)  # different bank: its own pool

    def test_validation(self):
        with pytest.raises(ValueError):
            SpareManager(rows_per_bank=8, spare_rows_per_bank=8)

    def test_addressable_rows(self):
        spares = SpareManager(rows_per_bank=1024, spare_rows_per_bank=8)
        assert spares.addressable_rows() == 1016


class TestMaintenanceController:
    def test_transparent_datapath(self):
        ctl = controller_with_faults()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, ctl.scheme.line_shape).astype(np.uint8)
        ctl.write_line(0, 5, 3, data)
        result = ctl.read_line(0, 5, 3)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_retire_migrates_data(self):
        ctl = controller_with_faults()
        rng = np.random.default_rng(1)
        lines = {}
        for col in (0, 7, 200):
            data = rng.integers(0, 2, ctl.scheme.line_shape).astype(np.uint8)
            ctl.write_line(0, 11, col, data)
            lines[col] = data
        spare = ctl.retire_row(0, 11)
        assert spare >= ctl.spares.first_spare_row
        for col, data in lines.items():
            result = ctl.read_line(0, 11, col)
            assert result.believed_good
            assert np.array_equal(result.data, data)

    def test_retire_copies_what_per_line_reads_return(self):
        """The spare row holds what a per-column scalar read of the old row
        returns, corrected and uncorrectable lines alike."""
        faults = [row_fault(11, density=0.003)]
        batched, reference = controller_with_faults(faults), controller_with_faults(faults)
        rng = np.random.default_rng(4)
        for col in (0, 7, 200, 479):
            data = rng.integers(0, 2, batched.scheme.line_shape).astype(np.uint8)
            batched.write_line(0, 11, col, data)
            reference.write_line(0, 11, col, data)
        spare = batched.retire_row(0, 11)
        scheme, chips = reference.scheme, reference.chips
        outcomes = set()
        for col in range(scheme.rank.device.columns_per_row):
            result = oracle.read_line(scheme, chips, 0, 11, col)
            outcomes.add(result.believed_good)
            scheme.write_line(chips, 0, spare, col, result.data)
        assert outcomes == {True, False}  # the fault leaves both kinds of line
        for got, want in zip(batched.chips, chips):
            assert np.array_equal(got.row_view(0, spare), want.row_view(0, spare))

    def test_retirement_escapes_row_fault(self):
        """The point of sparing: the remapped row reads clean."""
        bad_row = 9
        ctl = controller_with_faults(faults=[row_fault(bad_row)])
        # before: uncorrectable
        assert not ctl.read_line(0, bad_row, 0).believed_good
        ctl.retire_row(0, bad_row)
        # after: the spare physical row has no fault
        result = ctl.read_line(0, bad_row, 0)
        assert result.believed_good

    def test_scrub_and_repair_cycle(self):
        bad_row = 9
        ctl = controller_with_faults(faults=[row_fault(bad_row)])
        report, retired = ctl.scrub_and_repair(
            banks=(0,), rows=(8, 9, 10), col_stride=120, due_line_threshold=1
        )
        assert retired == [(0, bad_row)]
        assert report.rows[(0, bad_row)].uncorrectable_lines > 0
        # and a follow-up scrub of the repaired logical row is clean
        report2, retired2 = ctl.scrub_and_repair(
            banks=(0,), rows=(9,), col_stride=120
        )
        assert retired2 == []
        assert report2.uncorrectable_lines == 0

    def test_healthy_rows_not_retired(self):
        ctl = controller_with_faults()
        report, retired = ctl.scrub_and_repair(banks=(0,), rows=(1, 2), col_stride=120)
        assert retired == []
        assert ctl.spares.retired_count == 0
