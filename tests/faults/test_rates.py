"""Tests for fault-rate configuration."""

import pytest

from repro.faults import DEFAULT_RATES, FaultRates, FaultType


class TestFaultRates:
    def test_with_ber(self):
        r = DEFAULT_RATES.with_ber(1e-3)
        assert r.single_cell_ber == 1e-3
        assert r.row_faults_per_device == DEFAULT_RATES.row_faults_per_device

    @pytest.mark.parametrize("kind", list(FaultType))
    def test_only_isolates_one_class(self, kind):
        isolated = DEFAULT_RATES.only(kind)
        active = {
            FaultType.SINGLE_CELL: isolated.single_cell_ber,
            FaultType.ROW: isolated.row_faults_per_device,
            FaultType.COLUMN: isolated.column_faults_per_device,
            FaultType.PIN_LINE: isolated.pin_faults_per_device,
            FaultType.MAT: isolated.mat_faults_per_device,
            FaultType.TRANSFER_BURST: isolated.transfer_burst_per_access,
        }
        for k, value in active.items():
            if k is kind:
                assert value > 0, f"{kind} should stay active"
            else:
                assert value == 0, f"{k} should be zeroed when isolating {kind}"

    def test_only_preserves_densities(self):
        isolated = DEFAULT_RATES.only(FaultType.ROW)
        assert isolated.row_density == DEFAULT_RATES.row_density
        assert isolated.mat_rows == DEFAULT_RATES.mat_rows

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_RATES.single_cell_ber = 0.5


class TestValidation:
    @pytest.mark.parametrize("field", [
        "single_cell_ber", "cell_cluster_per_bit", "transfer_burst_per_access",
        "row_density", "column_density", "pin_density", "mat_density",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan"), float("inf")])
    def test_probabilities_outside_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultRates(**{field: value})

    @pytest.mark.parametrize("field", [
        "row_faults_per_device", "column_faults_per_device",
        "pin_faults_per_device", "mat_faults_per_device",
    ])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_per_device_rates_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultRates(**{field: value})

    @pytest.mark.parametrize("field", [
        "mat_rows", "mat_bits", "column_rows", "transfer_burst_length",
    ])
    def test_extents_at_least_one(self, field):
        with pytest.raises(ValueError, match=field):
            FaultRates(**{field: 0})
        assert getattr(FaultRates(**{field: 1}), field) == 1

    def test_boundaries_accepted(self):
        rates = FaultRates(
            single_cell_ber=1.0, row_density=0.0, row_faults_per_device=0.0,
            mat_faults_per_device=50.0,
        )
        assert rates.single_cell_ber == 1.0
        assert rates.with_ber(0.0).single_cell_ber == 0.0

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="single_cell_ber"):
            DEFAULT_RATES.with_ber(2.0)
