"""Tests for device/rank configuration and derived geometry."""

import pytest

from repro.dram import (
    DDR5_X4,
    DDR5_X8,
    DDR5_X16,
    RANK_X4_10CHIP,
    RANK_X8_4CHIP,
    RANK_X8_5CHIP,
    DeviceConfig,
)


class TestDeviceConfig:
    def test_default_geometry(self):
        d = DDR5_X8
        assert d.access_data_bits == 128
        assert d.columns_per_row == 480
        assert d.row_data_bits == 7680 * 8
        assert d.spare_overhead == pytest.approx(512 / 7680)

    def test_presets_line_up(self):
        assert DDR5_X4.pins == 4
        assert DDR5_X16.pins == 16
        for preset in (DDR5_X4, DDR5_X8, DDR5_X16):
            assert preset.access_data_bits == preset.pins * preset.burst_length

    def test_data_bits_total(self):
        d = DDR5_X8
        assert d.data_bits == d.row_data_bits * d.rows_per_bank * d.banks

    def test_row_total_includes_spare(self):
        d = DDR5_X8
        assert d.row_total_bits == (7680 + 512) * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceConfig(pins=0)
        with pytest.raises(ValueError):
            DeviceConfig(data_bits_per_pin_per_row=7681)  # not / burst_length

    def test_scaled_override(self):
        d = DDR5_X8.scaled(banks=8)
        assert d.banks == 8
        assert d.pins == DDR5_X8.pins


class TestRankConfig:
    def test_subchannel_carries_64b_line(self):
        assert RANK_X8_5CHIP.access_data_bits == 512
        assert RANK_X4_10CHIP.access_data_bits == 512
        assert RANK_X8_4CHIP.access_data_bits == 512

    def test_chip_counts(self):
        assert RANK_X8_5CHIP.chips == 5
        assert RANK_X4_10CHIP.chips == 10
        assert RANK_X8_4CHIP.chips == 4

    def test_total_bits_include_ecc_chips(self):
        assert RANK_X8_5CHIP.access_total_bits == 128 * 5
