"""Device and rank configuration for the DRAM model.

The reliability and performance engines both consume these dataclasses; the
defaults describe the DDR5-class x8 device used throughout the paper
reconstruction (see DESIGN.md section 3).  Nothing here assumes a particular
ECC scheme: each row exposes a *data region* and a *spare region* per pin,
and the scheme decides how to lay codewords into them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceConfig:
    """Geometry of one DRAM device (chip).

    Attributes
    ----------
    name:
        Human-readable label used in tables.
    pins:
        Number of DQ pins (the device width: x4, x8, x16).
    burst_length:
        Beats per column access (BL16 for DDR5).
    banks:
        Total banks (bank groups x banks per group, flattened).
    rows_per_bank:
        Rows per bank.
    data_bits_per_pin_per_row:
        Data storage a single pin serves within one row.
    spare_bits_per_pin_per_row:
        Extra per-pin storage available to the on-die ECC scheme.
    """

    name: str = "ddr5-x8"
    pins: int = 8
    burst_length: int = 16
    banks: int = 32
    rows_per_bank: int = 65536
    data_bits_per_pin_per_row: int = 7680
    spare_bits_per_pin_per_row: int = 512

    def __post_init__(self) -> None:
        if self.pins <= 0 or self.burst_length <= 0:
            raise ValueError("pins and burst_length must be positive")
        if self.data_bits_per_pin_per_row % self.burst_length:
            raise ValueError("row data per pin must divide into burst beats")

    # -- derived geometry ---------------------------------------------------

    @property
    def access_data_bits(self) -> int:
        """Data bits delivered by one column access (pins x beats)."""
        return self.pins * self.burst_length

    @property
    def columns_per_row(self) -> int:
        """Column-access positions per row."""
        return self.data_bits_per_pin_per_row // self.burst_length

    @property
    def row_data_bits(self) -> int:
        return self.data_bits_per_pin_per_row * self.pins

    @property
    def row_total_bits(self) -> int:
        return (
            self.data_bits_per_pin_per_row + self.spare_bits_per_pin_per_row
        ) * self.pins

    @property
    def data_bits(self) -> int:
        """Total data capacity of the device in bits."""
        return self.row_data_bits * self.rows_per_bank * self.banks

    @property
    def spare_overhead(self) -> float:
        return self.spare_bits_per_pin_per_row / self.data_bits_per_pin_per_row

    def scaled(self, **overrides) -> "DeviceConfig":
        """Copy with some fields replaced (configs are frozen)."""
        from dataclasses import replace

        return replace(self, **overrides)


@dataclass(frozen=True)
class RankConfig:
    """A rank: several devices sharing command/address, one cacheline access.

    ``data_chips`` devices hold the cacheline; ``ecc_chips`` extra devices
    hold rank-level redundancy (the XED parity chip, the DUO/ECC-DIMM chips).
    """

    device: DeviceConfig
    data_chips: int = 8
    ecc_chips: int = 1

    @property
    def chips(self) -> int:
        return self.data_chips + self.ecc_chips

    @property
    def access_data_bits(self) -> int:
        """Data bits of one rank access (the cacheline payload)."""
        return self.device.access_data_bits * self.data_chips

    @property
    def access_total_bits(self) -> int:
        return self.device.access_data_bits * self.chips


# -- presets -----------------------------------------------------------------

DDR5_X4 = DeviceConfig(
    name="ddr5-x4",
    pins=4,
    burst_length=16,
    banks=32,
    rows_per_bank=131072,
    data_bits_per_pin_per_row=7680,
    spare_bits_per_pin_per_row=512,
)

DDR5_X8 = DeviceConfig(name="ddr5-x8")

DDR5_X16 = DeviceConfig(
    name="ddr5-x16",
    pins=16,
    burst_length=16,
    banks=16,
    rows_per_bank=65536,
    data_bits_per_pin_per_row=7680,
    spare_bits_per_pin_per_row=512,
)

#: DDR5 32-bit subchannel from x8 parts: 4 data chips + 1 ECC chip carry a
#: 64-byte cacheline in one BL16 burst.
RANK_X8_5CHIP = RankConfig(device=DDR5_X8, data_chips=4, ecc_chips=1)

#: DDR5 subchannel from x4 parts (DUO's kind of configuration): 8 data chips
#: plus 2 ECC chips.
RANK_X4_10CHIP = RankConfig(device=DDR5_X4, data_chips=8, ecc_chips=2)

#: ECC-less subchannel for the NoECC baseline.
RANK_X8_4CHIP = RankConfig(device=DDR5_X8, data_chips=4, ecc_chips=0)
