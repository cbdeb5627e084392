"""DRAM substrate: geometry, addressing, functional device, timing, banks."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .addressing import AddressMapper, DramAddress, Interleave
    from .bank import AccessPlan, BankTimingModel
    from .commands import Command, IssuedCommand
    from .config import (
        DDR5_X4,
        DDR5_X8,
        DDR5_X16,
        RANK_X4_10CHIP,
        RANK_X8_4CHIP,
        RANK_X8_5CHIP,
        DeviceConfig,
        RankConfig,
    )
    from .device import DramDevice
    from .mapping import BeatAlignedLayout, PinAlignedLayout, SecWordLayout, SegmentedLayout
    from .protocol import ProtocolChecker, Violation
    from .timing import DDR4_3200, DDR5_4800, DramTiming, SchemeTimingOverlay

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "addressing": ("AddressMapper", "DramAddress", "Interleave"),
    "bank": ("AccessPlan", "BankTimingModel"),
    "commands": ("Command", "IssuedCommand"),
    "config": ("DeviceConfig", "RankConfig", "DDR5_X4", "DDR5_X8", "DDR5_X16",
               "RANK_X8_5CHIP", "RANK_X4_10CHIP", "RANK_X8_4CHIP"),
    "device": ("DramDevice",),
    "mapping": ("PinAlignedLayout", "BeatAlignedLayout", "SecWordLayout", "SegmentedLayout"),
    "timing": ("DramTiming", "SchemeTimingOverlay", "DDR5_4800", "DDR4_3200"),
    "protocol": ("ProtocolChecker", "Violation"),
})
