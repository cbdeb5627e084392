"""Fault substrate: taxonomy, rates, sampling and mask generation."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .rates import DEFAULT_RATES, FaultRates
    from .sampler import FaultOverlay, FaultSampler, burst_mask, sample_transfer_burst
    from .types import FaultInstance, FaultType, TransferBurst

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "types": ("FaultType", "FaultInstance", "TransferBurst"),
    "rates": ("FaultRates", "DEFAULT_RATES"),
    "sampler": ("FaultSampler", "FaultOverlay", "sample_transfer_burst", "burst_mask"),
})
