"""Maintenance substrate: patrol scrubbing and row sparing."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .scrubber import RowHealth, ScrubReport, Scrubber
    from .sparing import MaintenanceController, SpareExhausted, SpareManager

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "scrubber": ("RowHealth", "ScrubReport", "Scrubber"),
    "sparing": ("SpareManager", "SpareExhausted", "MaintenanceController"),
})
