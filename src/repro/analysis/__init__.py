"""Analysis helpers: sweeps and table/series formatting."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .report import ReportConfig, generate_report, write_report
    from .sweep import apply_grid, geomean, log_space, normalize_to, reliability_sweep
    from .tables import banner, format_series, format_table

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "sweep": ("log_space", "reliability_sweep", "geomean", "normalize_to", "apply_grid"),
    "tables": ("format_table", "format_series", "banner"),
    "report": ("ReportConfig", "generate_report", "write_report"),
})
