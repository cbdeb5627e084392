"""Performance engine: traces, workloads, controller timing simulation."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .energy import DEFAULT_ENERGY, EnergyParams, energy_row, read_energy_pj, write_energy_pj
    from .metrics import PerfResult, summarize
    from .overheads import decoder_multiplier_proxy, overhead_row, transferred_bits_per_read
    from .timing_sim import ControllerConfig, MemoryController, simulate
    from .trace import Request, TraceConfig, generate_trace
    from .trace_io import load_trace, save_trace
    from .workloads import WORKLOADS, workload

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "trace": ("Request", "TraceConfig", "generate_trace"),
    "workloads": ("WORKLOADS", "workload"),
    "timing_sim": ("ControllerConfig", "MemoryController", "simulate"),
    "metrics": ("PerfResult", "summarize"),
    "overheads": ("overhead_row", "transferred_bits_per_read", "decoder_multiplier_proxy"),
    "energy": ("EnergyParams", "DEFAULT_ENERGY", "energy_row", "read_energy_pj",
               "write_energy_pj"),
    "trace_io": ("save_trace", "load_trace"),
})
