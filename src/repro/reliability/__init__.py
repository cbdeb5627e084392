"""Reliability engines: decoder-in-the-loop Monte Carlo, analytic models, rare events."""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

if TYPE_CHECKING:
    from .analytic import (
        ConventionalIeccModel,
        DuoModel,
        NoEccModel,
        PairModel,
        RankSecDedModel,
        ReliabilityModel,
        XedModel,
        build_model,
    )
    from .batch import (
        DEFAULT_CHUNK_TRIALS,
        iid_chunk_tally,
        iid_epochs,
        run_burst_lengths_batched,
        run_iid_batched,
        run_single_fault_batched,
        single_fault_chunk_tally,
        single_fault_specs,
    )
    from .conditional import WordConditionals, measure_bit_code, measure_symbol_code
    from .exact import ExactRunConfig
    from .fit import (
        AccessProfile,
        events_per_device_year,
        fit_interval,
        fit_rate,
        relative_reliability,
    )
    from .outcomes import Outcome, Tally, classify
    from .rareevent import (
        LineLaw,
        RareEventParams,
        RareEventResult,
        SplittingResult,
        line_law,
        rareevent_chunk_tally,
        rareevent_chunks,
        run_rareevent_iid,
        run_splitting_iid,
    )
    from .stats import (
        at_least_one,
        binom_logpmf,
        binom_pmf,
        binom_tail,
        merge_weighted,
        unit_weighted_tally,
        weighted_summary,
        weighted_tally,
        wilson_interval,
        wilson_interval_weighted,
    )
    from .system import STRUCTURED, SystemReliability, evaluate_system

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "outcomes": ("Outcome", "Tally", "classify"),
    "exact": ("ExactRunConfig",),
    "batch": ("run_iid_batched", "run_single_fault_batched", "run_burst_lengths_batched",
              "DEFAULT_CHUNK_TRIALS", "iid_epochs", "iid_chunk_tally", "single_fault_specs",
              "single_fault_chunk_tally"),
    "analytic": ("ReliabilityModel", "build_model", "NoEccModel", "ConventionalIeccModel",
                 "XedModel", "DuoModel", "PairModel", "RankSecDedModel"),
    "conditional": ("WordConditionals", "measure_bit_code", "measure_symbol_code"),
    "fit": ("AccessProfile", "events_per_device_year", "fit_rate", "fit_interval",
            "relative_reliability"),
    "stats": ("binom_pmf", "binom_logpmf", "binom_tail", "wilson_interval",
              "wilson_interval_weighted", "at_least_one", "weighted_tally",
              "unit_weighted_tally", "merge_weighted", "weighted_summary"),
    "rareevent": ("LineLaw", "line_law", "RareEventParams", "RareEventResult",
                  "SplittingResult", "run_rareevent_iid", "run_splitting_iid",
                  "rareevent_chunk_tally", "rareevent_chunks"),
    "system": ("SystemReliability", "evaluate_system", "STRUCTURED"),
})
