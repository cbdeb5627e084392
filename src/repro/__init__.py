"""PAIR: Pin-aligned In-DRAM ECC using the expandability of Reed-Solomon codes.

Reproduction of Jeong, Kang & Yang, DAC 2020 (see DESIGN.md for the
reconstruction notes).  The public API re-exports the pieces a downstream
user needs:

* codes: :class:`~repro.codes.ReedSolomonCode`,
  :class:`~repro.codes.SinglyExtendedRS`, :class:`~repro.codes.HammingSEC` ...
* DRAM substrate: :mod:`repro.dram` (device geometry, functional model,
  timing);
* fault model: :mod:`repro.faults`;
* ECC schemes: :class:`~repro.schemes.PairScheme` plus the XED / DUO /
  conventional-IECC baselines;
* engines: :mod:`repro.reliability` (exact Monte Carlo + semi-analytic) and
  :mod:`repro.perf` (trace-driven timing simulation).

Every package exports lazily (:mod:`repro._exports`): a name's submodule is
imported when the name is first read, so a run loads only the stack it uses.

Quickstart::

    from repro import PairScheme
    import numpy as np

    pair = PairScheme()
    chips = pair.make_devices()
    data = np.random.default_rng(0).integers(0, 2, pair.line_shape, dtype=np.uint8)
    pair.write_line(chips, bank=0, row=0, col=0, data=data)
    result = pair.read_line(chips, bank=0, row=0, col=0)
    assert result.believed_good
"""

from typing import TYPE_CHECKING

from ._exports import lazy_exports

if TYPE_CHECKING:
    from . import (
        analysis,
        codes,
        dram,
        faults,
        galois,
        maintenance,
        obs,
        perf,
        reliability,
        schemes,
    )
    from .codes import DecodeStatus, HammingSEC, ReedSolomonCode, SinglyExtendedRS
    from .dram import DDR5_X4, DDR5_X8, DDR5_X16, DeviceConfig, DramDevice, RankConfig
    from .faults import FaultRates, FaultType
    from .maintenance import MaintenanceController, Scrubber, SpareManager
    from .reliability import Outcome, build_model, classify, run_iid_batched
    from .schemes import (
        ConventionalIecc,
        DefectMap,
        Duo,
        EccScheme,
        LineReadResult,
        NoEcc,
        PairErasureScheme,
        PairScheme,
        RankSecDed,
        Xed,
        default_schemes,
    )

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "galois": ("galois",),
    "codes": ("codes", "ReedSolomonCode", "SinglyExtendedRS", "HammingSEC", "DecodeStatus"),
    "dram": ("dram", "DeviceConfig", "RankConfig", "DramDevice", "DDR5_X4", "DDR5_X8",
             "DDR5_X16"),
    "faults": ("faults", "FaultRates", "FaultType"),
    "schemes": ("schemes", "EccScheme", "LineReadResult", "NoEcc", "ConventionalIecc", "Xed",
                "Duo", "PairScheme", "PairErasureScheme", "DefectMap", "RankSecDed",
                "default_schemes"),
    "reliability": ("reliability", "Outcome", "classify", "run_iid_batched", "build_model"),
    "perf": ("perf",),
    "analysis": ("analysis",),
    "maintenance": ("maintenance", "MaintenanceController", "Scrubber", "SpareManager"),
    "obs": ("obs",),
})
