"""System-level reliability: the composite fault model over mission time.

F2 sweeps the weak-cell process; F3 measures per-event severity of each
structured fault class.  This module combines both into the number a
deployment cares about: expected *failure events per device-year* under
the full fault population.

Per fault class the composition is::

    events/year = (class occurrence rate) x P(read hits the footprint)
                  x P(scheme fails | fault under the access) x reads/year

with the last conditional taken from the exact decoder-in-the-loop engine
(:func:`repro.reliability.batch.run_single_fault_batched`) and the
weak-cell term from the validated analytic models.  Footprint hit probabilities follow
from the geometry in :mod:`repro.faults.types`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..faults.rates import FaultRates
from ..faults.types import FaultType
from ..schemes.base import EccScheme
from .analytic import build_model
from .batch import run_single_fault_batched
from .exact import ExactRunConfig
from .fit import AccessProfile
from .outcomes import Tally

STRUCTURED = (
    FaultType.ROW,
    FaultType.COLUMN,
    FaultType.PIN_LINE,
    FaultType.MAT,
)


@dataclass
class SystemReliability:
    """Failure rates per device-year, broken down by cause.

    ``sdc_per_year`` / ``due_per_year`` are *expected event counts* - they
    can be enormous for structured faults (a dead pin fails every read it
    touches).  ``prob_sdc_year`` / ``prob_due_year`` are the deployment
    metric: the probability that a device suffers at least one such event
    within a year, computed per cause against the cause's occurrence
    statistics (events concentrate in the rare faulty devices, so this is
    *not* ``1 - exp(-E[events])``).
    """

    scheme: str
    sdc_per_year: dict[str, float]
    due_per_year: dict[str, float]
    prob_sdc_year: dict[str, float]
    prob_due_year: dict[str, float]

    @property
    def any_sdc_probability(self) -> float:
        """P(>= 1 silent corruption within a device-year)."""
        survive = 1.0
        for p in self.prob_sdc_year.values():
            survive *= 1.0 - min(p, 1.0)
        return 1.0 - survive

    @property
    def any_due_probability(self) -> float:
        survive = 1.0
        for p in self.prob_due_year.values():
            survive *= 1.0 - min(p, 1.0)
        return 1.0 - survive

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {"scheme": self.scheme}
        for cause in self.sdc_per_year:
            row[f"sdc[{cause}]"] = self.sdc_per_year[cause]
        row["P(sdc/yr)"] = self.any_sdc_probability
        row["P(due/yr)"] = self.any_due_probability
        return row


def _footprint_hit_probability(kind: FaultType, scheme: EccScheme, rates: FaultRates) -> float:
    """P(a uniformly random read of the device touches one fault's footprint).

    A line read touches, per chip, one column access: ``BL`` bit offsets on
    every pin of one row.  Footprints follow the sampler's geometry.
    """
    device = scheme.rank.device
    rows_total = device.rows_per_bank * device.banks
    bl = device.burst_length
    per_pin_bits = device.data_bits_per_pin_per_row
    if kind is FaultType.ROW:
        return 1.0 / rows_total
    if kind is FaultType.COLUMN:
        # one bitline: fixed (pin, offset) over column_rows rows
        row_frac = min(rates.column_rows, device.rows_per_bank) / device.rows_per_bank
        offset_frac = bl / (per_pin_bits + device.spare_bits_per_pin_per_row)
        return (row_frac / device.banks) * offset_frac
    if kind is FaultType.PIN_LINE:
        return 1.0 / device.banks  # every access of the bank crosses the pin
    if kind is FaultType.MAT:
        rows_frac = min(rates.mat_rows, device.rows_per_bank) / device.rows_per_bank
        span = min(rates.mat_bits, per_pin_bits)
        # accesses whose BL-bit window intersects the mat's offset span
        windows = (span + bl - 1) // bl + 1
        offset_frac = min(1.0, windows / device.columns_per_row)
        return (rows_frac / device.banks) * offset_frac
    raise ValueError(f"not a structured class: {kind}")


def _expected_faults(kind: FaultType, rates: FaultRates) -> float:
    return {
        FaultType.ROW: rates.row_faults_per_device,
        FaultType.COLUMN: rates.column_faults_per_device,
        FaultType.PIN_LINE: rates.pin_faults_per_device,
        FaultType.MAT: rates.mat_faults_per_device,
    }[kind]


def evaluate_system(
    scheme: EccScheme,
    rates: FaultRates,
    profile: AccessProfile | None = None,
    trials_per_mode: int = 24,
    samples: int = 300,
    seed: int = 0,
    workers: int = 1,
    estimator: str = "analytic",
    rare_trials: int = 200_000,
    rare_tilt: float | str = "auto",
) -> SystemReliability:
    """Expected SDC/DUE events per device-year under the composite model.

    ``estimator`` picks the source of the weak-cell term: ``"analytic"``
    (default) uses the closed-form models; ``"rareevent"`` runs the tilted
    importance sampler (:mod:`repro.reliability.rareevent`) for
    ``rare_trials`` count-level trials at tilt ``rare_tilt`` - a
    measurement with a CI rather than a model, at a few seconds' cost.
    """
    profile = profile or AccessProfile()
    reads_per_year = profile.reads_per_device_year

    sdc: dict[str, float] = {}
    due: dict[str, float] = {}
    p_sdc: dict[str, float] = {}
    p_due: dict[str, float] = {}

    # weak cells: i.i.d. across reads, so P(>=1) = 1 - exp(-E[events])
    if estimator == "rareevent":
        from .rareevent import RareEventParams, run_rareevent_iid

        rare = run_rareevent_iid(
            scheme,
            rates.pure_ber(),
            ExactRunConfig(trials=rare_trials, seed=seed),
            RareEventParams(tilt=rare_tilt, samples=samples,
                            table_seed=seed),
            workers=workers,
        )
        outcomes = rare.estimates()["outcomes"]
        cell = {"sdc": outcomes["sdc"]["p_ht"], "due": outcomes["due"]["p_ht"]}
    elif estimator == "analytic":
        model = build_model(scheme, samples=samples, seed=seed)
        cell = model.line_probs(rates.single_cell_ber)
    else:
        raise ValueError(
            f"unknown estimator {estimator!r}; use 'analytic' or 'rareevent'"
        )
    sdc["single-cell"] = cell["sdc"] * reads_per_year
    due["single-cell"] = cell["due"] * reads_per_year
    p_sdc["single-cell"] = -math.expm1(-sdc["single-cell"])
    p_due["single-cell"] = -math.expm1(-due["single-cell"])

    # structured classes: occurrence x hit x measured conditional severity.
    # Events concentrate in the (rare) devices carrying the fault, so
    # P(>=1 event) = P(fault present) x P(>=1 failing read | fault).
    config = ExactRunConfig(trials=trials_per_mode, seed=seed)
    for kind in STRUCTURED:
        expected = _expected_faults(kind, rates)
        if expected <= 0:
            sdc[kind.value] = due[kind.value] = 0.0
            p_sdc[kind.value] = p_due[kind.value] = 0.0
            continue
        tally: Tally = run_single_fault_batched(scheme, kind, rates, config, workers=workers)
        hit = _footprint_hit_probability(kind, scheme, rates)
        reads_hitting = hit * reads_per_year
        sev_sdc = tally.sdc / tally.total
        sev_due = tally.due / tally.total
        sdc[kind.value] = expected * reads_hitting * sev_sdc
        due[kind.value] = expected * reads_hitting * sev_due
        given_sdc = -math.expm1(-reads_hitting * sev_sdc)
        given_due = -math.expm1(-reads_hitting * sev_due)
        p_sdc[kind.value] = -math.expm1(-expected * given_sdc)
        p_due[kind.value] = -math.expm1(-expected * given_due)
    return SystemReliability(
        scheme=scheme.name, sdc_per_year=sdc, due_per_year=due,
        prob_sdc_year=p_sdc, prob_due_year=p_due,
    )
