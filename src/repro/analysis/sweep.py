"""Parameter-sweep drivers used by the benchmark harness."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from ..reliability.analytic import ReliabilityModel, build_model
from ..schemes.base import EccScheme


def log_space(start: float, stop: float, points: int) -> np.ndarray:
    """Logarithmically spaced sweep values, inclusive of both ends."""
    return np.logspace(math.log10(start), math.log10(stop), points)


#: the lowest and highest BER :func:`max_tolerable_ber` searches by default.
HEADROOM_FLOOR, HEADROOM_CEILING = 1e-10, 1e-2


def max_tolerable_ber(
    model: ReliabilityModel, target: float, lo: float = HEADROOM_FLOOR,
    hi: float = HEADROOM_CEILING,
) -> float | None:
    """Largest BER in ``[lo, hi]`` whose per-read failure probability
    (SDC + DUE) stays at or below ``target``: a 60-step bisection in log
    BER (figure F9's scaling headroom).  None when even ``lo`` fails the
    target, ``math.inf`` when even ``hi`` meets it: the answer lies outside
    the search range, not at its edge."""

    def fail(ber: float) -> float:
        probs = model.line_probs(ber)
        return probs["sdc"] + probs["due"]

    if fail(hi) <= target:
        return math.inf
    if fail(lo) > target:
        return None
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    for _ in range(60):
        mid = 10 ** ((log_lo + log_hi) / 2)
        if fail(mid) <= target:
            log_lo = math.log10(mid)
        else:
            log_hi = math.log10(mid)
    return 10 ** log_lo


def format_tolerable_ber(ber: float | None) -> str:
    """A :func:`max_tolerable_ber` answer for a table: None (even
    :data:`HEADROOM_FLOOR` fails the target) reads ``< 1e-10``, and
    ``math.inf`` (even :data:`HEADROOM_CEILING` meets it) ``> 1e-02``."""
    if ber is None:
        return f"< {HEADROOM_FLOOR:.0e}"
    return f"> {HEADROOM_CEILING:.0e}" if ber == math.inf else f"{ber:.2e}"


def reliability_sweep(
    schemes: Sequence[EccScheme],
    bers: Iterable[float],
    samples: int = 1500,
    seed: int = 0,
    estimator: str = "analytic",
    rare_trials: int = 200_000,
    rare_tilt: float | str = "auto",
) -> dict[str, dict[str, np.ndarray]]:
    """Failure-probability curves per scheme over a BER sweep (figure F2).

    ``estimator="analytic"`` (default) evaluates the closed-form models;
    ``estimator="rareevent"`` replaces each point with a tilted
    importance-sampling *measurement* of ``rare_trials`` count-level trials
    (:mod:`repro.reliability.rareevent`), adding ``sdc_lo``/``sdc_hi`` etc.
    asymptotic-CI arrays alongside the point estimates.

    ``samples`` and ``seed`` size and seed the decoder-measured conditional
    tables, which only the bit-code schemes (XED, IECC-SEC, rank SEC-DED)
    read; ``seed`` also seeds the rare-event trials.  The no-ECC, DUO and
    PAIR curves do not depend on ``samples``.
    """
    bers = np.asarray(list(bers), dtype=float)
    out: dict[str, dict[str, np.ndarray]] = {}
    if estimator == "analytic":
        for scheme in schemes:
            model = build_model(scheme, samples=samples, seed=seed)
            out[scheme.name] = model.sweep(bers)
            out[scheme.name]["fail"] = out[scheme.name]["sdc"] + out[scheme.name]["due"]
        return out
    if estimator != "rareevent":
        raise ValueError(
            f"unknown estimator {estimator!r}; use 'analytic' or 'rareevent'"
        )
    from ..faults.rates import DEFAULT_RATES
    from ..reliability.exact import ExactRunConfig
    from ..reliability.rareevent import RareEventParams, run_rareevent_iid

    for scheme in schemes:
        columns: dict[str, list[float]] = {
            key: []
            for key in ("sdc", "due", "fail", "sdc_lo", "sdc_hi",
                        "due_lo", "due_hi", "fail_lo", "fail_hi", "ess")
        }
        for ber in bers:
            result = run_rareevent_iid(
                scheme,
                DEFAULT_RATES.pure_ber(float(ber)),
                ExactRunConfig(trials=rare_trials, seed=seed),
                RareEventParams(tilt=rare_tilt, samples=samples,
                                table_seed=seed),
            )
            outcomes = result.estimates()["outcomes"]
            for name in ("sdc", "due", "fail"):
                columns[name].append(outcomes[name]["p_ht"])
                columns[f"{name}_lo"].append(outcomes[name]["ci_lo"])
                columns[f"{name}_hi"].append(outcomes[name]["ci_hi"])
            columns["ess"].append(result.estimates()["ess"])
        out[scheme.name] = {
            "ber": bers, **{k: np.asarray(v) for k, v in columns.items()}
        }
    return out


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values or any(v <= 0 for v in values):
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalize_to(
    results: dict[str, dict[str, float]], reference: str
) -> dict[str, dict[str, float]]:
    """Normalize per-workload metrics to a reference scheme (figure F5)."""
    out: dict[str, dict[str, float]] = {}
    for workload, per_scheme in results.items():
        ref = per_scheme[reference]
        out[workload] = {name: value / ref for name, value in per_scheme.items()}
    return out


def apply_grid(fn: Callable[..., object], **axes: Sequence[object]) -> list[dict]:
    """Evaluate ``fn`` over the cartesian grid of keyword axes."""
    names = list(axes)
    results = []

    def rec(i: int, bound: dict) -> None:
        if i == len(names):
            results.append({**bound, "value": fn(**bound)})
            return
        for value in axes[names[i]]:
            rec(i + 1, {**bound, names[i]: value})

    rec(0, {})
    return results
