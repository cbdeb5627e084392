"""Small statistics helpers shared by the reliability engines."""

from __future__ import annotations

import math

import numpy as np

#: outcome keys of a weighted tally, in canonical (merge) order.
WEIGHTED_OUTCOMES = ("ok", "ce", "due", "sdc")

#: schema version of the weighted-accumulator dicts (campaign manifests).
WEIGHTED_VERSION = 1


def binom_logpmf(n: int, j: np.ndarray | int, p: float) -> np.ndarray | float:
    """log of the exact binomial pmf (``-inf`` outside the support)."""
    scalar = np.isscalar(j)
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    out = np.full(j.shape, -np.inf, dtype=float)
    if p <= 0.0:
        out[j == 0] = 0.0
    elif p >= 1.0:
        out[j == n] = 0.0
    else:
        valid = (j >= 0) & (j <= n)
        jv = j[valid]
        out[valid] = (
            _lgamma(n + 1)
            - _lgamma_arr(jv + 1)
            - _lgamma_arr(n - jv + 1)
            + jv * math.log(p)
            + (n - jv) * math.log1p(-p)
        )
    return float(out[0]) if scalar else out


def binom_pmf(n: int, j: np.ndarray | int, p: float) -> np.ndarray | float:
    """Exact binomial pmf via log-gamma (stable for tiny p, large n)."""
    scalar = np.isscalar(j)
    out = np.exp(binom_logpmf(n, np.atleast_1d(j), p))
    return float(out[0]) if scalar else out


def _lgamma(x: float) -> float:
    return math.lgamma(x)


#: ``math.lgamma(k)`` at ``k = 0, 1, ...`` (``inf`` at 0), grown on demand.
_LGAMMA_TABLE = np.full(1, math.inf)


def _lgamma_arr(x: np.ndarray) -> np.ndarray:
    """``math.lgamma`` of every entry of an array of integers ``>= 1``.

    Read from :data:`_LGAMMA_TABLE`, which holds the same floats as
    ``math.lgamma`` (it is filled by it).
    """
    global _LGAMMA_TABLE
    top = int(x.max(initial=0))
    if top >= len(_LGAMMA_TABLE):
        more = [math.lgamma(k) for k in range(len(_LGAMMA_TABLE), top + 1)]
        _LGAMMA_TABLE = np.concatenate([_LGAMMA_TABLE, more])
    return _LGAMMA_TABLE[x]


def binom_tail(n: int, j_min: int, p: float) -> float:
    """P(X >= j_min) for X ~ Binomial(n, p), summed exactly up to n."""
    if j_min <= 0:
        return 1.0
    js = np.arange(j_min, n + 1)
    return float(binom_pmf(n, js, p).sum())


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return ((centre - margin) / denom, (centre + margin) / denom)


def wilson_interval_weighted(
    successes: float, trials: float, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval over *effective* (possibly fractional) counts.

    For importance-sampled tallies the nominal trial count overstates the
    information content; pass the Kish effective sample size as ``trials``
    and ``p_hat * trials`` as ``successes`` so the interval widens to match
    the weight dispersion.  With integer arguments this reduces exactly to
    :func:`wilson_interval` (same formula, float arithmetic throughout).
    """
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return ((centre - margin) / denom, (centre + margin) / denom)


def at_least_one(p_single: float, count: int) -> float:
    """P(at least one of ``count`` independent events), numerically careful."""
    if p_single <= 0:
        return 0.0
    return -math.expm1(count * math.log1p(-min(p_single, 1.0)))


# -- weighted (importance-sampled) tallies ------------------------------------
#
# A *weighted tally* is the JSON-safe accumulator the rare-event engine
# attaches to ``Tally.extra["weighted"]``.  Per outcome it keeps the trial
# count plus two log-space sums over that outcome's per-trial likelihood
# weights w_i:  ``log_w = log(sum w_i)`` and ``log_w2 = log(sum w_i**2)``
# (``None`` encodes an empty sum, i.e. -inf, keeping manifests strict JSON).
# Those three numbers are sufficient statistics for the Horvitz-Thompson and
# self-normalized estimators, their asymptotic CIs and the Kish effective
# sample size - and they merge associatively, which is what lets campaign
# chunks carry them through crash/resume without bias or drift.


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max-shift; ``-inf`` for an empty array."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -math.inf
    peak = float(values.max())
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(float(np.exp(values - peak).sum()))


def _log_add(a: float | None, b: float | None) -> float | None:
    """logaddexp over the ``None``-means-empty encoding."""
    if a is None:
        return b
    if b is None:
        return a
    return float(np.logaddexp(a, b))


def weighted_tally(
    outcome_counts: dict[str, int],
    outcome_log_weights: dict[str, np.ndarray],
    estimator: str,
    tilt: float,
    defensive: float,
) -> dict:
    """Build one chunk's weighted accumulator from per-trial log-weights."""
    outcomes = {}
    for name in WEIGHTED_OUTCOMES:
        count = int(outcome_counts.get(name, 0))
        lw = outcome_log_weights.get(name, np.empty(0))
        log_w = logsumexp(lw)
        log_w2 = logsumexp(2.0 * np.asarray(lw, dtype=float))
        outcomes[name] = {
            "count": count,
            "log_w": None if log_w == -math.inf else log_w,
            "log_w2": None if log_w2 == -math.inf else log_w2,
        }
    return {
        "version": WEIGHTED_VERSION,
        "estimator": estimator,
        "tilt": float(tilt),
        "defensive": float(defensive),
        "n": int(sum(o["count"] for o in outcomes.values())),
        "outcomes": outcomes,
    }


def unit_weighted_tally(outcome_counts: dict[str, int], estimator: str = "exact") -> dict:
    """Weighted view of an unweighted tally: every trial has weight 1.

    ``sum w = sum w**2 = count``, so the derived estimators collapse to the
    plain proportions and the Kish ESS equals the trial count.
    """
    outcomes = {}
    for name in WEIGHTED_OUTCOMES:
        count = int(outcome_counts.get(name, 0))
        log_c = math.log(count) if count > 0 else None
        outcomes[name] = {"count": count, "log_w": log_c, "log_w2": log_c}
    return {
        "version": WEIGHTED_VERSION,
        "estimator": estimator,
        "tilt": 0.0,
        "defensive": 0.0,
        "n": int(sum(o["count"] for o in outcomes.values())),
        "outcomes": outcomes,
    }


def merge_weighted(a: dict | None, b: dict | None) -> dict | None:
    """Merge two weighted accumulators (commutative; fixed-order log-adds).

    Raises ``ValueError`` when the two sides come from different proposal
    distributions (tilt/defensive/estimator) - mixing them would silently
    bias every estimate downstream.
    """
    if a is None:
        return None if b is None else dict(b)
    if b is None:
        return dict(a)
    for key in ("version", "estimator", "tilt", "defensive"):
        if a.get(key) != b.get(key):
            raise ValueError(
                f"cannot merge weighted tallies: {key} differs "
                f"({a.get(key)!r} vs {b.get(key)!r})"
            )
    outcomes = {}
    for name in WEIGHTED_OUTCOMES:
        oa = a["outcomes"].get(name, {"count": 0, "log_w": None, "log_w2": None})
        ob = b["outcomes"].get(name, {"count": 0, "log_w": None, "log_w2": None})
        outcomes[name] = {
            "count": int(oa["count"]) + int(ob["count"]),
            "log_w": _log_add(oa["log_w"], ob["log_w"]),
            "log_w2": _log_add(oa["log_w2"], ob["log_w2"]),
        }
    return {
        "version": a["version"],
        "estimator": a["estimator"],
        "tilt": a["tilt"],
        "defensive": a["defensive"],
        "n": int(a["n"]) + int(b["n"]),
        "outcomes": outcomes,
    }


def weighted_summary(weighted: dict, z: float = 1.96) -> dict:
    """Estimates and diagnostics from a weighted accumulator.

    Per outcome (plus the derived ``fail`` = due + sdc):

    * ``p_ht``   - unbiased Horvitz-Thompson estimate ``sum(w 1_o) / n``;
    * ``p_sn``   - self-normalized estimate ``sum(w 1_o) / sum(w)``
      (biased O(1/ESS), lower variance; trustworthy once ESS is healthy);
    * ``ci_lo`` / ``ci_hi`` - asymptotic normal CI on ``p_ht``, computed
      from the log-space second moments so deep-tail estimates never
      underflow;
    * ``wilson_lo`` / ``wilson_hi`` - Wilson interval on ``p_sn`` over the
      Kish effective sample size (the conservative band the test tier
      checks analytic models against);
    * ``count`` - raw trials that landed in the outcome.

    Top-level diagnostics: ``ess`` (Kish), ``ess_fraction``, and
    ``weight_cv2`` (squared coefficient of variation of the weights,
    ``n/ess - 1``).
    """
    n = int(weighted["n"])
    out: dict = {"n": n, "estimator": weighted["estimator"],
                 "tilt": weighted["tilt"], "defensive": weighted["defensive"]}
    rows = dict(weighted["outcomes"])
    due, sdc = rows["due"], rows["sdc"]
    rows["fail"] = {
        "count": int(due["count"]) + int(sdc["count"]),
        "log_w": _log_add(due["log_w"], sdc["log_w"]),
        "log_w2": _log_add(due["log_w2"], sdc["log_w2"]),
    }
    log_w_total: float | None = None
    log_w2_total: float | None = None
    for name in WEIGHTED_OUTCOMES:
        log_w_total = _log_add(log_w_total, rows[name]["log_w"])
        log_w2_total = _log_add(log_w2_total, rows[name]["log_w2"])
    if n == 0 or log_w_total is None or log_w2_total is None:
        ess = 0.0
    else:
        ess = math.exp(2.0 * log_w_total - log_w2_total)
    out["ess"] = ess
    out["ess_fraction"] = ess / n if n else 0.0
    out["weight_cv2"] = (n / ess - 1.0) if ess > 0 else float("inf")
    out["outcomes"] = {}
    log_n = math.log(n) if n else 0.0
    for name, row in rows.items():
        lw, lw2 = row["log_w"], row["log_w2"]
        if n == 0 or lw is None:
            entry = {"count": int(row["count"]), "p_ht": 0.0, "p_sn": 0.0,
                     "ci_lo": 0.0, "ci_hi": 0.0, "wilson_lo": 0.0,
                     "wilson_hi": 1.0 if n == 0 else 0.0}
            if n and ess > 0:
                entry["wilson_lo"], entry["wilson_hi"] = (
                    wilson_interval_weighted(0.0, ess, z)
                )
            out["outcomes"][name] = entry
            continue
        p_ht = math.exp(lw - log_n)
        p_sn = (
            math.exp(lw - log_w_total) if log_w_total is not None else 0.0
        )
        # Var(p_ht) = (E[w^2 1_o] - p^2) / n; expressed through the
        # per-outcome Kish size  ess_o = (sum w)^2 / sum w^2  this is
        # p^2 * (n/ess_o - 1) / n, which stays finite however deep the
        # tail (only log-space differences are exponentiated).
        rel_var = 0.0
        if lw2 is not None:
            rel_var = max(math.exp(lw2 - 2.0 * lw) * n - 1.0, 0.0) / n
        margin = z * p_ht * math.sqrt(rel_var)
        wil_lo, wil_hi = wilson_interval_weighted(p_sn * ess, ess, z)
        out["outcomes"][name] = {
            "count": int(row["count"]),
            "p_ht": p_ht,
            "p_sn": p_sn,
            "ci_lo": max(p_ht - margin, 0.0),
            "ci_hi": p_ht + margin,
            "wilson_lo": wil_lo,
            "wilson_hi": wil_hi,
        }
    return out
