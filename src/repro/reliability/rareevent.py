"""Rare-event reliability engines: importance sampling and splitting.

The paper's headline comparison lives in a tail regime naive Monte-Carlo
cannot reach: resolving a ~1e-13 per-read failure probability to a useful
CI needs ~1e15 plain trials.  This module adds two variance-reduction
tiers over the i.i.d. weak-cell process, both built on the *count-level*
line law the validated analytic models already use (binomial per-word
error counts x conditional decoder tables, measured for the bit codes and
taken from the distance bound and miscorrection floor for the RS codes):

**Importance sampling by exponential tilting** (:func:`run_rareevent_iid`).
The per-bit/per-symbol error rate ``q`` is tilted in log-odds space by
``theta`` (``tilt``), pushing one word per trial toward its failure count.
The proposal is a defensive mixture: with probability ``defensive`` the
trial is drawn from the nominal law; otherwise one uniformly chosen word is
tilted and the rest stay nominal.  Tilting a *single* word (rather than all
of them) matches the union structure of the event - a line fails when some
one codeword exceeds its radius - and keeps the likelihood ratio bounded on
the failure set, so weight variance stays finite.  Every trial carries its
exact log-likelihood ratio; per-outcome accumulation keeps ``log(sum w)``
and ``log(sum w**2)`` (see :mod:`repro.reliability.stats`), from which the
unbiased Horvitz-Thompson estimate, the self-normalized estimate, Kish
effective sample size and asymptotic/Wilson CIs all derive without ever
exponentiating a deep-tail number.  A chunk's per-word quantities - the
log-likelihood ratio and the flag and flag-or-bad thresholds - depend on
the word's error count alone, so each is computed once per count and
gathered by count (:func:`_chunk_outcomes`), bit-identical to evaluating it
at every cell; the per-cell version is the parity oracle in
``tests/oracle.py``.  The counts themselves are drawn from the run's
inversion tables (:func:`repro.faults.rng.binomials`), equal to
``Generator.binomial``'s draws.

``tilt=0`` is special-cased to the exact decoder-in-the-loop engine
(:func:`repro.reliability.batch.run_iid_batched`): the counts are
bit-identical to that engine's and the attached weights are all 1.  The
tilted path (``tilt != 0``) samples counts instead of decoding - its
unbiasedness against the analytic closed forms is what the statistical
test tier certifies.

**Fixed-effort multilevel splitting** (:func:`run_splitting_iid`) for the
"k faults land in one codeword" event.  The level function is the maximum
per-word error count ``S``; each level ``P(S >= l+1 | S >= l)`` is
estimated from *exact* conditional samples (no Markov-chain approximation:
conditioning on ``S >= l`` factorizes through the first word reaching
``l``, which gives a truncated-geometric word index and truncated-binomial
per-word counts, all invertible by CDF lookup); a level below the last
needs only its survivor count, which is read off its draws.  The final
level is Rao-Blackwellized: outcome probabilities given the sampled counts are
computed exactly from the conditional tables (again one value per count,
gathered), so even a miscorrection branch far below 1/effort contributes
without sampling noise.

Campaign integration: the direct run and the ``kind="rareevent"`` planner
share one chunker (:func:`rareevent_chunks`), which builds the line law
once per run and carries it in every picklable payload.  The proposal
parameters sit in the SHA-256 config fingerprint, so fleet/campaign runs
stay deterministic, resumable and refuse mismatched resumes.  Chunks merge
in chunk order, which keeps the float log-sums bit-identical across
workers=N, crash/resume and the distributed fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import NumericalGuard
from ..faults.rates import FaultRates
from ..faults.rng import BinomialTable, binomial_table, binomials
from ..obs import metrics as _obs
from .analytic import (
    COMBINE_FLAG_DUE,
    COMBINE_XED,
    LineLaw,
    _symbol_rate,  # noqa: F401  (re-exported: perfbench's auto tilt reads it here)
    _xed_word_states,
    build_model,
)
from .batch import DEFAULT_CHUNK_TRIALS, _dispatch, _merge, run_iid_batched
from .exact import ExactRunConfig
from .outcomes import Tally
from .stats import (
    at_least_one,
    binom_logpmf,
    binom_tail,
    logsumexp,
    unit_weighted_tally,
    weighted_summary,
    weighted_tally,
)

if TYPE_CHECKING:
    from ..schemes.base import EccScheme

#: rng stream tags (sub-seeds) for the two engines.
_RNG_TAG_IS = 0x4A2E
_RNG_TAG_SPLIT = 0x59117

#: default per-dispatch trial count for the tilted sampler.  Count-level
#: trials are orders of magnitude cheaper than decoder trials, so chunks
#: are much larger than the decode engine's DEFAULT_CHUNK_TRIALS.
DEFAULT_RARE_CHUNK_TRIALS = 65_536

# Observability (DESIGN.md 6e/6i): proposal volume, how many proposals took
# the tilted arm, how many landed in the failure region, plus run-level
# weight-health gauges.  Write-only from this module (REPRO221).
_C_PROPOSALS = _obs.counter("rareevent.proposals")
_C_TILTED = _obs.counter("rareevent.tilted_proposals")
_C_HITS = _obs.counter("rareevent.failure_hits")
_C_SPLIT_LEVELS = _obs.counter("rareevent.splitting_levels")
_G_ESS = _obs.gauge("rareevent.ess")
_G_WEIGHT_CV2 = _obs.gauge("rareevent.weight_cv2")


# -- the count-level line law --------------------------------------------------


def require_pure_ber(rates: FaultRates, context: str = "rare-event engine") -> float:
    """The tilted/splitting engines model only the weak-cell process.

    Raises ``ValueError`` when any structured-fault rate is non-zero -
    silently ignoring them would misreport the very tails this tier exists
    to resolve.  Returns the BER.
    """
    structured = {
        "row_faults_per_device": rates.row_faults_per_device,
        "column_faults_per_device": rates.column_faults_per_device,
        "pin_faults_per_device": rates.pin_faults_per_device,
        "mat_faults_per_device": rates.mat_faults_per_device,
        "transfer_burst_per_access": rates.transfer_burst_per_access,
        "cell_cluster_per_bit": rates.cell_cluster_per_bit,
    }
    nonzero = sorted(name for name, value in structured.items() if value != 0.0)
    if nonzero:
        raise ValueError(
            f"{context} models the i.i.d. weak-cell process only; zero out "
            f"the structured rates first (non-zero: {', '.join(nonzero)})"
        )
    return rates.single_cell_ber


def line_law(
    scheme: EccScheme, ber: float, samples: int = 400, seed: int = 0
) -> LineLaw:
    """The count-level law of one scheme at one BER: its analytic model's line.

    The law is :meth:`repro.reliability.analytic.ReliabilityModel.law`, so
    the rare-event estimators target exactly the quantity the closed forms
    compute.  PAIR's and DUO's rows follow from the distance bound, the RS
    miscorrection floor and PAIR's access-window factor; ``samples`` and
    ``seed`` size and seed the measured tables of the bit-code schemes only
    (XED, conventional IECC, rank SEC-DED).
    """
    return build_model(scheme, samples=samples, seed=seed).law(ber)


# -- exponential tilting -------------------------------------------------------


def tilted_rate(q: float, tilt: float) -> float:
    """Tilt ``q`` by ``tilt`` in log-odds space: odds(q~) = odds(q) e^tilt."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"tilting needs 0 < q < 1, got q={q}")
    log_odds = math.log(q) - math.log1p(-q) + tilt
    return 1.0 / (1.0 + math.exp(-log_odds))


def auto_tilt(law: LineLaw) -> float:
    """The tilt that puts a tilted word's mean count at its failure radius.

    Exponential-tilting heuristic: aim ``E[J~] = k_fail``, i.e. tilt the
    rate to ``k_fail / n``.  This centres the proposal on the dominant
    failure boundary, which is variance-optimal to first order.
    """
    if not 0.0 < law.q < 1.0:
        raise ValueError(f"auto tilt needs 0 < q < 1, got q={law.q}")
    target = min(max(law.k_fail / law.n, law.q), 0.95)
    return (math.log(target) - math.log1p(-target)) - (
        math.log(law.q) - math.log1p(-law.q)
    )


def resolve_tilt(tilt: float | str, law: LineLaw) -> float:
    """``"auto"`` -> :func:`auto_tilt`, refusing 0 (only an explicit ``0.0``
    selects the exact engine); numbers pass through as floats."""
    if isinstance(tilt, str):
        if tilt != "auto":
            raise ValueError(f"tilt must be a float or 'auto', got {tilt!r}")
        resolved = auto_tilt(law)
        if resolved == 0.0:
            raise ValueError(
                "resolved tilt is 0 (the nominal rate already reaches the failure "
                "radius); pass tilt=0.0 explicitly for the exact engine"
            )
        return resolved
    return float(tilt)


def _per_count(table: np.ndarray, counts: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """``table[min(count, len(table) - 1)]`` for every cell of ``counts``.

    A count beyond the table reads its last row, as :class:`LineLaw`
    defines, so the clip is the law's own rule and not a bounds guard.
    """
    return np.take(table, counts, mode="clip", out=out)


def _chunk_outcomes(
    rng: np.random.Generator,
    law: LineLaw,
    counts: np.ndarray,
    q_tilt: float,
    defensive: float,
    cell: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-trial log-likelihood ratio and line outcome masks of one chunk.

    Weight: with ``ell_i = log(pmf_tilt(J_i)/pmf_nom(J_i))`` for each word,
    the mixture density over the nominal one is
    ``defensive + (1-defensive) * mean_i exp(ell_i)`` (the binomial
    coefficients cancel inside each ratio), so the log-weight is minus its
    log.  Everything stays in log space; no tilt magnitude can overflow.

    Outcome: each word draws one uniform ``u`` and flags when
    ``u < p_flag[J]``, else is silently bad when ``u < p_flag[J] + p_bad[J]``;
    the scheme's ``combine`` rule makes the line outcome.

    Every per-word quantity depends on the word's count alone, so it is
    computed once per count - ``ell`` over ``0..n`` (a binomial count never
    exceeds ``n``), the flag and fail thresholds over the table's rows - and
    gathered into ``cell``, a float buffer shaped like ``counts`` that the
    chunk's count draws already used.  Each entry is the float the per-cell
    formula gives for that count, so results match it bit for bit.  Maxima
    and ``any`` over a line's words fold column by column, which gives the
    same answer in any order; the sum over words stays a row sum, whose
    order is part of its bits.
    """
    a = math.log(q_tilt) - math.log(law.q)
    b = math.log1p(-q_tilt) - math.log1p(-law.q)
    j = np.arange(law.n + 1)
    ell_of = j * a + (law.n - j) * b

    _per_count(ell_of, counts, out=cell)  # ell, (trials, words)
    peak = _fold(np.maximum, cell)  # not ell at the largest count: a tilt < 0 flips it
    cell -= peak[:, None]
    np.exp(cell, out=cell)
    log_mix = peak + np.log(cell.sum(axis=1)) - math.log(law.words)
    if defensive > 0.0:
        log_ratio = np.logaddexp(
            math.log(defensive), math.log1p(-defensive) + log_mix
        )
    else:
        log_ratio = log_mix

    u = rng.random(counts.shape)
    flagged = u < _per_count(law.p_flag, counts, out=cell)
    failing = u < _per_count(law.p_flag + law.p_bad, counts, out=cell)
    if law.combine == COMBINE_FLAG_DUE:
        # a line with no flag has no flagged word, so its bad words are
        # exactly its failing ones
        due = _fold(np.logical_or, flagged)
        sdc = ~due & _fold(np.logical_or, failing)
    elif law.combine == COMBINE_XED:
        due, sdc = _xed_outcomes(law, flagged, failing)
    else:
        raise ValueError(f"unknown combine rule {law.combine!r}")
    touched = _fold(np.logical_or, counts)
    clean = ~due & ~sdc
    return -log_ratio, {
        "ok": ~touched & clean, "ce": touched & clean, "due": due, "sdc": sdc,
    }


def _fold(op: np.ufunc, cells: np.ndarray) -> np.ndarray:
    """``op.reduce(cells, axis=1)`` as a fold over the columns.

    Only for an ``op`` whose result does not depend on the order it runs
    in (``maximum``, ``logical_or``): numpy reduces a short row axis one
    row at a time, and a column fold runs a few long vector passes instead.
    """
    out = op(cells[:, 0], cells[:, 0])
    for col in range(1, cells.shape[1]):
        op(out, cells[:, col], out=out)
    return out


def _xed_outcomes(
    law: LineLaw, flagged: np.ndarray, failing: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """XED's (due, sdc) line masks from per-word (flagged, failing) states.

    A word is flagged (0), else silently bad when failing (1), else good
    (2); a line's words read as a base-3 number index the masks of
    :func:`repro.reliability.analytic._xed_word_states`, the cross-chip
    reconstruction rule the closed form sums over.
    """
    _, sdc, due = _xed_word_states(law.words - 1)
    state = 2 - flagged.astype(np.intp) - failing  # a flagged word is failing
    index = state @ 3 ** np.arange(law.words - 1, -1, -1)
    return due[index], sdc[index]


def count_tables(law: LineLaw, q_tilt: float) -> tuple[BinomialTable, BinomialTable]:
    """The nominal and tilted word-count draw tables of one tilted run."""
    return binomial_table(law.n, law.q), binomial_table(law.n, q_tilt)


def rareevent_chunk_tally(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    payload: dict[str, Any],
) -> Tally:
    """One tilted importance-sampling chunk (campaign worker entry point).

    ``payload`` is one of :func:`rareevent_chunks`' picklable dicts -
    ``start`` (first trial index, which keys the chunk's private rng
    stream), ``trials``, ``tilt``, ``defensive``, the run's ``law`` and its
    :func:`count_tables` (``tables``) - so the chunk builds no law and no
    table and is a pure function of its payload and ``config.seed``
    (REPRO201/211: no generators or closures cross the process boundary);
    ``scheme`` and ``rates`` keep the campaign's chunk signature and are not
    read.  A retry re-runs the same function.  Word counts are drawn by table
    (:func:`repro.faults.rng.binomials`), equal to ``rng.binomial``'s.
    """
    law: LineLaw = payload["law"]
    tilt = float(payload["tilt"])
    defensive = float(payload["defensive"])
    trials = int(payload["trials"])
    q_tilt = tilted_rate(law.q, tilt)
    nominal, proposal = payload["tables"]
    rng = np.random.default_rng([config.seed, _RNG_TAG_IS, int(payload["start"])])

    # Every stream draw happens unconditionally and in a fixed order, so
    # the sampled trials are a pure function of (seed, start) - masks only
    # select, never skip, draws.
    arm = rng.random(trials)
    word = rng.integers(law.words, size=trials)
    cell = np.empty((trials, law.words))
    counts = binomials(rng, nominal, cell.shape, out=cell)
    tilted = binomials(rng, proposal, trials)
    take_tilt = arm >= defensive
    counts[take_tilt, word[take_tilt]] = tilted[take_tilt]

    log_w, masks = _chunk_outcomes(rng, law, counts, q_tilt, defensive, cell)

    weighted = weighted_tally(
        {name: int(mask.sum()) for name, mask in masks.items()},
        {name: log_w[mask] for name, mask in masks.items()},
        estimator="is", tilt=tilt, defensive=defensive,
    )
    if _obs.enabled():
        _C_PROPOSALS.add(trials)
        _C_TILTED.add(int(take_tilt.sum()))
        _C_HITS.add(int(masks["due"].sum() + masks["sdc"].sum()))
    return Tally(
        ok=int(masks["ok"].sum()), ce=int(masks["ce"].sum()),
        due=int(masks["due"].sum()), sdc=int(masks["sdc"].sum()),
        extra={"weighted": weighted},
    )


# -- the importance-sampling run ----------------------------------------------


@dataclass(frozen=True)
class RareEventParams:
    """Proposal and guard-rail knobs of the tilted engine.

    ``tilt`` is the log-odds shift of the error rate (``"auto"`` aims the
    tilted word's mean count at the failure radius; ``0.0`` selects the
    exact decoder-in-the-loop engine).  ``defensive`` is the nominal-arm
    mixture mass: it bounds every weight by ``1/defensive``, which keeps
    the self-normalized estimator honest far from the tilt's sweet spot.
    ``min_ess`` is the Kish effective-sample-size floor below which the run
    raises :class:`repro.errors.NumericalGuard` instead of returning a
    silently meaningless tally.  ``samples``/``table_seed`` parameterize
    the measured conditional tables of the bit-code schemes (shared with
    the analytic models); PAIR's and DUO's laws measure nothing and do not
    read them.  These are the run's only defaults and checks: the campaign
    config validates its proposal fields by building one of these.
    """

    tilt: float | str = "auto"
    defensive: float = 0.05
    min_ess: float = 8.0
    samples: int = 400
    table_seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.tilt, str):
            if self.tilt != "auto":
                raise ValueError(f"tilt must be a float or 'auto', got {self.tilt!r}")
        elif not math.isfinite(self.tilt):
            raise ValueError("tilt must be finite")
        if not 0.0 <= self.defensive < 1.0:
            raise ValueError("defensive mass must be in [0, 1)")
        if self.samples <= 0:
            raise ValueError("samples must be positive")


def rareevent_chunks(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    params: RareEventParams,
    chunk_trials: int,
) -> list[dict[str, Any]]:
    """The :func:`rareevent_chunk_tally` payloads of one tilted run.

    The one chunker of the direct run and the campaign planner: it builds
    the line law once, resolves the tilt against it, builds the law's
    nominal and tilted count tables, and hands all of them to every chunk
    of ``chunk_trials`` trials.
    """
    ber = require_pure_ber(rates)
    law = line_law(scheme, ber, params.samples, params.table_seed)
    tilt = resolve_tilt(params.tilt, law)
    tables = count_tables(law, tilted_rate(law.q, tilt))
    return [{"start": start, "trials": min(chunk_trials, config.trials - start),
             "tilt": tilt, "defensive": params.defensive, "law": law,
             "tables": tables}
            for start in range(0, config.trials, chunk_trials)]


@dataclass
class RareEventResult:
    """A finished rare-event run: weighted tally plus derived estimates."""

    scheme: str
    ber: float
    trials: int
    tilt: float
    defensive: float
    estimator: str  # "exact" (tilt=0 decode path) or "is" (tilted sampler)
    tally: Tally

    @property
    def weighted(self) -> dict:
        return self.tally.extra["weighted"]

    def estimates(self, z: float = 1.96) -> dict:
        """Per-outcome estimates/CIs/diagnostics (see ``weighted_summary``)."""
        return weighted_summary(self.weighted, z=z)

    def as_dict(self, z: float = 1.96) -> dict:
        summary = self.estimates(z=z)
        summary.update(
            scheme=self.scheme, ber=self.ber, trials=self.trials,
            estimator=self.estimator,
        )
        return summary


def run_rareevent_iid(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    params: RareEventParams | None = None,
    workers: int = 1,
    chunk_trials: int | None = None,
) -> RareEventResult:
    """Estimate per-read outcome probabilities under the weak-cell process.

    ``tilt=0`` routes to :func:`repro.reliability.batch.run_iid_batched`
    (the exact datapath engine; counts bit-identical, unit weights); any
    other tilt runs the count-level importance sampler.  Results are
    bit-identical across ``workers`` settings: chunks own disjoint rng
    streams keyed by their first trial and merge in chunk order.
    """
    if config.trials < 1:
        raise ValueError("trials must be positive")
    params = params or RareEventParams()
    if params.tilt == 0.0:
        tally = run_iid_batched(
            scheme, rates, config, workers=workers,
            chunk_trials=chunk_trials or DEFAULT_CHUNK_TRIALS,
        )
        tally.extra["weighted"] = unit_weighted_tally(
            {"ok": tally.ok, "ce": tally.ce, "due": tally.due, "sdc": tally.sdc},
        )
        return RareEventResult(
            scheme=scheme.name, ber=rates.single_cell_ber, trials=config.trials,
            tilt=0.0, defensive=0.0, estimator="exact", tally=tally,
        )

    payloads = rareevent_chunks(
        scheme, rates, config, params, chunk_trials or DEFAULT_RARE_CHUNK_TRIALS
    )
    tilt = payloads[0]["tilt"]
    tally = _merge(_dispatch(
        rareevent_chunk_tally,
        [(scheme, rates, config, payload) for payload in payloads],
        workers,
        labels=[
            f"rareevent chunk {i} (start={p['start']}, tilt={tilt:.3f})"
            for i, p in enumerate(payloads)
        ],
    ))
    summary = weighted_summary(tally.extra["weighted"])
    if _obs.enabled():
        _G_ESS.set(summary["ess"])
        _G_WEIGHT_CV2.set(summary["weight_cv2"])
    if summary["ess"] < params.min_ess:
        raise NumericalGuard(
            f"importance weights collapsed: ESS {summary['ess']:.2f} of "
            f"{config.trials} trials is below the floor {params.min_ess:g} "
            f"(tilt={tilt:.3f}, defensive={params.defensive:g}); lower the "
            "tilt, raise the defensive mass, or add trials"
        )
    return RareEventResult(
        scheme=scheme.name, ber=rates.single_cell_ber, trials=config.trials,
        tilt=tilt, defensive=params.defensive, estimator="is", tally=tally,
    )


# -- fixed-effort multilevel splitting ----------------------------------------


def _count_law(law: LineLaw) -> tuple[np.ndarray, np.ndarray]:
    """One word's error-count ``(logpmf, cdf)`` over ``0..n``.

    It depends only on ``(n, q)``, so a splitting run computes it once and
    hands it to every level.
    """
    logpmf = np.asarray(binom_logpmf(law.n, np.arange(law.n + 1), law.q))
    return logpmf, np.cumsum(np.exp(logpmf))


def _level_draws(
    rng: np.random.Generator,
    law: LineLaw,
    level: int,
    trials: int,
    logpmf: np.ndarray,
    cdf: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One splitting level's draws: ``(first, u, below_cdf, tail_cdf)``.

    Conditioning on ``max_i J_i >= level`` factorizes through the first
    word reaching the level: let ``F`` be the smallest index with ``J_F >=
    level``.  Given the event, ``F`` is truncated-geometric in ``P(J <
    level)``; words before ``F`` are truncated *below* the level, word
    ``F`` truncated *at or above* it, and later words unconditioned.  This
    draws ``F`` per trial (``first``), then one uniform per cell (``u``,
    ``(trials, words)``), and builds the normalized CDFs of the below and
    tail classes; the free class inverts ``cdf`` itself.  ``(logpmf,
    cdf)`` is :func:`_count_law`.
    """
    n, q, m = law.n, law.q, law.words
    tail_mass = binom_tail(n, level, q)  # P(J >= level), exact log-gamma sum
    if tail_mass <= 0.0:
        raise NumericalGuard(
            f"P(J >= {level}) underflowed for n={n}, q={q:g}; the level "
            "function cannot be conditioned this deep"
        )
    below_mass = 1.0 - tail_mass

    # word index F: P(F = i | max >= level) = b^i (1-b) / (1 - b^m)
    f_pmf = below_mass ** np.arange(m) * tail_mass
    f_cdf = np.cumsum(f_pmf / at_least_one(tail_mass, m))
    first = np.minimum(np.searchsorted(f_cdf, rng.random(trials)), m - 1)

    # normalized inverse CDFs for the below and tail classes; the tail one
    # is renormalized in log space so levels far beyond the mean stay exact.
    below_cdf = cdf[:level] / max(below_mass, np.finfo(float).tiny)
    tail_log = logpmf[level:]
    tail_cdf = np.cumsum(np.exp(tail_log - logsumexp(tail_log)))
    return first, rng.random((trials, m)), below_cdf, tail_cdf


def _conditional_counts_given_max(
    rng: np.random.Generator,
    law: LineLaw,
    level: int,
    trials: int,
    logpmf: np.ndarray,
    cdf: np.ndarray,
) -> np.ndarray:
    """Exact samples of per-word counts conditioned on ``max_i J_i >= level``.

    Each piece of :func:`_level_draws`' factorization inverts by CDF
    lookup, so the sample is exact (no burn-in, no correlation between
    trials).  Every cell draws one uniform, but each cell inverts only its
    own class's CDF.  ``searchsorted`` (``side="left"``) returns 0 exactly
    where ``u <= cdf[0]``, and ``below_cdf[0] >= cdf[0]``, so a below or
    free cell under ``cdf[0]`` is 0 without a search; at a low rate that is
    most of them (about 81% of PAIR's free words at q = 8e-4).
    """
    n, m = law.n, law.words
    first, u, below_cdf, tail_cdf = _level_draws(rng, law, level, trials, logpmf, cdf)
    counts = np.zeros(trials * m, dtype=np.intp)
    cells = np.flatnonzero(u > cdf[0])  # flat indices of the cells searched
    cell_u = u.ravel()[cells]
    # column relative to the trial's first word: < 0 below, > 0 free
    offset = cells % m - first[cells // m]
    below = offset < 0
    counts[cells[below]] = np.minimum(
        np.searchsorted(below_cdf, cell_u[below]), level - 1
    )
    free = offset > 0
    counts[cells[free]] = np.minimum(np.searchsorted(cdf, cell_u[free]), n)
    counts = counts.reshape(trials, m)
    rows = np.arange(trials)
    counts[rows, first] = level + np.minimum(
        np.searchsorted(tail_cdf, u[rows, first]), n - level
    )
    return counts


def _level_survivors(
    rng: np.random.Generator,
    law: LineLaw,
    level: int,
    trials: int,
    logpmf: np.ndarray,
    cdf: np.ndarray,
) -> int:
    """``(counts.max(axis=1) >= level + 1).sum()`` of the counts
    :func:`_conditional_counts_given_max` makes from the same draws,
    counted from the draws without building the counts.

    Words before ``F`` stay below the level.  Word ``F`` reaches ``level +
    1`` when its ``u > tail_cdf[0]``, a later word when its ``u >
    cdf[level]``: the inequalities ``searchsorted`` (``side="left"``)
    evaluates.  Neither can pass ``n``, the clips' bound.  The free test is
    run on the few cells past ``cdf[level]`` only.
    """
    first, u, _, tail_cdf = _level_draws(rng, law, level, trials, logpmf, cdf)
    if level >= law.n:
        return 0
    up = u[np.arange(trials), first] > tail_cdf[0]
    rows, cols = np.divmod(np.flatnonzero(u > cdf[level]), law.words)
    up[rows[cols > first[rows]]] = True
    return int(up.sum())


def _conditional_outcome_probs(
    law: LineLaw, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (P(due | counts), P(sdc | counts)) per trial.

    Rao-Blackwellization of the final splitting level: instead of sampling
    word states, integrate them out against the conditional tables.  This
    is what lets a miscorrection branch orders of magnitude below 1/effort
    show up in the estimate with zero extra variance.  A word's no-flag and
    all-good probabilities depend on its count alone, so they are taken
    per table row and gathered by count.
    """
    no_flag = _per_count(np.clip(1.0 - law.p_flag, 0.0, 1.0), counts)
    good = _per_count(np.clip(1.0 - law.p_flag - law.p_bad, 0.0, 1.0), counts)
    if law.combine == COMBINE_FLAG_DUE:
        p_no_flag = no_flag.prod(axis=1)
        p_all_good = good.prod(axis=1)
        return 1.0 - p_no_flag, p_no_flag - p_all_good
    if law.combine == COMBINE_XED:
        data = law.words - 1
        pf = _per_count(law.p_flag, counts)
        p_zero_flags = no_flag.prod(axis=1)
        p_one_flag = np.zeros(counts.shape[0])
        p_sdc = np.zeros(counts.shape[0])
        for lane in range(law.words):
            others = [j for j in range(law.words) if j != lane]
            rest_no_flag = no_flag[:, others].prod(axis=1)
            single = pf[:, lane] * rest_no_flag
            p_one_flag += single
            if lane < data:
                # flagged data lane: reconstruction XORs the other words,
                # so any silent bad among them poisons the rebuilt lane
                rest_good = good[:, others].prod(axis=1)
                p_any_bad_rest = np.clip(
                    1.0 - np.divide(
                        rest_good, rest_no_flag,
                        out=np.ones_like(rest_good), where=rest_no_flag > 0,
                    ),
                    0.0, 1.0,
                )
                p_sdc += single * p_any_bad_rest
            else:
                # parity flagged: data words stand as decoded
                data_good = good[:, :data].prod(axis=1)
                data_no_flag = no_flag[:, :data].prod(axis=1)
                p_any_data_bad = np.clip(
                    1.0 - np.divide(
                        data_good, data_no_flag,
                        out=np.ones_like(data_good), where=data_no_flag > 0,
                    ),
                    0.0, 1.0,
                )
                p_sdc += single * p_any_data_bad
        p_due = np.clip(1.0 - p_zero_flags - p_one_flag, 0.0, 1.0)
        # zero flags: any silent bad among the data lanes
        p_sdc += p_zero_flags - good[:, :data].prod(axis=1) * no_flag[:, data]
        return p_due, np.clip(p_sdc, 0.0, 1.0)
    raise ValueError(f"unknown combine rule {law.combine!r}")


@dataclass
class SplittingResult:
    """A finished splitting run: the level ladder and its tail estimates."""

    scheme: str
    ber: float
    k: int
    effort: int
    entrance: float  # exact P(S >= 1)
    levels: list[dict]  # [{"level": l, "ratio": r, "survivors": c}, ...]
    p_tail: float  # estimated P(S >= k)
    tail_closed_form: float  # exact 1 - (1 - binom_tail(n,k,q))^words
    p_due: float
    p_sdc: float
    rel_se: float  # delta-method relative standard error of the product

    @property
    def p_fail(self) -> float:
        return self.p_due + self.p_sdc

    def interval(self, value: float, z: float = 1.96) -> tuple[float, float]:
        """Lognormal CI on a product-form estimate."""
        if value <= 0.0:
            return (0.0, 0.0)
        spread = math.exp(z * self.rel_se)
        return (value / spread, value * spread)

    def as_dict(self, z: float = 1.96) -> dict:
        lo, hi = self.interval(self.p_fail, z)
        return {
            "scheme": self.scheme, "ber": self.ber, "k": self.k,
            "effort": self.effort, "entrance": self.entrance,
            "levels": self.levels, "p_tail": self.p_tail,
            "tail_closed_form": self.tail_closed_form,
            "p_due": self.p_due, "p_sdc": self.p_sdc,
            "p_fail": self.p_fail, "rel_se": self.rel_se,
            "ci_lo": lo, "ci_hi": hi,
        }


def run_splitting_iid(
    scheme: EccScheme,
    rates: FaultRates,
    effort: int = 4096,
    seed: int = 0,
    k: int | None = None,
    samples: int = 400,
    table_seed: int = 0,
) -> SplittingResult:
    """Fixed-effort multilevel splitting on ``S = max per-word error count``.

    ``P(S >= k)`` factors as the exact entrance probability ``P(S >= 1)``
    times the estimated level ratios ``P(S >= l+1 | S >= l)`` for
    ``l = 1..k-1``, each from ``effort`` exact conditional samples; the
    final level converts counts to outcome probabilities analytically.
    ``k`` defaults to the scheme's failure radius, where the closed-form
    ladder check ``1 - (1 - binom_tail(n, k, q))^words`` is available.
    A level below ``k`` needs only its survivor count, which
    :func:`_level_survivors` reads off the level's draws; only level ``k``
    builds its counts, for the Rao-Blackwell step.
    """
    ber = require_pure_ber(rates, context="splitting engine")
    law = line_law(scheme, ber, samples=samples, seed=table_seed)
    k = k if k is not None else law.k_fail
    if k < 1:
        raise ValueError("splitting needs k >= 1")
    entrance = at_least_one(law.q, law.n * law.words)
    closed_form = at_least_one(binom_tail(law.n, k, law.q), law.words)
    if law.q <= 0.0:
        return SplittingResult(
            scheme=scheme.name, ber=ber, k=k, effort=effort, entrance=0.0,
            levels=[], p_tail=0.0, tail_closed_form=0.0, p_due=0.0,
            p_sdc=0.0, rel_se=0.0,
        )
    count_law = _count_law(law)
    levels: list[dict] = []
    p_tail = entrance
    rel_var = 0.0
    for level in range(1, k):
        rng = np.random.default_rng([seed, _RNG_TAG_SPLIT, level])
        survivors = _level_survivors(rng, law, level, effort, *count_law)
        if _obs.enabled():
            _C_SPLIT_LEVELS.add(1)
        if survivors == 0:
            raise NumericalGuard(
                f"splitting level {level} -> {level + 1} had zero survivors "
                f"in {effort} conditional samples (scheme={scheme.name}, "
                f"q={law.q:g}); raise the effort"
            )
        ratio = survivors / effort
        levels.append({"level": level, "ratio": ratio, "survivors": survivors})
        p_tail *= ratio
        rel_var += (1.0 - ratio) / (ratio * effort)
    rng = np.random.default_rng([seed, _RNG_TAG_SPLIT, k])
    counts = _conditional_counts_given_max(rng, law, k, effort, *count_law)
    if _obs.enabled():
        _C_SPLIT_LEVELS.add(1)
    p_due_arr, p_sdc_arr = _conditional_outcome_probs(law, counts)
    f_due = float(p_due_arr.mean())
    f_sdc = float(p_sdc_arr.mean())
    f_fail = float((p_due_arr + p_sdc_arr).mean())
    if f_fail > 0.0:
        rel_var += float((p_due_arr + p_sdc_arr).var()) / (
            f_fail * f_fail * effort
        )
    return SplittingResult(
        scheme=scheme.name, ber=ber, k=k, effort=effort, entrance=entrance,
        levels=levels, p_tail=p_tail, tail_closed_form=closed_form,
        p_due=p_tail * f_due, p_sdc=p_tail * f_sdc,
        rel_se=math.sqrt(rel_var),
    )
