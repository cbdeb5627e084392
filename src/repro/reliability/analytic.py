"""Semi-analytic reliability models: exact count statistics x conditional
decoder behaviour.

For the i.i.d. weak-cell process with per-bit probability ``p``, the number
of errors per codeword is exactly binomial; the conditional outcome given a
count comes from a per-count table.  Composing the two yields SDC/DUE
probabilities per 64-byte line read, valid down to arbitrarily small
probabilities - this is what regenerates the paper's reliability sweep (F2).

The binary codes (XED's and conventional IECC's Hamming SEC, rank-level
SEC-DED) measure their tables from the real decoder
(:mod:`repro.reliability.conditional`).  The RS codes (PAIR, DUO) decode
nothing: every pattern of at most ``t`` symbol errors is corrected by the
distance, and a pattern beyond ``t`` miscorrects at the analytic floor
:func:`rs_floor`, far below anything sampling resolves
(``tests/reliability/test_rs_floor.py`` checks the floor against the
decoder on short codes, where it is measurable).

Every scheme's line is one :class:`ReliabilityModel` - words per read,
word length, error unit and conditional rows - built by :func:`build_model`,
the one per-scheme dispatch.  The closed forms evaluate it, and
:meth:`ReliabilityModel.law` hands the same line to the rare-event engines
(:mod:`repro.reliability.rareevent`).  Each model is validated against the
decoder-in-the-loop engine at elevated BER in the integration test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..codes.rs import ReedSolomonCode, SinglyExtendedRS
from ..schemes.base import EccScheme
from ..schemes.duo import Duo
from ..schemes.iecc_sec import ConventionalIecc
from ..schemes.no_ecc import NoEcc
from ..schemes.pair import PairScheme
from ..schemes.rank import RankSecDed
from ..schemes.xed import Xed
from .conditional import measure_bit_code
from .stats import at_least_one, binom_pmf, binom_tail


#: per-word outcome combination rules (how word states make a line outcome).
COMBINE_FLAG_DUE = "flag-due-bad-sdc"  # any flag -> DUE, else any bad -> SDC
COMBINE_XED = "xed"  # cross-chip reconstruction logic (see _xed_word_states)


@dataclass(frozen=True)
class LineLaw:
    """One line read as i.i.d. words: count statistics x conditional tables.

    ``words`` words per line, each with ``n`` i.i.d. error positions at
    rate ``q`` (per bit for bit codes, per 8-bit symbol for the RS
    schemes); a word with ``j`` errors flags with ``p_flag[j]`` and is
    silently bad with ``p_bad[j]`` (counts beyond the table behave like
    the last entry, as in :func:`_mix`).  ``combine`` names the cross-word
    rule; ``k_fail`` is the smallest count with any failure mass - the
    natural splitting threshold and auto-tilt target.
    """

    scheme: str
    words: int
    n: int
    q: float
    p_flag: np.ndarray
    p_bad: np.ndarray
    combine: str
    k_fail: int


def _symbol_rate(ber: float) -> float:
    """Per-8-bit-symbol error probability: 1 - (1-ber)^8."""
    return -math.expm1(8.0 * math.log1p(-min(ber, 1.0))) if ber > 0 else 0.0


def _k_fail(p_flag: np.ndarray, p_bad: np.ndarray) -> int:
    mass = np.asarray(p_flag) + np.asarray(p_bad)
    nonzero = np.nonzero(mass > 0)[0]
    return int(nonzero[0]) if nonzero.size else len(mass) - 1


class ReliabilityModel:
    """One scheme's line read: P(SDC) and P(DUE) as a function of weak-cell BER.

    The line is ``words`` i.i.d. words of ``n`` error positions each, at the
    BER per bit or, with ``symbols``, at the 8-bit symbol rate; a word with
    ``j`` errors flags with ``p_flag[j]`` and is silently bad with
    ``p_bad[j]``.  Under ``COMBINE_FLAG_DUE`` any flagged word is a DUE and
    any silently bad word an SDC; a one-word line reads its word's
    probabilities directly.  :meth:`law` hands the same line to the
    rare-event engines.
    """

    combine = COMBINE_FLAG_DUE

    def __init__(
        self,
        scheme: EccScheme,
        words: int,
        n: int,
        p_flag: np.ndarray,
        p_bad: np.ndarray,
        symbols: bool = False,
    ):
        self.scheme = scheme
        self.words = words
        self.n = n
        self.p_flag = p_flag
        self.p_bad = p_bad
        self.symbols = symbols
        self.k_fail = _k_fail(p_flag, p_bad)

    def rate(self, ber: float) -> float:
        """Per-position error rate of a word: the BER, or the symbol rate."""
        return _symbol_rate(ber) if self.symbols else ber

    def line_probs(self, ber: float) -> dict[str, float]:
        """Return ``{"sdc": ..., "due": ...}`` for one line read."""
        flag, bad = _mix(self.n, self.rate(ber), self.p_flag, self.p_bad)
        if self.words == 1:
            return {"sdc": bad, "due": flag}
        return {"sdc": at_least_one(bad, self.words), "due": at_least_one(flag, self.words)}

    def law(self, ber: float) -> LineLaw:
        """The count-level line law the rare-event engines sample at ``ber``."""
        return LineLaw(
            scheme=self.scheme.name, words=self.words, n=self.n, q=self.rate(ber),
            p_flag=self.p_flag, p_bad=self.p_bad, combine=self.combine,
            k_fail=self.k_fail,
        )

    def sweep(self, bers: np.ndarray) -> dict[str, np.ndarray]:
        probs = [self.line_probs(p) for p in bers]
        sdc = np.array([pr["sdc"] for pr in probs])
        due = np.array([pr["due"] for pr in probs])
        return {"ber": np.asarray(bers, dtype=float), "sdc": sdc, "due": due}


def rs_decodable_fraction(n: int, r_eff: int, t: int, q: int = 256) -> float:
    """Fraction of the syndrome space covered by decoding spheres.

    For bounded-distance decoding, a random error pattern far beyond the
    correction radius miscorrects with probability approximately equal to
    the fraction of syndromes claimed by radius-``t`` balls around
    codewords: ``sum_{i<=t} C(n,i)(q-1)^i / q^r``.  This is the standard
    estimate (tight for RS codes) and is far below what sampling can
    measure at the schemes' shapes - the RS models take it as their
    conditional rows for counts beyond ``t`` (:func:`rs_floor`).
    """
    total = sum(math.comb(n, i) * (q - 1) ** i for i in range(t + 1))
    return float(total) / float(q) ** r_eff


def rs_floor(code: ReedSolomonCode | SinglyExtendedRS) -> float:
    """Miscorrection probability of a pattern far beyond ``code.t``.

    A plain RS code is one bounded-distance decoder at radius ``t``.  The
    two-pass singly extended decoder adds the miscorrections of both passes:
    case A uses r+1 syndromes at radius (r+1)//2, case B uses r syndromes at
    radius (r-1)//2 (``r`` of the inner code).
    """
    q = code.field.order
    if isinstance(code, SinglyExtendedRS):
        inner = code.inner
        return rs_decodable_fraction(
            inner.n, inner.r + 1, (inner.r + 1) // 2, q
        ) + rs_decodable_fraction(inner.n, inner.r, (inner.r - 1) // 2, q)
    return rs_decodable_fraction(code.n, code.r, code.t, q)


def _rs_rows(
    j_max: int, t: int, miscorrect: float, window_factor: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(p_flag, p_bad)`` per count ``j = 0..j_max`` of an RS word.

    Counts ``j <= t`` are always corrected (guaranteed by the distance);
    counts beyond ``t`` detect except for the miscorrection floor, of which
    ``window_factor`` is the share that reaches the data a read consumes.
    """
    flag = np.zeros(j_max + 1)
    bad = np.zeros(j_max + 1)
    flag[t + 1 :] = 1.0 - miscorrect
    bad[t + 1 :] = miscorrect * window_factor
    return flag, bad


def _mix(n: int, p: float, *rows: np.ndarray) -> list[float]:
    """E[row(J)] per row for J ~ Binomial(n, p), truncated at table length.

    The rows share one length, so the binomial weights and tail are
    computed once for all of them.
    """
    j = np.arange(len(rows[0]))
    weights = binom_pmf(n, j, p)
    # Everything past the table is assumed to behave like the last entry.
    # The tail mass is summed exactly; computing it as 1 - sum(weights)
    # would leave ~1e-16 of float cancellation noise, swamping the tiny
    # probabilities this model exists to resolve.
    tail = binom_tail(n, len(rows[0]), p)
    values = []
    for row in rows:
        value = float((weights * row).sum())
        if tail > 0:
            value += tail * float(row[-1])
        values.append(value)
    return values


class NoEccModel(ReliabilityModel):
    """The whole access is one word, and any flipped bit is an SDC."""

    def line_probs(self, ber: float) -> dict[str, float]:
        return {"sdc": at_least_one(ber, self.n), "due": 0.0}


class XedModel(ReliabilityModel):
    """Exact enumeration over per-chip word outcomes {flag, bad, good}."""

    combine = COMBINE_XED

    def line_probs(self, ber: float) -> dict[str, float]:
        p_flag, p_bad = _mix(self.n, ber, self.p_flag, self.p_bad)
        p_good = max(0.0, 1.0 - p_flag - p_bad)
        states, sdc_mask, due_mask = _xed_word_states(self.words - 1)
        # Each state's probability is the product of its words' in position
        # order, and the running sums add states in enumeration order:
        # float for float the scalar loop over ``itertools.product``.
        word_probs = np.array([p_flag, p_bad, p_good])
        prob = word_probs[states[:, 0]]
        for column in states.T[1:]:
            prob = prob * word_probs[column]
        return {"sdc": _running_sum(prob[sdc_mask]), "due": _running_sum(prob[due_mask])}


def _running_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added left to right."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


@functools.lru_cache(maxsize=None)
def _xed_word_states(data_chips: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every XED line state with its SDC and DUE masks.

    A state gives each of the ``data_chips + 1`` words (the parity chip
    last) an outcome 0 = flagged, 1 = silently bad, 2 = good; the rows run
    in ``itertools.product`` order, so a state's row is its outcomes read
    as a base-3 number, first word most significant.  Two or more flags
    are a DUE.  One flagged data word is rebuilt from every other word, so
    any bad word poisons it (SDC); a flagged parity word leaves the data as
    decoded.  With no flag, a bad data word is an SDC.
    """
    words = data_chips + 1
    states = np.array(list(itertools.product((0, 1, 2), repeat=words)), dtype=np.intp)
    flagged = states == 0
    bad = states == 1
    flags = flagged.sum(axis=1)
    data_bad = bad[:, :data_chips].any(axis=1)
    data_flagged = flagged[:, :data_chips].any(axis=1)
    sdc = np.where(data_flagged, bad.any(axis=1), data_bad) & (flags <= 1)
    due = flags >= 2
    for shared in (states, sdc, due):  # the cache hands these to every caller
        shared.flags.writeable = False
    return states, sdc, due


def _rs_model(scheme: Duo | PairScheme, words: int, window_factor: float = 1.0
              ) -> ReliabilityModel:
    """An RS scheme's line: rows from the distance bound and :func:`rs_floor`.

    The rows run to ``t + 8`` although every row past ``t`` is the same:
    ``_mix`` sums the table and then the binomial tail, and a shorter table
    would round differently and move every golden.
    """
    code = scheme.code
    rows = _rs_rows(code.t + 8, code.t, rs_floor(code), window_factor)
    return ReliabilityModel(scheme, words, code.n, *rows, symbols=True)


def build_model(scheme: EccScheme, samples: int = 1500, seed: int = 0) -> ReliabilityModel:
    """Factory mapping a scheme instance to its line model.

    ``samples`` and ``seed`` size and seed the decoder-measured conditional
    table, which only the bit-code models have: XED, IECC-SEC and rank
    SEC-DED.  The no-ECC, DUO and PAIR models ignore both (the RS rows come
    from :func:`rs_floor`), so their curves do not depend on them.
    """
    if isinstance(scheme, NoEcc):
        bits = scheme.rank.access_data_bits
        return NoEccModel(scheme, 1, bits, np.zeros(2), np.array([0.0, 1.0]))
    if isinstance(scheme, ConventionalIecc):
        # a per-chip SEC word, silent on detection, no rank signalling
        table = measure_bit_code(
            scheme.code, j_max=12, samples=samples, seed=seed, silent_on_detect=True
        )
        return ReliabilityModel(
            scheme, scheme.rank.data_chips, scheme.code.n, table.p_flag, table.p_bad
        )
    if isinstance(scheme, Xed):
        table = measure_bit_code(scheme.code, j_max=12, samples=samples, seed=seed)
        return XedModel(
            scheme, scheme.rank.data_chips + 1, scheme.code.n, table.p_flag, table.p_bad
        )
    if isinstance(scheme, Duo):
        # one long word per line: a miscorrected word is a different
        # codeword, >= d_min symbols away, virtually certain to touch the
        # 64 data symbols
        return _rs_model(scheme, 1)
    if isinstance(scheme, PairScheme):
        # independent per-pin codewords; the data symbols of one codeword
        # that a single access consumes (orientation-dependent: 2 for
        # pin-aligned, 16 for beat-aligned)
        layout = scheme.layout
        first_cw = layout.codewords_of_access(0)[0]
        lo, hi = layout.data_symbol_range_of_access(first_cw, 0)
        window = max(1, hi - lo)
        # a miscorrection moves >= d_min symbols; the chance that one of
        # them lands in the accessed window is what the read sees
        code = scheme.code
        window_factor = -math.expm1(code.d_min * math.log1p(-window / code.n))
        words = len(layout.codewords_of_access(0)) * scheme.rank.data_chips
        return _rs_model(scheme, words, window_factor)
    if isinstance(scheme, RankSecDed):
        table = measure_bit_code(scheme.code, j_max=10, samples=samples, seed=seed)
        return ReliabilityModel(
            scheme, scheme.slices, scheme.code.n, table.p_flag, table.p_bad
        )
    raise TypeError(f"no analytic model for scheme {scheme.name}")
