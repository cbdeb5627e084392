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

Each model is validated against the decoder-in-the-loop engine at elevated
BER in the integration test suite.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math

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


class ReliabilityModel(abc.ABC):
    """P(SDC) and P(DUE) per line read as a function of weak-cell BER."""

    def __init__(self, scheme: EccScheme, samples: int = 2000, seed: int = 0):
        self.scheme = scheme
        self.samples = samples
        self.seed = seed

    @abc.abstractmethod
    def line_probs(self, ber: float) -> dict[str, float]:
        """Return ``{"sdc": ..., "due": ...}`` for one line read."""

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


def _mix(n: int, p: float, conditional: np.ndarray) -> float:
    """E[conditional(J)] for J ~ Binomial(n, p), truncated at table length."""
    j = np.arange(len(conditional))
    weights = binom_pmf(n, j, p)
    value = float((weights * conditional).sum())
    # Everything past the table is assumed to behave like the last entry.
    # The tail mass is summed exactly; computing it as 1 - sum(weights)
    # would leave ~1e-16 of float cancellation noise, swamping the tiny
    # probabilities this model exists to resolve.
    tail = binom_tail(n, len(conditional), p)
    if tail > 0:
        value += tail * float(conditional[-1])
    return value


class NoEccModel(ReliabilityModel):
    def line_probs(self, ber: float) -> dict[str, float]:
        bits = self.scheme.rank.access_data_bits
        return {"sdc": at_least_one(ber, bits), "due": 0.0}


class ConventionalIeccModel(ReliabilityModel):
    """Per-chip SEC word, silent on detection, no rank signalling."""

    def __init__(self, scheme: ConventionalIecc, samples: int = 2000, seed: int = 0):
        super().__init__(scheme, samples, seed)
        self.table = measure_bit_code(
            scheme.code, j_max=12, samples=samples, seed=seed, silent_on_detect=True
        )

    def line_probs(self, ber: float) -> dict[str, float]:
        word_bad = _mix(self.scheme.code.n, ber, self.table.p_bad)
        chips = self.scheme.rank.data_chips
        return {"sdc": at_least_one(word_bad, chips), "due": 0.0}


class XedModel(ReliabilityModel):
    """Exact enumeration over per-chip word outcomes {flag, bad, good}."""

    def __init__(self, scheme: Xed, samples: int = 2000, seed: int = 0):
        super().__init__(scheme, samples, seed)
        self.table = measure_bit_code(
            scheme.code, j_max=12, samples=samples, seed=seed
        )

    def line_probs(self, ber: float) -> dict[str, float]:
        n = self.scheme.code.n
        p_flag = _mix(n, ber, self.table.p_flag)
        p_bad = _mix(n, ber, self.table.p_bad)
        p_good = max(0.0, 1.0 - p_flag - p_bad)
        states, sdc_mask, due_mask = _xed_word_states(self.scheme.rank.data_chips)
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
    in ``itertools.product`` order.  Two or more flags are a DUE.  One
    flagged data word is rebuilt from every other word, so any bad word
    poisons it (SDC); a flagged parity word leaves the data as decoded.
    With no flag, a bad data word is an SDC.
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


class DuoModel(ReliabilityModel):
    """One long RS word per line; symbol errors binomial in symbol count."""

    def __init__(self, scheme: Duo, samples: int = 1500, seed: int = 0):
        super().__init__(scheme, samples, seed)
        code = scheme.code
        # A miscorrected word is a different codeword: >= d_min symbols
        # differ, virtually certain to touch the 64 data symbols.  The rows
        # run to t + 8 although every row past t is the same: ``_mix`` sums
        # the table and then the binomial tail, and a shorter table would
        # round differently and move every golden.
        self._flag, self._bad = _rs_rows(code.t + 8, code.t, rs_floor(code))

    def line_probs(self, ber: float) -> dict[str, float]:
        q_sym = -math.expm1(8 * math.log1p(-ber))  # 1 - (1-p)^8
        n = self.scheme.code.n
        return {
            "sdc": _mix(n, q_sym, self._bad),
            "due": _mix(n, q_sym, self._flag),
        }


class PairModel(ReliabilityModel):
    """Independent per-pin codewords; SDC restricted to the accessed window."""

    def __init__(self, scheme: PairScheme, samples: int = 1500, seed: int = 0):
        super().__init__(scheme, samples, seed)
        code = scheme.code
        # data symbols of one codeword that a single access consumes
        # (orientation-dependent: 2 for pin-aligned, 16 for beat-aligned)
        first_cw = scheme.layout.codewords_of_access(0)[0]
        lo, hi = scheme.layout.data_symbol_range_of_access(first_cw, 0)
        window = max(1, hi - lo)
        # a miscorrection moves >= d_min symbols; the chance that one of
        # them lands in the accessed window is what the read sees
        window_factor = -math.expm1(code.d_min * math.log1p(-window / code.n))
        # t + 8 rows for the same rounding reason as DUO's
        self._flag, self._bad = _rs_rows(
            code.t + 8, code.t, rs_floor(code), window_factor
        )

    def line_probs(self, ber: float) -> dict[str, float]:
        q_sym = -math.expm1(8 * math.log1p(-ber))
        n = self.scheme.code.n
        cw_bad = _mix(n, q_sym, self._bad)
        cw_flag = _mix(n, q_sym, self._flag)
        codewords = len(self.scheme.layout.codewords_of_access(0)) * self.scheme.rank.data_chips
        return {
            "sdc": at_least_one(cw_bad, codewords),
            "due": at_least_one(cw_flag, codewords),
        }


class RankSecDedModel(ReliabilityModel):
    def __init__(self, scheme: RankSecDed, samples: int = 2000, seed: int = 0):
        super().__init__(scheme, samples, seed)
        self.table = measure_bit_code(
            scheme.code, j_max=10, samples=samples, seed=seed
        )

    def line_probs(self, ber: float) -> dict[str, float]:
        word_flag = _mix(self.scheme.code.n, ber, self.table.p_flag)
        word_bad = _mix(self.scheme.code.n, ber, self.table.p_bad)
        slices = self.scheme.slices
        return {
            "sdc": at_least_one(word_bad, slices),
            "due": at_least_one(word_flag, slices),
        }


def build_model(scheme: EccScheme, samples: int = 1500, seed: int = 0) -> ReliabilityModel:
    """Factory mapping a scheme instance to its analytic model.

    ``samples`` and ``seed`` size and seed the decoder-measured conditional
    table, which only the bit-code models have: XED, IECC-SEC and rank
    SEC-DED.  The no-ECC, DUO and PAIR models ignore both (the RS rows come
    from :func:`rs_floor`), so their curves do not depend on them.
    """
    if isinstance(scheme, NoEcc):
        return NoEccModel(scheme, samples, seed)
    if isinstance(scheme, ConventionalIecc):
        return ConventionalIeccModel(scheme, samples, seed)
    if isinstance(scheme, Xed):
        return XedModel(scheme, samples, seed)
    if isinstance(scheme, Duo):
        return DuoModel(scheme, samples, seed)
    if isinstance(scheme, PairScheme):
        return PairModel(scheme, samples, seed)
    if isinstance(scheme, RankSecDed):
        return RankSecDedModel(scheme, samples, seed)
    raise TypeError(f"no analytic model for scheme {scheme.name}")
