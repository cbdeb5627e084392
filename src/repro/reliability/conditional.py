"""Measured conditional-outcome tables for code words.

The semi-analytic reliability engine factors each scheme's failure
probability into (a) the *exact* distribution of error counts per codeword
(binomial in the i.i.d. weak-cell process) and (b) the *conditional* outcome
probabilities given j errors.  For the binary codes (Hamming SEC, Hsiao
SEC-DED) those depend on the decoder's actual behaviour and are measured
here by running the real decoder on controlled error patterns.  The RS
models (PAIR, DUO) take theirs from the distance bound and the
miscorrection floor (:func:`repro.reliability.analytic.rs_floor`) and
measure nothing; :func:`measure_symbol_code` stays as the decoder's
reference for that floor in the tests, and for the benchmark's traced
mode, which wraps it by name and reads :data:`_TABLE_CACHE`.

Only counts beyond the code's correction radius ``t = (d_min - 1) // 2``
(:attr:`BlockCode.t`) are decoded.  Every pattern of at most ``t`` errors
is corrected by the minimum distance alone, so rows ``j <= t`` are filled
from that bound (``p_flag = p_bad = 0``) without decoding.  Their trial
words are still drawn, so the generator reaches each row ``j > t`` in the
same state - those rows do not depend on whether the settled rows were
decoded.  ``tests/oracle.py`` decodes every row word by word and must
agree bit for bit.

Rows ``j > t`` are decoded in packed groups: consecutive rows share one
``decode_batch`` call of at most :data:`_DECODE_WORDS` words, and the
result splits back by row (``decode_batch`` decodes each word as
``decode`` would, so no table moves).  At a few samples per row this
saves most of the per-call overhead; a group is decoded as soon as it is
full, so no more than one call's words are held.  A row of at least the
budget (400-sample rows) is one call on its own and allocates what
decoding it alone would.

Conditioning on counts (rather than raw Monte Carlo) is what lets the F2
sweep resolve failure probabilities of 1e-20 and below, far past what direct
simulation could sample.

All tables are measured in the p -> 0 limit where every erroneous
bit/symbol is a single flipped bit (the weak-cell regime the paper's sweep
covers); the contribution of multi-bit symbol corruption at p <= 1e-3 is
below the tables' sampling noise.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from ..codes.base import BlockCode
from ..codes.rs import ReedSolomonCode, SinglyExtendedRS
from ..faults.rng import trial_words
from ..obs import metrics as _obs


@dataclass
class WordConditionals:
    """P(flagged) and P(silently wrong) per error count j.

    Rows ``j <= code.t`` are zero by the distance bound, not measured.

    ``p_flag[j]``  - decoder reports detected-uncorrectable;
    ``p_bad[j]``   - decoder believes the word good but the data is wrong.
    """

    j_values: np.ndarray
    p_flag: np.ndarray
    p_bad: np.ndarray


_TABLE_CACHE: dict[tuple[object, ...], WordConditionals] = {}

#: most words one packed ``decode_batch`` call takes.  Sized from the
#: decoder's working set, which grows with the batch: growing the F2 sweep's
#: batches from 400 to about 1,200 words raised its peak RSS from 53 to
#: 71.5 MB, while a few hundred words already repay the per-call overhead.
_DECODE_WORDS = 512

# Observability (DESIGN.md 6e): how often a table was measured versus served
# from the cache - a process should measure each table once.
_C_BUILT = _obs.counter("reliability.tables.built")
_C_REUSED = _obs.counter("reliability.tables.reused")


def _cached(key: tuple[object, ...]) -> WordConditionals | None:
    table = _TABLE_CACHE.get(key)
    if _obs.enabled():
        (_C_BUILT if table is None else _C_REUSED).add(1)
    return table


def _code_key(code: BlockCode) -> tuple[object, ...]:
    """What makes two codes decode alike: class, shape, field and ``fcr``.

    A singly extended RS code keys on its inner code's ``fcr``.
    """
    field = getattr(code, "field", None)
    fcr = getattr(getattr(code, "inner", code), "fcr", None)
    gf = None if field is None else (field.m, field.poly)
    return (type(code).__name__, code.n, code.k, gf, fcr)


def _check_args(code: BlockCode, j_max: int, samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 <= j_max <= code.n:
        raise ValueError(f"j_max must be in [0, code.n={code.n}], got {j_max}")


def _decoded_rows(
    code: BlockCode,
    j_max: int,
    samples: int,
    draw: Callable[[int], tuple[np.ndarray, np.ndarray | int]],
    dtype: type,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Decode rows ``j > code.t`` in packed groups; yield ``(j, detected, data)``.

    ``draw(j)`` draws row ``j``'s trial words as ``(positions, values)``.
    It is called for every ``j`` in ``1..j_max`` in order, settled rows
    included, so the generator advances exactly as the row-by-row loop's.
    """
    for j in range(1, min(code.t, j_max) + 1):
        draw(j)  # corrected by the distance bound: the row stays zero
    rows = range(code.t + 1, j_max + 1)
    per_call = max(1, _DECODE_WORDS // samples)
    for start in range(0, len(rows), per_call):
        group = rows[start:start + per_call]
        words = np.zeros((len(group) * samples, code.n), dtype=dtype)
        for i, j in enumerate(group):
            positions, values = draw(j)
            block = words[i * samples:(i + 1) * samples]
            np.put_along_axis(block, positions, values, axis=1)
        decoded = code.decode_batch(words)
        detected, data = decoded.detected, decoded.data
        for i, j in enumerate(group):
            block = slice(i * samples, (i + 1) * samples)
            yield j, detected[block], data[block]


def measure_bit_code(
    code: BlockCode,
    j_max: int,
    samples: int = 2000,
    seed: int = 0,
    silent_on_detect: bool = False,
) -> WordConditionals:
    """Conditional table for a binary code (Hamming SEC / Hsiao SEC-DED).

    ``silent_on_detect`` models conventional IECC, which forwards raw data
    on detection instead of flagging: detections count as bad-if-wrong.
    Rows ``j <= code.t`` (single errors for SEC and SEC-DED) are settled by
    the distance and left zero; only rows ``j > code.t`` are decoded.
    """
    _check_args(code, j_max, samples)
    key = ("bit", *_code_key(code), j_max, samples, seed, silent_on_detect)
    cached = _cached(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng([seed, 0xC0DE])
    j_values = np.arange(j_max + 1)
    p_flag = np.zeros(j_max + 1)
    p_bad = np.zeros(j_max + 1)

    def draw(j: int) -> tuple[np.ndarray, int]:
        # Every trial word at once, drawn as a choice() loop would draw them.
        positions, _ = trial_words(rng, code.n, j, samples)
        return positions, 1

    for j, detected, data in _decoded_rows(code, j_max, samples, draw, np.uint8):
        flagged = np.zeros(samples, dtype=bool) if silent_on_detect else detected
        p_flag[j] = np.count_nonzero(flagged) / samples
        p_bad[j] = np.count_nonzero(~flagged & data.any(axis=1)) / samples
    table = WordConditionals(j_values, p_flag, p_bad)
    _TABLE_CACHE[key] = table
    return table


def measure_symbol_code(
    code: ReedSolomonCode | SinglyExtendedRS,
    j_max: int,
    samples: int = 1500,
    seed: int = 0,
) -> WordConditionals:
    """Conditional table for a symbol code (RS variants).

    Errors are j random symbol positions, each corrupted by one random bit
    flip among the ``m`` bits of the code's field GF(2^m).  Rows
    ``j <= code.t`` are settled by the distance (the code is MDS) and left
    zero; only rows ``j > code.t`` are decoded.

    No model calls this: the RS models take their rows from the floor.  It
    stays here because the benchmark's traced mode wraps it by name; it can
    move to ``tests/oracle.py`` with the benchmark's next change.
    """
    _check_args(code, j_max, samples)
    key = ("sym", *_code_key(code), j_max, samples, seed)
    cached = _cached(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng([seed, 0x5C0DE])
    j_values = np.arange(j_max + 1)
    p_flag = np.zeros(j_max + 1)
    p_bad = np.zeros(j_max + 1)

    def draw(j: int) -> tuple[np.ndarray, np.ndarray]:
        # Every trial word at once, drawn as a choice() + integers() loop
        # would draw them.
        positions, bits = trial_words(rng, code.n, j, samples, code.field.m)
        return positions, 1 << bits

    for j, detected, data in _decoded_rows(code, j_max, samples, draw, np.int64):
        p_flag[j] = np.count_nonzero(detected) / samples
        p_bad[j] = np.count_nonzero(~detected & data.any(axis=1)) / samples
    table = WordConditionals(j_values, p_flag, p_bad)
    _TABLE_CACHE[key] = table
    return table


def clear_cache() -> None:
    """Drop all measured tables (tests use this to control determinism)."""
    _TABLE_CACHE.clear()
