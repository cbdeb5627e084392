"""Batched GF(2^m) kernels for array-at-a-time Reed-Solomon decoding.

The Monte-Carlo reliability engines decode millions of codewords, the
overwhelming majority of which are clean.  These kernels turn the per-word
syndrome pass - the screen that separates clean words from the dirty
minority - into one log-domain matrix multiply over the whole batch:

    S = C . V^T

where ``C`` is the ``(batch, n)`` received-word matrix and ``V`` the
``(r, n)`` Vandermonde matrix of generator-root powers.  ``V`` (and its log
table) is cached per ``(field, n, r, fcr)``.

Input validation and degenerate-shape handling live here; the arithmetic
itself lives in :mod:`repro.galois.backends`.
"""

from __future__ import annotations

import numpy as np

from .backends import KERNEL, syndrome_tables
from .gf2m import GF2m

__all__ = ["batch_syndromes", "check_symbols", "syndrome_tables", "clear_cache"]


def check_symbols(field: GF2m, words: np.ndarray) -> None:
    """Raise ``ValueError`` unless every symbol of ``words`` lies in ``[0, 2^m)``.

    ``words`` is a ``(batch, n)`` integer matrix; the error names the first
    offending row, its position and its value.
    """
    # One reduction and no temporary: the OR of all symbols has a bit at or
    # above m (the sign bit included) iff some symbol is negative or >= 2^m.
    if not np.bitwise_or.reduce(words, axis=None) >> field.m:
        return
    row, pos = np.argwhere((words < 0) | (words >= field.order))[0]
    raise ValueError(
        f"row {row}, position {pos}: symbol {words[row, pos]} is outside "
        f"GF(2^{field.m}) [0, {field.order})"
    )


def batch_syndromes(
    field: GF2m, words: np.ndarray, r: int, fcr: int, chunk: int = 2048
) -> np.ndarray:
    """Syndromes of a whole batch of received words in one vectorised pass.

    ``words`` is ``(batch, n)``; returns ``(batch, r)`` with
    ``out[b, j] = R_b(alpha^(fcr + j))``.  Rows that are entirely zero are
    skipped outright (their syndromes are zero by linearity) - in the
    Monte-Carlo engines that is the common case, so the multiply only runs
    over the nonzero minority, ``chunk`` rows at a time to bound the
    per-chunk intermediates.
    """
    words = np.asarray(words, dtype=np.int64)
    if words.ndim != 2:
        raise ValueError(f"expected (batch, n) matrix, got {words.shape}")
    check_symbols(field, words)
    batch, n = words.shape
    if r == 0 or n == 0:
        return np.zeros((batch, r), dtype=np.int64)
    return KERNEL.syndromes(field, words, r, fcr, chunk)


def clear_cache() -> None:
    """Drop every cached kernel table: Vandermonde and Chien."""
    KERNEL.clear_cache()
