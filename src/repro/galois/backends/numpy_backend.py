"""Reference backend: log/antilog table lookups in vectorised numpy.

This is PR 1's batched kernel, unchanged in behaviour - the always-available
fallback tier and the bit-identity reference every other backend is tested
against.  Products are computed as ``exp[log C + log V]`` with zero masking,
XOR-reduced along the symbol axis; sparse rows (controlled error-injection
words) take a ``nonzero``/``reduceat`` path in O(nnz * r) instead of
O(rows * n * r).
"""

from __future__ import annotations

import numpy as np

from ...obs import metrics as _obs
from ..gf2m import GF2m
from .base import KernelBackend, record_syndrome_call, syndrome_tables

# numpy-tier path split, recorded per batch call behind the obs guard.
_C_SPARSE = _obs.counter("galois.syndromes.sparse_path_rows")
_C_DENSE = _obs.counter("galois.syndromes.dense_path_rows")

# -- Chien-search tables, cached per (field, n) ------------------------------
#
# A Chien search evaluates the locator at every point ``alpha^-c`` for
# ``c = 0..n-1``.  Both the point array and the log-domain power matrix
# ``logm[j, c] = log(alpha^(-c*j))`` are cached so decodes stop rebuilding
# them per call; the evaluation itself is one fancy-indexed exp-lookup per
# chunk of locator rows (zero coefficients read the zero-absorbing tail of
# ``GF2m.zero_tables``), XOR-reduced over the coefficient axis.

_CHIEN_CACHE: dict[tuple[GF2m, int], dict[str, np.ndarray]] = {}


def chien_tables(field: GF2m, n: int, degree: int) -> dict[str, np.ndarray]:
    """Cached Chien point/log tables covering locators up to ``degree``."""
    key = (field, n)
    entry = _CHIEN_CACHE.get(key)
    need = degree + 1
    if entry is None or entry["logm"].shape[0] < need:
        rows = max(need, 2 * entry["logm"].shape[0] if entry else 8)
        c = np.arange(n, dtype=np.int64)
        j = np.arange(rows, dtype=np.int64)
        logm = (-(j[:, None] * c[None, :])) % (field.order - 1)
        entry = {"logm": logm, "points": field._exp[logm[1] if rows > 1 else logm[0]]}
        _CHIEN_CACHE[key] = entry
    return entry


class NumpyBackend(KernelBackend):
    """Log-table reference tier (pure numpy, no optional dependencies)."""

    name = "numpy"

    def syndromes(
        self, field: GF2m, words: np.ndarray, r: int, fcr: int, chunk: int = 2048
    ) -> np.ndarray:
        batch, n = words.shape
        out = np.zeros((batch, r), dtype=np.int64)
        nonzero = words != 0
        nnz_per_row = nonzero.sum(axis=1)
        dirty = np.flatnonzero(nnz_per_row)
        record_syndrome_call(self.name, batch, batch - int(dirty.size))
        if dirty.size == 0:
            return out
        _, logv = syndrome_tables(field, n, r, fcr)
        nnz = int(nnz_per_row.sum())
        if nnz * 8 <= dirty.size * n:
            if _obs.enabled():
                _C_SPARSE.add(int(dirty.size))
            # Sparse rows (e.g. controlled error-injection words): work on the
            # nonzero entries only - O(nnz * r) instead of O(rows * n * r).
            rows, poss = np.nonzero(words)  # row-major, so `rows` is sorted
            prod = field._exp[field._log[words[rows, poss]][:, None] + logv[:, poss].T]
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            out[rows[starts]] = np.bitwise_xor.reduceat(prod, starts, axis=0)
            return out
        if _obs.enabled():
            _C_DENSE.add(int(dirty.size))
        for start in range(0, dirty.size, chunk):
            rows = dirty[start : start + chunk]
            sub = words[rows]  # (c, n)
            logw = field._log[sub]  # (c, n); log[0] = -1 sentinel
            # exp is laid out so any index in [-1, 2*(order-1)) is safe to
            # read; products at zero symbols are masked before the reduction.
            prod = field._exp[logw[:, None, :] + logv[None, :, :]]
            prod[np.broadcast_to((sub == 0)[:, None, :], prod.shape)] = 0
            out[rows] = np.bitwise_xor.reduce(prod, axis=2)
        return out

    def chien_roots(
        self, field: GF2m, n: int, locators: np.ndarray, chunk: int = 1 << 16
    ) -> np.ndarray:
        rows, width = locators.shape
        logm = chien_tables(field, n, width - 1)["logm"][:width]
        exp_z, log_z = field.zero_tables()
        out = np.empty((rows, n), dtype=bool)
        step = max(1, chunk // (width * n))
        for start in range(0, rows, step):
            logc = log_z[locators[start : start + step]]
            terms = exp_z[logc[:, :, None] + logm[None, :, :]]
            out[start : start + step] = np.bitwise_xor.reduce(terms, axis=1) == 0
        return out

    def clear_cache(self) -> None:
        _CHIEN_CACHE.clear()
