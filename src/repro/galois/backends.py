"""The GF(2^m) batch kernel: the syndrome screen and the Chien search.

Every Reed-Solomon decode in the reliability pipeline runs through the two
operations of :class:`KernelBackend`:

* the **batched syndrome pass** (``syndromes``) - the screen that separates
  clean words from the dirty minority;
* the **Chien search** (``chien_roots``) - locator-root search over the
  valid coefficient indices of a (possibly shortened) codeword, for a whole
  ``(batch, degree + 1)`` matrix of locators at once.

Both are log/antilog table lookups in vectorised numpy.  Products are
computed as ``exp[log C + log V]`` with zero masking, XOR-reduced along the
symbol axis; sparse rows (controlled error-injection words) take a
``nonzero``/``reduceat`` path in O(nnz * r) instead of O(rows * n * r).
The Vandermonde and Chien tables are cached per field and code shape;
:meth:`KernelBackend.clear_cache` drops both (DESIGN.md 6f).

The kernel is reached through the one instance :data:`KERNEL`, whose
methods are looked up on the class at call time, so a profiler that wraps
``KernelBackend.syndromes`` or ``KernelBackend.chien_roots`` sees every call.
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics as _obs
from .gf2m import GF2m

# Kernel-level observability (DESIGN.md 6e): recorded per *batch call*
# (never per row) and only behind the ``_obs.enabled()`` guard.
_C_CALLS = _obs.counter("galois.syndromes.calls")
_C_ROWS = _obs.counter("galois.syndromes.rows")
_C_CLEAN = _obs.counter("galois.syndromes.clean_rows")
_C_SPARSE = _obs.counter("galois.syndromes.sparse_path_rows")
_C_DENSE = _obs.counter("galois.syndromes.dense_path_rows")

# Keyed by (field, n, r, fcr); GF2m hashes by (m, poly) so unpickled field
# instances in worker processes still hit the same entries.
_VANDERMONDE_CACHE: dict[tuple[GF2m, int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def syndrome_tables(field: GF2m, n: int, r: int, fcr: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``(V, logV)`` Vandermonde tables for syndrome computation.

    ``V[j, pos] = alpha^((fcr + j) * coeff)`` with ``coeff = n - 1 - pos``
    (codeword position ``pos`` holds polynomial coefficient ``n - 1 - pos``),
    so ``S_j = XOR_pos mul(word[pos], V[j, pos])``.  ``logV`` holds the
    discrete logs, precomputed for the log-domain batch multiply.
    """
    key = (field, n, r, fcr)
    cached = _VANDERMONDE_CACHE.get(key)
    if cached is None:
        coeff = np.arange(n - 1, -1, -1, dtype=np.int64)
        exps = ((fcr + np.arange(r, dtype=np.int64)[:, None]) * coeff[None, :]) % (
            field.order - 1
        )
        v = field._exp[exps]
        cached = (v, exps)  # log(alpha^e) = e for e in [0, order-1)
        _VANDERMONDE_CACHE[key] = cached
    return cached


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


class KernelBackend:
    """The GF(2^m) batch kernel and its table caches.

    Inputs arrive validated: ``words`` is a ``(batch, n)`` ``int64`` matrix
    of symbols in ``[0, 2^m)`` (see ``repro.galois.batch.batch_syndromes``).
    """

    name = "numpy"

    def syndromes(
        self, field: GF2m, words: np.ndarray, r: int, fcr: int, chunk: int = 2048
    ) -> np.ndarray:
        """``(batch, r)`` syndromes ``out[b, j] = R_b(alpha^(fcr + j))``.

        All-zero rows are skipped (their syndromes are zero by linearity);
        the dirty remainder is processed at most ``chunk`` rows at a time.
        """
        batch, n = words.shape
        out = np.zeros((batch, r), dtype=np.int64)
        nonzero = words != 0
        nnz_per_row = nonzero.sum(axis=1)
        dirty = np.flatnonzero(nnz_per_row)
        if _obs.enabled():
            _C_CALLS.add(1)
            _C_ROWS.add(batch)
            _C_CLEAN.add(batch - int(dirty.size))
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
        """``(batch, n)`` root mask: ``out[b, c]`` iff ``locators[b](alpha^-c) = 0``.

        ``locators`` is a ``(batch, width)`` ``int64`` matrix of ascending
        coefficients (rows shorter than ``width`` are zero-padded).  The
        working set is bounded to about ``chunk`` evaluated terms at a time.
        """
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
        """Drop the Vandermonde and Chien tables (``galois.batch.clear_cache``)."""
        _VANDERMONDE_CACHE.clear()
        _CHIEN_CACHE.clear()


#: the kernel every syndrome screen and Chien search runs on.
KERNEL = KernelBackend()


def set_backend(name: str) -> KernelBackend:
    """Accept ``"numpy"``, the only kernel; raise ``ValueError`` otherwise.

    Exists only for the pinned ``perfbench`` benchmark, which selects its
    kernel by name; it holds no state.
    """
    if name != KERNEL.name:
        raise ValueError(f"unknown GF kernel {name!r}; the only kernel is {KERNEL.name!r}")
    return KERNEL


def backends_report() -> dict[str, object]:
    """A fixed one-row description of the kernel.

    Exists only for the pinned ``perfbench`` benchmark, which records it
    with each run's environment.
    """
    return {
        "kind": "gf_backends",
        "active": KERNEL.name,
        "backends": [{"name": KERNEL.name, "available": True, "active": True}],
    }
