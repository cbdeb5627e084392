"""Backend contract and shared substrate for the GF(2^m) batch kernels.

A *kernel backend* implements the three operations the Monte-Carlo hot path
is built on:

* the **batched syndrome pass** (``syndromes``) - the screen that separates
  clean words from the dirty minority;
* the **Chien screen** (``chien_roots``) - locator-root search over the
  valid coefficient indices of a (possibly shortened) codeword, for a whole
  ``(batch, degree + 1)`` matrix of locators at once;
* the **clean-row screen** (``clean_row_mask``) - the all-zero-row skip
  every engine applies before touching field arithmetic.

Backends must be *bit-identical*: for any valid input, every backend
returns exactly the arrays the reference numpy backend returns (the
equivalence suite in ``tests/galois/test_backends.py`` enforces this across
fields, code shapes and fault patterns).  They may differ only in speed and
in the precomputed state they cache; that state is surrendered through
:meth:`KernelBackend.clear_cache`, which ``repro.galois.batch.clear_cache``
fans out to every registered backend.

The per-``(field, n, r, fcr)`` Vandermonde tables live here rather than in
any one backend because every tier derives its precomputed state from them
(the numpy backend indexes them directly; the bitsliced tiers expand them
into XOR planes).
"""

from __future__ import annotations

import abc

import numpy as np

from ...obs import metrics as _obs
from ..gf2m import GF2m

# Keyed by (field, n, r, fcr); GF2m hashes by (m, poly) so unpickled field
# instances in worker processes still hit the same entries.
_VANDERMONDE_CACHE: dict[tuple[GF2m, int, int, int], tuple[np.ndarray, np.ndarray]] = {}

# Kernel-level observability (DESIGN.md 6e/6f): recorded per *batch call*
# (never per row) and only behind the ``_obs.enabled()`` guard.  The
# ``galois.syndromes.*`` family is backend-agnostic (totals across tiers);
# the ``galois.backend.<name>.*`` family attributes the same work to the
# backend that performed it, so a campaign's obs report shows which tier
# actually ran.
_C_CALLS = _obs.counter("galois.syndromes.calls")
_C_ROWS = _obs.counter("galois.syndromes.rows")
_C_CLEAN = _obs.counter("galois.syndromes.clean_rows")

# Holds obs *counter handles*, not per-field data tables: the handles are
# interned by name inside repro.obs (re-creating one returns the same
# object), so clearing this dict would change nothing observable.
_PER_BACKEND: dict[str, tuple[_obs.Counter, _obs.Counter]] = {}  # repro: noqa-REPRO232


def _backend_counters(name: str) -> tuple[_obs.Counter, _obs.Counter]:
    got = _PER_BACKEND.get(name)
    if got is None:
        got = (
            _obs.counter(f"galois.backend.{name}.syndrome_calls"),
            _obs.counter(f"galois.backend.{name}.syndrome_rows"),
        )
        _PER_BACKEND[name] = got
    return got


def record_syndrome_call(backend_name: str, rows: int, clean: int) -> None:
    """Fold one syndrome batch into the kernel metrics (obs-enabled only)."""
    if not _obs.enabled():
        return
    _C_CALLS.add(1)
    _C_ROWS.add(rows)
    _C_CLEAN.add(clean)
    calls, dirty_rows = _backend_counters(backend_name)
    calls.add(1)
    dirty_rows.add(rows - clean)


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


def clear_vandermonde_cache() -> None:
    """Drop the shared Vandermonde tables (part of ``batch.clear_cache``)."""
    _VANDERMONDE_CACHE.clear()


class KernelBackend(abc.ABC):
    """One implementation tier of the GF(2^m) batch kernels.

    Subclasses are stateless apart from their precomputed-table caches and
    are registered as process-wide singletons in
    :mod:`repro.galois.backends`.  All inputs arrive validated (``words`` is
    a ``(batch, n)`` ``int64`` matrix of symbols in ``[0, 2^m)``); all
    outputs must be bit-identical to :class:`~.numpy_backend.NumpyBackend`.
    """

    #: registry key; also the value accepted by ``REPRO_GF_BACKEND``.
    name: str = "abstract"

    @abc.abstractmethod
    def syndromes(
        self, field: GF2m, words: np.ndarray, r: int, fcr: int, chunk: int = 2048
    ) -> np.ndarray:
        """``(batch, r)`` syndromes ``out[b, j] = R_b(alpha^(fcr + j))``.

        Implementations must skip rows selected out by
        :meth:`clean_row_mask` (their syndromes are zero by linearity) and
        process the dirty remainder at most ``chunk`` rows at a time.
        """

    @abc.abstractmethod
    def chien_roots(
        self, field: GF2m, n: int, locators: np.ndarray, chunk: int = 1 << 16
    ) -> np.ndarray:
        """``(batch, n)`` root mask: ``out[b, c]`` iff ``locators[b](alpha^-c) = 0``.

        ``locators`` is a ``(batch, width)`` ``int64`` matrix of ascending
        coefficients (rows shorter than ``width`` are zero-padded).
        Implementations must bound their working set to about ``chunk``
        evaluated terms at a time.
        """

    def clean_row_mask(self, words: np.ndarray) -> np.ndarray:
        """Boolean mask of rows that carry at least one nonzero symbol."""
        return words.any(axis=1)

    @abc.abstractmethod
    def clear_cache(self) -> None:
        """Drop every precomputed table this backend holds.

        Called by ``repro.galois.batch.clear_cache`` so tests and long
        campaigns cannot hold stale per-field state across field rebuilds.
        """

    def describe(self) -> dict[str, object]:
        """One row of ``python -m repro backends`` output."""
        return {"name": self.name, "available": True, "reason": None}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
