"""Bitsliced backend: XOR-plane arithmetic, one uint64 word = 64 trial lanes.

The log-table tier pays one gather per (row, syndrome, position) product;
at campaign scale (dense batches of dirty words - burst sweeps,
beyond-bound studies, saturated fault universes) those gathers dominate the
whole Monte-Carlo run.  This tier removes them entirely by moving the batch
axis into machine words:

* **Lane packing.**  The ``(rows, n)`` symbol matrix is transposed into
  ``m`` bit-planes of shape ``(n, W)`` uint64, ``W = ceil(rows / 64)``:
  lane ``b`` lives in bit ``b % 64`` of word ``b // 64``.  64 Monte-Carlo
  trials advance per machine instruction from here on.
* **Multiplication planes.**  Multiplication by a constant ``c`` is GF(2)-
  linear in the symbol bits: ``bit_o(mul(c, x)) = XOR_i M_c[o, i] bit_i(x)``.
  For a syndrome pass the constants are the Vandermonde entries
  ``V[j, pos]``, so the whole pass is fixed by a per-``(field, n, r, fcr)``
  tensor ``M[j, pos, o, i]`` - precomputed once, cached, and expanded to
  lane-splatted uint64 masks (all-ones where ``M`` is set).
* **The kernel.**  ``S_planes[j, o] = XOR_{pos,i} planes[pos, i] & mask``
  - pure AND/XOR streams over contiguous uint64 arrays, no gathers, no
  zero-symbol masking (the zero symbol contributes nothing to any plane by
  construction).  Exactly the bit-parallel XOR-plane formulation production
  DRAM-ECC evaluators use.

The result is bit-identical to the log-table tier: both compute the same
GF(2^m) sums, one symbol-at-a-time, one bit-plane-at-a-time.  The clean-row
screen and chunked dispatch are shared with the numpy tier; the Chien
screen is inherited unchanged.  It takes a ``(batch, degree + 1)`` locator
matrix, but its batch is the few hundred dirty words that survive the
key-equation solve, and it is one table gather per chunk; moving that onto
lanes was not needed (it is about 6% of a traced F2 sweep).

Regime note: this tier wins where batches are dense (every row dirty -
measured ~7x at 1024 rows, ~14x at 4096 on RS(255, 239) syndromes); the
numpy tier's sparse ``reduceat`` path stays ahead when rows carry only a
few nonzero symbols, which is why the registry keeps numpy as the default.
"""

from __future__ import annotations

import numpy as np

from ..gf2m import GF2m
from .base import record_syndrome_call, syndrome_tables
# Audited lateral import: the bitsliced tier deliberately delegates its
# Chien screen to the numpy tier (same results, no plane transposition);
# the delegation is part of the tier's documented contract, not substrate
# that could move into base.
from .numpy_backend import NumpyBackend  # repro: noqa-REPRO231

#: lane-splatted all-ones mask (the uint64 "true" of the plane algebra).
_ALL_LANES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: cached plane tensors per (field, n, r, fcr); see :func:`build_planes`.
PlaneTables = dict[str, np.ndarray]


def build_planes(field: GF2m, n: int, r: int, fcr: int) -> PlaneTables:
    """Multiplication-plane tensors for one syndrome-pass signature.

    Returns ``{"mask", "bits"}`` where ``mask[i, j, pos, o]`` is the
    lane-splatted uint64 (all-ones / all-zeros) of the GF(2)-linearised
    product bit ``bit_o(mul(V[j, pos], 2^i))``, laid out for the vectorised
    numpy kernel, and ``bits`` is the same tensor as compact uint8 flags in
    ``(i, pos, j, o)`` order for the jitted tier's scan.
    """
    m = field.m
    v, _ = syndrome_tables(field, n, r, fcr)
    basis = np.int64(1) << np.arange(m, dtype=np.int64)
    # products mul(V[j, pos], 2^i): (r, n, i); V is never zero (powers of
    # alpha), so no zero masking is needed.
    prods = np.asarray(field.mul(v[:, :, None], basis[None, None, :]))
    flags = ((prods[:, :, :, None] >> np.arange(m, dtype=np.int64)) & 1).astype(np.uint8)
    mask_iro = np.ascontiguousarray(flags.transpose(2, 0, 1, 3))  # (i, j, pos, o)
    return {
        "mask": np.where(mask_iro != 0, _ALL_LANES, np.uint64(0)),
        "bits": np.ascontiguousarray(flags.transpose(2, 1, 0, 3)),  # (i, pos, j, o)
    }


def pack_lanes(words: np.ndarray, m: int) -> np.ndarray:
    """``(rows, n)`` symbols -> ``(m, n, W)`` uint64 bit-planes.

    Lane ``b`` (row ``b`` of ``words``) occupies bit ``b % 64`` of plane
    word ``b // 64``; rows beyond ``rows`` are zero padding (the zero
    symbol is inert in every plane, so padding never contaminates a lane).
    """
    rows, n = words.shape
    lanes = ((rows + 63) // 64) * 64
    # Narrowest unsigned dtype that holds the symbols: the transpose copy
    # and the per-bit shift/mask sweep are memory-bound, so shrinking the
    # element cuts the packing cost ~4x for GF(256).
    dt = np.uint8 if m <= 8 else np.uint16
    padded = np.zeros((n, lanes), dtype=dt)
    padded[:, :rows] = words.T
    planes = np.empty((m, n, lanes // 64), dtype=np.uint64)
    one = dt(1)
    for i in range(m):
        bit = (padded >> dt(i)) & one
        planes[i] = np.packbits(bit, axis=-1, bitorder="little").view(np.uint64)
    return planes


def unpack_lanes(acc: np.ndarray, rows: int) -> np.ndarray:
    """``(r, m, W)`` syndrome bit-planes -> ``(rows, r)`` int64 symbols."""
    r, m, _ = acc.shape
    vals = np.zeros((r, acc.shape[2] * 64), dtype=np.int64)
    for o in range(m):
        plane = np.ascontiguousarray(acc[:, o, :]).view(np.uint8)
        vals |= np.unpackbits(plane, axis=-1, bitorder="little").astype(np.int64) << np.int64(o)
    return vals[:, :rows].T


class BitslicedBackend(NumpyBackend):
    """XOR-plane tier in vectorised numpy bit-ops (no optional deps).

    Inherits the batched Chien screen from the numpy tier and replaces the
    syndrome pass with the plane kernel.
    """

    name = "bitsliced"

    def __init__(self) -> None:
        self._plane_cache: dict[tuple[GF2m, int, int, int], PlaneTables] = {}

    def planes(self, field: GF2m, n: int, r: int, fcr: int) -> PlaneTables:
        """Cached multiplication planes for one ``(field, n, r, fcr)``."""
        key = (field, n, r, fcr)
        cached = self._plane_cache.get(key)
        if cached is None:
            cached = build_planes(field, n, r, fcr)
            self._plane_cache[key] = cached
        return cached

    def syndromes(
        self, field: GF2m, words: np.ndarray, r: int, fcr: int, chunk: int = 2048
    ) -> np.ndarray:
        batch, n = words.shape
        out = np.zeros((batch, r), dtype=np.int64)
        dirty = np.flatnonzero(self.clean_row_mask(words))
        record_syndrome_call(self.name, batch, batch - int(dirty.size))
        if dirty.size == 0:
            return out
        tables = self.planes(field, n, r, fcr)
        for start in range(0, dirty.size, chunk):
            rows = dirty[start : start + chunk]
            lanes = pack_lanes(words[rows], field.m)
            out[rows] = unpack_lanes(self._accumulate(tables, lanes), rows.size)
        return out

    def _accumulate(self, tables: PlaneTables, lanes: np.ndarray) -> np.ndarray:
        """``acc[j, o, w] = XOR_{pos,i} mask[i, j, pos, o] & lanes[i, pos, w]``."""
        mask = tables["mask"]
        m = mask.shape[0]
        acc = np.zeros((mask.shape[1], mask.shape[3], lanes.shape[2]), dtype=np.uint64)
        for i in range(m):
            acc ^= np.bitwise_xor.reduce(
                mask[i][:, :, :, None] & lanes[i][None, :, None, :], axis=1
            )
        return acc

    def clear_cache(self) -> None:
        self._plane_cache.clear()
        super().clear_cache()

    def cache_info(self) -> dict[str, int]:
        """Introspection for tests: number of cached plane signatures."""
        return {"plane_signatures": len(self._plane_cache)}
