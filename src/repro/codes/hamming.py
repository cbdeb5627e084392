"""Binary Hamming-family codes used by the baseline IECC schemes.

* :class:`HammingSEC` - shortened Hamming single-error-correcting code; the
  DDR5-style on-die (136, 128) code is ``HammingSEC(136, 128)``.
* :class:`HsiaoSECDED` - odd-weight-column single-error-correcting,
  double-error-detecting code; the classic rank-level (72, 64) code.

Both are defined by an explicit parity-check matrix so that tests can verify
distance properties, and both report *detected* rather than silently wrapping
when a syndrome falls outside the used column set (which happens for
shortened codes and is exactly the effect XED exploits).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..galois import linalg2
from .base import (
    STATUS_CORRECTED,
    STATUS_DETECTED,
    STATUS_OK,
    BatchDecode,
    BlockCode,
    DecodeResult,
    OutcomeCounters,
)

# Decode-path observability (DESIGN.md 6e), counted per decode_batch call.
_OUTCOMES = OutcomeCounters("hamming.decode")


def _as_bits(values: np.ndarray) -> np.ndarray:
    """``values`` as a uint8 array; ``ValueError`` unless every entry is 0 or 1.

    The check runs before the cast, so a 2, a -1 or a 257 cannot fold into
    a bit; the error names the first offending entry (row and position for
    a matrix).
    """
    values = np.asarray(values)
    if values.dtype.kind == "b":
        return values.astype(np.uint8)
    if values.dtype.kind in "iu":
        # One reduction: the OR of all entries has a bit above bit 0 (the
        # sign bit included) iff some entry is negative or >= 2.
        if not np.bitwise_or.reduce(values, axis=None) >> 1:
            return values.astype(np.uint8, copy=False)
    elif not np.any((values != 0) & (values != 1)):
        return values.astype(np.uint8)
    index = np.argwhere((values != 0) & (values != 1))[0]
    where = f"position {index[-1]}" if len(index) == 1 else f"row {index[0]}, position {index[1]}"
    raise ValueError(f"{where}: {values[tuple(index)]} is not a bit (0 or 1)")


def _byte_tables(column_values: np.ndarray) -> np.ndarray:
    """Per-byte XOR tables of the parity-check columns, ``(ceil(n/8), 256)``.

    Entry ``[b, v]`` is the XOR of the columns of bits ``8b..8b+7``
    set in byte value ``v`` (bit ``i`` of ``v`` is bit ``8b + i`` of the
    word, as ``np.packbits(..., bitorder="little")`` packs it).  Bits past
    ``n`` in the last byte have zero columns.
    """
    n_bytes = -(-len(column_values) // 8)
    columns = np.zeros(8 * n_bytes, dtype=np.intp)
    columns[: len(column_values)] = column_values
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return np.bitwise_xor.reduce(bits * columns.reshape(n_bytes, 1, 8), axis=2)


def _batch_syndrome_values(words: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Integer syndrome of every row: XOR of column values at set bits.

    Each packed byte of a row gathers its entry of :func:`_byte_tables`
    (one gather for all of them) and the entries XOR together; XOR is
    exact, so this equals the XOR of the columns bit by bit.
    """
    packed = np.packbits(words, axis=1, bitorder="little")
    offsets = np.arange(0, tables.size, tables.shape[1])
    return np.bitwise_xor.reduce(tables.ravel()[packed + offsets], axis=1)


class _ParityCheckCode(BlockCode):
    """A systematic binary code given by its parity-check columns.

    ``columns[i]`` is the ``r``-bit syndrome of a single error at bit ``i``:
    data columns first, then the parity unit vectors, so the codeword is
    data bits followed by parity bits.  A nonzero syndrome that is a column
    is corrected at that bit; any other is detected.
    """

    def __init__(self, n: int, k: int, columns: list[int]):
        r = n - k
        self.n = n
        self.k = k
        self._columns = columns
        h = np.zeros((r, n), dtype=np.uint8)
        for idx, value in enumerate(columns):
            for j in range(r):
                h[j, idx] = (value >> j) & 1
        self.H = h
        self._syndrome_tables = _byte_tables(np.asarray(columns, dtype=np.intp))
        # Per r-bit syndrome value: the bit it corrects (-1 for none), and
        # the decode status.  The zero syndrome is no column.
        self._position_lookup = np.full(1 << r, -1, dtype=np.int64)
        self._position_lookup[columns] = np.arange(n)
        self._status_lookup = np.full(1 << r, STATUS_DETECTED, dtype=np.int8)
        self._status_lookup[columns] = STATUS_CORRECTED
        self._status_lookup[0] = STATUS_OK
        self._positions = np.arange(n)

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = _as_bits(data)
        if data.shape != (self.k,):
            raise ValueError(f"expected {self.k} data bits, got {data.shape}")
        parity = linalg2.matvec(self.H[:, : self.k], data)
        return np.concatenate([data, parity])

    def decode(self, received: np.ndarray) -> DecodeResult:
        received = np.asarray(received)
        if received.shape != (self.n,):
            raise ValueError(f"expected {self.n} bits, got {received.shape}")
        return self.decode_batch(received[None, :]).row(0)

    def decode_batch(self, words: np.ndarray) -> BatchDecode:
        """Decode a ``(batch, n)`` bit matrix with one vectorised syndrome pass.

        Row ``i`` of the result equals :meth:`decode` of ``words[i]``.
        """
        words = np.asarray(words)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"expected (batch, {self.n}) matrix, got {words.shape}")
        words = _as_bits(words)
        synds = _batch_syndrome_values(words, self._syndrome_tables)
        status = self._status_lookup[synds]
        corrected = self._position_lookup[synds][:, None] == self._positions
        codewords = words ^ corrected
        _OUTCOMES.record(status)
        return BatchDecode(status, codewords, corrected, self.k)


class HammingSEC(_ParityCheckCode):
    """Shortened Hamming single-error-correcting code.

    Columns of the parity-check matrix are distinct nonzero ``r``-bit values;
    data columns use multi-weight values (so the code is systematic) and
    parity columns use unit vectors.  Codeword layout is data bits followed by
    parity bits.  A syndrome outside the used column set (possible because
    the code is shortened) is detected.
    """

    def __init__(self, n: int, k: int):
        r = n - k
        if n > (1 << r) - 1:
            raise ValueError(f"({n},{k}) exceeds Hamming bound: n <= 2^r - 1")
        data_columns = []
        for value in range(3, 1 << r):
            if value & (value - 1):  # weight >= 2: not a parity unit column
                data_columns.append(value)
            if len(data_columns) == k:
                break
        if len(data_columns) < k:
            raise ValueError(f"cannot build ({n},{k}) Hamming code")
        super().__init__(n, k, data_columns + [1 << j for j in range(r)])

    @property
    def d_min(self) -> int:
        return 3

    def miscorrection_fraction(self) -> float:
        """Fraction of *double*-bit errors that silently miscorrect.

        A double error produces the XOR of two columns; it miscorrects when
        that value is itself a used column.  Computed exactly by enumeration.
        """
        columns = self._columns
        used = set(columns)
        total = 0
        bad = 0
        for a, b in itertools.combinations(columns, 2):
            total += 1
            if (a ^ b) in used:
                bad += 1
        return bad / total


class HsiaoSECDED(_ParityCheckCode):
    """Hsiao odd-weight-column SEC-DED code, e.g. the rank-level (72, 64).

    All parity-check columns have odd weight, so every double error has an
    even-weight (hence non-column) syndrome and is always detected.
    """

    def __init__(self, n: int, k: int):
        r = n - k
        odd_columns: list[int] = []
        # Prefer low weights (fewer XOR gates), the classic Hsiao heuristic.
        for weight in range(1, r + 1, 2):
            for ones in itertools.combinations(range(r), weight):
                odd_columns.append(sum(1 << j for j in ones))
        if len(odd_columns) < n:
            raise ValueError(f"cannot build ({n},{k}) Hsiao code")
        parity_columns = [1 << j for j in range(r)]
        data_columns = [c for c in odd_columns if c not in set(parity_columns)][:k]
        if len(data_columns) < k:
            raise ValueError(f"cannot build ({n},{k}) Hsiao code")
        super().__init__(n, k, data_columns + parity_columns)

    @property
    def d_min(self) -> int:
        return 4
