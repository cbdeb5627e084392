"""Finite-field arithmetic over GF(2^m).

This module provides table-driven arithmetic for the binary extension fields
used throughout the library.  The Reed-Solomon machinery in
:mod:`repro.codes.rs` works over any ``GF2m`` instance; the PAIR architecture
uses GF(2^8) because its symbols are byte-sized slices of a DQ pin line.

The implementation is deliberately self-contained: log/antilog tables are
built once per field and all elementwise operations accept numpy arrays so
that Monte-Carlo reliability runs can stay vectorised.
"""

from __future__ import annotations

from typing import TypeAlias, Union

import numpy as np

#: A single GF(2^m) symbol stored as a plain integer.  Annotating a value
#: ``GFScalar`` (or ``GFArray``) marks it as field-domain for the REPRO111
#: GF-safety rule: raw ``*``/``/``/``**``/``%`` on it is flagged; arithmetic
#: must go through the :class:`GF2m` kernels (XOR is the field addition).
GFScalar: TypeAlias = int

#: A numpy integer array of GF(2^m) symbols (same REPRO111 marker semantics).
GFArray: TypeAlias = np.ndarray

#: Accepted by the elementwise kernels: one symbol or an array of them.
GFValues: TypeAlias = Union[GFScalar, GFArray]

#: Row-indexed multiplication table from :meth:`GF2m.mul_rows`:
#: ``mt[a][b] == mul(a, b)`` (dense lists for small fields, an on-the-fly
#: view for large ones).
MulRows: TypeAlias = "list[list[int]] | _OnTheFlyMulRows"

# Default primitive polynomials for GF(2^m), expressed as integers whose bits
# are the polynomial coefficients (bit m is the leading x^m term).  These are
# the conventional choices (e.g. 0x11D = x^8+x^4+x^3+x^2+1 for GF(2^8), the
# polynomial used by most storage-class RS codecs).
PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0x11D,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0x1100B,
}


class GF2m:
    """The finite field GF(2^m) with table-driven arithmetic.

    Elements are represented as Python ints or numpy integer arrays in
    ``[0, 2^m)``.  Addition is XOR; multiplication, division, inversion and
    exponentiation go through log/antilog tables keyed by a primitive element
    ``alpha`` (the root of the primitive polynomial).

    Parameters
    ----------
    m:
        Extension degree; the field has ``2^m`` elements.
    primitive_poly:
        Optional primitive polynomial (integer bit representation).  Defaults
        to the standard polynomial for ``m`` from ``PRIMITIVE_POLYNOMIALS``.
    """

    def __init__(self, m: int, primitive_poly: int | None = None):
        if m not in PRIMITIVE_POLYNOMIALS and primitive_poly is None:
            raise ValueError(f"no default primitive polynomial for m={m}")
        if not 2 <= m <= 16:
            raise ValueError(f"m must be in [2, 16], got {m}")
        self.m = m
        self.order = 1 << m
        self.poly = primitive_poly if primitive_poly is not None else PRIMITIVE_POLYNOMIALS[m]
        if self.poly >> m != 1:
            raise ValueError(
                f"primitive polynomial {self.poly:#x} does not have degree {m}"
            )
        self._build_tables()

    def _build_tables(self) -> None:
        size = self.order
        exp = np.zeros(2 * size, dtype=np.int64)
        log = np.zeros(size, dtype=np.int64)
        x = 1
        for i in range(size - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & size:
                x ^= self.poly
        if x != 1:
            raise ValueError(f"polynomial {self.poly:#x} is not primitive for m={self.m}")
        # Duplicate the exp table so products of logs index without a modulo.
        exp[size - 1 : 2 * (size - 1)] = exp[: size - 1]
        exp[2 * (size - 1) :] = exp[: 2 * size - 2 * (size - 1)]
        log[0] = -1  # sentinel: log of zero is undefined
        self._exp = exp
        self._log = log
        self._zero_tables: tuple[np.ndarray, np.ndarray] | None = None
        # Plain-list mirrors of the tables: indexing a Python list with a
        # Python int is ~5x faster than indexing a numpy array, which is what
        # the scalar Reed-Solomon key-equation solver spends its time on.
        self._exp_list: list[int] = exp.tolist()
        self._log_list: list[int] = log.tolist()
        self._mul_rows_cache: list[list[int]] | _OnTheFlyMulRows | None = None

    def zero_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(exp_z, log_z)``: log/antilog tables that absorb zero.

        ``log_z[0]`` is a sentinel past every sum of two real logs and every
        index from ``2 * (order - 1)`` on reads zero, so a product of
        possibly-zero symbols is ``exp_z[log_z[a] + log_z[b]]`` with no
        masking.  Built on first use (only the batched decode kernels need
        them).
        """
        if self._zero_tables is None:
            zero_log = 2 * (self.order - 1)
            log_z = self._log.copy()
            log_z[0] = zero_log
            exp_z = np.zeros(2 * zero_log + 1, dtype=np.int64)
            exp_z[:zero_log] = self._exp[:zero_log]
            self._zero_tables = (exp_z, log_z)
        return self._zero_tables

    # -- scalar/array arithmetic ------------------------------------------

    def add(self, a: GFValues, b: GFValues) -> GFValues:
        """Field addition (XOR); works on ints and numpy arrays alike."""
        return a ^ b

    sub = add  # characteristic 2: subtraction is addition

    def mul(self, a: GFValues, b: GFValues) -> GFValues:
        """Field multiplication of scalars or same-shape numpy arrays."""
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        return np.where(zero, 0, out)

    def inv(self, a: GFValues) -> GFValues:
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if isinstance(a, (int, np.integer)):
            if a == 0:
                raise ZeroDivisionError("inverse of zero in GF(2^m)")
            return int(self._exp[(self.order - 1) - self._log[a]])
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero in GF(2^m)")
        return self._exp[(self.order - 1) - self._log[a]]

    def div(self, a: GFValues, b: GFValues) -> GFValues:
        """Field division ``a / b``."""
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            if b == 0:
                raise ZeroDivisionError("division by zero in GF(2^m)")
            if a == 0:
                return 0
            return int(self._exp[self._log[a] - self._log[b] + (self.order - 1)])
        a = np.asarray(a)
        b = np.asarray(b)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^m)")
        out = self._exp[self._log[a] - self._log[b] + (self.order - 1)]
        return np.where(a == 0, 0, out)

    def pow(self, a: GFValues, e: int) -> GFValues:
        """Raise ``a`` to integer power ``e`` (negative allowed for nonzero a)."""
        if isinstance(a, (int, np.integer)):
            if a == 0:
                if e == 0:
                    return 1
                if e < 0:
                    raise ZeroDivisionError("negative power of zero")
                return 0
            return int(self._exp[(self._log[a] * e) % (self.order - 1)])
        a = np.asarray(a)
        if e < 0 and np.any(a == 0):
            raise ZeroDivisionError("negative power of zero")
        out = self._exp[(self._log[a] * e) % (self.order - 1)]
        if e == 0:
            return np.ones_like(a)
        return np.where(a == 0, 0, out)

    def alpha_pow(self, e: int) -> GFScalar:
        """Return ``alpha^e`` for the primitive element alpha."""
        return int(self._exp[e % (self.order - 1)])

    def mul_rows(self) -> MulRows:
        """Row-indexed multiplication table: ``mul_rows()[a][b] == mul(a, b)``.

        For small fields (order <= 4096) this is a dense list-of-lists, so the
        scalar RS solver's inner loops pay one list index per product instead
        of two table lookups plus an add.  Larger fields get an on-the-fly
        view with identical semantics (a dense table would not fit memory).
        Built lazily on first use.
        """
        if self._mul_rows_cache is None:
            if self.order <= 4096:
                exp, log = self._exp_list, self._log_list
                rows: list[list[int]] = [[0] * self.order]
                for a in range(1, self.order):
                    la = log[a]
                    rows.append([0] + [exp[la + log[b]] for b in range(1, self.order)])
                self._mul_rows_cache = rows
            else:
                self._mul_rows_cache = _OnTheFlyMulRows(self._exp_list, self._log_list)
        return self._mul_rows_cache

    def log(self, a: int) -> int:
        """Discrete log base alpha of a nonzero element."""
        if a == 0:
            raise ValueError("log of zero is undefined")
        return int(self._log[a])

    # -- helpers -----------------------------------------------------------

    def elements(self) -> np.ndarray:
        """All field elements ``0 .. 2^m - 1`` as an array."""
        return np.arange(self.order, dtype=np.int64)

    def to_bits(self, symbols: GFValues, width: int | None = None) -> np.ndarray:
        """Expand an array of symbols into a bit array (LSB first per symbol)."""
        width = width if width is not None else self.m
        symbols = np.asarray(symbols, dtype=np.int64)
        shifts = np.arange(width, dtype=np.int64)
        return ((symbols[..., None] >> shifts) & 1).astype(np.uint8)

    def from_bits(self, bits: np.ndarray) -> np.ndarray:
        """Pack a trailing bit axis (LSB first) back into symbols."""
        bits = np.asarray(bits, dtype=np.int64)
        shifts = np.arange(bits.shape[-1], dtype=np.int64)
        return (bits << shifts).sum(axis=-1)

    def __reduce__(self) -> tuple[object, tuple[int, int]]:
        # Pickle as a get_field call: workers rehydrate the process-local
        # cached instance (tables, mult rows and all) instead of shipping
        # megabytes of tables across the process boundary.
        return (get_field, (self.m, self.poly))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and other.m == self.m and other.poly == self.poly

    def __hash__(self) -> int:
        return hash((self.m, self.poly))

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={self.poly:#x})"


class _OnTheFlyMulRow:
    """One multiplier row computed through the exp/log tables on demand."""

    __slots__ = ("_exp", "_log", "_la")

    def __init__(self, exp: list[int], log: list[int], la: int):
        self._exp = exp
        self._log = log
        self._la = la

    def __getitem__(self, b: int) -> int:
        return self._exp[self._la + self._log[b]] if b and self._la >= 0 else 0


class _OnTheFlyMulRows:
    """Large-field stand-in for the dense multiplication table."""

    __slots__ = ("_exp", "_log")

    def __init__(self, exp: list[int], log: list[int]):
        self._exp = exp
        self._log = log

    def __getitem__(self, a: int) -> _OnTheFlyMulRow:
        return _OnTheFlyMulRow(self._exp, self._log, self._log[a])


_FIELD_CACHE: dict[tuple[int, int], GF2m] = {}


def get_field(m: int, primitive_poly: int | None = None) -> GF2m:
    """Return a cached ``GF2m`` instance (tables are expensive to rebuild).

    The cache is keyed on the *resolved* primitive polynomial, so
    ``get_field(8)`` and ``get_field(8, 0x11D)`` return the same instance.
    """
    if primitive_poly is None:
        if m not in PRIMITIVE_POLYNOMIALS:
            raise ValueError(f"no default primitive polynomial for m={m}")
        primitive_poly = PRIMITIVE_POLYNOMIALS[m]
    key = (m, primitive_poly)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF2m(m, primitive_poly)
    return _FIELD_CACHE[key]


GF256 = get_field(8)
"""The workhorse field for PAIR/DUO symbol arithmetic."""
