"""Reed-Solomon codes: systematic codec with errors-and-erasures decoding.

This is the coding core of the PAIR architecture.  Three variants are
provided, all sharing one decoder:

* :class:`ReedSolomonCode` - classic (possibly shortened) RS over GF(2^m),
  BCH view, generator roots ``alpha^fcr .. alpha^(fcr+r-1)``;
* :class:`SinglyExtendedRS` - length extended by one symbol (the overall
  evaluation at ``alpha^0``), raising the minimum distance by one at the same
  redundancy.  This is the "expandability" the PAIR paper's title refers to:
  the same mother decoder serves shortened, full-length and extended
  codewords (see :meth:`SinglyExtendedRS.shortened`);
* erasure support throughout - a scheme that has profiled a faulty pin line
  or received a chip-failure hint can mark symbols as erasures and correct
  ``f`` erasures plus ``v`` errors whenever ``2v + f <= r``.

Decoding pipeline: syndromes -> (erasure locator, modified syndromes) ->
key-equation solve -> Chien search -> Forney magnitudes -> verification
re-check.  Decoding is bounded-distance: words beyond half the design
distance are usually *detected* but can miscorrect with the (physically
real) probability that the reliability analysis cares about.

Decoding is batched-first: :meth:`decode_batch` computes all syndromes in
one vectorised pass (see :mod:`repro.galois.batch`), short-circuits the
overwhelmingly common all-zero-syndrome rows, solves the key equation only
for the dirty rows, and batch-verifies every candidate correction.  The
scalar :meth:`decode` is a one-row batch.  The key equation has two
solvers, chosen per hypothesis by the number of dirty rows against
:data:`_BATCH_SOLVE_MIN`:

* few rows (the sparse Monte-Carlo regime, and every scalar ``decode``):
  the Sugiyama extended-Euclid solver on plain-int coefficient lists
  (numpy per-call overhead dominates at these tiny polynomial degrees);
* many rows (the dense F2 conditional tables, all words dirty and most
  beyond the bound): one errors-and-erasures Berlekamp-Massey pass over the
  ``(rows, r)`` syndrome matrix, one batched Chien search behind
  :meth:`KernelBackend.chien_roots`, and Forney evaluated only at the roots.

Both solvers reject a locator whose evaluator degree reaches its own degree
before the Chien search, so they accept the same rows with the same roots
and magnitudes: results and obs counters are identical whichever runs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..galois import poly
from ..galois.backends import KERNEL, chien_tables
from ..galois.batch import batch_syndromes, check_symbols, syndrome_tables
from ..galois.gf2m import GF2m, MulRows
from ..obs import metrics as _obs
from .base import BlockCode, DecodeResult, DecodeStatus

# Decode-path observability (DESIGN.md 6e).  Counters are bumped per
# codeword or per Chien search - already the "dirty minority" scale - and
# only behind the ``_obs.enabled()`` guard.
_C_WORDS = _obs.counter("rs.decode.words")
_C_CLEAN = _obs.counter("rs.decode.clean_short_circuit")
_C_SOLVES = _obs.counter("rs.decode.solver_calls")
_C_DETECTED = _obs.counter("rs.decode.detected")
_C_CORRECTED = _obs.counter("rs.decode.corrected_words")
_C_CHIEN_SEARCHES = _obs.counter("rs.chien.searches")
_C_CHIEN_POINTS = _obs.counter("rs.chien.points")

#: Rows per key-equation solve from which :func:`_solve_rows` takes the
#: vectorised Berlekamp-Massey pass instead of the scalar Sugiyama solver.
#: Measured crossover on PAIR's RS(256,240) and DUO's RS(76,64) (x86-64):
#: the scalar solver costs 50-110 us per row, the batched pass
#: 0.3-0.6 ms per call plus a few us per row, so they meet at 8-16 rows.
_BATCH_SOLVE_MIN = 12
#: Rows per vectorised pass (its largest temporary, the Forney evaluator
#: products, is ``rows * r * (t + 1)`` int64 values: ~1.4 MB for PAIR).
_BATCH_SOLVE_ROWS = 1024


class RSDecodeFailure(Exception):
    """Internal signal: the key-equation solver could not produce a locator."""


# -- plain-int polynomial helpers (ascending-degree coefficient lists) -------
#
# The key-equation solver manipulates polynomials of degree <= r (tens of
# coefficients).  At that size, numpy array construction costs more than the
# arithmetic; plain Python lists are ~15x faster and bit-identical (GF
# arithmetic is exact).  ``mt`` below is the field's row-indexed
# multiplication table (``field.mul_rows()``): ``mt[a][b] == mul(a, b)`` at
# the cost of one list index per product.


def _ptrim(p: list[int]) -> list[int]:
    """Drop trailing (high-degree) zero coefficients; zero poly -> [0]."""
    i = len(p) - 1
    while i > 0 and p[i] == 0:
        i -= 1
    return p[: i + 1]


def _pdeg(p: list[int]) -> int:
    """Degree of the polynomial; the zero polynomial has degree -1."""
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _pmul(a: list[int], b: list[int], mt: MulRows) -> list[int]:
    """Schoolbook polynomial product over the field."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mt[ai]
            for j, bj in enumerate(b):
                out[i + j] ^= row[bj]
    return out


def _padd(a: list[int], b: list[int]) -> list[int]:
    """Polynomial addition (coefficientwise XOR)."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] ^= bi
    return out


def _pmul_low(a: list[int], b: list[int], limit: int, mt: MulRows) -> list[int]:
    """Low coefficients of the product: ``(a * b) mod x^limit``."""
    out = [0] * min(len(a) + len(b) - 1, limit)
    top = len(out)
    for i, ai in enumerate(a):
        if i >= top:
            break
        if ai:
            row = mt[ai]
            for j, bj in enumerate(b):
                if i + j >= top:
                    break
                out[i + j] ^= row[bj]
    return out


def _peval(p: list[int], x: int, mt: MulRows) -> int:
    """Evaluate ``p`` at nonzero ``x`` via Horner's rule."""
    acc = 0
    row = mt[x]
    for coeff in reversed(p):
        acc = row[acc] ^ coeff
    return acc


# -- Chien search ------------------------------------------------------------
#
# The point/log tables (cached per ``(field, n)``) and the search itself
# live in the GF kernel (``repro.galois.backends``); this module keeps the
# decode-path obs accounting and the public ``chien_points`` helper.


def chien_points(field: GF2m, n: int) -> np.ndarray:
    """Cached evaluation points ``alpha^-c`` for ``c = 0..n-1``."""
    return chien_tables(field, n, 1)["points"]


def _chien_roots(field: GF2m, n: int, locators: np.ndarray) -> np.ndarray:
    """``(rows, n)`` root mask: ``out[b, c]`` iff ``locators[b](alpha^-c) = 0``."""
    if _obs.enabled():
        _C_CHIEN_SEARCHES.add(locators.shape[0])
        _C_CHIEN_POINTS.add(locators.shape[0] * n)
    return KERNEL.chien_roots(field, n, locators)


def _solve_key_equation(
    field: GF2m,
    syndromes: np.ndarray,
    erasure_coeffs: tuple[int, ...],
    fcr: int,
    n: int,
) -> list[tuple[int, int]]:
    """Solve for error locations/magnitudes from syndromes.

    Parameters
    ----------
    field:
        Symbol field.
    syndromes:
        ``S_j = E(alpha^(fcr+j))`` for ``j = 0..r-1`` where ``E`` is the error
        polynomial with coefficient index = codeword coefficient index.
    erasure_coeffs:
        Coefficient indices (0-based powers of x) known to be unreliable.
    fcr:
        First consecutive root exponent.
    n:
        Codeword length in symbols (coefficient indices run ``0..n-1``).

    Returns
    -------
    list of ``(coeff_index, magnitude)`` pairs.  Empty when the word is clean.

    Raises
    ------
    RSDecodeFailure
        When no locator consistent with the syndromes exists within the
        bounded-distance budget (caller reports detection).
    """
    exp = field._exp_list
    log = field._log_list
    mt = field.mul_rows()
    q1 = field.order - 1
    r = len(syndromes)
    f = len(erasure_coeffs)
    if f > r:
        raise RSDecodeFailure("more erasures than redundancy")
    if _obs.enabled():
        _C_SOLVES.add(1)
    s_list = syndromes.tolist() if isinstance(syndromes, np.ndarray) else [
        int(s) for s in syndromes
    ]
    s_poly = _ptrim(s_list)
    if _pdeg(s_poly) == -1 and f == 0:
        return []

    # Erasure locator Gamma(x) = prod (1 - X_e x); Xi = S * Gamma mod x^r.
    # The erasure-free case (the overwhelming majority) skips the products:
    # Gamma = 1 makes Xi = S outright.
    if f:
        gamma = [1]
        for c in erasure_coeffs:
            gamma = _pmul(gamma, [1, exp[c % q1]], mt)
        xi = _ptrim(_pmul(s_poly, gamma, mt)[:r])
    else:
        gamma = [1]
        xi = s_poly  # already trimmed, degree < r

    # Sugiyama: run extended Euclid on (x^r, Xi) until deg(rem) < (r + f) / 2.
    # The division is fused into the loop with degrees tracked incrementally
    # (no per-step trim scans); the arithmetic is step-for-step that of
    # _pdivmod, so the (q, rem) sequence - and hence sigma - is identical.
    target = (r + f) / 2.0
    rp: list[int] = [0] * r + [1]  # x^r
    drp = r
    rc = xi
    drc = _pdeg(rc)
    tp: list[int] = [0]
    tc: list[int] = [1]
    while drc >= target:
        # drc >= target >= 0 implies rc is nonzero, so the reference
        # implementation's "euclidean remainder vanished early" guard can
        # never fire; the bounded-distance checks below catch those words.
        a = rp[:]
        qd = drp - drc
        q = [0] * (qd + 1)
        inv_lead_log = (q1 - log[rc[drc]]) % q1
        for i in range(qd, -1, -1):
            lead = a[i + drc]
            if lead:
                coeff = exp[log[lead] + inv_lead_log]
                q[i] = coeff
                row = mt[coeff]
                for j in range(drc):
                    a[i + j] ^= row[rc[j]]
                a[i + drc] = 0
        drem = drc - 1
        while drem >= 0 and a[drem] == 0:
            drem -= 1
        t_next = _padd(tp, _pmul(q, tc, mt))
        rp, drp = rc, drc
        rc, drc = a[:drc] if drc > 0 else [0], drem
        tp, tc = tc, t_next
    sigma = _ptrim(tc)
    if sigma[0] == 0:
        raise RSDecodeFailure("error locator has zero constant term")
    if _pdeg(sigma) > (r - f) // 2:
        raise RSDecodeFailure("error locator degree exceeds capability")

    # Combined locator covers both errors and erasures.
    psi = _pmul(sigma, gamma, mt) if f else sigma
    nu = _pdeg(psi)

    # A true errata locator of degree nu has an evaluator of degree < nu
    # (which also rejects nu = 0: the syndromes are nonzero here).
    # Rejecting the others before the Chien search is exactly the batched
    # solver's acceptance test, so both paths search the same locators.
    omega = _ptrim(_pmul_low(s_poly, psi, r, mt))
    if _pdeg(omega) >= nu:
        raise RSDecodeFailure("error evaluator degree reaches the locator's")

    # Chien search over valid coefficient indices only (shortened support).
    roots = np.flatnonzero(_chien_roots(field, n, np.array([psi], dtype=np.int64))[0])
    if roots.size != nu:
        raise RSDecodeFailure("locator roots do not match its degree")

    # Forney: e_c = X^(1-fcr) * Omega(X^-1) / Psi'(X^-1),  X = alpha^c.
    psi_deriv = psi[1:]
    psi_deriv[1::2] = [0] * len(psi_deriv[1::2])
    corrections: list[tuple[int, int]] = []
    for c in roots:
        c = int(c)
        x_inv = exp[(-c) % q1]
        denom = _peval(psi_deriv, x_inv, mt)
        if denom == 0:
            raise RSDecodeFailure("repeated locator root (derivative vanished)")
        num = _peval(omega, x_inv, mt)
        if num == 0:
            magnitude = 0
        else:
            # X^(1-fcr) * num / denom, all in the log domain.
            factor_log = ((c % q1) * (1 - fcr)) % q1
            magnitude = exp[factor_log + exp_log_div(log, num, denom, q1)]
        if magnitude == 0 and c not in erasure_coeffs:
            raise RSDecodeFailure("zero magnitude at a claimed error location")
        if magnitude != 0:
            corrections.append((c, magnitude))
    return corrections


def exp_log_div(log: list[int], a: int, b: int, q1: int) -> int:
    """Log of ``a / b`` for nonzero field elements, in ``[0, q1)``."""
    return (log[a] - log[b] + q1) % q1


def _solve_key_equation_batch(
    field: GF2m,
    syndromes: np.ndarray,
    erasure_coeffs: Sequence[tuple[int, ...]],
    fcr: int,
    n: int,
) -> list[list[tuple[int, int]] | None]:
    """:func:`_solve_key_equation` for every row of a ``(rows, r)`` matrix.

    Returns each row's corrections, or ``None`` where the scalar solver
    raises :class:`RSDecodeFailure`.  Three vectorised steps:

    * errors-and-erasures Berlekamp-Massey: ``C`` starts at the erasure
      locator ``Gamma`` with ``L = f``; steps ``k < f`` are masked per row
      and the length changes when ``2L <= k + f``.  A row is accepted iff
      ``2(L - f) <= r - f`` and ``deg C = L``, which is exactly the set of
      rows whose Sugiyama locator passes the scalar solver's degree,
      constant-term and evaluator-degree checks (the accepted locators
      agree up to a scalar, which changes neither roots nor magnitudes);
    * one batched Chien search over the accepted locators;
    * Forney, evaluated only at the roots.
    """
    q1 = field.order - 1
    exp_z, log_z = field.zero_tables()
    zero_log = log_z[0]
    rows, r = syndromes.shape
    out: list[list[tuple[int, int]] | None] = [None] * rows
    f_all = np.array([len(e) for e in erasure_coeffs], dtype=np.int64)
    live = np.flatnonzero(f_all <= r)  # more erasures than r: failed, unsolved
    if _obs.enabled():
        _C_SOLVES.add(int(live.size))
    if live.size == 0:
        return out
    f = f_all[live]
    log_s = log_z[syndromes[live]]
    width = r + 1  # deg C <= L <= r throughout
    locs = np.zeros((live.size, width), dtype=np.int64)
    locs[:, 0] = 1
    erased = np.flatnonzero(f)
    if erased.size:
        mt = field.mul_rows()
        for row in erased.tolist():
            gamma = [1]
            for c in erasure_coeffs[live[row]]:
                gamma = _pmul(gamma, [1, field._exp_list[c % q1]], mt)
            locs[row, : len(gamma)] = gamma

    # Berlekamp-Massey.  ``log_shift`` holds log(x^m B), shifted once per
    # active step; deg C <= L <= k at step k, so C[:, :k+1] is all of C.
    log_shift = log_z[locs]
    length = f.copy()
    log_b = np.zeros(live.size, dtype=np.int64)
    for k in range(int(f.min()), r):
        log_locs = log_z[locs]
        terms = exp_z[log_locs[:, : k + 1] + log_s[:, k::-1]]
        delta = np.bitwise_xor.reduce(terms, axis=1)
        moved = np.full_like(log_shift, zero_log)
        moved[:, 1:] = log_shift[:, :-1]
        step = delta != 0
        if erased.size:
            active = f <= k
            moved = np.where(active[:, None], moved, log_shift)
            step &= active
        log_delta = log_z[delta]
        coef = np.where(step, (log_delta - log_b) % q1, zero_log)
        grow = step & (2 * length <= k + f)
        locs = locs ^ exp_z[coef[:, None] + moved]
        log_shift = np.where(grow[:, None], log_locs, moved)
        log_b = np.where(grow, log_delta, log_b)
        length = np.where(grow, k + 1 + f - length, length)
    degree = width - 1 - np.argmax(locs[:, ::-1] != 0, axis=1)
    accepted = (2 * (length - f) <= r - f) & (degree == length)
    for row in np.flatnonzero(accepted & (length == 0)).tolist():
        out[int(live[row])] = []  # clean syndromes, no erasures

    sel = np.flatnonzero(accepted & (length > 0))
    if sel.size == 0:
        return out
    nu = length[sel]
    top = int(nu.max()) + 1
    mask = _chien_roots(field, n, locs[sel, :top])
    found = mask.sum(axis=1) == nu
    sel, mask = sel[found], mask[found]
    if sel.size == 0:
        return out

    # Forney: e_c = X^(1-fcr) * Omega(X^-1) / Psi'(X^-1),  X = alpha^c, with
    # Omega = S * Psi mod x^r.  ``lag[j, i] = j - i`` indexes S_(j-i); the
    # negative lags read an appended zero column.
    log_psi = log_z[locs[sel, :top]]
    lag = np.arange(r)[:, None] - np.arange(top)[None, :]
    log_s_pad = np.concatenate(
        [log_s[sel], np.full((sel.size, 1), zero_log, dtype=np.int64)], axis=1
    )
    terms = exp_z[log_s_pad[:, np.where(lag >= 0, lag, r)] + log_psi[:, None, :]]
    log_omega = log_z[np.bitwise_xor.reduce(terms, axis=2)]
    logm = chien_tables(field, n, r)["logm"]
    root_row, root_c = np.nonzero(mask)
    num = np.bitwise_xor.reduce(
        exp_z[log_omega[root_row] + logm[:r, root_c].T], axis=1
    )
    odd = np.arange(1, top, 2)
    den = np.bitwise_xor.reduce(
        exp_z[log_psi[root_row][:, odd] + logm[odd - 1][:, root_c].T], axis=1
    )
    log_mag = (root_c * (1 - fcr)) % q1 + (field._log[num] - field._log[den]) % q1
    mag = np.where(num != 0, field._exp[log_mag], 0)
    bad = den == 0
    if erased.size:
        hints = np.zeros((sel.size, n), dtype=bool)
        for i, row in enumerate(sel.tolist()):
            hints[i, list(erasure_coeffs[live[row]])] = True
        bad |= (mag == 0) & ~hints[root_row, root_c]
    else:
        bad |= mag == 0
    failed = np.zeros(sel.size, dtype=bool)
    failed[root_row[bad]] = True
    corrections: list[list[tuple[int, int]]] = [[] for _ in range(sel.size)]
    for i, c, e in zip(root_row.tolist(), root_c.tolist(), mag.tolist()):
        if e:
            corrections[i].append((c, e))
    for i in np.flatnonzero(~failed).tolist():
        out[int(live[sel[i]])] = corrections[i]
    return out


def _solve_rows(
    field: GF2m,
    syndromes: np.ndarray,
    erasure_coeffs: Sequence[tuple[int, ...]],
    fcr: int,
    n: int,
) -> list[list[tuple[int, int]] | None]:
    """Corrections per syndrome row (``None`` = failed), batched when it pays.

    Fewer than :data:`_BATCH_SOLVE_MIN` rows run the scalar Sugiyama solver
    one at a time; more run :func:`_solve_key_equation_batch`, at most
    :data:`_BATCH_SOLVE_ROWS` rows per pass to bound its working set.  The
    two give identical results and identical obs counts on every row.
    """
    out: list[list[tuple[int, int]] | None] = []
    rows = len(erasure_coeffs)
    if rows >= _BATCH_SOLVE_MIN:
        for start in range(0, rows, _BATCH_SOLVE_ROWS):
            stop = start + _BATCH_SOLVE_ROWS
            out += _solve_key_equation_batch(
                field, syndromes[start:stop], erasure_coeffs[start:stop], fcr, n
            )
        return out
    for synd, ers in zip(syndromes, erasure_coeffs):
        try:
            out.append(_solve_key_equation(field, synd, ers, fcr, n))
        except RSDecodeFailure:
            out.append(None)
    return out


def _record_batch_outcomes(results: "list[DecodeResult | None]", clean: int) -> None:
    """Tally one decode_batch call's outcomes (only when obs is enabled)."""
    if not _obs.enabled():
        return
    _C_WORDS.add(len(results))
    _C_CLEAN.add(clean)
    for res in results:
        if res is None:
            continue
        if res.status is DecodeStatus.DETECTED:
            _C_DETECTED.add(1)
        elif res.status is DecodeStatus.CORRECTED:
            _C_CORRECTED.add(1)


def _normalize_erasures(
    erasures: Sequence[tuple[int, ...]] | None, batch: int, n: int
) -> list[tuple[int, ...]]:
    """Per-word erasure tuples for a batch (None -> no erasures anywhere).

    Raises ``ValueError`` for a position outside ``[0, n)`` or a position
    listed twice: either would build a wrong erasure locator silently.
    """
    if erasures is None:
        return [()] * batch
    erasures = list(erasures)
    if len(erasures) != batch:
        raise ValueError(
            f"expected one erasure tuple per word ({batch}), got {len(erasures)}"
        )
    out = []
    for ers in erasures:
        ers = tuple(int(p) for p in ers)
        if len(set(ers)) != len(ers) or not all(0 <= p < n for p in ers):
            raise ValueError(
                f"erasure positions must be distinct and in [0, {n}), got {ers}"
            )
        out.append(ers)
    return out


class ReedSolomonCode(BlockCode):
    """A systematic (n, k) Reed-Solomon code over GF(2^m).

    ``n`` may be smaller than ``2^m - 1``; the code is then the standard
    shortened RS code (virtual leading zeros).  Codeword layout is
    ``[data_0 .. data_{k-1}, parity_0 .. parity_{r-1}]`` with codeword
    position ``p`` holding polynomial coefficient ``n - 1 - p``.

    Parameters
    ----------
    field:
        Symbol field GF(2^m).
    n, k:
        Code length and dimension in symbols, ``k < n <= 2^m - 1``.
    fcr:
        First consecutive root exponent of the generator polynomial.
    """

    def __init__(self, field: GF2m, n: int, k: int, fcr: int = 1):
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
        if n > field.order - 1:
            raise ValueError(
                f"n={n} exceeds field length limit {field.order - 1}; "
                "use SinglyExtendedRS for one extra symbol"
            )
        self.field = field
        self.n = n
        self.k = k
        self.fcr = fcr
        self.t = (n - k) // 2
        self.generator = poly.from_roots(
            field, [field.alpha_pow(fcr + j) for j in range(n - k)]
        )
        self._impulse_parities: np.ndarray | None = None

    @property
    def d_min(self) -> int:
        """Minimum distance (RS codes are MDS)."""
        return self.r + 1

    # -- layout helpers ----------------------------------------------------

    def _word_to_poly(self, word: np.ndarray) -> np.ndarray:
        """Codeword positions -> ascending-degree coefficients."""
        return np.asarray(word, dtype=np.int64)[::-1]

    def _poly_to_word(self, coeffs: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        out[self.n - coeffs.size :] = coeffs[::-1]
        return out

    def position_of_coeff(self, coeff_index: int) -> int:
        return self.n - 1 - coeff_index

    def coeff_of_position(self, position: int) -> int:
        return self.n - 1 - position

    # -- codec -------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.int64)
        if data.shape != (self.k,):
            raise ValueError(f"expected {self.k} data symbols, got shape {data.shape}")
        if np.any((data < 0) | (data >= self.field.order)):
            raise ValueError("data symbols out of field range")
        # c(x) = d(x) * x^r + (d(x) * x^r mod g(x))
        shifted = poly.mul_x_power(data[::-1], self.r)
        parity_poly = poly.mod(self.field, shifted, self.generator)
        parity = np.zeros(self.r, dtype=np.int64)
        parity_poly = poly.trim(parity_poly)
        parity[self.r - parity_poly.size :] = parity_poly[::-1]
        return np.concatenate([data, parity])

    def syndromes(self, received: np.ndarray) -> np.ndarray:
        """``S_j = R(alpha^(fcr+j))`` for j in 0..r-1.

        Uses the cached Vandermonde power matrix (shared per
        ``(field, n, r, fcr)`` across instances) so the common clean-word
        screen is one vectorised multiply-XOR pass rather than a Horner loop.
        """
        powers, _ = syndrome_tables(self.field, self.n, self.r, self.fcr)
        received = np.asarray(received, dtype=np.int64)
        products = self.field.mul(powers, received[None, :])
        return np.bitwise_xor.reduce(products, axis=1)

    def impulse_parities(self) -> np.ndarray:
        """Parity rows for unit data symbols: shape ``(k, r)``.

        Row ``i`` holds the parity symbols of the codeword whose data is the
        unit vector at data position ``i``.  Because the code is linear over
        GF(2^m), the parity of any *change* to the data is
        ``XOR_i mul(delta_i, impulse[i])`` - the incremental ("expandable")
        parity update PAIR performs in the open row buffer on writes.
        """
        if self._impulse_parities is None:
            table = np.zeros((self.k, self.r), dtype=np.int64)
            # x^m mod g, iteratively for m = r .. n-1 (data coeff indices).
            g = self.generator  # monic, degree r, ascending coefficients
            rem = g[: self.r].copy()  # x^r mod g  (char 2: low part of g)
            for m in range(self.r, self.n):
                data_pos = self.n - 1 - m
                if data_pos < self.k:
                    # parity word layout: position k+j holds coeff r-1-j
                    table[data_pos] = rem[::-1]
                if m == self.n - 1:
                    break
                lead = int(rem[-1])
                shifted = np.concatenate([[0], rem[:-1]])
                if lead:
                    shifted ^= np.asarray(self.field.mul(g[: self.r], lead))
                rem = shifted

            self._impulse_parities = table
        return self._impulse_parities

    def decode(self, received: np.ndarray, erasures: tuple[int, ...] = ()) -> DecodeResult:
        """Errors-and-erasures bounded-distance decode.

        ``erasures`` are codeword *positions* (0-based, data-first layout)
        whose symbols are unreliable; their received values participate in the
        syndrome computation, so callers may leave stale data in place.
        """
        received = np.asarray(received, dtype=np.int64)
        if received.shape != (self.n,):
            raise ValueError(f"expected {self.n} symbols, got shape {received.shape}")
        return self.decode_batch(received[None, :], (tuple(erasures),))[0]

    def decode_batch(
        self, words: np.ndarray, erasures: Sequence[tuple[int, ...]] | None = None
    ) -> list[DecodeResult]:
        """Decode a ``(batch, n)`` matrix of received words.

        Element-wise identical to calling :meth:`decode` per row (the scalar
        path *is* a one-row batch): syndromes are computed for the whole
        batch in one vectorised pass, all-zero-syndrome rows short-circuit to
        ``OK``, the key equation is solved for the dirty rows only (batched
        when there are many, see :func:`_solve_rows`), and the
        post-correction verification re-check is batched over every
        candidate.

        ``erasures``, when given, is one tuple of codeword positions per row.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"expected (batch, {self.n}) matrix, got {words.shape}")
        per_word_erasures = _normalize_erasures(erasures, words.shape[0], self.n)
        # batch_syndromes sees the whole word, so it also checks the symbol range
        synds = batch_syndromes(self.field, words, self.r, self.fcr)
        results: list[DecodeResult | None] = [None] * words.shape[0]
        dirty: list[int] = []
        clean = 0
        for i in range(words.shape[0]):
            if not synds[i].any() and not per_word_erasures[i]:
                clean += 1
                results[i] = DecodeResult(
                    DecodeStatus.OK, words[i][: self.k].copy(), codeword=words[i].copy()
                )
            else:
                dirty.append(i)
        if not dirty:
            _record_batch_outcomes(results, clean)
            return results
        solved = _solve_rows(
            self.field,
            synds[dirty],
            [tuple(self.coeff_of_position(p) for p in per_word_erasures[i]) for i in dirty],
            self.fcr,
            self.n,
        )
        candidates: list[tuple[int, np.ndarray, list[int]]] = []
        for i, corrections in zip(dirty, solved):
            received = words[i]
            if corrections is None:
                results[i] = DecodeResult(
                    DecodeStatus.DETECTED, received[: self.k].copy()
                )
                continue
            corrected = received.copy()
            positions = []
            for coeff_idx, magnitude in corrections:
                pos = self.position_of_coeff(coeff_idx)
                corrected[pos] ^= magnitude
                positions.append(pos)
            candidates.append((i, corrected, positions))
        if candidates:
            verify = batch_syndromes(
                self.field,
                np.stack([c for _, c, _ in candidates]),
                self.r,
                self.fcr,
            )
            for (i, corrected, positions), check in zip(candidates, verify):
                if check.any():
                    results[i] = DecodeResult(
                        DecodeStatus.DETECTED, words[i][: self.k].copy()
                    )
                elif not positions:
                    results[i] = DecodeResult(
                        DecodeStatus.OK, corrected[: self.k].copy(), codeword=corrected
                    )
                else:
                    results[i] = DecodeResult(
                        DecodeStatus.CORRECTED,
                        corrected[: self.k].copy(),
                        tuple(sorted(positions)),
                        codeword=corrected,
                    )
        _record_batch_outcomes(results, clean)
        return results

    def shortened(self, n: int, k: int) -> "ReedSolomonCode":
        """A shortened sibling sharing field/fcr (same decoder hardware)."""
        if self.n - self.k != n - k:
            raise ValueError("shortening must preserve the redundancy")
        return ReedSolomonCode(self.field, n, k, self.fcr)

    def __repr__(self) -> str:
        return (
            f"ReedSolomonCode(GF(2^{self.field.m}), n={self.n}, k={self.k}, "
            f"t={self.t}, fcr={self.fcr})"
        )


class SinglyExtendedRS(BlockCode):
    """Singly extended Reed-Solomon code.

    The codeword appends one extra symbol ``c_ext = c(alpha^0)`` (the sum of
    the inner codeword symbols) to an inner RS code with generator roots
    ``alpha^1 .. alpha^r``.  The extension raises the minimum distance from
    ``r + 1`` to ``r + 2`` without storing more redundancy symbols than
    ``r + 1`` total, and - crucially for PAIR - the *same* solver decodes the
    inner, shortened and extended variants.

    Correction capability: any error pattern of total weight
    ``<= (r + 1) // 2`` (inner symbols plus the extension symbol combined) is
    corrected; the decoder tries the "extension clean" hypothesis first and
    falls back to the "extension corrupted" hypothesis.

    Layout: ``[data_0 .. data_{k-1}, parity_0 .. parity_{r-1}, ext]``.
    """

    def __init__(self, field: GF2m, n: int, k: int):
        inner_n = n - 1
        if inner_n > field.order - 1:
            raise ValueError(f"extended length {n} exceeds {field.order}")
        self.field = field
        self.n = n
        self.k = k
        self.inner = ReedSolomonCode(field, inner_n, k, fcr=1)
        self.t = (self.inner.r + 1) // 2

    @property
    def d_min(self) -> int:
        return self.inner.r + 2

    def encode(self, data: np.ndarray) -> np.ndarray:
        inner_word = self.inner.encode(data)
        ext = int(np.bitwise_xor.reduce(inner_word))  # c(alpha^0) = sum of symbols
        return np.concatenate([inner_word, [ext]])

    def _try_case(
        self,
        syndromes: np.ndarray,
        fcr: int,
        erasure_positions: list[tuple[int, ...]],
    ) -> list[list[tuple[int, int]] | None]:
        """Solve one decoding hypothesis for every row of ``syndromes``.

        Accepts a row when the errors-and-erasures budget holds for this
        hypothesis's syndrome count: ``2 * true_errors + erasures <= m``.
        """
        if not erasure_positions:
            return []
        solved = _solve_rows(
            self.field,
            syndromes,
            [tuple(self.inner.coeff_of_position(p) for p in ers) for ers in erasure_positions],
            fcr,
            self.inner.n,
        )
        out: list[list[tuple[int, int]] | None] = []
        for corrections, ers in zip(solved, erasure_positions):
            if corrections is not None:
                erased = set(ers)
                true_errors = sum(
                    1
                    for coeff_idx, _ in corrections
                    if self.inner.position_of_coeff(coeff_idx) not in erased
                )
                if 2 * true_errors + len(erased) > syndromes.shape[1]:
                    corrections = None
            out.append(corrections)
        return out

    def _apply(
        self, inner_rx: np.ndarray, corrections: list[tuple[int, int]]
    ) -> tuple[np.ndarray, list[int]]:
        corrected = inner_rx.copy()
        positions = []
        for coeff_idx, mag in corrections:
            pos = self.inner.position_of_coeff(coeff_idx)
            corrected[pos] ^= mag
            positions.append(pos)
        return corrected, positions

    def decode(self, received: np.ndarray, erasures: tuple[int, ...] = ()) -> DecodeResult:
        received = np.asarray(received, dtype=np.int64)
        if received.shape != (self.n,):
            raise ValueError(f"expected {self.n} symbols, got shape {received.shape}")
        return self.decode_batch(received[None, :], (tuple(erasures),))[0]

    def decode_batch(
        self, words: np.ndarray, erasures: Sequence[tuple[int, ...]] | None = None
    ) -> list[DecodeResult]:
        """Decode a ``(batch, n)`` matrix of received extended words.

        Element-wise identical to per-row :meth:`decode`.  Inner syndromes
        and the extension check ``S_0`` are computed for the whole batch in
        one pass; clean rows short-circuit; dirty rows run the two-hypothesis
        solve: case A (extension clean) over all dirty rows, then case B
        (extension corrupted) over the rows case A could not settle.  Each
        hypothesis is one :func:`_solve_rows` call and one batched
        verification re-check.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"expected (batch, {self.n}) matrix, got {words.shape}")
        check_symbols(self.field, words)  # the extension symbol skips batch_syndromes
        per_word_erasures = _normalize_erasures(erasures, words.shape[0], self.n)
        inner_words = words[:, :-1]
        synds = batch_syndromes(self.field, inner_words, self.inner.r, 1)
        # S_0 = e(1) ^ e_ext: XOR of every symbol including the extension.
        s0s = np.bitwise_xor.reduce(words, axis=1)
        results: list[DecodeResult | None] = [None] * words.shape[0]
        case_a: list[int] = []
        case_b: list[int] = []
        clean = 0
        for i in range(words.shape[0]):
            ers = per_word_erasures[i]
            if not synds[i].any() and s0s[i] == 0 and not ers:
                clean += 1
                results[i] = DecodeResult(
                    DecodeStatus.OK,
                    words[i][: self.k].copy(),
                    codeword=words[i].copy(),
                )
            elif (self.n - 1) in ers:
                case_b.append(i)
            else:
                case_a.append(i)
        if not case_a and not case_b:
            _record_batch_outcomes(results, clean)
            return results
        # Case A: extension symbol assumed correct -> S_0 is a true
        # syndrome, giving r+1 consecutive syndromes starting at alpha^0.
        # (Case-A rows have no erasure at the extension position.)
        synd_a = np.concatenate([s0s[:, None], synds], axis=1)[case_a]
        a_candidates: list[tuple[int, np.ndarray, list[int]]] = []
        for i, corrections in zip(
            case_a, self._try_case(synd_a, 0, [per_word_erasures[i] for i in case_a])
        ):
            if corrections is None:
                case_b.append(i)
                continue
            corrected, positions = self._apply(inner_words[i], corrections)
            a_candidates.append((i, corrected, positions))
        if a_candidates:
            verify = batch_syndromes(
                self.field,
                np.stack([c for _, c, _ in a_candidates]),
                self.inner.r,
                1,
            )
            for (i, corrected, positions), check in zip(a_candidates, verify):
                ext_rx = int(words[i, -1])
                if not check.any() and int(np.bitwise_xor.reduce(corrected)) == ext_rx:
                    status = DecodeStatus.CORRECTED if positions else DecodeStatus.OK
                    results[i] = DecodeResult(
                        status,
                        corrected[: self.k].copy(),
                        tuple(sorted(positions)),
                        codeword=np.concatenate([corrected, [ext_rx]]),
                    )
                else:
                    case_b.append(i)
        # Case B: extension symbol corrupted (or erased) -> it costs one unit
        # of the distance budget; decode the inner word alone.
        b_candidates: list[tuple[int, np.ndarray, list[int]]] = []
        inner_ers = [
            tuple(p for p in per_word_erasures[i] if p < self.n - 1) for i in case_b
        ]
        for i, corrections in zip(case_b, self._try_case(synds[case_b], 1, inner_ers)):
            if corrections is None:
                results[i] = DecodeResult(
                    DecodeStatus.DETECTED, inner_words[i][: self.k].copy()
                )
                continue
            corrected, positions = self._apply(inner_words[i], corrections)
            b_candidates.append((i, corrected, positions))
        if b_candidates:
            verify = batch_syndromes(
                self.field,
                np.stack([c for _, c, _ in b_candidates]),
                self.inner.r,
                1,
            )
            for (i, corrected, positions), check in zip(b_candidates, verify):
                if check.any():
                    results[i] = DecodeResult(
                        DecodeStatus.DETECTED, inner_words[i][: self.k].copy()
                    )
                    continue
                true_ext = int(np.bitwise_xor.reduce(corrected))
                ext_rx = int(words[i, -1])
                if true_ext != ext_rx:
                    positions.append(self.n - 1)
                full = np.concatenate([corrected, [true_ext]])
                if positions:
                    results[i] = DecodeResult(
                        DecodeStatus.CORRECTED,
                        corrected[: self.k].copy(),
                        tuple(sorted(positions)),
                        codeword=full,
                    )
                else:
                    results[i] = DecodeResult(
                        DecodeStatus.OK, corrected[: self.k].copy(), codeword=full
                    )
        _record_batch_outcomes(results, clean)
        return results

    def shortened(self, n: int, k: int) -> "SinglyExtendedRS":
        """Shortened extended code with the same redundancy (mother decoder)."""
        if self.n - self.k != n - k:
            raise ValueError("shortening must preserve the redundancy")
        return SinglyExtendedRS(self.field, n, k)

    def __repr__(self) -> str:
        return (
            f"SinglyExtendedRS(GF(2^{self.field.m}), n={self.n}, k={self.k}, "
            f"t={self.t})"
        )
