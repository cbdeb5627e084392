"""Many PCG64 substreams at once, bit for bit equal to numpy's.

Fault masks draw from ``np.random.default_rng(key)`` substreams, one per
``(seed, bank, row, tag)`` key (:mod:`repro.faults.sampler`).  A chunk of
Monte-Carlo trials needs thousands of them, and a fresh Generator per key
costs about 15 us of ``SeedSequence`` hashing before the first draw.  This
module reaches the same draws without one Generator per key:

* :func:`seed_states` runs numpy's ``SeedSequence`` hash and PCG64's
  seeding for N keys in uint32/uint64 array operations.  Each int of a key
  becomes one uint32 word, or two once it reaches 2**32, and words past
  the 4-word pool are mixed in afterwards, as numpy does.
* :func:`uniforms` returns the doubles at chosen runs of positions of many
  seeded streams.  numpy's PCG64 is the 128-bit LCG ``s -> a*s + inc``
  with an XSL-RR output and spends one 64-bit output per double
  ``(u >> 11) * 2**-53``, so draw ``p`` of a stream seeded at ``s0`` comes
  from the state ``A_k*s0 + G_k*inc mod 2**128`` with ``k = p + 1``,
  ``A_k = a**k`` and ``G_k = (a**k - 1)/(a - 1)``.  Runs shorter than
  :data:`_JUMP_MAX_RUN` are evaluated that way, with 128-bit products in
  32-bit limbs; longer runs are cheaper drawn by numpy's C generator,
  pointed at the stream with :meth:`Streams.load` and moved with
  ``advance``.
* :func:`trial_words` makes many rows of ``Generator.choice(n, j,
  replace=False)`` draws, each followed by ``integers(0, symbol_bits,
  size=j)``, in one array pass.  In the regime where numpy runs Floyd's
  algorithm, every one of those draws is a Lemire-bounded uint32, and
  every uint32 is one half of a PCG64 output, so the whole sequence can be
  read from one block of ``random_raw`` outputs.
* A Poisson count is screened for zero from one double
  (:data:`POISSON_MULT_MAX`), so a fault sampler that draws no fault -
  most of them at sparse rates - needs only its first doubles
  (:func:`repro.faults.sampler.sample_fault_lists`).
* :func:`binomials` makes ``Generator.binomial(n, p, size)`` draws from a
  :class:`BinomialTable`.  In numpy's inversion regime a draw spends one
  double and returns a count that is monotone in it, so the count is the
  number of the table's thresholds at or below the double, and a whole
  array of draws is one ``random`` call and one ``searchsorted``.  The
  thresholds are searched with numpy's own draws from crafted states.

``tests/faults/test_rng.py`` checks the first three and the tables against
numpy's own generator, and ``tests/faults/test_sampler.py`` the screen.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from ..obs import metrics as _obs

if TYPE_CHECKING:
    import numpy.typing as npt

#: one run of consecutive stream positions: ``(first position, length)``.
Run = tuple[int, int]
#: sorted, non-touching runs; a layout's draws come back in this order.
Runs = tuple[Run, ...]
#: a 128-bit integer per element, as ``(high, low)`` uint64 words.
U128 = tuple[np.ndarray, np.ndarray]
#: a uint32 word of the seed hash: a Python int or a uint32 array of them.
Word = Union[int, np.ndarray]

_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645  # PCG64's 128-bit multiplier
_MULT_U128: U128 = (np.uint64(_MULT >> 64), np.uint64(_MULT & (2**64 - 1)))

# numpy's SeedSequence hash constants (pool of 4 uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

#: runs shorter than this are jumped in numpy; longer ones are drawn by the
#: C generator.  Measured over 2,048 streams of 8 runs each: a C run costs
#: about 3.3 us (an ``advance`` + ``random`` pair and its share of loading
#: the stream), a jumped run about 0.3 us plus 38 ns per cell, so they
#: break even near 80-96 cells.
_JUMP_MAX_RUN = 80
#: the jumped route's fixed cost, about 40 array operations per step along
#: the longest run (up to 3 ms), is repaid only from about this many short
#: runs in one call; fewer are drawn in C.
_JUMP_MIN_RUNS = 1024
#: below this many keys the hash runs on Python ints, one key at a time.
_VECTOR_MIN_KEYS = 16

#: ``Generator.poisson(lam)`` for ``0 < lam <`` this runs numpy's
#: multiplication method: it multiplies doubles ``U`` (one ``random()`` each)
#: while the product stays above ``exp(-lam)``, so the count is 0 exactly
#: when the first ``U <= exp(-lam)``, and then takes that one double.  A
#: ``lam`` of 0 takes none, and ``lam >=`` this takes the PTRS rejection
#: route, whose draws cannot be screened that way.
POISSON_MULT_MAX = 10.0

_C_SEEDED = _obs.counter("faults.streams.seeded")


# -- seeding ---------------------------------------------------------------


class Streams:
    """Seeded PCG64 streams: numpy's ``(state, inc)`` right after seeding."""

    __slots__ = ("state", "inc")

    def __init__(self, state: U128, inc: U128) -> None:
        self.state = state
        self.inc = inc

    def __len__(self) -> int:
        return len(self.state[0])

    def ints(self, index: int) -> tuple[int, int]:
        """Stream ``index``'s ``(state, inc)`` as Python ints.

        Only this stream's four words are converted: a batch is often loaded
        at a few of its indices only.
        """
        (sh, sl), (ih, il) = self.state, self.inc
        return (
            int(sh[index]) << 64 | int(sl[index]),
            int(ih[index]) << 64 | int(il[index]),
        )

    def load(self, index: int, rng: np.random.Generator) -> np.random.Generator:
        """Point ``rng`` at the start of stream ``index``; returns ``rng``.

        ``rng`` then draws exactly what ``default_rng(key)`` would.
        """
        state, inc = self.ints(index)
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng


def scratch_generator() -> np.random.Generator:
    """A PCG64 Generator for :meth:`Streams.load` to point at streams.

    Its own seed is never drawn from: every use loads a stream first.
    """
    return np.random.Generator(np.random.PCG64(0))


def _hashmix(value: Word, const: int) -> tuple[Word, int]:
    value = (value ^ const) * (const * _MULT_A & _M32) & _M32
    return value ^ (value >> 16), const * _MULT_A & _M32


def _mix(x: Word, y: Word) -> Word:
    value = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return value ^ (value >> 16)


def _generate(words: list[Word]) -> list[Word]:
    """``SeedSequence(words).generate_state(8, uint32)``, per key.

    The words are one key's uint32 entropy (Python ints), or one uint32
    array per word position for many keys of the same length.
    """
    const = _INIT_A
    pool: list[Word] = []
    for i in range(_POOL):
        value, const = _hashmix(words[i] if i < len(words) else 0, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    const = _INIT_B
    out: list[Word] = []
    for i in range(8):
        value = (pool[i % _POOL] ^ const) * (const * _MULT_B & _M32) & _M32
        const = const * _MULT_B & _M32
        out.append(value ^ (value >> 16))
    return out


def _seed_one(key: Sequence[int]) -> tuple[int, int]:
    """PCG64's seeded ``(state, inc)`` for one key, in Python ints."""
    words: list[Word] = []
    for value in key:
        if value < 0:
            raise ValueError(f"seed key ints must be non-negative, got {value}")
        words.append(value & _M32)
        value >>= 32
        while value:
            words.append(value & _M32)
            value >>= 32
    w = _generate(words)
    seed = int(w[1]) << 96 | int(w[0]) << 64 | int(w[3]) << 32 | int(w[2])
    inc = (int(w[5]) << 96 | int(w[4]) << 64 | int(w[7]) << 32 | int(w[6])) << 1 | 1
    return ((inc + seed) * _MULT + inc) & _M128, inc & _M128


def key_array(keys: npt.ArrayLike) -> np.ndarray:
    """``keys`` as a uint64 array, or as Python ints (dtype object) once one
    of them is past 2**64 or negative.

    :func:`seed_states` hashes a uint64 table as arrays and an object one
    key at a time (where a negative int raises).
    """
    try:
        return np.asarray(keys, dtype=np.uint64)
    except OverflowError:
        return np.asarray(keys, dtype=object)


def seed_states(keys: npt.ArrayLike) -> Streams:
    """Seeded streams of ``default_rng(key)`` for each row of ``keys``.

    ``keys`` is an ``(N, K)`` array of non-negative ints; rows are hashed
    as arrays when every int is below 2**64, else one key at a time
    (:func:`key_array`).
    """
    table = key_array(keys)
    if table.ndim != 2:
        raise ValueError(f"keys must be an (N, K) array, got shape {table.shape}")
    n = len(table)
    if _obs.enabled():
        _C_SEEDED.add(n)
    if n < _VECTOR_MIN_KEYS or table.dtype == object:
        seeded = [_seed_one([int(v) for v in key]) for key in table]
        return Streams(_split([s for s, _ in seeded]), _split([i for _, i in seeded]))
    state = (np.empty(n, np.uint64), np.empty(n, np.uint64))
    inc = (np.empty(n, np.uint64), np.empty(n, np.uint64))
    high = table >> 32
    # which ints take a second word; keys sharing that pattern hash together
    pattern = (high != 0).astype(np.int64) @ (1 << np.arange(table.shape[1]))
    for shape in np.unique(pattern):
        rows = np.flatnonzero(pattern == shape)
        words: list[Word] = []
        for j in range(table.shape[1]):
            words.append((table[rows, j] & _M32).astype(np.uint32))
            if shape >> j & 1:
                words.append(high[rows, j].astype(np.uint32))
        w = [np.asarray(v, dtype=np.uint64) for v in _generate(words)]
        seed = (w[1] << 32 | w[0], w[3] << 32 | w[2])
        hi, lo = w[5] << 32 | w[4], w[7] << 32 | w[6]
        step = ((hi << 1) | (lo >> 63), (lo << 1) | 1)
        s0 = _add(_mul(_add(step, seed), _MULT_U128), step)
        for out, got in ((state, s0), (inc, step)):
            out[0][rows], out[1][rows] = got
    return Streams(state, inc)


# -- 128-bit LCG arithmetic ----------------------------------------------------


def _mul(x: U128, y: U128) -> U128:
    """``x * y mod 2**128`` from 32-bit limb products."""
    (xh, xl), (yh, yl) = x, y
    x0, x1 = xl & _M32, xl >> 32
    y0, y1 = yl & _M32, yl >> 32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    lo = (p00 & _M32) | (mid << 32)
    hi = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + xh * yl + xl * yh
    return hi, lo


def _add(x: U128, y: U128) -> U128:
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _advance(state: U128, inc: U128, a: U128, g: U128) -> U128:
    """The state ``a*state + g*inc``: ``(a, g)`` is a jump of k steps."""
    return _add(_mul(a, state), _mul(g, inc))


def _doubles(state: U128) -> np.ndarray:
    """numpy's ``random()`` double from each (already stepped) state."""
    hi, lo = state
    x = hi ^ lo
    rot = hi >> 58
    out = (x >> rot) | (x << ((64 - rot) & 63))
    return (out >> 11) * 2.0**-53


def _split(values: Sequence[int]) -> U128:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & (2**64 - 1) for v in values], dtype=np.uint64),
    )


@functools.cache
def _doubling() -> tuple[tuple[int, int], ...]:
    """``(A_k, G_k)`` for ``k = 2**i``, i < 64, in Python ints."""
    table: list[tuple[int, int]] = []
    a, g = _MULT, 1
    for _ in range(64):
        table.append((a, g))
        a, g = a * a & _M128, g * (a + 1) & _M128
    return tuple(table)


def _jumps(steps: np.ndarray) -> tuple[U128, U128]:
    """``(A_k, G_k)`` per element of ``steps`` (k < 2**64), by doubling."""
    steps = np.asarray(steps, dtype=np.uint64)
    zero = np.zeros(len(steps), dtype=np.uint64)
    a: U128 = (zero, zero + 1)
    g: U128 = (zero, zero)
    top = int(steps.max()).bit_length() if len(steps) else 0
    for bit, (pa, pg) in enumerate(_doubling()[:top]):
        take = ((steps >> bit) & 1).astype(bool)
        # jumps of one LCG commute, so the order they compose in is free
        (pah, pal), (pgh, pgl) = _split([pa]), _split([pg])
        sa = (np.where(take, pah, 0), np.where(take, pal, 1))
        sg = (np.where(take, pgh, 0), np.where(take, pgl, 0))
        a, g = _mul(a, sa), _add(_mul(g, sa), sg)
    return a, g


# -- draws at positions --------------------------------------------------------


class _Plan:
    """How one layout's runs are drawn, and its short runs' start jumps."""

    __slots__ = ("cells", "runs", "long", "short", "starts")

    def __init__(self, runs: Runs) -> None:
        #: ``(first position, length, column)`` per run
        self.runs: list[tuple[int, int, int]] = []
        col = 0
        for start, length in runs:
            self.runs.append((start, length, col))
            col += length
        self.cells = col
        self.long = [run for run in self.runs if run[1] >= _JUMP_MAX_RUN]
        short = [run for run in self.runs if run[1] < _JUMP_MAX_RUN]
        #: per short run: steps to its first draw, its length and column
        self.short = np.array(
            [(start + 1, length, col) for start, length, col in short], dtype=np.int64
        ).reshape(len(short), 3).T.copy()
        #: per short run: the jump to its first draw, rows ``A_hi, A_lo,
        #: G_hi, G_lo``; filled in the first time the plan is jumped
        self.starts = np.zeros((4, 0), dtype=np.uint64)

    @property
    def ready(self) -> bool:
        return self.starts.shape[1] == self.short.shape[1]


@functools.lru_cache(maxsize=8192)
def _plan(runs: Runs) -> _Plan:
    return _Plan(runs)


def uniforms(
    streams: Streams,
    groups: Sequence[tuple[Runs, np.ndarray]],
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Draws of many streams at the runs of positions they share.

    ``groups`` pairs a layout with the indices (into ``streams``) of the
    streams drawn at it; each group gets a ``(len(indices), cells)`` array,
    row ``i`` holding stream ``indices[i]``'s draws at every run in order.
    Draw ``p`` of a stream equals draw ``p`` of ``default_rng(key)``.
    ``rng`` is the scratch Generator the C route loads streams into
    (:func:`scratch_generator`; made on demand when None).
    """
    plans = [_plan(runs) for runs, _ in groups]
    sizes = [len(index) * plan.cells for (_, index), plan in zip(groups, plans)]
    flat = np.empty(sum(sizes))
    outs: list[np.ndarray] = []
    at = 0
    for (_, index), plan, size in zip(groups, plans, sizes):
        outs.append(flat[at : at + size].reshape(len(index), plan.cells))
        at += size
    short = sum(len(index) * plan.short.shape[1] for (_, index), plan in zip(groups, plans))
    jump = short >= _JUMP_MIN_RUNS
    if jump:
        _draw_jumped(streams, [index for _, index in groups], plans, flat)
    for (_, index), plan, out in zip(groups, plans, outs):
        runs = plan.long if jump else plan.runs
        if not runs:
            continue
        rng = rng or scratch_generator()
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise TypeError("streams are drawn by a PCG64 Generator")
        for row, stream in enumerate(index):
            streams.load(int(stream), rng)
            pos = 0
            for start, length, col in runs:
                if start != pos:
                    bits.advance(start - pos)
                rng.random(out=out[row, col : col + length])
                pos = start + length
    return outs


def _draw_jumped(
    streams: Streams, indices: list[np.ndarray], plans: list[_Plan], flat: np.ndarray
) -> None:
    """Evaluate every short run of every stream into its cells of ``flat``."""
    todo = [plan for plan in plans if not plan.ready]
    if todo:
        (ah, al), (gh, gl) = _jumps(np.concatenate([plan.short[0] for plan in todo]))
        starts = np.stack([ah, al, gh, gl])
        at = 0
        for plan in todo:
            count = plan.short.shape[1]
            plan.starts, at = starts[:, at : at + count], at + count
    # one entry per short run of each stream, from per-group counts
    counts = np.array([plan.short.shape[1] for plan in plans])
    sizes = np.array([len(index) for index in indices])
    pairs = counts * sizes
    if not pairs.any():
        return
    group = np.repeat(np.arange(len(plans)), pairs)
    local = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    member, run = np.divmod(local, counts[group])
    run += np.repeat(np.cumsum(counts) - counts, pairs)
    stream = np.concatenate(indices).astype(np.int64)[
        np.repeat(np.cumsum(sizes) - sizes, pairs) + member
    ]
    short = np.concatenate([plan.short for plan in plans], axis=1)[:, run]
    jump = np.concatenate([plan.starts for plan in plans], axis=1)[:, run]
    width = np.array([plan.cells for plan in plans])
    first = np.cumsum(sizes * width) - sizes * width  # each group's first cell
    cell = first[group] + member * width[group] + short[2]
    # longest runs first, so the runs still drawing at any step are a prefix
    order = np.argsort(-short[1], kind="stable")
    length, stream, jump, cell = short[1, order], stream[order], jump[:, order], cell[order]
    inc = (streams.inc[0][stream], streams.inc[1][stream])
    state = _advance(
        (streams.state[0][stream], streams.state[1][stream]), inc,
        (jump[0], jump[1]), (jump[2], jump[3]),
    )
    # drawing[j]: how many runs are longer than j
    drawing = len(length) - np.cumsum(np.bincount(length))
    for step in range(int(length[0])):
        n = int(drawing[step])
        state, inc = (state[0][:n], state[1][:n]), (inc[0][:n], inc[1][:n])
        flat[cell[:n] + step] = _doubles(state)
        state = _add(_mul(state, _MULT_U128), inc)


# -- bounded draws: Generator.choice and integers -------------------------------

#: numpy's ``choice(n, j, replace=False)`` runs Floyd's algorithm when
#: ``n <= _FLOYD_MAX_POP or j <= n // _FLOYD_CUTOFF``, else a tail shuffle.
_FLOYD_MAX_POP = 10000
_FLOYD_CUTOFF = 50
#: draws checked per pass once a Lemire rejection has been seen (the window
#: doubles while passes find none), and spare outputs drawn per top-up of a
#: stream that rejections ran short.
_REJECT_WINDOW = 64


def trial_words(
    rng: np.random.Generator, n: int, j: int, rows: int, symbol_bits: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` draws of ``j`` distinct positions out of ``n``, made at once.

    Row ``i`` of ``positions`` equals the ``i``-th ``rng.choice(n, j,
    replace=False)`` of a loop; when ``symbol_bits`` is given, each choice
    is followed by ``rng.integers(0, symbol_bits, size=j)``, returned as
    row ``i`` of ``bits`` (else ``bits`` has no columns).  ``rng`` is left in
    exactly the state that loop leaves it in.

    numpy draws one row as uint32 Lemire draws in this order: ``j`` Floyd
    steps (step ``k`` uniform on ``[0, n - j + k]``, a repeat becoming
    ``n - j + k``), ``j - 1`` Fisher-Yates swaps of columns ``j - 1 .. 1``
    (column ``i`` with one uniform on ``[0, i]``), then ``j`` bit draws.
    Only numpy's Floyd regime is reproduced: ``n <= 10000 or j <= n //
    50``, with ``n < 2**32``; other arguments raise ``ValueError``.
    """
    bits_gen = rng.bit_generator
    if not isinstance(bits_gen, np.random.PCG64):
        raise TypeError("trial words are drawn by a PCG64 Generator")
    if not 0 <= j <= n:
        raise ValueError(f"j must be in [0, n={n}], got {j}")
    if n >= 2**32 or (n > _FLOYD_MAX_POP and j > n // _FLOYD_CUTOFF):
        raise ValueError(
            f"choice({n}, {j}) is outside numpy's Floyd regime "
            f"(n <= {_FLOYD_MAX_POP} or j <= n // {_FLOYD_CUTOFF}, n < 2**32)"
        )
    if rows < 0:
        raise ValueError(f"rows must be >= 0, got {rows}")
    if symbol_bits is not None and not 1 <= symbol_bits < 2**32:
        raise ValueError(f"symbol_bits must be in [1, 2**32), got {symbol_bits}")
    # the number of values each of one row's draws is uniform over
    floyd = np.arange(n - j + 1, n + 1)
    swaps = np.arange(j, 1, -1)
    ranges = np.concatenate([floyd, swaps, np.full(j if symbol_bits else 0, symbol_bits or 0)])
    values = bounded_ints(bits_gen, np.tile(ranges, rows)).reshape(rows, len(ranges))
    picks = values[:, :j]
    for k in range(1, j):
        repeat = (picks[:, :k] == picks[:, k : k + 1]).any(axis=1)
        picks[repeat, k] = n - j + k
    every = np.arange(rows)
    for col, other in zip(range(j - 1, 0, -1), values[:, j : j + len(swaps)].T):
        held = picks[every, other]
        picks[every, other] = picks[:, col]
        picks[:, col] = held
    bits = values[:, j + len(swaps) :]
    return np.ascontiguousarray(picks), np.ascontiguousarray(bits)


def _halves(raw: np.ndarray) -> np.ndarray:
    """The uint32 words of 64-bit outputs, low half first, as numpy uses them."""
    words = np.empty(2 * len(raw), dtype=np.uint64)
    words[0::2] = raw & _M32
    words[1::2] = raw >> 32
    return words


def bounded_ints(bits: np.random.PCG64, ranges: npt.ArrayLike) -> np.ndarray:
    """``Generator.integers(r)`` for each ``r`` of ``ranges`` in turn, at once.

    Entry ``i`` equals the ``i``-th scalar ``rng.integers(ranges[i])`` of a
    loop on the Generator of ``bits``, and ``bits`` ends as that loop would
    leave it.  Each range lies in ``[1, 2**32)``; a range of 1 is 0 and,
    as in numpy, draws nothing.
    """
    ranges = np.asarray(ranges, dtype=np.int64)
    if ranges.size and not (ranges.min() >= 1 and ranges.max() < 2**32):
        raise ValueError("ranges must lie in [1, 2**32)")
    live = ranges > 1  # a single-valued draw takes no uint32
    if live.all():
        return _lemire(bits, ranges.astype(np.uint64))
    out = np.zeros(len(ranges), dtype=np.int64)
    if live.any():
        out[live] = _lemire(bits, ranges[live].astype(np.uint64))
    return out


def _lemire(bits: np.random.PCG64, ranges: np.ndarray) -> np.ndarray:
    """numpy's Lemire draws, one per entry of ``ranges`` in turn.

    Draw ``i`` is uniform on ``[0, ranges[i])`` (each range in ``[2,
    2**32)``).  A uint32 ``u`` gives ``m = u * range``; the draw is ``m >>
    32`` unless the low word of ``m`` is below ``(2**32 - range) % range``,
    when it is rejected and the next uint32 is tried, moving every later
    draw one word on.  ``bits`` ends as numpy's own loop would leave it.
    """
    saved = bits.state
    pending = int(saved["has_uint32"])
    head = np.array([saved["uinteger"]] * pending, dtype=np.uint64)
    count = len(ranges)
    words = np.concatenate([head, _halves(bits.random_raw((count - pending + 1) // 2))])
    threshold = (np.uint64(2**32) - ranges) % ranges
    out = np.empty(count, dtype=np.uint64)
    pos = shift = 0  # next unresolved draw; uint32 words rejected so far
    window = count
    while pos < count:
        end = min(count, pos + window)
        if end + shift > len(words):
            extra = bits.random_raw((end + shift - len(words) + 1) // 2 + _REJECT_WINDOW)
            words = np.concatenate([words, _halves(extra)])
        m = words[pos + shift : end + shift] * ranges[pos:end]
        reject = (m & _M32) < threshold[pos:end]
        if not reject.any():
            out[pos:end] = m >> 32
            pos, window = end, 2 * window
            continue
        first = int(reject.argmax())
        out[pos : pos + first] = m[:first] >> 32
        pos, shift = pos + first, shift + 1
        window = max(_REJECT_WINDOW, 2 * first)
    # rewind past the over-drawn outputs to where numpy's loop stops
    bits.state = saved
    if count + shift:
        taken = count + shift - pending  # uint32 words taken from fresh outputs
        raws = (taken + 1) // 2
        if raws:
            bits.advance(raws)
        state = bits.state
        state["has_uint32"] = taken % 2
        state["uinteger"] = int(words[pending + 2 * raws - 1]) if raws else saved["uinteger"]
        bits.state = state
    return out.astype(np.int64)


# -- binomial draws by threshold table -------------------------------------------

#: ``Generator.binomial(n, p)`` runs numpy's inversion loop when ``n > 0``,
#: ``0 < p <= 0.5`` and ``n * p <=`` this; elsewhere it mirrors ``p`` or
#: runs BTPE, whose draws a table cannot reproduce.
BINOMIAL_INVERSION_MAX_MEAN = 30.0
#: the doubles ``random()`` returns are ``i * 2**-53`` for ``0 <= i < 2**53``.
_DOUBLE_STEPS = 2**53
#: ``_MULT``'s inverse mod 2**128, which steps PCG64's LCG back.
_MULT_INVERSE = pow(_MULT, -1, 1 << 128)


@dataclass(frozen=True)
class BinomialTable:
    """``Generator.binomial(n, p)`` as thresholds on the one double it spends.

    numpy's inversion draw takes a double ``U`` and runs ``X = 0, px = q**n;
    while U > px: X += 1; U -= px; px *= (n - X + 1) p / (X q)``, restarting from a fresh ``U`` once ``X`` passes its ``bound``.  Each
    step is monotone in ``U``, so with ``thresholds[k - 1]`` the smallest
    ``U`` that reaches ``X = k``, a draw is the number of ``thresholds[:-1]``
    at or below ``U``, and ``U >= thresholds[-1]`` is a restart.  An
    unreachable threshold is ``inf``.  ``thresholds`` is None outside the
    inversion regime, or where this numpy's loop has another shape
    (:func:`binomial_table`), and :func:`binomials` then calls
    ``rng.binomial``.
    """

    n: int
    p: float
    thresholds: np.ndarray | None


def binomial_table(n: int, p: float) -> BinomialTable:
    """The :class:`BinomialTable` of ``Generator.binomial(n, p)``.

    Each threshold is found with numpy's own draws, from PCG64 states made
    to hand it a chosen double: a gallop out from the cumulative sum of the
    probabilities, where the threshold would be in exact arithmetic
    (usually a few doubles away), then a bisection.  The table is then
    this numpy's, whatever arithmetic its loop runs (a loop that starts
    from ``exp(n log(1 - p))`` gets its own thresholds); it assumes only
    the loop's shape in :class:`BinomialTable`, and is None, numpy's own
    path, if the first double past ``bound`` is not a restart.

    A crafted state: XSL-RR returns the low word of a state whose high word
    is 0, so the state that draws ``i * 2**-53`` steps to ``i << 11``, and
    a draw that leaves the generator elsewhere drew again (a restart).
    """
    if not (n > 0 and 0.0 < p <= 0.5 and p * n <= BINOMIAL_INVERSION_MAX_MEAN):
        return BinomialTable(n, p, None)
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    gen = scratch_generator()
    inc = gen.bit_generator.state["state"]["inc"]

    def count(i: int) -> int:
        """numpy's draw from the double ``i * 2**-53``; ``n + 1`` for a restart."""
        stepped = i << 11
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": (stepped - inc) * _MULT_INVERSE & _M128, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        x = int(gen.binomial(n, p))
        return x if gen.bit_generator.state["state"]["state"] == stepped else n + 1

    def reaches(k: int, i: int) -> bool:
        return count(i) >= k

    top = _DOUBLE_STEPS - 1
    thresholds = np.full(bound + 1, math.inf)
    px, total = math.exp(n * math.log1p(-p)), 0.0
    for k in range(1, bound + 2):
        total += px
        px = (n - k + 1) * p * px / (k * q)
        guess = min(max(math.ceil(total * _DOUBLE_STEPS), 0), top)
        first = _first_true(functools.partial(reaches, k), guess, top)
        if first > top:
            break  # so are all later ones
        thresholds[k - 1] = first / _DOUBLE_STEPS
    else:
        if count(first) <= n:  # a count past bound: not the loop assumed
            return BinomialTable(n, p, None)
    return BinomialTable(n, p, thresholds)


def _first_true(test: Callable[[int], bool], guess: int, top: int) -> int:
    """The smallest ``i`` in ``[0, top]`` with ``test(i)`` (``top + 1`` if
    none) for a ``test`` monotone in ``i``: gallop out from ``guess``, then
    bisect.  ``lo`` stays false (or -1) and ``hi`` true (or ``top + 1``)."""
    step = 1
    if test(guess):
        hi, lo = guess, guess - 1
        while lo >= 0 and test(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)
    else:
        lo, hi = guess, guess + 1
        while hi <= top and not test(hi):
            lo, step = hi, 2 * step
            hi = lo + step
        hi = min(hi, top + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid
    return hi


def binomials(
    rng: np.random.Generator,
    table: BinomialTable,
    size: int | tuple[int, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``rng.binomial(table.n, table.p, size)``, bit for bit, and ``rng`` left
    in the state that call leaves it in.

    The doubles are drawn into ``out`` (a float array of shape ``size``; a
    new one when None), so a caller can reuse that buffer afterwards.
    Most draws of a small mean are 0, so only doubles at or above the first
    threshold are searched.  At the first restart the generator is put
    back to just after that draw's first double (its pending uint32 half
    included) and numpy draws the rest.
    """
    thresholds = table.thresholds
    if thresholds is None:
        return rng.binomial(table.n, table.p, size)
    bits = rng.bit_generator
    saved = bits.state
    u = rng.random(size) if out is None else rng.random(out=out)
    flat = u.reshape(-1)
    counts = np.zeros(flat.shape, dtype=np.int64)
    hit = np.flatnonzero(flat >= thresholds[0])
    values = flat[hit]
    restart = values >= thresholds[-1]
    if restart.any():
        cut = int(restart.argmax())
        hit, values, at = hit[:cut], values[:cut], int(hit[cut])
        bits.state = saved
        bits.advance(at + 1)  # advance clears the pending uint32
        state = bits.state
        state["has_uint32"], state["uinteger"] = saved["has_uint32"], saved["uinteger"]
        bits.state = state
        counts[at:] = rng.binomial(table.n, table.p, len(flat) - at)
    counts[hit] = np.searchsorted(thresholds[:-1], values, side="right")
    return counts.reshape(u.shape)
