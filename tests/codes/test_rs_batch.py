"""Property tests: ``decode_batch(W).row(i)`` equals ``decode(W[i])``.

The batched Monte-Carlo engines and the conditional tables rely on this
contract for bit-identical tallies, so it is exercised for all four codes
across the whole outcome space: clean words, correctable errors, erasure
mixes (the extended code's extension symbol included, which sends a row
straight to its case-B hypothesis), and beyond-bound words (where bounded-
distance decoders either flag or miscorrect - both must match).

A large batch solves its key equations with the vectorised
Berlekamp-Massey pass, while ``decode`` on one word runs the scalar
Sugiyama solver, so the comparisons against per-word ``decode`` below
cover both solvers without any hook: batches of :data:`BIG` dirty words
are above the crossover, batch sizes straddle :data:`_BATCH_SOLVE_MIN` and
:data:`_BATCH_SOLVE_ROWS`, and beyond the correction bound (up to ``r + 4``
errors, small fields where miscorrection is common) the two solvers'
accepted locators, results and obs counters must still agree.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.codes import (
    BatchDecode,
    DecodeStatus,
    HammingSEC,
    HsiaoSECDED,
    ReedSolomonCode,
    SinglyExtendedRS,
)
from repro.codes.base import STATUS_CORRECTED
from repro.codes.rs import _BATCH_SOLVE_MIN, _BATCH_SOLVE_ROWS, chien_points
from repro.galois import GF256, get_field

RS = ReedSolomonCode(GF256, 76, 64)
RS_FCR0 = ReedSolomonCode(GF256, 40, 32, fcr=0)
EXT = SinglyExtendedRS(GF256, 20, 12)
EXT_FULL = SinglyExtendedRS(GF256, 256, 240)
RS8_FCR0 = ReedSolomonCode(get_field(3), 7, 3, fcr=0)
SEC = HammingSEC(136, 128)
SECDED = HsiaoSECDED(72, 64)
RS16 = ReedSolomonCode(get_field(4), 15, 10)
RS16_FCR0 = ReedSolomonCode(get_field(4), 15, 9, fcr=0)
EXT16 = SinglyExtendedRS(get_field(4), 16, 10)
EXT8 = SinglyExtendedRS(get_field(3), 8, 4)

#: rows per batch that certainly take the vectorised key-equation solve.
BIG = 3 * _BATCH_SOLVE_MIN


def assert_same_result(a, b, ctx=""):
    assert a.status is b.status, ctx
    assert np.array_equal(a.data, b.data), ctx
    assert a.corrected_positions == b.corrected_positions, ctx
    assert (a.codeword is None) == (b.codeword is None), ctx
    if a.codeword is not None:
        assert np.array_equal(a.codeword, b.codeword), ctx


def assert_rows_match(code, words, erasures=None, ctx=""):
    """``decode_batch(words).row(i)`` equals ``decode(words[i])`` for every row."""
    if erasures is None:
        batch = code.decode_batch(words)
        scalars = [code.decode(word) for word in words]
    else:
        batch = code.decode_batch(words, erasures)
        scalars = [code.decode(word, ers) for word, ers in zip(words, erasures)]
    assert isinstance(batch, BatchDecode)
    assert len(batch) == len(words)
    for i, scalar in enumerate(scalars):
        assert_same_result(batch.row(i), scalar, f"{ctx} row {i}")
    return batch


def random_bit_words(code, rng, count, max_errors, min_errors=0):
    """Corrupted zero codewords of a binary code."""
    words = np.zeros((count, code.n), dtype=np.uint8)
    for i in range(count):
        n_err = int(rng.integers(min_errors, max_errors + 1))
        words[i, rng.choice(code.n, n_err, replace=False)] = 1
    return words


def random_words(code, rng, count, max_errors, min_errors=0):
    """Corrupted zero codewords plus per-word erasure hints."""
    words = np.zeros((count, code.n), dtype=np.int64)
    erasures = []
    for i in range(count):
        n_err = int(rng.integers(min_errors, max_errors + 1))
        pos = rng.choice(code.n, n_err, replace=False)
        words[i, pos] = rng.integers(1, code.field.order, size=n_err)
        # erase a mix of genuinely-corrupted and clean positions
        hint = set(int(p) for p in pos[: int(rng.integers(0, n_err + 1))])
        while rng.random() < 0.3:
            hint.add(int(rng.integers(code.n)))
        erasures.append(tuple(sorted(hint)))
    return words, erasures


def decoder_counters():
    return {
        k: v
        for k, v in obs.snapshot()["counters"].items()
        if k.startswith(("rs.", "hamming."))
    }


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_rs_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    words, erasures = random_words(RS, rng, 24, RS.r + 3)
    assert_rows_match(RS, words, erasures, f"seed={seed}")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_rs_fcr0_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    words, erasures = random_words(RS_FCR0, rng, 16, RS_FCR0.r + 2)
    assert_rows_match(RS_FCR0, words, erasures, f"seed={seed}")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_extended_rs_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    words, erasures = random_words(EXT, rng, 24, EXT.inner.r + 3)
    assert_rows_match(EXT, words, erasures, f"seed={seed}")


def test_extended_rs_full_size_batch():
    # The PAIR production code, including words that corrupt the extension
    # symbol (position n-1: exercises the case-A/case-B hypothesis split).
    rng = np.random.default_rng(0xEC)
    words, erasures = random_words(EXT_FULL, rng, 40, EXT_FULL.t + 3)
    words[5, EXT_FULL.n - 1] ^= 0x55
    words[11, EXT_FULL.n - 1] ^= 0x01
    assert_rows_match(EXT_FULL, words, erasures)


@pytest.mark.parametrize("code", [EXT, EXT16, EXT8, EXT_FULL])
def test_extended_rs_case_b_only_rows(code):
    # An erased extension symbol sends a row straight to case B; with every
    # row so erased, case A never runs.  Batch sizes on both sides of the
    # solver crossover.
    rng = np.random.default_rng(code.n)
    for count in (3, BIG):
        words, erasures = random_words(code, rng, count, code.n - code.k + 2)
        words[:, -1] ^= rng.integers(0, code.field.order, size=count)
        erasures = [tuple(sorted({*ers, code.n - 1})) for ers in erasures]
        batch = assert_rows_match(code, words, erasures, f"{code} {count}")
        assert batch.detected.any() and not batch.detected.all(), code


LARGE_BATCH_CODES = [RS, RS_FCR0, EXT_FULL, RS8_FCR0, RS16, RS16_FCR0, EXT16, EXT8]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    code=st.sampled_from(LARGE_BATCH_CODES),
    erase=st.booleans(),
)
def test_large_batch_equals_scalar(seed, code, erase):
    # Every word is dirty and the batch is above the crossover, so the
    # batch takes the vectorised solve and each scalar decode the Sugiyama
    # one; error counts run to r + 4, far beyond the correction bound.
    rng = np.random.default_rng(seed)
    r = code.n - code.k
    words, erasures = random_words(code, rng, BIG, min(r + 4, code.n), min_errors=1)
    if not erase:
        erasures = [()] * BIG
    assert_rows_match(code, words, erasures, f"seed={seed} {code}")


ALL_CODES = [RS, EXT_FULL, EXT16, RS8_FCR0, SEC, SECDED]


def mixed_words(code, rng, count, min_errors=0):
    """Clean, correctable, beyond-bound and (for RS) erased rows."""
    if isinstance(code, (HammingSEC, HsiaoSECDED)):
        return random_bit_words(code, rng, count, 4, min_errors), None
    return random_words(code, rng, count, min(code.n - code.k + 4, code.n), min_errors)


@pytest.mark.parametrize("code", ALL_CODES, ids=repr)
@pytest.mark.parametrize(
    "count",
    [_BATCH_SOLVE_MIN - 1, _BATCH_SOLVE_MIN, _BATCH_SOLVE_MIN + 1, _BATCH_SOLVE_ROWS + 1],
)
def test_rows_equal_scalar_across_solver_boundaries(code, count):
    # Every row is dirty, so 11/12/13 rows straddle the scalar/vectorised
    # solver crossover; 1025 rows need two vectorised passes.
    rng = np.random.default_rng(count)
    words, erasures = mixed_words(code, rng, count, min_errors=1)
    assert_rows_match(code, words, erasures, f"{code} {count}")


def test_batch_solve_chunks_agree(monkeypatch):
    # Passes of at most _BATCH_SOLVE_ROWS rows, including a last pass below
    # the crossover, give the same results as one pass.
    from repro.codes import rs

    rng = np.random.default_rng(11)
    words, erasures = random_words(EXT16, rng, 50, EXT16.n - EXT16.k + 2, min_errors=1)
    whole = EXT16.decode_batch(words, erasures)
    monkeypatch.setattr(rs, "_BATCH_SOLVE_ROWS", 16)
    chunked = EXT16.decode_batch(words, erasures)
    for i in range(len(words)):
        assert_same_result(chunked.row(i), whole.row(i))


def test_large_batch_sees_miscorrections():
    # Sanity for the property above: on GF(2^4) beyond the bound, both
    # miscorrections (CORRECTED to a wrong codeword) and detections occur.
    rng = np.random.default_rng(3)
    for code in (EXT16, RS16_FCR0):
        words, _ = random_words(code, rng, 400, code.n - code.k + 4, min_errors=code.t + 1)
        batch = code.decode_batch(words)
        corrected = batch.status == STATUS_CORRECTED
        assert (corrected & batch.data.any(axis=1)).any(), code
        assert batch.detected.any(), code


def test_obs_counters_match_word_by_word():
    # Every decoder counter - rs.decode.{words,clean_short_circuit,detected,
    # corrected_words,solver_calls}, rs.chien.* and hamming.decode.* - is
    # the sum of its per-word values: one batch and the same words decoded
    # one at a time record the same numbers, beyond-bound and erased words
    # included, below the solver crossover, above it, and across two passes.
    for count, code in itertools.product(
        (_BATCH_SOLVE_MIN - 1, BIG, _BATCH_SOLVE_ROWS + 1), ALL_CODES
    ):
        words, erasures = mixed_words(code, np.random.default_rng(code.n), count)
        obs.reset()
        with obs.enabled_scope(True):
            if erasures is None:
                batch = code.decode_batch(words)
            else:
                batch = code.decode_batch(words, erasures)
            batched = decoder_counters()
            obs.reset()
            for i, word in enumerate(words):
                if erasures is None:
                    code.decode(word)
                else:
                    code.decode(word, erasures[i])
            one_by_one = decoder_counters()
            obs.reset()
        assert batched == one_by_one, code
        prefix = "hamming" if erasures is None else "rs"
        assert batched[f"{prefix}.decode.words"] == count
        assert batched.get(f"{prefix}.decode.detected", 0) == np.count_nonzero(batch.detected)
        assert batched.get(f"{prefix}.decode.corrected_words", 0) == np.count_nonzero(
            batch.status == STATUS_CORRECTED
        )
        if prefix == "rs":
            assert batched["rs.chien.searches"] > 0
            assert batched["rs.chien.points"] == batched["rs.chien.searches"] * (
                code.inner.n if isinstance(code, SinglyExtendedRS) else code.n
            )


def test_batch_statuses_cover_all_outcomes():
    # Sanity: the random mix above must actually exercise OK, CORRECTED and
    # DETECTED rows, otherwise the property tests prove less than they claim.
    rng = np.random.default_rng(1)
    for code in ALL_CODES:
        words, erasures = mixed_words(code, rng, 200)
        batch = code.decode_batch(words) if erasures is None else code.decode_batch(words, erasures)
        statuses = {row.status for row in batch.rows()}
        assert statuses == {DecodeStatus.OK, DecodeStatus.CORRECTED, DecodeStatus.DETECTED}, code


def test_hamming_batch_equals_scalar():
    for code in (SEC, SECDED, HammingSEC(7, 4)):
        words = random_bit_words(code, np.random.default_rng(9), 120, 3)
        assert_rows_match(code, words, ctx=repr(code))
        assert_rows_match(code, words.astype(bool), ctx=repr(code))


def test_batch_decode_has_no_iterator():
    # A per-word walk has to be spelled out with rows().
    batch = RS.decode_batch(np.zeros((3, RS.n), dtype=np.int64))
    with pytest.raises(TypeError):
        iter(batch)
    assert [row.status for row in batch.rows()] == [DecodeStatus.OK] * 3
    assert batch.data.base is batch.codewords or batch.data.base is batch.codewords.base


def test_chien_points_cached_and_correct():
    pts = chien_points(GF256, 76)
    assert pts is chien_points(GF256, 76)
    for c, p in enumerate(pts):
        assert p == GF256.alpha_pow(-c)
    # growing n reuses the same cache entry family without corruption
    longer = chien_points(GF256, 255)
    assert np.array_equal(longer[:76], pts)
