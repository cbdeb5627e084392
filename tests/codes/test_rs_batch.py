"""Property tests: ``decode_batch`` is element-wise identical to ``decode``.

The batched Monte-Carlo engines rely on this contract for bit-identical
tallies, so it is exercised across the whole outcome space: clean words,
correctable errors, erasure mixes, and beyond-bound words (where bounded-
distance decoders either flag or miscorrect - both must match).

A large batch solves its key equations with the vectorised
Berlekamp-Massey pass, while ``decode`` on one word runs the scalar
Sugiyama solver, so the comparisons against per-word ``decode`` below
cover both solvers without any hook: batches of :data:`BIG` dirty words
are above the crossover, and beyond the correction bound (up to ``r + 4``
errors, small fields where miscorrection is common) the two solvers'
accepted locators, results and obs counters must still agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.codes import (
    DecodeStatus,
    HammingSEC,
    HsiaoSECDED,
    ReedSolomonCode,
    SinglyExtendedRS,
)
from repro.codes.rs import _BATCH_SOLVE_MIN, chien_points
from repro.galois import GF256, get_field

RS = ReedSolomonCode(GF256, 76, 64)
RS_FCR0 = ReedSolomonCode(GF256, 40, 32, fcr=0)
EXT = SinglyExtendedRS(GF256, 20, 12)
EXT_FULL = SinglyExtendedRS(GF256, 256, 240)
RS8_FCR0 = ReedSolomonCode(get_field(3), 7, 3, fcr=0)
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


def rs_counters():
    return {k: v for k, v in obs.snapshot()["counters"].items() if k.startswith("rs.")}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_rs_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    words, erasures = random_words(RS, rng, 24, RS.r + 3)
    for batch_result, word, ers in zip(
        RS.decode_batch(words, erasures), words, erasures
    ):
        assert_same_result(batch_result, RS.decode(word, ers), f"seed={seed}")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_rs_fcr0_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    words, erasures = random_words(RS_FCR0, rng, 16, RS_FCR0.r + 2)
    for batch_result, word, ers in zip(
        RS_FCR0.decode_batch(words, erasures), words, erasures
    ):
        assert_same_result(batch_result, RS_FCR0.decode(word, ers), f"seed={seed}")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_extended_rs_batch_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    words, erasures = random_words(EXT, rng, 24, EXT.inner.r + 3)
    for batch_result, word, ers in zip(
        EXT.decode_batch(words, erasures), words, erasures
    ):
        assert_same_result(batch_result, EXT.decode(word, ers), f"seed={seed}")


def test_extended_rs_full_size_batch():
    # The PAIR production code, including words that corrupt the extension
    # symbol (position n-1: exercises the case-A/case-B hypothesis split).
    rng = np.random.default_rng(0xEC)
    words, erasures = random_words(EXT_FULL, rng, 40, EXT_FULL.t + 3)
    words[5, EXT_FULL.n - 1] ^= 0x55
    words[11, EXT_FULL.n - 1] ^= 0x01
    for batch_result, word, ers in zip(
        EXT_FULL.decode_batch(words, erasures), words, erasures
    ):
        assert_same_result(batch_result, EXT_FULL.decode(word, ers))


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
    for batch_result, word, ers in zip(code.decode_batch(words, erasures), words, erasures):
        assert_same_result(batch_result, code.decode(word, ers), f"seed={seed} {code}")


def test_batch_solve_chunks_agree(monkeypatch):
    # Passes of at most _BATCH_SOLVE_ROWS rows, including a last pass below
    # the crossover, give the same results as one pass.
    from repro.codes import rs

    rng = np.random.default_rng(11)
    words, erasures = random_words(EXT16, rng, 50, EXT16.n - EXT16.k + 2, min_errors=1)
    whole = EXT16.decode_batch(words, erasures)
    monkeypatch.setattr(rs, "_BATCH_SOLVE_ROWS", 16)
    for a, b in zip(EXT16.decode_batch(words, erasures), whole):
        assert_same_result(a, b)


def test_large_batch_sees_miscorrections():
    # Sanity for the property above: on GF(2^4) beyond the bound, both
    # miscorrections (CORRECTED to a wrong codeword) and detections occur.
    rng = np.random.default_rng(3)
    for code in (EXT16, RS16_FCR0):
        words, _ = random_words(code, rng, 400, code.n - code.k + 4, min_errors=code.t + 1)
        results = code.decode_batch(words)
        wrong = [r for r in results if r.status is DecodeStatus.CORRECTED and r.data.any()]
        assert wrong, code
        assert any(r.status is DecodeStatus.DETECTED for r in results), code


def test_obs_counters_match_word_by_word():
    # rs.decode.solver_calls and rs.chien.* count per locator, so one batch
    # and the same words decoded one at a time record the same numbers,
    # beyond-bound and erased words included.
    for code in (RS, EXT_FULL, EXT16, RS8_FCR0):
        rng = np.random.default_rng(code.n)
        words, erasures = random_words(code, rng, BIG, min(code.n - code.k + 4, code.n))
        obs.reset()
        with obs.enabled_scope(True):
            code.decode_batch(words, erasures)
            batched = rs_counters()
            obs.reset()
            for word, ers in zip(words, erasures):
                code.decode(word, ers)
            one_by_one = rs_counters()
            obs.reset()
        assert batched == one_by_one, code
        assert batched["rs.chien.searches"] > 0
        assert batched["rs.chien.points"] == batched["rs.chien.searches"] * (
            code.inner.n if isinstance(code, SinglyExtendedRS) else code.n
        )


def test_batch_statuses_cover_all_outcomes():
    # Sanity: the random mix above must actually exercise OK, CORRECTED and
    # DETECTED rows, otherwise the property tests prove less than they claim.
    rng = np.random.default_rng(1)
    words, erasures = random_words(RS, rng, 200, RS.r + 3)
    statuses = {r.status for r in RS.decode_batch(words, erasures)}
    assert statuses == {DecodeStatus.OK, DecodeStatus.CORRECTED, DecodeStatus.DETECTED}


def test_hamming_batch_equals_scalar():
    for code in (HammingSEC(136, 128), HsiaoSECDED(72, 64)):
        rng = np.random.default_rng(9)
        words = np.zeros((120, code.n), dtype=np.uint8)
        for i in range(120):
            n_err = int(rng.integers(0, 4))
            pos = rng.choice(code.n, n_err, replace=False)
            words[i, pos] = 1
        for batch_result, word in zip(code.decode_batch(words), words):
            scalar = code.decode(word)
            assert batch_result.status is scalar.status
            assert np.array_equal(batch_result.data, scalar.data)
            assert batch_result.corrected_positions == scalar.corrected_positions


def test_chien_points_cached_and_correct():
    pts = chien_points(GF256, 76)
    assert pts is chien_points(GF256, 76)
    for c, p in enumerate(pts):
        assert p == GF256.alpha_pow(-c)
    # growing n reuses the same cache entry family without corruption
    longer = chien_points(GF256, 255)
    assert np.array_equal(longer[:76], pts)
