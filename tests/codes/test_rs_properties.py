"""Property-based tests for RS expandability (the PAIR enabling property).

PAIR leans on one algebraic fact: a Reed-Solomon decoder built for
``(n, k)`` over GF(2^m) keeps working across the whole *expandable family* -
shortened siblings ``(n - s, k - s)``, any redundancy split, and the singly
extended variant with one extra distance unit.  These tests let hypothesis
roam over ``(n, k, m)`` and error/erasure placements instead of pinning a
handful of examples, with the batch decoder held equal to the scalar one
throughout.

All runs are derandomized (fixed example database seed) so CI is
deterministic; examples are kept small because each draw builds a fresh
code.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codes import DecodeStatus, ReedSolomonCode, SinglyExtendedRS
from repro.galois import get_field

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


@st.composite
def rs_params(draw):
    """(m, n, k) with 1 <= k < n <= 2^m - 1 and at least one check symbol."""
    m = draw(st.sampled_from([4, 8]))
    limit = (1 << m) - 1
    n = draw(st.integers(min_value=3, max_value=min(limit, 40)))
    k = draw(st.integers(min_value=1, max_value=n - 2))
    return m, n, k


@st.composite
def rs_with_errors(draw):
    """A code plus an error pattern within its correction radius."""
    m, n, k = draw(rs_params())
    code = ReedSolomonCode(get_field(m), n, k)  # repro: noqa-REPRO122
    n_errors = draw(st.integers(min_value=0, max_value=code.t))
    positions = draw(
        st.lists(st.integers(0, n - 1), min_size=n_errors, max_size=n_errors,
                 unique=True)
    )
    magnitudes = draw(
        st.lists(st.integers(1, (1 << m) - 1), min_size=n_errors,
                 max_size=n_errors)
    )
    seed = draw(st.integers(0, 2**16))
    return code, positions, magnitudes, seed


def assert_same_row(row, scalar):
    """A ``decode_batch`` row equals the scalar ``decode`` of its word."""
    assert row.status is scalar.status
    assert np.array_equal(row.data, scalar.data)
    assert row.corrected_positions == scalar.corrected_positions
    assert (row.codeword is None) == (scalar.codeword is None)
    if row.codeword is not None:
        assert np.array_equal(row.codeword, scalar.codeword)


def random_data(code, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, code.field.order, code.k, dtype=np.int64)


class TestRoundTrip:
    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16))
    def test_encode_decode_identity(self, params, seed):
        m, n, k = params
        code = ReedSolomonCode(get_field(m), n, k)  # repro: noqa-REPRO122
        data = random_data(code, seed)
        word = code.encode(data)
        assert word.shape == (n,)
        result = code.decode(word)
        assert result.status is DecodeStatus.OK
        assert np.array_equal(result.data, data)

    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16))
    def test_extended_encode_decode_identity(self, params, seed):
        m, n, k = params
        code = SinglyExtendedRS(get_field(m), n + 1, k)
        data = random_data(code, seed)
        word = code.encode(data)
        assert word.shape == (n + 1,)
        # the extension symbol is the GF sum of the inner codeword
        assert int(np.bitwise_xor.reduce(word[:-1])) == int(word[-1])
        result = code.decode(word)
        assert result.status is DecodeStatus.OK
        assert np.array_equal(result.data, data)


class TestErrorCorrection:
    @SETTINGS
    @given(case=rs_with_errors())
    def test_within_radius_errors_corrected(self, case):
        code, positions, magnitudes, seed = case
        data = random_data(code, seed)
        word = code.encode(data)
        for pos, mag in zip(positions, magnitudes):
            word[pos] ^= mag
        result = code.decode(word)
        assert result.status in (DecodeStatus.OK, DecodeStatus.CORRECTED)
        assert np.array_equal(result.data, data)
        if result.status is DecodeStatus.CORRECTED:
            assert set(result.corrected_positions) == set(positions)

    @SETTINGS
    @given(case=rs_with_errors())
    def test_decode_batch_equals_scalar(self, case):
        code, positions, magnitudes, seed = case
        data = random_data(code, seed)
        clean = code.encode(data)
        dirty = clean.copy()
        for pos, mag in zip(positions, magnitudes):
            dirty[pos] ^= mag
        batch = code.decode_batch(np.stack([clean, dirty]))
        for i, word in enumerate((clean, dirty)):
            assert_same_row(batch.row(i), code.decode(word))


class TestErasures:
    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16),
           data_seed=st.integers(0, 2**16))
    def test_burst_erasure_up_to_r(self, params, seed, data_seed):
        """Any run of up to r consecutive erased symbols decodes (2v+f<=r)."""
        m, n, k = params
        code = ReedSolomonCode(get_field(m), n, k)  # repro: noqa-REPRO122
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, code.r + 1))
        start = int(rng.integers(0, n - length + 1))
        erasures = tuple(range(start, start + length))
        data = random_data(code, data_seed)
        word = code.encode(data)
        for pos in erasures:
            word[pos] ^= int(rng.integers(1, code.field.order))
        result = code.decode(word, erasures=erasures)
        assert result.status in (DecodeStatus.OK, DecodeStatus.CORRECTED)
        assert np.array_equal(result.data, data)

    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16))
    def test_errors_and_erasures_budget(self, params, seed):
        """v random errors plus f erasures decode whenever 2v + f <= r."""
        m, n, k = params
        code = ReedSolomonCode(get_field(m), n, k)  # repro: noqa-REPRO122
        rng = np.random.default_rng(seed)
        f = int(rng.integers(0, code.r + 1))
        max_v = (code.r - f) // 2
        v = int(rng.integers(0, max_v + 1)) if max_v > 0 else 0
        picks = rng.choice(n, f + v, replace=False)
        erasures = tuple(int(p) for p in picks[:f])
        data = random_data(code, seed)
        word = code.encode(data)
        for pos in picks:
            word[int(pos)] ^= int(rng.integers(1, code.field.order))
        result = code.decode(word, erasures=erasures)
        assert result.status in (DecodeStatus.OK, DecodeStatus.CORRECTED)
        assert np.array_equal(result.data, data)


class TestExpandability:
    @SETTINGS
    @given(params=rs_params(), shorten=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_shortened_sibling_round_trips(self, params, shorten, seed):
        """Shortening preserves redundancy and the decoder contract."""
        m, n, k = params
        assume(k > shorten)
        code = ReedSolomonCode(get_field(m), n, k)  # repro: noqa-REPRO122
        sibling = code.shortened(n - shorten, k - shorten)
        assert sibling.r == code.r
        assert sibling.t == code.t
        data = random_data(sibling, seed)
        word = sibling.encode(data)
        result = sibling.decode(word)
        assert result.status is DecodeStatus.OK
        assert np.array_equal(result.data, data)

    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16))
    def test_extension_buys_one_distance_unit(self, params, seed):
        m, n, k = params
        inner = ReedSolomonCode(get_field(m), n, k)  # repro: noqa-REPRO122
        extended = SinglyExtendedRS(get_field(m), n + 1, k)
        assert extended.d_min == inner.d_min + 1
        assert extended.t == (inner.r + 1) // 2

    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16))
    def test_extended_corrects_extension_symbol_error(self, params, seed):
        """Case B of the two-hypothesis decode: a corrupted extension symbol
        never reaches the data."""
        m, n, k = params
        code = SinglyExtendedRS(get_field(m), n + 1, k)
        assume(code.t >= 1)
        rng = np.random.default_rng(seed)
        data = random_data(code, seed)
        word = code.encode(data)
        word[-1] ^= int(rng.integers(1, code.field.order))
        result = code.decode(word)
        assert result.status in (DecodeStatus.OK, DecodeStatus.CORRECTED)
        assert np.array_equal(result.data, data)

    @SETTINGS
    @given(params=rs_params(), seed=st.integers(0, 2**16))
    def test_extended_decode_batch_equals_scalar(self, params, seed):
        m, n, k = params
        code = SinglyExtendedRS(get_field(m), n + 1, k)
        rng = np.random.default_rng(seed)
        data = random_data(code, seed)
        clean = code.encode(data)
        dirty = clean.copy()
        n_errors = int(rng.integers(0, code.t + 1))
        if n_errors:
            for pos in rng.choice(code.n, n_errors, replace=False):
                dirty[int(pos)] ^= int(rng.integers(1, code.field.order))
        batch = code.decode_batch(np.stack([clean, dirty]))
        for i, word in enumerate((clean, dirty)):
            assert_same_row(batch.row(i), code.decode(word))
