"""Tests for the batched GF(2^m) kernels and the field cache."""

import numpy as np
import pytest

from repro.codes import ReedSolomonCode
from repro.galois import GF256, batch_syndromes, get_field, poly, syndrome_tables
from repro.galois.batch import clear_cache


class TestGetFieldCache:
    def test_default_and_explicit_poly_alias(self):
        # The cache keys on the *resolved* polynomial: asking for the
        # default and naming it explicitly must yield one table set.
        assert get_field(8) is get_field(8, 0x11D)
        assert get_field(4) is get_field(4, 0b10011)

    def test_distinct_polynomials_stay_distinct(self):
        a = get_field(8)
        b = get_field(8, 0x11B)  # AES polynomial, also primitive
        assert a is not b
        assert a.mul(2, 2) == b.mul(2, 2) == 4

    def test_pickle_roundtrip_hits_cache(self):
        import pickle

        field = get_field(8)
        clone = pickle.loads(pickle.dumps(field))
        assert clone is field


class TestSyndromeTables:
    def test_cached_per_signature(self):
        clear_cache()
        v1, l1 = syndrome_tables(GF256, 76, 12, 1)
        v2, l2 = syndrome_tables(GF256, 76, 12, 1)
        assert v1 is v2 and l1 is l2
        v3, _ = syndrome_tables(GF256, 76, 12, 0)
        assert v3 is not v1

    def test_vandermonde_values(self):
        v, logv = syndrome_tables(GF256, 10, 3, 1)
        for j in range(3):
            for pos in range(10):
                coeff = 10 - 1 - pos
                assert v[j, pos] == GF256.alpha_pow((1 + j) * coeff)
        assert np.array_equal(GF256._exp[logv], v)


class TestBatchSyndromes:
    @pytest.mark.parametrize("fcr", [0, 1])
    def test_matches_scalar_syndromes(self, fcr):
        rs = ReedSolomonCode(GF256, 76, 64, fcr=fcr)
        rng = np.random.default_rng(42)
        words = rng.integers(0, 256, size=(40, 76))
        words[::3] = 0  # mix in all-zero rows (the screened fast path)
        out = batch_syndromes(GF256, words, rs.r, fcr)
        for i in range(words.shape[0]):
            assert np.array_equal(out[i], rs.syndromes(words[i])), i

    def test_sparse_rows_match_dense(self):
        # Few nonzeros per row triggers the reduceat path; a dense batch of
        # the same words (forced through chunks) must agree.
        rng = np.random.default_rng(7)
        words = np.zeros((64, 255), dtype=np.int64)
        for i in range(64):
            pos = rng.choice(255, 3, replace=False)
            words[i, pos] = rng.integers(1, 256, size=3)
        sparse = batch_syndromes(GF256, words, 16, 1)
        dense = np.stack(
            [batch_syndromes(GF256, words[i : i + 1], 16, 1)[0] for i in range(64)]
        )
        assert np.array_equal(sparse, dense)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            batch_syndromes(GF256, np.zeros(10, dtype=np.int64), 4, 1)

    @pytest.mark.parametrize("value", [-1, 256, 1 << 40])
    def test_rejects_symbols_outside_the_field(self, value):
        # numpy indexing would wrap a negative symbol into the log table
        # and raise IndexError past the top; both must be a ValueError
        # naming the row, the position and the value
        words = np.zeros((3, 40), dtype=np.int64)
        words[1, 7] = 5
        words[2, 9] = value
        with pytest.raises(ValueError, match=rf"row 2, position 9: symbol {value} "):
            batch_syndromes(GF256, words, 4, 1)

    def test_accepts_every_field_symbol(self):
        words = np.arange(16, dtype=np.int64).reshape(1, 16)
        assert batch_syndromes(get_field(4), words, 4, 1).shape == (1, 4)


class TestEvaluateBatch:
    def test_matches_scalar_evaluate(self):
        rng = np.random.default_rng(3)
        polys = rng.integers(0, 256, size=(12, 9))
        xs = rng.integers(0, 256, size=17)
        out = poly.evaluate_batch(GF256, polys, xs)
        for b in range(12):
            for i, x in enumerate(xs):
                assert out[b, i] == poly.evaluate(GF256, polys[b], int(x))

    def test_evaluate_many_grid(self):
        p = [3, 0, 7, 1]
        xs = np.arange(256).reshape(16, 16)
        out = poly.evaluate_many(GF256, p, xs)
        assert out.shape == xs.shape
        flat = poly.evaluate_many(GF256, p, xs.reshape(-1))
        assert np.array_equal(out.reshape(-1), flat)


class TestMulRows:
    def test_dense_table_matches_mul(self):
        field = get_field(4)
        mt = field.mul_rows()
        for a in range(16):
            for b in range(16):
                assert mt[a][b] == field.mul(a, b)

    def test_large_field_on_the_fly(self):
        field = get_field(13)
        mt = field.mul_rows()
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = int(rng.integers(field.order))
            b = int(rng.integers(field.order))
            assert mt[a][b] == field.mul(a, b)
