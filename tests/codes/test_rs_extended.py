"""Tests for the singly extended RS code (PAIR's expandability mechanism)."""

import numpy as np
import pytest

from repro.codes import DecodeStatus, SinglyExtendedRS
from repro.galois import GF256, get_field

GF16 = get_field(4)


class TestConstruction:
    def test_pair_mother_code(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        assert code.n == 256
        assert code.k == 240
        assert code.inner.r == 15
        assert code.t == 8  # one more than the inner t=7
        assert code.d_min == 17

    def test_rejects_overlong(self):
        # Deliberately past the singly-extended bound n = 2^8: asserting the
        # runtime guard behind REPRO121.
        with pytest.raises(ValueError):
            SinglyExtendedRS(GF256, 257, 240)  # repro: noqa-REPRO121

    def test_extension_symbol_is_sum(self):
        rng = np.random.default_rng(0)
        code = SinglyExtendedRS(GF256, 256, 240)
        cw = code.encode(rng.integers(0, 256, 240))
        assert cw[-1] == np.bitwise_xor.reduce(cw[:-1])

    def test_zero_encodes_to_zero(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        assert not code.encode(np.zeros(240, dtype=np.int64)).any()


class TestCorrection:
    def test_corrects_t_errors_anywhere(self):
        """Any 8 symbol errors - including the extension symbol - correct."""
        rng = np.random.default_rng(1)
        code = SinglyExtendedRS(GF256, 256, 240)
        data = rng.integers(0, 256, 240)
        cw = code.encode(data)
        for trial in range(30):
            word = cw.copy()
            pos = rng.choice(256, 8, replace=False)
            for p in pos:
                word[p] ^= rng.integers(1, 256)
            result = code.decode(word)
            assert result.status is DecodeStatus.CORRECTED, trial
            assert np.array_equal(result.data, data)
            assert set(result.corrected_positions) == set(int(p) for p in pos)

    def test_corrects_errors_hitting_extension(self):
        rng = np.random.default_rng(2)
        code = SinglyExtendedRS(GF256, 256, 240)
        data = rng.integers(0, 256, 240)
        cw = code.encode(data)
        # 7 inner errors + the extension symbol = 8 total
        word = cw.copy()
        for p in rng.choice(255, 7, replace=False):
            word[p] ^= rng.integers(1, 256)
        word[255] ^= 99
        result = code.decode(word)
        assert result.believed_good
        assert np.array_equal(result.data, data)
        assert 255 in result.corrected_positions

    def test_extension_only_error(self):
        rng = np.random.default_rng(3)
        code = SinglyExtendedRS(GF256, 256, 240)
        data = rng.integers(0, 256, 240)
        cw = code.encode(data)
        word = cw.copy()
        word[255] ^= 1
        result = code.decode(word)
        assert result.believed_good
        assert np.array_equal(result.data, data)
        assert result.corrected_positions == (255,)

    def test_detects_beyond_t(self):
        rng = np.random.default_rng(4)
        code = SinglyExtendedRS(GF256, 256, 240)
        cw = code.encode(rng.integers(0, 256, 240))
        detected = 0
        for _ in range(30):
            word = cw.copy()
            for p in rng.choice(256, 9, replace=False):
                word[p] ^= rng.integers(1, 256)
            if code.decode(word).status is DecodeStatus.DETECTED:
                detected += 1
        assert detected >= 28

    def test_corrected_codeword_field(self):
        rng = np.random.default_rng(5)
        code = SinglyExtendedRS(GF256, 256, 240)
        cw = code.encode(rng.integers(0, 256, 240))
        word = cw.copy()
        word[3] ^= 7
        word[255] ^= 7
        result = code.decode(word)
        assert np.array_equal(result.codeword, cw)

    def test_clean_word(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        data = np.arange(240, dtype=np.int64) % 256
        result = code.decode(code.encode(data))
        assert result.status is DecodeStatus.OK
        assert np.array_equal(result.data, data)


class TestDistanceGain:
    def test_extension_raises_distance_small_field(self):
        """Exhaustively confirm d_min = r + 2 on a small extended code."""
        code = SinglyExtendedRS(GF16, 16, 12)  # inner (15,12), r=3, d_ext=5
        assert code.d_min == 5
        min_weight = code.n
        rng = np.random.default_rng(6)
        for _ in range(3000):
            data = rng.integers(0, 16, 12)
            if not data.any():
                continue
            w = int(np.count_nonzero(code.encode(data)))
            min_weight = min(min_weight, w)
        assert min_weight >= 5

    def test_small_extended_corrects_two(self):
        """(16,12) extended: t = (3+1)//2 = 2 despite inner t = 1."""
        rng = np.random.default_rng(7)
        code = SinglyExtendedRS(GF16, 16, 12)
        assert code.t == 2
        data = rng.integers(0, 16, 12)
        cw = code.encode(data)
        for trial in range(60):
            word = cw.copy()
            for p in rng.choice(16, 2, replace=False):
                word[p] ^= rng.integers(1, 16)
            result = code.decode(word)
            assert result.believed_good, trial
            assert np.array_equal(result.data, data), trial


class TestErasures:
    def test_inner_erasures(self):
        rng = np.random.default_rng(8)
        code = SinglyExtendedRS(GF256, 256, 240)
        data = rng.integers(0, 256, 240)
        cw = code.encode(data)
        erasures = tuple(int(x) for x in rng.choice(255, 10, replace=False))
        word = cw.copy()
        for p in erasures:
            word[p] = rng.integers(0, 256)
        result = code.decode(word, erasures=erasures)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_extension_erasure(self):
        rng = np.random.default_rng(9)
        code = SinglyExtendedRS(GF256, 256, 240)
        data = rng.integers(0, 256, 240)
        cw = code.encode(data)
        word = cw.copy()
        word[255] = 0
        result = code.decode(word, erasures=(255,))
        assert result.believed_good
        assert np.array_equal(result.data, data)


class TestShortening:
    def test_shortened_expandability(self):
        """The same redundancy serves shorter codewords (x4/x16 variants)."""
        rng = np.random.default_rng(10)
        mother = SinglyExtendedRS(GF256, 256, 240)
        for n, k in [(128, 112), (64, 48)]:
            short = mother.shortened(n, k)
            assert short.t == mother.t
            data = rng.integers(0, 256, k)
            cw = short.encode(data)
            word = cw.copy()
            for p in rng.choice(n, short.t, replace=False):
                word[p] ^= rng.integers(1, 256)
            result = short.decode(word)
            assert result.believed_good
            assert np.array_equal(result.data, data)

    def test_shortened_rejects_redundancy_change(self):
        mother = SinglyExtendedRS(GF256, 256, 240)
        with pytest.raises(ValueError):
            mother.shortened(128, 100)
