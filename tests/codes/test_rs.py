"""Tests for the Reed-Solomon codec (errors, erasures, shortening)."""

import numpy as np
import pytest

from repro.codes import DecodeStatus, ReedSolomonCode
from repro.galois import GF256, get_field

GF16 = get_field(4)


def corrupt(rng, word, n_errors, avoid=()):
    out = word.copy()
    candidates = [i for i in range(len(word)) if i not in avoid]
    pos = rng.choice(candidates, n_errors, replace=False)
    for p in pos:
        out[p] ^= rng.integers(1, 256 if len(word) > 15 else 16)
    return out, set(int(p) for p in pos)


class TestConstruction:
    def test_rejects_bad_dimensions(self):
        # Deliberately invalid (n, k): asserting the runtime guard the
        # static REPRO122 rule mirrors.
        with pytest.raises(ValueError):
            ReedSolomonCode(GF256, 10, 10)  # repro: noqa-REPRO122
        with pytest.raises(ValueError):
            ReedSolomonCode(GF256, 10, 0)  # repro: noqa-REPRO122

    def test_rejects_overlong(self):
        # Deliberately overlong: asserting the runtime guard behind REPRO121.
        with pytest.raises(ValueError):
            ReedSolomonCode(GF256, 256, 200)  # repro: noqa-REPRO121

    def test_generator_properties(self):
        rs = ReedSolomonCode(GF256, 255, 239)
        assert rs.t == 8
        assert rs.d_min == 17
        assert len(rs.generator) == 17  # degree r
        assert rs.generator[-1] == 1  # monic

    def test_generator_roots(self):
        from repro.galois import poly

        rs = ReedSolomonCode(GF16, 15, 9, fcr=1)
        for j in range(6):
            assert poly.evaluate(GF16, rs.generator, GF16.alpha_pow(1 + j)) == 0

    def test_rate_and_overhead(self):
        rs = ReedSolomonCode(GF256, 255, 239)
        assert rs.r == 16
        assert rs.rate == pytest.approx(239 / 255)
        assert rs.overhead == pytest.approx(16 / 239)


class TestEncode:
    def test_systematic_layout(self):
        rng = np.random.default_rng(0)
        rs = ReedSolomonCode(GF256, 255, 239)
        data = rng.integers(0, 256, 239)
        cw = rs.encode(data)
        assert np.array_equal(cw[:239], data)

    def test_codeword_has_zero_syndromes(self):
        rng = np.random.default_rng(1)
        for n, k in [(255, 239), (60, 50), (15, 9)]:
            field = GF256 if n > 15 else GF16
            rs = ReedSolomonCode(field, n, k)
            cw = rs.encode(rng.integers(0, field.order, k))
            assert not np.any(rs.syndromes(cw))

    def test_zero_encodes_to_zero(self):
        rs = ReedSolomonCode(GF256, 100, 80)
        assert not rs.encode(np.zeros(80, dtype=np.int64)).any()

    def test_encode_is_linear(self):
        rng = np.random.default_rng(2)
        rs = ReedSolomonCode(GF256, 60, 40)
        a = rng.integers(0, 256, 40)
        b = rng.integers(0, 256, 40)
        assert np.array_equal(rs.encode(a) ^ rs.encode(b), rs.encode(a ^ b))

    def test_rejects_wrong_shape_and_range(self):
        rs = ReedSolomonCode(GF256, 60, 40)
        with pytest.raises(ValueError):
            rs.encode(np.zeros(39, dtype=np.int64))
        with pytest.raises(ValueError):
            rs.encode(np.full(40, 256, dtype=np.int64))

    def test_is_codeword(self):
        rng = np.random.default_rng(3)
        rs = ReedSolomonCode(GF256, 60, 40)
        cw = rs.encode(rng.integers(0, 256, 40))
        assert rs.is_codeword(cw)
        bad = cw.copy()
        bad[7] ^= 1
        assert not rs.is_codeword(bad)


class TestDecodeErrors:
    @pytest.mark.parametrize("n,k", [(255, 239), (255, 223), (100, 88), (15, 9)])
    def test_corrects_up_to_t(self, n, k):
        field = GF256 if n > 15 else GF16
        rs = ReedSolomonCode(field, n, k)
        rng = np.random.default_rng(n * 31 + k)
        data = rng.integers(0, field.order, k)
        cw = rs.encode(data)
        for nerr in range(0, rs.t + 1):
            word, pos = corrupt(rng, cw, nerr)
            result = rs.decode(word)
            assert result.believed_good
            assert np.array_equal(result.data, data), f"n={n},k={k},errs={nerr}"
            assert result.corrections == nerr
            assert set(result.corrected_positions) == pos

    def test_detects_beyond_t_usually(self):
        rs = ReedSolomonCode(GF256, 255, 239)
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, 239)
        cw = rs.encode(data)
        detected = 0
        for _ in range(40):
            word, _ = corrupt(rng, cw, rs.t + 1)
            if rs.decode(word).status is DecodeStatus.DETECTED:
                detected += 1
        assert detected >= 38  # miscorrection fraction is ~2e-5

    def test_clean_word_is_ok(self):
        rs = ReedSolomonCode(GF256, 100, 88)
        data = np.arange(88, dtype=np.int64)
        result = rs.decode(rs.encode(data))
        assert result.status is DecodeStatus.OK
        assert result.corrections == 0
        assert np.array_equal(result.codeword, rs.encode(data))

    def test_corrected_codeword_field(self):
        rng = np.random.default_rng(6)
        rs = ReedSolomonCode(GF256, 100, 88)
        cw = rs.encode(rng.integers(0, 256, 88))
        word, _ = corrupt(rng, cw, 4)
        result = rs.decode(word)
        assert np.array_equal(result.codeword, cw)

    def test_errors_in_parity_only(self):
        rng = np.random.default_rng(7)
        rs = ReedSolomonCode(GF256, 100, 88)
        data = rng.integers(0, 256, 88)
        cw = rs.encode(data)
        word = cw.copy()
        word[95] ^= 3
        word[99] ^= 200
        result = rs.decode(word)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_rejects_wrong_length(self):
        rs = ReedSolomonCode(GF256, 100, 88)
        with pytest.raises(ValueError):
            rs.decode(np.zeros(99, dtype=np.int64))

    def test_fcr_variants(self):
        rng = np.random.default_rng(8)
        for fcr in (0, 1, 2):
            rs = ReedSolomonCode(GF256, 60, 40, fcr=fcr)
            data = rng.integers(0, 256, 40)
            cw = rs.encode(data)
            word, _ = corrupt(rng, cw, rs.t)
            result = rs.decode(word)
            assert result.believed_good and np.array_equal(result.data, data)


class TestDecodeErasures:
    def test_corrects_r_erasures(self):
        rng = np.random.default_rng(9)
        rs = ReedSolomonCode(GF256, 255, 239)
        data = rng.integers(0, 256, 239)
        cw = rs.encode(data)
        erasures = tuple(int(x) for x in rng.choice(255, rs.r, replace=False))
        word = cw.copy()
        for p in erasures:
            word[p] = rng.integers(0, 256)
        result = rs.decode(word, erasures=erasures)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_errors_and_erasures_boundary(self):
        """Any (v, f) with 2v + f <= r must decode."""
        rng = np.random.default_rng(10)
        rs = ReedSolomonCode(GF256, 100, 84)  # r = 16
        data = rng.integers(0, 256, 84)
        cw = rs.encode(data)
        for f in range(0, rs.r + 1, 4):
            v = (rs.r - f) // 2
            erasures = tuple(int(x) for x in rng.choice(100, f, replace=False))
            word = cw.copy()
            for p in erasures:
                word[p] = rng.integers(0, 256)
            word, _ = corrupt(rng, word, v, avoid=erasures)
            result = rs.decode(word, erasures=erasures)
            assert result.believed_good, f"v={v}, f={f}"
            assert np.array_equal(result.data, data), f"v={v}, f={f}"

    def test_erasure_with_correct_value_is_fine(self):
        """Erased positions whose stored value happens to be right cost nothing."""
        rng = np.random.default_rng(11)
        rs = ReedSolomonCode(GF256, 100, 84)
        data = rng.integers(0, 256, 84)
        cw = rs.encode(data)
        erasures = tuple(int(x) for x in rng.choice(100, 10, replace=False))
        result = rs.decode(cw.copy(), erasures=erasures)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_too_many_erasures_detected(self):
        rng = np.random.default_rng(12)
        rs = ReedSolomonCode(GF256, 100, 84)
        cw = rs.encode(rng.integers(0, 256, 84))
        erasures = tuple(range(rs.r + 1))
        word = cw.copy()
        for p in erasures:
            word[p] ^= rng.integers(1, 256)
        result = rs.decode(word, erasures=erasures)
        assert result.status is DecodeStatus.DETECTED


class TestShortening:
    def test_shortened_shares_generator(self):
        mother = ReedSolomonCode(GF256, 255, 239)
        short = mother.shortened(100, 84)
        assert np.array_equal(short.generator, mother.generator)

    def test_shortened_rejects_different_redundancy(self):
        mother = ReedSolomonCode(GF256, 255, 239)
        with pytest.raises(ValueError):
            mother.shortened(100, 80)

    def test_shortened_codeword_embeds_in_mother(self):
        """A shortened codeword zero-padded at the front is a mother codeword."""
        rng = np.random.default_rng(13)
        mother = ReedSolomonCode(GF256, 255, 239)
        short = mother.shortened(100, 84)
        data = rng.integers(0, 256, 84)
        cw_short = short.encode(data)
        padded_data = np.concatenate([np.zeros(155, dtype=np.int64), data])
        cw_mother = mother.encode(padded_data)
        assert np.array_equal(cw_mother[155:], cw_short)


class TestImpulseParities:
    @pytest.mark.parametrize("n,k", [(255, 240), (60, 40), (15, 9)])
    def test_matches_direct_encode(self, n, k):
        field = GF256 if n > 15 else GF16
        rs = ReedSolomonCode(field, n, k)
        table = rs.impulse_parities()
        assert table.shape == (k, n - k)
        for i in (0, 1, k // 2, k - 1):
            unit = np.zeros(k, dtype=np.int64)
            unit[i] = 1
            assert np.array_equal(table[i], rs.encode(unit)[k:]), f"pos {i}"

    def test_linearity_reconstructs_any_parity(self):
        rng = np.random.default_rng(14)
        rs = ReedSolomonCode(GF256, 100, 84)
        table = rs.impulse_parities()
        data = rng.integers(0, 256, 84)
        products = rs.field.mul(table, data[:, None])
        parity = np.bitwise_xor.reduce(products, axis=0)
        assert np.array_equal(parity, rs.encode(data)[84:])


class TestSyndromes:
    def test_fast_path_matches_horner(self):
        from repro.galois import poly

        rng = np.random.default_rng(15)
        rs = ReedSolomonCode(GF256, 255, 223)
        word = rng.integers(0, 256, 255)
        fast = rs.syndromes(word)
        for j in range(rs.r):
            expect = poly.evaluate(GF256, word[::-1], GF256.alpha_pow(rs.fcr + j))
            assert fast[j] == expect
