"""Edge-case battery for the RS codec beyond the main test file."""

import numpy as np
import pytest

from repro.codes import DecodeStatus, ReedSolomonCode, SinglyExtendedRS
from repro.galois import GF256, get_field

GF16 = get_field(4)


class TestFullLengthCode:
    def test_n_equals_field_limit(self):
        """The unshortened n = q - 1 code works end to end."""
        rng = np.random.default_rng(0)
        rs = ReedSolomonCode(GF16, 15, 11)
        data = rng.integers(0, 16, 11)
        cw = rs.encode(data)
        word = cw.copy()
        word[0] ^= 5
        word[14] ^= 9
        result = rs.decode(word)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_minimum_dimension(self):
        """k = 1: one data symbol, maximal redundancy."""
        rs = ReedSolomonCode(GF16, 15, 1)
        cw = rs.encode(np.array([7]))
        word = cw.copy()
        for p in (0, 3, 6, 9, 12, 14, 2):  # t = 7 errors
            word[p] ^= 1
        result = rs.decode(word)
        assert result.believed_good
        assert result.data[0] == 7


class TestErrorPositionEdges:
    @pytest.mark.parametrize("position", [0, 1, 238, 239, 240, 253, 254])
    def test_single_error_at_every_region_boundary(self, position):
        rng = np.random.default_rng(position)
        rs = ReedSolomonCode(GF256, 255, 239)
        data = rng.integers(0, 256, 239)
        cw = rs.encode(data)
        word = cw.copy()
        word[position] ^= int(rng.integers(1, 256))
        result = rs.decode(word)
        assert result.corrected_positions == (position,)
        assert np.array_equal(result.data, data)

    def test_all_errors_in_parity_beyond_t_detected(self):
        rng = np.random.default_rng(1)
        rs = ReedSolomonCode(GF256, 100, 88)  # r=12, t=6
        cw = rs.encode(rng.integers(0, 256, 88))
        word = cw.copy()
        for p in range(88, 95):  # 7 parity errors > t
            word[p] ^= int(rng.integers(1, 256))
        result = rs.decode(word)
        # must not silently pass wrong parity as clean data
        assert result.status in (DecodeStatus.DETECTED, DecodeStatus.CORRECTED)
        if result.status is DecodeStatus.CORRECTED:
            # if it corrected, the data must be right (errors were parity-only)
            assert np.array_equal(result.data, cw[:88])


class TestErasureEdges:
    def test_duplicate_erasure_positions_equivalent(self):
        rng = np.random.default_rng(2)
        rs = ReedSolomonCode(GF256, 100, 84)
        data = rng.integers(0, 256, 84)
        cw = rs.encode(data)
        word = cw.copy()
        word[10] = int(rng.integers(0, 256))
        clean = rs.decode(word, erasures=(10,))
        assert clean.believed_good
        assert np.array_equal(clean.data, data)

    def test_erasures_at_data_parity_boundary(self):
        rng = np.random.default_rng(3)
        rs = ReedSolomonCode(GF256, 100, 84)
        data = rng.integers(0, 256, 84)
        cw = rs.encode(data)
        erasures = (83, 84, 85)  # last data symbol + first parity symbols
        word = cw.copy()
        for p in erasures:
            word[p] = int(rng.integers(0, 256))
        result = rs.decode(word, erasures=erasures)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_erasure_position_out_of_support_is_harmless(self):
        """Erasing a position with the right value costs budget but works."""
        rng = np.random.default_rng(4)
        rs = ReedSolomonCode(GF256, 100, 84)
        data = rng.integers(0, 256, 84)
        word = rs.encode(data)
        result = rs.decode(word, erasures=tuple(range(16)))  # f = r
        assert result.believed_good
        assert np.array_equal(result.data, data)

    @pytest.mark.parametrize("erasures", [(10, 10), (3, 10, 3), (0, 0)])
    def test_duplicate_erasure_positions_rejected(self, erasures):
        rs = ReedSolomonCode(GF256, 100, 84)
        word = rs.encode(np.arange(84) % 256)
        with pytest.raises(ValueError, match="distinct"):
            rs.decode(word, erasures=erasures)
        with pytest.raises(ValueError, match="distinct"):
            rs.decode_batch(np.stack([word, word]), [(), erasures])

    @pytest.mark.parametrize("erasures", [(81,), (-1,), (5, 76), (200,)])
    def test_out_of_range_erasure_positions_rejected(self, erasures):
        # (81,) used to turn a one-error word into DETECTED.
        rs = ReedSolomonCode(GF256, 76, 64)
        word = rs.encode(np.arange(64))
        word[3] ^= 1
        with pytest.raises(ValueError, match=r"in \[0, 76\)"):
            rs.decode(word, erasures=erasures)

    def test_extended_code_rejects_positions_past_the_extension(self):
        # Position 261 used to be dropped silently; 255 (the extension
        # symbol) stays a valid erasure.
        code = SinglyExtendedRS(GF256, 256, 240)
        word = code.encode(np.arange(240) % 256)
        with pytest.raises(ValueError, match=r"in \[0, 256\)"):
            code.decode(word, erasures=(261,))
        with pytest.raises(ValueError, match=r"in \[0, 256\)"):
            code.decode(word, erasures=(-2,))
        with pytest.raises(ValueError, match="distinct"):
            code.decode(word, erasures=(255, 255))
        assert code.decode(word, erasures=(255,)).believed_good

    def test_numpy_integer_erasure_positions_accepted(self):
        rs = ReedSolomonCode(GF256, 100, 84)
        word = rs.encode(np.arange(84))
        word[7] ^= 9
        result = rs.decode(word, erasures=tuple(np.array([7, 20])))
        assert result.believed_good
        assert result.corrected_positions == (7,)


class TestBoundedDistanceBehaviour:
    def test_exactly_t_plus_one_never_returns_ok(self):
        """Beyond capability the decoder must never claim OK-without-action."""
        rng = np.random.default_rng(5)
        rs = ReedSolomonCode(GF256, 60, 48)  # t = 6
        cw = rs.encode(rng.integers(0, 256, 48))
        for trial in range(30):
            word = cw.copy()
            for p in rng.choice(60, 7, replace=False):
                word[p] ^= int(rng.integers(1, 256))
            result = rs.decode(word)
            assert result.status is not DecodeStatus.OK, trial

    def test_miscorrection_produces_valid_codeword(self):
        """When bounded-distance decoding does miscorrect, the output is a
        codeword (that is what makes it *silent*)."""
        rng = np.random.default_rng(6)
        rs = ReedSolomonCode(GF16, 15, 11)  # small: miscorrections common
        cw = rs.encode(rng.integers(0, 16, 11))
        seen_miscorrection = False
        for _ in range(300):
            word = cw.copy()
            for p in rng.choice(15, 5, replace=False):  # way beyond t = 2
                word[p] ^= int(rng.integers(1, 16))
            result = rs.decode(word)
            if result.status is DecodeStatus.CORRECTED and not np.array_equal(
                result.data, cw[:11]
            ):
                seen_miscorrection = True
                assert rs.is_codeword(result.codeword)
        assert seen_miscorrection


class TestExtendedEdges:
    def test_shortest_sensible_extended_code(self):
        code = SinglyExtendedRS(GF16, 8, 4)  # inner (7,4), r=3, t=2
        rng = np.random.default_rng(7)
        data = rng.integers(0, 16, 4)
        cw = code.encode(data)
        for positions in [(0, 7), (3, 7), (0, 1)]:
            word = cw.copy()
            for p in positions:
                word[p] ^= 3
            result = code.decode(word)
            assert result.believed_good, positions
            assert np.array_equal(result.data, data), positions

    def test_extended_all_zero_roundtrip(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        result = code.decode(np.zeros(256, dtype=np.int64))
        assert result.status is DecodeStatus.OK
        assert not result.data.any()

    def test_rejects_wrong_length(self):
        code = SinglyExtendedRS(GF256, 256, 240)
        with pytest.raises(ValueError):
            code.decode(np.zeros(255, dtype=np.int64))


class TestSymbolRange:
    """Received symbols outside [0, 2^m) are a caller error, not a word."""

    @pytest.mark.parametrize("value", [-1, 256])
    def test_plain_code_rejects_out_of_range_symbol(self, value):
        rs = ReedSolomonCode(GF256, 40, 36)
        words = np.zeros((2, 40), dtype=np.int64)
        words[1, 3] = value
        with pytest.raises(ValueError, match=rf"row 1, position 3: symbol {value} "):
            rs.decode_batch(words)
        with pytest.raises(ValueError, match=rf"position 3: symbol {value} "):
            rs.decode(words[1])

    @pytest.mark.parametrize("value", [-3, 256])
    def test_extended_code_checks_the_extension_symbol(self, value):
        code = SinglyExtendedRS(GF256, 64, 48)
        words = np.zeros((2, 64), dtype=np.int64)
        words[0, 63] = value
        with pytest.raises(ValueError, match=rf"row 0, position 63: symbol {value} "):
            code.decode_batch(words)
        with pytest.raises(ValueError, match=rf"position 63: symbol {value} "):
            code.decode(words[0])

    def test_largest_symbol_still_decodes(self):
        rs = ReedSolomonCode(GF256, 40, 36)
        word = rs.encode(np.zeros(36, dtype=np.int64))
        word[5] = 255
        assert rs.decode(word).status is DecodeStatus.CORRECTED
