"""Tests for PAIR with defect profiling and erasure decoding."""

import numpy as np

from repro.codes.base import STATUS_OK, DecodeStatus
from repro.faults import FaultInstance, FaultOverlay, FaultType
from repro.schemes import DefectMap, PairErasureScheme, PairScheme, profile_chip

from .conftest import clean_rates, random_line


def column_fault(pin, offset, density=1.0, rows=65536):
    return FaultInstance(
        FaultType.COLUMN, bank=0, row_start=0, row_count=rows,
        pin=pin, bit_start=offset, bit_count=1, density=density,
    )


def mat_fault(pin, start, bits, rows=65536, density=1.0):
    return FaultInstance(
        FaultType.MAT, bank=0, row_start=0, row_count=rows,
        pin=pin, bit_start=start, bit_count=bits, density=density,
    )


def chips_with_faults(scheme, faults, seed=1):
    overlays = [None] * scheme.rank.chips
    overlays[0] = FaultOverlay(scheme.rank.device, clean_rates(), seed=seed, faults=faults)
    return scheme.make_devices(overlays)


class TestDefectMap:
    def test_mark_and_lookup(self):
        dmap = DefectMap()
        dmap.mark(0, 1, 3, 77)
        assert (3, 77) in dmap.defects(0, 1)
        assert dmap.defects(0, 2) == set()
        assert dmap.total == 1

    def test_idempotent_marking(self):
        dmap = DefectMap()
        dmap.mark(0, 0, 1, 5)
        dmap.mark(0, 0, 1, 5)
        assert dmap.total == 1


class TestProfiling:
    def test_finds_persistent_column(self):
        scheme = PairErasureScheme()
        chips = chips_with_faults(scheme, [column_fault(pin=2, offset=100)])
        marked = scheme.profile(chips, banks=(0,), sample_rows=16, seed=3)
        assert marked == 1
        assert (2, 100) in scheme.defect_map.defects(0, 0)

    def test_ignores_isolated_weak_cells(self):
        """Random weak cells differ per row: below the repeat threshold."""
        scheme = PairErasureScheme()
        rates = clean_rates(single_cell_ber=1e-4)
        overlays = [
            FaultOverlay(scheme.rank.device, rates, seed=c + 9, faults=[])
            for c in range(scheme.rank.chips)
        ]
        chips = scheme.make_devices(overlays)
        marked = scheme.profile(chips, banks=(0,), sample_rows=16, seed=4)
        assert marked == 0

    def test_partial_density_column_still_found(self):
        scheme = PairErasureScheme()
        chips = chips_with_faults(scheme, [column_fault(pin=0, offset=9, density=0.8)])
        marked = scheme.profile(chips, banks=(0,), sample_rows=32, seed=5)
        assert marked == 1

    def test_profile_chip_direct(self):
        scheme = PairScheme()
        chips = chips_with_faults(scheme, [column_fault(pin=1, offset=50)])
        dmap = DefectMap()
        found = profile_chip(chips[0], 0, dmap, banks=(0,), sample_rows=8)
        assert found == 1


class TestErasureDecoding:
    def test_mat_beyond_blind_t_corrected_with_hints(self):
        """12 defective symbols: blind PAIR flags, erasure PAIR corrects."""
        faults = [mat_fault(pin=0, start=0, bits=96)]  # 12 symbols of cw 0
        blind = PairScheme()
        chips_b = chips_with_faults(blind, faults)
        data = random_line(np.random.default_rng(0), blind)
        blind.write_line(chips_b, 0, 100, 0, data)
        assert not blind.read_line(chips_b, 0, 100, 0).believed_good

        hinted = PairErasureScheme()
        chips_h = chips_with_faults(hinted, faults)
        hinted.write_line(chips_h, 0, 100, 0, data)
        hinted.profile(chips_h, banks=(0,), sample_rows=16, seed=6)
        result = hinted.read_line(chips_h, 0, 100, 0)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_batched_reads_use_the_hints(self):
        """read_lines decodes a profiled map's cells as erasures, like read_line."""
        faults = [mat_fault(pin=0, start=0, bits=96)]  # 12 symbols of cw 0
        scheme = PairErasureScheme()
        chips = chips_with_faults(scheme, faults)
        data = random_line(np.random.default_rng(0), scheme)
        scheme.write_line(chips, 0, 100, 0, data)
        scheme.profile(chips, banks=(0,), sample_rows=16, seed=6)
        (result,) = list(scheme.read_lines([(chips, 0, 100, 0, None)]))
        assert result.believed_good
        assert result.corrections == 12
        assert np.array_equal(result.data, data)
        # a batch mixing the defective window with a clean one
        results = list(scheme.read_lines([(chips, 0, 100, 0, None), (chips, 0, 101, 300, None)]))
        assert [r.corrections for r in results] == [12, 0]
        assert all(r.believed_good for r in results)

    def test_valid_codeword_with_erasures_decodes_clean(self):
        """Skipping a clean chip row is exact under hints: a valid codeword
        decoded with erasures is OK with nothing corrected."""
        code = PairErasureScheme().code
        rng = np.random.default_rng(3)
        words = np.stack([
            np.zeros(code.n, dtype=np.int64),
            code.encode(rng.integers(0, 256, code.k)),
        ])
        for word in words:
            result = code.decode(word, erasures=(0, 5, 9))
            assert result.status is DecodeStatus.OK
            assert result.corrections == 0
        batch = code.decode_batch(words, erasures=[(0, 5, 9)] * len(words))
        assert (batch.status == STATUS_OK).all()
        assert not batch.corrected.any()
        assert np.array_equal(batch.codewords, words)

    def test_erasures_plus_random_errors(self):
        """f erasures and v fresh errors decode while 2v + f fits."""
        faults = [mat_fault(pin=3, start=0, bits=64)]  # 8 symbols erased
        scheme = PairErasureScheme()
        chips = chips_with_faults(scheme, faults)
        rng = np.random.default_rng(1)
        data = random_line(rng, scheme)
        scheme.write_line(chips, 0, 7, 0, data)
        scheme.profile(chips, banks=(0,), sample_rows=16, seed=7)
        # add 3 fresh single-bit errors on the same pin codeword (2*3+8=14<=15)
        view = chips[0].row_view(0, 7)
        for off in (100, 300, 700):
            view[3, off] ^= 1
        result = scheme.read_line(chips, 0, 7, 0)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_unprofiled_behaves_like_pair(self):
        scheme = PairErasureScheme()
        chips = scheme.make_devices()
        data = random_line(np.random.default_rng(2), scheme)
        scheme.write_line(chips, 0, 0, 0, data)
        result = scheme.read_line(chips, 0, 0, 0)
        assert result.believed_good
        assert np.array_equal(result.data, data)

    def test_too_many_defects_fall_back_to_blind(self):
        """Past max_erasures the hints are dropped, not mis-spent."""
        scheme = PairErasureScheme(max_erasures=4)
        for off in range(0, 8 * 8, 8):  # 8 defective symbols > cap
            scheme.defect_map.mark(0, 0, 0, off)
        assert scheme._erasures_for_codeword(0, 0, 0) == ()

    def test_erasure_positions_mapped_to_symbols(self):
        scheme = PairErasureScheme()
        scheme.defect_map.mark(0, 0, 5, 17)  # pin 5, bit 17 -> symbol 2
        cw = scheme.layout.codeword_id(5, 0)
        assert scheme._erasures_for_codeword(0, 0, cw) == (2,)
        # other pins' codewords unaffected
        assert scheme._erasures_for_codeword(0, 0, scheme.layout.codeword_id(4, 0)) == ()

    def test_cache_invalidated_by_mark(self):
        """A defect marked after a lookup reaches the next lookup."""
        scheme = PairErasureScheme()
        assert scheme._erasures_for_codeword(0, 0, 0) == ()
        scheme.defect_map.mark(0, 0, 0, 0)
        assert scheme._erasures_for_codeword(0, 0, 0) == (0,)
        assert PairErasureScheme(defect_map=scheme.defect_map)._erasures_for_codeword(
            0, 0, 0) == (0,)

    def test_cache_invalidated_by_profile(self):
        scheme = PairErasureScheme()
        chips = chips_with_faults(scheme, [column_fault(pin=2, offset=100)])
        cw = scheme.layout.codeword_id(2, 0)
        assert scheme._erasures_for_codeword(0, 0, cw) == ()
        scheme.profile(chips, banks=(0,), sample_rows=8, seed=8)
        assert scheme._erasures_for_codeword(0, 0, cw) == (12,)  # bit 100 -> sym 12
