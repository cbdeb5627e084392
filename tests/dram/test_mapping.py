"""Tests for codeword-to-geometry layouts."""

import numpy as np
import pytest

from repro.dram import (
    DDR5_X4,
    DDR5_X8,
    DDR5_X16,
    BeatAlignedLayout,
    PinAlignedLayout,
    SecWordLayout,
)


def fresh_row(device):
    total = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
    return np.zeros((device.pins, total), dtype=np.uint8)


class TestPinAlignedLayout:
    def test_default_tiling(self):
        layout = PinAlignedLayout(DDR5_X8)
        assert layout.segments_per_pin == 4
        assert layout.num_codewords == 32
        assert layout.n == 256

    def test_no_overlap(self):
        PinAlignedLayout(DDR5_X8).check()

    def test_codeword_confined_to_one_pin(self):
        layout = PinAlignedLayout(DDR5_X8)
        for cw in range(layout.num_codewords):
            pins = np.unique(layout._pin_index[cw])
            assert pins.size == 1

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(0)
        layout = PinAlignedLayout(DDR5_X8)
        row = fresh_row(DDR5_X8)
        symbols = rng.integers(0, 256, layout.n)
        layout.scatter(row, 5, symbols)
        assert np.array_equal(layout.gather(row, 5), symbols)

    def test_scatter_does_not_touch_other_codewords(self):
        rng = np.random.default_rng(1)
        layout = PinAlignedLayout(DDR5_X8)
        row = fresh_row(DDR5_X8)
        layout.scatter(row, 3, rng.integers(0, 256, layout.n))
        for cw in range(layout.num_codewords):
            if cw != 3:
                assert not layout.gather(row, cw).any()

    def test_codewords_of_access_one_per_pin(self):
        layout = PinAlignedLayout(DDR5_X8)
        cws = layout.codewords_of_access(0)
        assert len(cws) == 8
        assert len(set(cws)) == 8
        # col 120 starts segment 1 (120 * 16 / 1920)
        assert layout.segment_of_col(119) == 0
        assert layout.segment_of_col(120) == 1

    def test_data_symbol_range(self):
        layout = PinAlignedLayout(DDR5_X8)
        cw = layout.codewords_of_access(0)[0]
        lo, hi = layout.data_symbol_range_of_access(cw, 0)
        assert (lo, hi) == (0, 2)  # 16 bits = 2 symbols per pin per access
        cw = layout.codewords_of_access(121)[0]
        lo, hi = layout.data_symbol_range_of_access(cw, 121)
        assert (lo, hi) == (2, 4)

    def test_access_bits_map_to_access_window(self):
        """The symbols in the access range must be exactly the window bits."""
        rng = np.random.default_rng(2)
        device = DDR5_X8
        layout = PinAlignedLayout(device)
        row = fresh_row(device)
        col = 7
        window = rng.integers(0, 2, (device.pins, device.burst_length)).astype(np.uint8)
        row[:, col * 16 : (col + 1) * 16] = window
        for pin, cw in enumerate(layout.codewords_of_access(col)):
            lo, hi = layout.data_symbol_range_of_access(cw, col)
            syms = layout.gather(row, cw)[lo:hi]
            shifts = np.arange(8)
            bits = ((syms[:, None] >> shifts) & 1).reshape(-1)
            assert np.array_equal(bits, window[pin])

    def test_x4_and_x16_tile(self):
        for device in (DDR5_X4, DDR5_X16):
            layout = PinAlignedLayout(device)
            layout.check()
            assert layout.num_codewords == device.pins * layout.segments_per_pin

    def test_rejects_untileable_geometry(self):
        device = DDR5_X8.scaled(data_bits_per_pin_per_row=7696)
        with pytest.raises(ValueError):
            PinAlignedLayout(device)

    def test_rejects_parity_overflow(self):
        device = DDR5_X8.scaled(spare_bits_per_pin_per_row=256)
        with pytest.raises(ValueError):
            PinAlignedLayout(device)


class TestBeatAlignedLayout:
    def test_equal_overhead_with_pin_layout(self):
        pin = PinAlignedLayout(DDR5_X8)
        beat = BeatAlignedLayout(DDR5_X8)
        assert pin.num_codewords == beat.segments
        assert pin.n == beat.n

    def test_no_overlap(self):
        BeatAlignedLayout(DDR5_X8).check()

    def test_symbols_span_pins(self):
        layout = BeatAlignedLayout(DDR5_X8)
        # every symbol of codeword 0 mixes all 8 pins
        for sym in range(4):
            pins = np.unique(layout._pin_index[0, sym])
            assert pins.size == 8

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(3)
        layout = BeatAlignedLayout(DDR5_X8)
        row = fresh_row(DDR5_X8)
        symbols = rng.integers(0, 256, layout.n)
        layout.scatter(row, 2, symbols)
        assert np.array_equal(layout.gather(row, 2), symbols)

    def test_one_codeword_per_access(self):
        layout = BeatAlignedLayout(DDR5_X8)
        assert len(layout.codewords_of_access(0)) == 1
        lo, hi = layout.data_symbol_range_of_access(0, 0)
        assert hi - lo == 16  # 128 access bits = 16 symbols

    def test_pin_burst_smears_across_symbols(self):
        """The fault-geometry contrast behind ablation F8."""
        device = DDR5_X8
        pin_layout = PinAlignedLayout(device)
        beat_layout = BeatAlignedLayout(device)
        row = fresh_row(device)
        row[3, 0:8] = 1  # 8-beat burst on pin 3 in access 0
        pin_hits = sum(
            np.count_nonzero(pin_layout.gather(row, cw))
            for cw in pin_layout.codewords_of_access(0)
        )
        beat_hits = np.count_nonzero(beat_layout.gather(row, 0))
        assert pin_hits == 1  # one symbol of one pin codeword
        assert beat_hits == 8  # eight symbols of the beat codeword


class TestSecWordLayout:
    def test_dimensions(self):
        layout = SecWordLayout(DDR5_X8)
        assert layout.n == 136
        assert layout.k == 128

    def test_gather_scatter_roundtrip(self):
        rng = np.random.default_rng(4)
        layout = SecWordLayout(DDR5_X8)
        row = fresh_row(DDR5_X8)
        word = rng.integers(0, 2, 136).astype(np.uint8)
        layout.scatter(row, 9, word)
        assert np.array_equal(layout.gather(row, 9), word)

    def test_data_is_beat_major_window(self):
        layout = SecWordLayout(DDR5_X8)
        row = fresh_row(DDR5_X8)
        row[2, 16] = 1  # pin 2, first beat of col 1
        word = layout.gather(row, 1)
        assert word[2] == 1  # beat 0 holds pins 0..7 in order

    def test_distinct_cols_use_distinct_parity(self):
        rng = np.random.default_rng(5)
        layout = SecWordLayout(DDR5_X8)
        row = fresh_row(DDR5_X8)
        w1 = rng.integers(0, 2, 136).astype(np.uint8)
        w2 = rng.integers(0, 2, 136).astype(np.uint8)
        layout.scatter(row, 0, w1)
        layout.scatter(row, 1, w2)
        assert np.array_equal(layout.gather(row, 0), w1)
        assert np.array_equal(layout.gather(row, 1), w2)

    def test_rejects_spare_overflow(self):
        device = DDR5_X8.scaled(spare_bits_per_pin_per_row=32)
        with pytest.raises(ValueError):
            SecWordLayout(device)


def per_bit_gather(layout, row, cw):
    """Codeword ``cw``'s symbols read one bit at a time through the
    (pin, bit-offset) indices."""
    symbols = np.zeros(layout.n, dtype=np.int64)
    for sym in range(layout.n):
        for b in range(layout.symbol_bits):
            pin = layout._pin_index[cw, sym, b]
            bit = layout._bit_index[cw, sym, b]
            symbols[sym] |= int(row[pin, bit]) << b
    return symbols


def per_bit_scatter(layout, row, cw, symbols):
    for sym in range(layout.n):
        for b in range(layout.symbol_bits):
            pin = layout._pin_index[cw, sym, b]
            bit = layout._bit_index[cw, sym, b]
            row[pin, bit] = (int(symbols[sym]) >> b) & 1


@pytest.mark.parametrize("make", [PinAlignedLayout, BeatAlignedLayout],
                         ids=["pin", "beat"])
class TestFlatCellIndex:
    """``gather``, ``gather_many`` and ``scatter`` go through one flat cell
    index; they must agree with the (pin, bit-offset) indices bit for bit."""

    def test_gather_equals_per_bit_reference(self, make):
        layout = make(DDR5_X8)
        row = np.random.default_rng(2).integers(0, 2, fresh_row(DDR5_X8).shape,
                                                dtype=np.uint8)
        want = np.stack([per_bit_gather(layout, row, cw)
                         for cw in range(layout.num_codewords)])
        for cw in range(layout.num_codewords):
            got = layout.gather(row, cw)
            assert got.dtype == np.int64
            assert np.array_equal(got, want[cw])
        every = list(range(layout.num_codewords))
        assert np.array_equal(layout.gather_many(row, every), want)
        some = [every[-1], 0, every[-1], 1 % len(every)]
        assert np.array_equal(layout.gather_many(row, some), want[some])

    def test_scatter_equals_per_bit_reference(self, make):
        layout = make(DDR5_X8)
        rng = np.random.default_rng(3)
        base = rng.integers(0, 2, fresh_row(DDR5_X8).shape, dtype=np.uint8)
        for cw in range(layout.num_codewords):
            symbols = rng.integers(0, 1 << layout.symbol_bits, layout.n)
            got, want = base.copy(), base.copy()
            layout.scatter(got, cw, symbols)
            per_bit_scatter(layout, want, cw, symbols)
            assert np.array_equal(got, want)

    def test_scatter_gather_round_trip(self, make):
        layout = make(DDR5_X8)
        rng = np.random.default_rng(4)
        row = rng.integers(0, 2, fresh_row(DDR5_X8).shape, dtype=np.uint8)
        symbols = rng.integers(0, 1 << layout.symbol_bits,
                               (layout.num_codewords, layout.n))
        for cw in range(layout.num_codewords):
            layout.scatter(row, cw, symbols[cw])
        assert np.array_equal(
            layout.gather_many(row, range(layout.num_codewords)), symbols
        )

    @pytest.mark.parametrize("view", ["strided", "fortran"])
    def test_scatter_writes_through_a_non_contiguous_row(self, make, view):
        layout = make(DDR5_X8)
        rng = np.random.default_rng(5)
        shape = fresh_row(DDR5_X8).shape
        if view == "strided":
            parent = np.zeros((shape[0], 2 * shape[1]), dtype=np.uint8)
            row = parent[:, ::2]
        else:
            parent = np.asfortranarray(np.zeros(shape, dtype=np.uint8))
            row = parent
        assert not row.flags.c_contiguous
        cw = layout.num_codewords - 1
        symbols = rng.integers(0, 1 << layout.symbol_bits, layout.n)
        layout.scatter(row, cw, symbols)
        want = fresh_row(DDR5_X8)
        per_bit_scatter(layout, want, cw, symbols)
        assert np.array_equal(row, want)
        assert np.array_equal(layout.gather(row, cw), symbols)
        assert np.array_equal(layout.gather_many(row, [cw]), symbols[None])
        if view == "strided":
            assert not parent[:, 1::2].any()


class TestFootprintWindows:
    """A read's footprint window holds its codewords' cells side by side, and
    each layout reads codewords straight from windows: equal to the gather
    from the whole row."""

    def test_columns_and_offsets(self):
        from repro.dram.mapping import footprint_columns, window_offset

        footprint = ((3, 5), (9, 12))
        assert footprint_columns(footprint).tolist() == [3, 4, 9, 10, 11]
        assert [window_offset(footprint, bit) for bit in (3, 4, 9, 11)] == [0, 1, 2, 4]
        with pytest.raises(ValueError):
            window_offset(footprint, 6)

    @pytest.mark.parametrize(
        "layout_cls, device",
        [(PinAlignedLayout, DDR5_X4), (PinAlignedLayout, DDR5_X8), (PinAlignedLayout, DDR5_X16),
         (BeatAlignedLayout, DDR5_X4), (BeatAlignedLayout, DDR5_X8)],
        ids=lambda value: getattr(value, "name", getattr(value, "__name__", "")),
    )
    def test_window_symbols_equal_gather_many(self, layout_cls, device):
        from repro.dram.mapping import footprint_columns

        layout = layout_cls(device)
        rng = np.random.default_rng(5)
        cols = (0, 1, 119, 120, device.columns_per_row - 1)
        rows = [rng.integers(0, 2, fresh_row(device).shape, dtype=np.uint8) for _ in cols]
        windows = np.stack([
            row[:, footprint_columns(layout.access_footprint(col))] for row, col in zip(rows, cols)
        ])
        symbols = layout.window_symbols(windows)
        for row, col, got in zip(rows, cols, symbols):
            assert np.array_equal(got, layout.gather_many(row, layout.codewords_of_access(col)))
        assert np.array_equal(layout.window_bits(symbols), windows)

    @pytest.mark.parametrize("device", [DDR5_X8, DDR5_X16], ids=lambda d: d.name)
    def test_sec_window_words_equal_gather(self, device):
        from repro.dram.mapping import footprint_columns

        layout = SecWordLayout(device)
        rng = np.random.default_rng(6)
        for col in (0, 1, 77, device.columns_per_row - 1):
            row = rng.integers(0, 2, fresh_row(device).shape, dtype=np.uint8)
            window = row[:, footprint_columns(layout.access_footprint(col))]
            assert np.array_equal(layout.window_words(window[None])[0], layout.gather(row, col))
