"""Tests for fault sampling and mask materialisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DDR5_X8, DeviceConfig
from repro.dram.mapping import footprint_columns, merge_spans
from repro.faults import (
    FaultInstance,
    FaultOverlay,
    FaultRates,
    FaultSampler,
    FaultType,
    TransferBurst,
    burst_mask,
    sample_transfer_burst,
)
from repro.faults import rng as fault_rng
from repro.faults.sampler import dirty_overlays, sample_fault_lists

SHAPE = (8, 8192)


def clean_rates(**overrides):
    base = dict(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )
    base.update(overrides)
    return FaultRates(**base)


class TestSampler:
    def test_deterministic_per_seed(self):
        rates = FaultRates(row_faults_per_device=5.0, column_faults_per_device=5.0)
        a = FaultSampler(DDR5_X8, rates, seed=7).sample_faults()
        b = FaultSampler(DDR5_X8, rates, seed=7).sample_faults()
        assert a == b
        c = FaultSampler(DDR5_X8, rates, seed=8).sample_faults()
        assert a != c  # overwhelmingly likely with 10 expected faults

    def test_poisson_counts_track_rates(self):
        rates = clean_rates(column_faults_per_device=3.0)
        counts = [
            len(FaultSampler(DDR5_X8, rates, seed=s).sample_faults())
            for s in range(200)
        ]
        mean = np.mean(counts)
        assert 2.5 < mean < 3.5

    def test_fault_geometries(self):
        rates = FaultRates(
            row_faults_per_device=3.0, column_faults_per_device=3.0,
            pin_faults_per_device=3.0, mat_faults_per_device=3.0,
        )
        faults = [
            f
            for seed in range(5)
            for f in FaultSampler(DDR5_X8, rates, seed=seed).sample_faults()
        ]
        kinds = {f.kind for f in faults}
        assert kinds >= {FaultType.ROW, FaultType.COLUMN, FaultType.PIN_LINE, FaultType.MAT}
        for f in faults:
            if f.kind is FaultType.ROW:
                assert f.pin == -1 and f.row_count == 1
            if f.kind is FaultType.COLUMN:
                assert f.bit_count == 1 and f.row_count == rates.column_rows
            if f.kind is FaultType.PIN_LINE:
                assert f.row_count == DDR5_X8.rows_per_bank
            if f.kind is FaultType.MAT:
                assert f.row_count == rates.mat_rows and f.bit_count == rates.mat_bits


#: per-class Poisson means around the screen's edges: none, sparse, the
#: multiplication method up to its limit, and the PTRS route from 10 on
SCREEN_RATES = (0.0, 1e-3, 0.5, 3.0, 9.99, 10.0, 25.0)


def class_rates(row, column, pin, mat):
    return clean_rates(
        row_faults_per_device=row, column_faults_per_device=column,
        pin_faults_per_device=pin, mat_faults_per_device=mat,
    )


def scalar_fault_lists(rates, seeds):
    return [FaultSampler(DDR5_X8, rates, seed).sample_faults() for seed in seeds]


class TestSampleFaultLists:
    """The batched populations equal each sampler's own, fault for fault."""

    @given(
        means=st.tuples(*[st.sampled_from(SCREEN_RATES)] * 4),
        # seeds from 2**32 on take two uint32 words of the seed key
        seeds=st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63)),
            min_size=0, max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_batches_equal_sample_faults(self, means, seeds):
        rates = class_rates(*means)
        assert len(seeds) < fault_rng._JUMP_MIN_RUNS  # the screen's C route
        assert sample_fault_lists(DDR5_X8, rates, seeds) == scalar_fault_lists(rates, seeds)

    @pytest.mark.parametrize("means", [
        (2e-3, 4e-3, 5e-4, 1e-3),  # the default rates: ~1% of samplers draw
        (0.5, 3.0, 0.0, 9.99),
        (0.0, 0.0, 0.0, 0.0),
        (10.0, 1e-3, 0.0, 0.0),  # past the screen: every sampler draws
    ])
    def test_large_batch_equals_sample_faults(self, means):
        rates = class_rates(*means)
        seeds = [seed * 1009 + chip for seed in range(300) for chip in range(4)]
        seeds += [2**40 + seed for seed in range(8)]
        assert len(seeds) >= fault_rng._JUMP_MIN_RUNS  # the screen's jumped route
        assert sample_fault_lists(DDR5_X8, rates, seeds) == scalar_fault_lists(rates, seeds)


class TestOverlay:
    def test_mask_deterministic(self):
        overlay = FaultOverlay(DDR5_X8, FaultRates(single_cell_ber=1e-3), seed=1)
        m1 = overlay.mask_for_row(0, 10, SHAPE)
        overlay2 = FaultOverlay(DDR5_X8, FaultRates(single_cell_ber=1e-3), seed=1)
        m2 = overlay2.mask_for_row(0, 10, SHAPE)
        assert np.array_equal(m1, m2)

    def test_clean_row_returns_none(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=2, faults=[])
        assert overlay.mask_for_row(0, 0, SHAPE) is None

    def test_single_cell_ber_statistics(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(single_cell_ber=1e-3), seed=3, faults=[])
        total = 0
        for row in range(20):
            mask = overlay.mask_for_row(0, row, SHAPE)
            total += int(mask.sum()) if mask is not None else 0
        expected = 20 * SHAPE[0] * SHAPE[1] * 1e-3
        assert 0.7 * expected < total < 1.3 * expected

    def test_forced_column_fault_hits_exactly_one_bitline(self):
        fault = FaultInstance(
            FaultType.COLUMN, bank=0, row_start=0, row_count=100,
            pin=3, bit_start=77, bit_count=1, density=1.0,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=4, faults=[fault])
        mask = overlay.mask_for_row(0, 50, SHAPE)
        assert mask[3, 77] == 1
        assert mask.sum() == 1
        assert overlay.mask_for_row(0, 100, SHAPE) is None  # outside range
        assert overlay.mask_for_row(1, 50, SHAPE) is None  # other bank

    def test_forced_row_fault_spans_all_pins(self):
        fault = FaultInstance(
            FaultType.ROW, bank=2, row_start=9, row_count=1,
            pin=-1, bit_start=0, bit_count=8192, density=0.5,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=5, faults=[fault])
        mask = overlay.mask_for_row(2, 9, SHAPE)
        per_pin = mask.sum(axis=1)
        assert np.all(per_pin > 3000)  # ~4096 expected per pin

    def test_density_controls_intensity(self):
        fault_lo = FaultInstance(
            FaultType.MAT, bank=0, row_start=0, row_count=1,
            pin=0, bit_start=0, bit_count=1000, density=0.1,
        )
        fault_hi = FaultInstance(
            FaultType.MAT, bank=0, row_start=0, row_count=1,
            pin=0, bit_start=0, bit_count=1000, density=0.9,
        )
        lo = FaultOverlay(DDR5_X8, clean_rates(), seed=6, faults=[fault_lo])
        hi = FaultOverlay(DDR5_X8, clean_rates(), seed=6, faults=[fault_hi])
        assert hi.mask_for_row(0, 0, SHAPE).sum() > lo.mask_for_row(0, 0, SHAPE).sum()

    def test_faults_in_row_lookup(self):
        fault = FaultInstance(
            FaultType.PIN_LINE, bank=1, row_start=0, row_count=DDR5_X8.rows_per_bank,
            pin=2, bit_start=0, bit_count=8192, density=0.5,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=7, faults=[fault])
        assert overlay.faults_in_row(1, 123) == [fault]
        assert overlay.faults_in_row(0, 123) == []


class TestTransferBursts:
    def test_sampling_respects_probability(self):
        rng = np.random.default_rng(0)
        rates = clean_rates(transfer_burst_per_access=1.0, )
        rates = FaultRates(
            single_cell_ber=0, row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
            transfer_burst_per_access=1.0, transfer_burst_length=8,
        )
        burst = sample_transfer_burst(rng, DDR5_X8, rates)
        assert burst is not None
        assert 0 <= burst.pin < 8
        assert burst.beat_start + burst.length <= 16

    def test_zero_probability_never_samples(self):
        rng = np.random.default_rng(1)
        assert sample_transfer_burst(rng, DDR5_X8, clean_rates()) is None

    def test_burst_mask_geometry(self):
        mask = burst_mask(DDR5_X8, TransferBurst(pin=5, beat_start=4, length=8))
        assert mask.shape == (8, 16)
        assert mask.sum() == 8
        assert mask[5, 4:12].all()


class TestCellClusters:
    def test_clusters_flip_adjacent_pairs(self):
        rates = FaultRates(
            single_cell_ber=0.0, cell_cluster_per_bit=5e-4,
            row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
        )
        overlay = FaultOverlay(DDR5_X8, rates, seed=8, faults=[])
        mask = overlay.mask_for_row(0, 0, SHAPE)
        assert mask is not None
        # every flipped bit has a flipped along-pin neighbour
        import numpy as np

        pins, offs = np.nonzero(mask)
        for p, o in zip(pins, offs):
            left = o > 0 and mask[p, o - 1]
            right = o < SHAPE[1] - 1 and mask[p, o + 1]
            assert left or right, (p, o)

    def test_cluster_rate_statistics(self):
        rates = FaultRates(
            single_cell_ber=0.0, cell_cluster_per_bit=1e-3,
            row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
        )
        overlay = FaultOverlay(DDR5_X8, rates, seed=9, faults=[])
        total = sum(
            int(m.sum())
            for m in (overlay.mask_for_row(0, r, SHAPE) for r in range(10))
            if m is not None
        )
        expected = 2 * 10 * SHAPE[0] * SHAPE[1] * 1e-3
        assert 0.7 * expected < total < 1.3 * expected

    def test_only_preserves_cluster_isolation(self):
        rates = FaultRates(cell_cluster_per_bit=1e-3)
        isolated = rates.only(FaultType.SINGLE_CELL)
        assert isolated.cell_cluster_per_bit == 0.0


# -- footprint-windowed masks ---------------------------------------------------


def full_row_oracle(overlay, bank, row, shape):
    """Reference whole-row mask: every process draws its full row matrix.

    The overlay's mask builder before footprints existed, kept here as the
    oracle the windowed masks are restricted from.
    """
    rng = np.random.default_rng([overlay.seed, bank, row, 0xCE11])
    mask = None
    ber = overlay.rates.single_cell_ber
    if ber > 0:
        flips = rng.random(shape) < ber
        if flips.any():
            mask = flips.astype(np.uint8)
    cluster = overlay.rates.cell_cluster_per_bit
    if cluster > 0:
        anchors = rng.random(shape) < cluster
        if anchors.any():
            pair = anchors.astype(np.uint8)
            pair[:, 1:] |= anchors[:, :-1].astype(np.uint8)
            mask = pair if mask is None else (mask | pair)
    pins, total_bits = shape
    for index, fault in enumerate(overlay.faults):
        if not fault.affects_row(bank, row):
            continue
        frng = np.random.default_rng([overlay.seed, bank, row, 0xFA1137 + index])
        fmask = np.zeros(shape, dtype=np.uint8)
        bit_end = min(fault.bit_start + fault.bit_count, total_bits)
        width = bit_end - fault.bit_start
        if width <= 0:
            continue
        if fault.pin < 0:
            fmask[:, fault.bit_start : bit_end] = frng.random((pins, width)) < fault.density
        else:
            fmask[fault.pin, fault.bit_start : bit_end] = frng.random(width) < fault.density
        if fmask.any():
            mask = fmask if mask is None else (mask ^ fmask)
    return mask


def restricted(mask, footprint, shape):
    out = np.zeros(shape, dtype=np.uint8)
    if mask is not None:
        for start, end in footprint:
            out[:, start:end] = mask[:, start:end]
    return out


def assert_window_exact(overlay, bank, row, shape, footprint):
    """Windowed mask == oracle restricted to the footprint; None iff zero."""
    expected = restricted(full_row_oracle(overlay, bank, row, shape), footprint, shape)
    got = overlay.mask_for_row(bank, row, shape, footprint)
    if expected.any():
        assert got is not None
        assert got.dtype == np.uint8 and got.shape == shape
        assert np.array_equal(got, expected)
    else:
        assert got is None


def assert_put_back_exact(config, rates, seed, faults, bank, row, footprint):
    """The chunk pass's footprint-sized mask, put back into a zero row, is
    ``mask_for_row`` over the footprint; the window itself is the oracle's
    row at the footprint's columns."""
    shape = (config.pins, config.data_bits_per_pin_per_row + config.spare_bits_per_pin_per_row)
    zero = np.zeros(1, dtype=np.intp)
    overlays = dirty_overlays(
        config, rates, [seed], [faults], (zero, zero + bank, zero + row, zero), [footprint]
    )
    lazy = FaultOverlay(config, rates, seed=seed, faults=faults)
    want = lazy.mask_for_row(bank, row, shape, footprint)
    if not overlays:
        assert want is None
        return None
    window = overlays[0]._cache[(bank, row)][footprint]
    cols = footprint_columns(footprint)
    assert window.dtype == np.uint8 and window.shape == (shape[0], len(cols))
    put_back = np.zeros(shape, dtype=np.uint8)
    put_back[:, cols] = window
    assert np.array_equal(put_back, want)
    oracle = restricted(full_row_oracle(lazy, bank, row, shape), footprint, shape)
    assert np.array_equal(window, oracle[:, cols])
    return window


KINDS = (FaultType.ROW, FaultType.COLUMN, FaultType.PIN_LINE, FaultType.MAT)


@st.composite
def footprints(draw, total_bits):
    spans = draw(st.lists(
        st.tuples(st.integers(0, total_bits - 1), st.integers(1, total_bits)),
        min_size=1, max_size=4,
    ))
    return merge_spans((start, min(start + length, total_bits)) for start, length in spans)


@st.composite
def structured_faults(draw, pins, total_bits):
    kind = draw(st.sampled_from(KINDS))
    start = draw(st.integers(0, total_bits - 1))
    count = draw(st.integers(1, total_bits + 8))  # may run past the row end
    # faults of other banks shift a fault's list index, which seeds its substream
    return FaultInstance(
        kind, bank=draw(st.integers(0, 1)), row_start=draw(st.integers(0, 2)),
        row_count=draw(st.integers(1, 3)),
        pin=-1 if kind is FaultType.ROW else draw(st.integers(0, pins - 1)),
        bit_start=start, bit_count=1 if kind is FaultType.COLUMN else count,
        density=draw(st.sampled_from([0.05, 0.5, 1.0])),
    )


class TestFootprintWindow:
    @given(
        pins=st.integers(1, 5),
        total_bits=st.integers(1, 70),
        ber=st.sampled_from([0.0, 0.01, 0.2]),
        cluster=st.sampled_from([0.0, 0.01, 0.2]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        bank=st.integers(0, 1),
        row=st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_windowed_mask_is_the_restricted_full_mask(
        self, pins, total_bits, ber, cluster, data, seed, bank, row
    ):
        shape = (pins, total_bits)
        footprint = data.draw(footprints(total_bits))
        faults = data.draw(st.lists(structured_faults(pins, total_bits), max_size=4))
        rates = clean_rates(single_cell_ber=ber, cell_cluster_per_bit=cluster)
        overlay = FaultOverlay(DDR5_X8, rates, seed=seed, faults=faults)
        assert_window_exact(overlay, bank, row, shape, footprint)
        assert_window_exact(overlay, bank, row, shape, ((0, total_bits),))

    @given(
        pins=st.integers(1, 5),
        total_bits=st.integers(1, 70),
        ber=st.sampled_from([0.0, 0.01, 0.2]),
        cluster=st.sampled_from([0.0, 0.01, 0.2]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        bank=st.integers(0, 1),
        row=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_footprint_sized_mask_put_back_is_the_row_mask(
        self, pins, total_bits, ber, cluster, data, seed, bank, row
    ):
        config = DeviceConfig(name="tiny", pins=pins, burst_length=1, banks=2, rows_per_bank=4,
                              data_bits_per_pin_per_row=total_bits, spare_bits_per_pin_per_row=0)
        footprint = data.draw(footprints(total_bits))
        faults = data.draw(st.lists(structured_faults(pins, total_bits), max_size=4))
        rates = clean_rates(single_cell_ber=ber, cell_cluster_per_bit=cluster)
        assert_put_back_exact(config, rates, seed, faults, bank, row, footprint)

    def test_put_back_over_pair_footprints(self):
        from repro.schemes import PairScheme

        scheme = PairScheme()
        rates = clean_rates(single_cell_ber=1e-3, cell_cluster_per_bit=1e-3)
        for col in (0, 119, 120, 479):
            footprint = scheme.read_footprint(col)
            assert len(footprint) == 2  # a data span and a parity span
            for row in range(4):
                assert_put_back_exact(DDR5_X8, rates, 21 + col, [], 2, row, footprint)

    def test_put_back_with_an_anchor_at_a_span_left_edge(self):
        # an anchor one bit left of PAIR's parity span flips the span's
        # first cell: window column 1920
        footprint, edge = ((0, 1920), (7680, 7808)), 7679
        rates = clean_rates(cell_cluster_per_bit=0.05)
        seed = next(
            s for s in range(100)
            if (np.random.default_rng([s, 0, 0, 0xCE11]).random(SHAPE) < 0.05)[:, edge].any()
        )
        anchors = np.random.default_rng([seed, 0, 0, 0xCE11]).random(SHAPE) < 0.05
        window = assert_put_back_exact(DDR5_X8, rates, seed, [], 0, 0, footprint)
        pin = int(np.flatnonzero(anchors[:, edge])[0])
        assert window[pin, 1920] == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_put_back_with_faults_straddling_span_edges(self, kind):
        footprint = ((0, 1920), (7680, 7808))
        faults = [
            FaultInstance(kind, 0, 0, 2, -1 if kind is FaultType.ROW else 3, start,
                          1 if kind is FaultType.COLUMN else count, 0.5)
            for start, count in ((1900, 5800), (1919, 2), (7679, 2), (7800, 400))
        ]
        rates = clean_rates(single_cell_ber=1e-3)
        for row in range(2):
            window = assert_put_back_exact(DDR5_X8, rates, 22, faults, 0, row, footprint)
            assert window is not None

    def test_weak_cells_only(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(single_cell_ber=1e-3), seed=11, faults=[])
        for footprint in (((592, 608), (7717, 7718)), ((0, 1920), (7680, 7808))):
            for row in range(8):
                assert_window_exact(overlay, 3, row, SHAPE, footprint)

    def test_clusters_without_weak_cells_start_at_draw_zero(self):
        rates = clean_rates(cell_cluster_per_bit=2e-3)
        overlay = FaultOverlay(DDR5_X8, rates, seed=12, faults=[])
        for row in range(8):
            assert_window_exact(overlay, 0, row, SHAPE, ((0, 1920), (7680, 7808)))
        both = FaultOverlay(
            DDR5_X8, clean_rates(single_cell_ber=1e-3, cell_cluster_per_bit=2e-3),
            seed=12, faults=[],
        )
        for row in range(8):
            assert_window_exact(both, 0, row, SHAPE, ((0, 1920), (7680, 7808)))

    def test_cluster_anchor_just_left_of_an_interval(self):
        rates = clean_rates(cell_cluster_per_bit=1e-3)
        overlay = FaultOverlay(DDR5_X8, rates, seed=13, faults=[])
        anchors = np.random.default_rng([13, 0, 0, 0xCE11]).random(SHAPE) < 1e-3
        pin, offset = next(
            (p, o) for p, o in zip(*np.nonzero(anchors)) if 0 < o < SHAPE[1] - 8
        )
        footprint = ((int(offset) + 1, int(offset) + 8),)
        mask = overlay.mask_for_row(0, 0, SHAPE, footprint)
        assert mask is not None and mask[pin, offset + 1] == 1
        assert mask[pin, offset] == 0  # the anchor itself lies outside
        assert_window_exact(overlay, 0, 0, SHAPE, footprint)

    @pytest.mark.parametrize("kind", KINDS)
    def test_structured_fault_edges_crossing_intervals(self, kind):
        fault = FaultInstance(
            kind, bank=1, row_start=0, row_count=4,
            pin=-1 if kind is FaultType.ROW else 5,
            bit_start=1900, bit_count=1 if kind is FaultType.COLUMN else 6000,
            density=0.5,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=14, faults=[fault])
        for footprint in (
            ((0, 1920), (7680, 7808)),  # crosses the data interval's end
            ((1900, 1901),),  # the fault's first bit only
            ((1890, 1910), (7890, 7910)),  # both fault edges inside
            ((0, 1899),),  # misses the fault
        ):
            assert_window_exact(overlay, 1, 2, SHAPE, footprint)

    def test_first_and_last_pin_and_bit(self):
        last_pin, last_bit = SHAPE[0] - 1, SHAPE[1] - 1
        faults = [
            FaultInstance(FaultType.ROW, 0, 0, 1, -1, 0, SHAPE[1], 1.0),
            FaultInstance(FaultType.COLUMN, 0, 0, 1, 0, 0, 1, 1.0),
            FaultInstance(FaultType.COLUMN, 0, 0, 1, last_pin, last_bit, 1, 1.0),
        ]
        footprint = ((0, 1), (last_bit, last_bit + 1))
        for used in (faults[:1], faults[1:], faults):
            overlay = FaultOverlay(
                DDR5_X8, clean_rates(single_cell_ber=0.3), seed=15, faults=used
            )
            assert_window_exact(overlay, 0, 0, SHAPE, footprint)

    def test_cancelling_faults_give_no_mask(self):
        fault = FaultInstance(FaultType.MAT, 0, 0, 1, 2, 100, 50, 1.0)
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=16, faults=[fault, fault])
        assert overlay.mask_for_row(0, 0, SHAPE, ((90, 200),)) is None
        assert overlay.mask_for_row(0, 0, SHAPE) is None

    @pytest.mark.parametrize("min_runs", [0, 10**9])
    def test_primed_masks_for_every_default_scheme(self, min_runs, monkeypatch):
        """One dirty_overlays pass over many chips, each read's footprint
        taken from the scheme, builds the masks the oracle describes - with
        every short run jumped, and with every run drawn in C."""
        from repro.schemes import default_schemes

        monkeypatch.setattr(fault_rng, "_JUMP_MIN_RUNS", min_runs)
        faults = [
            FaultInstance(FaultType.PIN_LINE, 0, 0, DDR5_X8.rows_per_bank, 4, 0, 8192, 0.01),
            FaultInstance(FaultType.ROW, 1, 3, 1, -1, 0, 8192, 0.02),
            FaultInstance(FaultType.COLUMN, 0, 0, 8, 6, 7681, 1, 1.0),
        ]
        rates = clean_rates(single_cell_ber=2e-3, cell_cluster_per_bit=1e-3)
        seeds = [5, 2**40 + 1]
        reads = [(0, 2, 0), (1, 3, 1), (0, 2, 127), (1, 3, 64)]
        chip = np.repeat(np.arange(len(seeds)), len(reads))
        bank, row, _ = (np.tile(column, len(seeds)) for column in np.array(reads).T)
        footprint = np.tile(np.arange(len(reads)), len(seeds))
        for scheme in default_schemes():
            footprints = [scheme.read_footprint(col) or ((0, SHAPE[1]),) for _, _, col in reads]
            overlays = dirty_overlays(
                DDR5_X8, rates, seeds, [faults] * len(seeds), (chip, bank, row, footprint),
                footprints, fault_rng.scratch_generator(),
            )
            assert sorted(overlays) == list(range(len(seeds)))
            for k, b, r, f in zip(chip.tolist(), bank.tolist(), row.tolist(), footprint.tolist()):
                overlay = overlays[k]
                assert overlay.seed == seeds[k] and overlay.faults == faults
                assert footprints[f] in overlay._cache[(b, r)]  # primed, not lazy
                assert_window_exact(overlay, b, r, SHAPE, footprints[f])

    def test_priming_respects_cache_rows(self):
        # one chip read on more rows than its overlay caches: the cache stays
        # bounded and every row's mask is still the oracle's
        config = DeviceConfig(name="tiny", pins=2, banks=1, rows_per_bank=8192,
                              data_bits_per_pin_per_row=16, spare_bits_per_pin_per_row=0)
        shape, footprints = (2, 16), [((0, 16),)]
        rows = np.arange(4096 + 100)
        zeros = np.zeros(len(rows), dtype=np.intp)
        overlays = dirty_overlays(
            config, clean_rates(single_cell_ber=1e-2), [18], [[]], (zeros, zeros, rows, zeros),
            footprints,
        )
        overlay = overlays[0]
        assert len(overlay._cache) <= overlay._cache_rows < len(rows)
        for row in rows.tolist():
            assert_window_exact(overlay, 0, row, shape, footprints[0])

    def test_masks_are_cached_per_footprint(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(single_cell_ber=1e-2), seed=17, faults=[])
        narrow = overlay.mask_for_row(0, 0, SHAPE, ((0, 16),))
        full = overlay.mask_for_row(0, 0, SHAPE)
        window = overlay.mask_window(0, 0, SHAPE, ((0, 16),))
        assert overlay.mask_window(0, 0, SHAPE, ((0, 16),)) is window  # the cached mask
        assert window.shape == (SHAPE[0], 16) and np.array_equal(window, narrow[:, :16])
        assert not narrow[:, 16:].any() and full[:, 16:].any()
