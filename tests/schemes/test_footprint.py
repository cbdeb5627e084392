"""Read footprints: every cell a read gathers lies inside its footprint.

Fault masks are drawn over a read's footprint only (DESIGN.md section 6b),
so a footprint that misses a cell the read path gathers would silently hide
that cell's faults.  Two checks per scheme:

* static: the cells each datapath gathers - layout index arrays, SEC parity
  offsets, DUO spare-symbol slots, the ECC/parity chip window and the
  access window - all lie inside ``read_footprint(col)``, for every column;
* dynamic: under a dense fault environment, reads through windowed masks
  return the same :class:`LineReadResult` as reads through whole-row masks.
"""

import numpy as np
import pytest

from repro.dram.mapping import SecWordLayout, SegmentedLayout
from repro.faults import FaultOverlay, FaultRates
from repro.faults.types import TransferBurst
from repro.schemes import Duo, PairScheme, RankSecDed, default_schemes


def schemes():
    return [*default_schemes(), PairScheme(orientation="beat"), RankSecDed()]


SCHEME_NAMES = [scheme.name for scheme in schemes()]


def by_name(name):
    return next(scheme for scheme in schemes() if scheme.name == name)


def gathered_offsets(scheme, col):
    """Every per-pin bit offset the scheme's read of ``col`` gathers."""
    bl = scheme.rank.device.burst_length
    offsets = [np.arange(col * bl, (col + 1) * bl)]  # access / ECC chip window
    layout = getattr(scheme, "layout", None)
    if isinstance(layout, SegmentedLayout):
        cws = list(layout.codewords_of_access(col))
        offsets.append(layout._bit_index[cws].ravel())
    elif isinstance(layout, SecWordLayout):
        offsets.append(layout._parity_pin_offsets(col)[1])
    if isinstance(scheme, Duo):
        offsets.append(scheme._spare_symbol_slots(col)[1])
    return np.unique(np.concatenate(offsets))


def inside(offsets, footprint):
    hit = np.zeros(offsets.shape, dtype=bool)
    for start, end in footprint:
        hit |= (offsets >= start) & (offsets < end)
    return hit


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_every_gathered_cell_is_in_the_footprint(name):
    scheme = by_name(name)
    device = scheme.rank.device
    total_bits = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
    for col in range(device.columns_per_row):
        footprint = scheme.read_footprint(col)
        assert footprint, (name, col)
        starts = [start for start, _ in footprint]
        assert starts == sorted(starts)
        for (_, end), (start, _) in zip(footprint, footprint[1:]):
            assert end < start  # disjoint and non-touching
        assert footprint[0][0] >= 0 and footprint[-1][1] <= total_bits
        offsets = gathered_offsets(scheme, col)
        missed = offsets[~inside(offsets, footprint)]
        assert missed.size == 0, (name, col, missed[:8])


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_footprint_is_tight_for_the_symbol_layouts(name):
    """The footprint holds nothing the read path does not gather."""
    scheme = by_name(name)
    for col in (0, 1, 119, 120, 479):
        footprint = scheme.read_footprint(col)
        cells = sum(end - start for start, end in footprint)
        assert cells == gathered_offsets(scheme, col).size


DENSE = FaultRates(
    single_cell_ber=1e-3,
    cell_cluster_per_bit=5e-4,
    row_faults_per_device=4.0,
    column_faults_per_device=40.0,
    pin_faults_per_device=4.0,
    mat_faults_per_device=20.0,
    row_density=0.05,
    column_density=0.5,
    pin_density=0.02,
    mat_density=0.3,
    mat_rows=256,
    mat_bits=512,
)


#: first and last columns, and the columns either side of PAIR's segment edges
EDGE_COLS = (0, 479, 119, 120, 239, 240)


def dense_reads(scheme, seed, count=24):
    """Reads of fresh dense universes, aimed at rows their faults cover."""
    rng = np.random.default_rng([seed, 0xF00])
    device = scheme.rank.device
    reads = []
    for i in range(count):
        overlays = [
            FaultOverlay(device, DENSE, seed=seed * 1000 + i * 16 + c)
            for c in range(scheme.rank.chips)
        ]
        chips = scheme.make_devices(overlays)
        faults = overlays[int(rng.integers(len(overlays)))].faults
        if faults and rng.random() < 0.8:
            fault = faults[int(rng.integers(len(faults)))]
            bank = fault.bank
            row = fault.row_start + int(rng.integers(fault.row_count))
        else:
            bank = int(rng.integers(device.banks))
            row = int(rng.integers(device.rows_per_bank))
        col = int(rng.integers(device.columns_per_row))
        if i < len(EDGE_COLS):
            col = EDGE_COLS[i]
        bursts = None
        if rng.random() < 0.3:
            chip = int(rng.integers(scheme.rank.chips))
            start = int(rng.integers(device.burst_length - 4))
            bursts = {chip: TransferBurst(pin=int(rng.integers(device.pins)),
                                          beat_start=start, length=4)}
        reads.append((chips, bank, row, col, bursts))
    return reads


def whole_rows(scheme):
    """The same scheme instance, reading whole rows."""
    scheme.read_footprint = lambda col: None
    return scheme


def as_tuples(results):
    return [(r.data.tobytes(), r.believed_good, r.corrections) for r in results]


def disturbed(result):
    data, good, fixes = result
    return fixes or not good or any(data)


@pytest.mark.parametrize("name", SCHEME_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_windowed_reads_equal_whole_row_reads(name, seed):
    windowed = by_name(name)
    full = whole_rows(by_name(name))
    reads = dense_reads(windowed, seed)
    full_reads = dense_reads(full, seed)  # fresh devices: no shared caches
    expected = as_tuples(full.read_lines(full_reads))
    assert as_tuples(windowed.read_lines(reads)) == expected
    assert as_tuples([windowed.read_line(*read) for read in reads]) == expected
    assert as_tuples([full.read_line(*read) for read in full_reads]) == expected
    # the environment is dense enough to exercise the decoders
    assert sum(1 for result in expected if disturbed(result)) >= 3
