"""Batched Monte-Carlo engines: bit-identical to the scalar oracle, worker-invariant."""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults import DEFAULT_RATES, FaultInstance, FaultOverlay, FaultType
from repro.faults.types import TransferBurst
from repro.reliability import (
    ExactRunConfig,
    run_burst_lengths_batched,
    run_iid_batched,
    run_single_fault_batched,
)
from repro.schemes import (
    ConventionalIecc,
    Duo,
    NoEcc,
    PairErasureScheme,
    PairScheme,
    RankSecDed,
    Xed,
)

from .. import oracle


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


#: every structured class and weak-cell clusters, dense enough that most
#: chunks see pin and bank-long column faults under some read
DENSE_RATES = replace(
    DEFAULT_RATES, single_cell_ber=2e-4, cell_cluster_per_bit=5e-5,
    row_faults_per_device=2.0, column_faults_per_device=6.0,
    pin_faults_per_device=3.0, mat_faults_per_device=4.0,
    column_rows=PairScheme().rank.device.rows_per_bank,
)


@pytest.fixture(scope="module")
def schemes():
    return [PairScheme(), Duo(), ConventionalIecc()]


class TestIidBatched:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_sequential(self, schemes, seed):
        rates = DEFAULT_RATES.with_ber(1e-4)
        config = ExactRunConfig(trials=40, seed=seed)
        for scheme in schemes:
            a = oracle.run_iid(scheme, rates, config)
            b = run_iid_batched(scheme, rates, config)
            assert counts(a) == counts(b), scheme.name

    def test_resample_grouping_matches(self, schemes):
        # Epoch grouping must honour the scalar loop's rebuild points exactly.
        rates = DEFAULT_RATES.with_ber(5e-5)
        config = ExactRunConfig(trials=30, seed=9, resample_faults_every=7)
        scheme = schemes[0]
        assert counts(oracle.run_iid(scheme, rates, config)) == counts(
            run_iid_batched(scheme, rates, config)
        )

    def test_chunking_invariant(self, schemes):
        rates = DEFAULT_RATES.with_ber(1e-4)
        config = ExactRunConfig(trials=37, seed=1)
        scheme = schemes[0]
        base = counts(run_iid_batched(scheme, rates, config))
        for chunk in (1, 5, 64):
            assert counts(run_iid_batched(scheme, rates, config, chunk_trials=chunk)) == base

    def test_workers_invariant(self, schemes):
        # The dispatch across processes must not change the merged tally,
        # with structured faults and resampled universes too.
        for scheme, rates, config in (
            (schemes[0], DEFAULT_RATES.with_ber(1e-4), ExactRunConfig(trials=24, seed=5)),
            (schemes[1], DENSE_RATES, ExactRunConfig(trials=24, seed=6, resample_faults_every=3)),
        ):
            one = run_iid_batched(scheme, rates, config, workers=1, chunk_trials=8)
            many = run_iid_batched(scheme, rates, config, workers=2, chunk_trials=8)
            assert counts(one) == counts(many), scheme.name


class TestSeededChunks:
    """A chunk seeds every chip and primes every read's masks in one pass;
    the scalar oracle builds each mask lazily, one stream at a time."""

    def test_multi_word_chip_seeds(self, schemes):
        # chip seeds seed * 1009 + chip pass 2**32, so every key is multi-word
        rates = DEFAULT_RATES.with_ber(1e-4)
        config = ExactRunConfig(trials=24, seed=5_000_000)
        assert config.seed * 1009 >= 2**32
        for scheme in schemes:
            a = oracle.run_iid(scheme, rates, config)
            b = run_iid_batched(scheme, rates, config)
            assert counts(a) == counts(b), scheme.name

    def test_clusters_structured_faults_and_resampling(self, schemes):
        # pin and bank-long column faults land under most reads, so primed
        # masks combine weak cells, cluster pairs and structured faults
        rates = replace(
            DEFAULT_RATES, single_cell_ber=1e-4, cell_cluster_per_bit=5e-5,
            pin_faults_per_device=6.0, column_faults_per_device=6.0,
            column_rows=PairScheme().rank.device.rows_per_bank,
        )
        config = ExactRunConfig(trials=30, seed=21, resample_faults_every=4)
        for scheme in schemes:
            a = oracle.run_iid(scheme, rates, config)
            b = run_iid_batched(scheme, rates, config, chunk_trials=12)
            assert counts(a) == counts(b), scheme.name
            assert a.ok < config.trials, scheme.name  # the faults were seen

    def test_batch_seeded_samplers_draw_the_same_faults(self, schemes):
        # the chunk samples every chip of every epoch in one call
        from repro.faults.rng import scratch_generator
        from repro.faults.sampler import sample_fault_lists
        from repro.reliability.exact import _chip_seeds

        rates = replace(DEFAULT_RATES, row_faults_per_device=3.0, mat_faults_per_device=3.0)
        seeds = [0, 17, 5_000_000]
        scheme = schemes[0]
        chips = scheme.rank.chips
        chip_seeds = [chip_seed for seed in seeds for chip_seed in _chip_seeds(scheme, seed)]
        lists = sample_fault_lists(scheme.rank.device, rates, chip_seeds, scratch_generator())
        for at, seed in enumerate(seeds):
            lazy = oracle.make_chips(scheme, rates, seed)
            got = lists[at * chips : (at + 1) * chips]
            assert got == [c.fault_overlay.faults for c in lazy]
            assert any(got)


class TestSingleFaultBatched:
    @pytest.mark.parametrize(
        "kind",
        [
            FaultType.ROW,
            FaultType.COLUMN,
            FaultType.PIN_LINE,
            FaultType.MAT,
            FaultType.TRANSFER_BURST,
        ],
    )
    def test_bit_identical_to_sequential(self, schemes, kind):
        config = ExactRunConfig(trials=12, seed=2)
        for scheme in schemes:
            a = oracle.run_single_fault(scheme, kind, DEFAULT_RATES, config)
            b = run_single_fault_batched(scheme, kind, DEFAULT_RATES, config)
            assert counts(a) == counts(b), (scheme.name, kind)

    def test_workers_invariant(self, schemes):
        config = ExactRunConfig(trials=16, seed=4)
        scheme = schemes[0]
        one = run_single_fault_batched(
            scheme, FaultType.COLUMN, DEFAULT_RATES, config, workers=1, chunk_trials=4
        )
        many = run_single_fault_batched(
            scheme, FaultType.COLUMN, DEFAULT_RATES, config, workers=2, chunk_trials=4
        )
        assert counts(one) == counts(many)


class TestBurstLengthsBatched:
    def test_bit_identical_to_sequential(self, schemes):
        lengths = [1, 4, 16]
        config = ExactRunConfig(trials=8, seed=0)
        for scheme in schemes:
            a = oracle.run_burst_lengths(scheme, lengths, config)
            b = run_burst_lengths_batched(scheme, lengths, config)
            assert list(a) == list(b), scheme.name
            for length in lengths:
                assert counts(a[length]) == counts(b[length]), (scheme.name, length)

    def test_workers_invariant(self, schemes):
        lengths = [2, 8]
        config = ExactRunConfig(trials=6, seed=1)
        scheme = schemes[1]
        one = run_burst_lengths_batched(scheme, lengths, config, workers=1)
        many = run_burst_lengths_batched(scheme, lengths, config, workers=2)
        assert list(one) == list(many)
        for length in lengths:
            assert counts(one[length]) == counts(many[length])


def mat_defect(pin, rows):
    """A stuck 96-bit run on ``pin`` of the first ``rows`` bank-0 rows: 12
    symbols of one PAIR codeword, a 16-bit pin burst in each of the first
    six column windows."""
    return FaultInstance(
        FaultType.MAT, bank=0, row_start=0, row_count=rows,
        pin=pin, bit_start=0, bit_count=96, density=1.0,
    )


#: chip -> its persistent defect; where both hit, a read sees two bad chips
DEFECTS = {0: mat_defect(pin=0, rows=65536), 1: mat_defect(pin=5, rows=32768)}


def universe(scheme, seed):
    """One chip set: weak cells on every chip, the mat defects on chips 0 and 1."""
    rates = DEFAULT_RATES.pure_ber(3e-4)
    return scheme.make_devices([
        FaultOverlay(scheme.rank.device, rates, seed=seed * 16 + chip,
                     faults=[DEFECTS[chip]] if chip in DEFECTS else [])
        for chip in range(scheme.rank.chips)
    ])


def profiled_pair_erasure():
    scheme = PairErasureScheme()
    scheme.profile(universe(scheme, 99), banks=(0,), sample_rows=16, seed=1)
    assert scheme._erasures_for_codeword(0, 0, 0)  # the defect became hints
    return scheme


#: every scheme, both PAIR orientations and a profiled PAIR-erasure
PARITY_SCHEMES = {
    "no-ecc": NoEcc,
    "iecc-sec": ConventionalIecc,
    "xed": Xed,
    "duo": Duo,
    "pair": PairScheme,
    "pair-beat": lambda: PairScheme(orientation="beat"),
    "rank-secded": RankSecDed,
    "pair-erasure": profiled_pair_erasure,
}


def written_reads(scheme, seed, universes=3, per_universe=10):
    """Reads of random written lines, unwritten lines and bursts, over
    several chip sets, in one list."""
    rng = np.random.default_rng([seed, 0x9A7])
    device = scheme.rank.device
    reads = []
    for u in range(universes):
        chips = universe(scheme, seed * 10 + u)
        for j in range(per_universe):
            bank = 0 if j % 3 else int(rng.integers(device.banks))
            row = int(rng.integers(device.rows_per_bank))
            # columns 0-5 sit on the mat defect
            col = j if j < 6 else int(rng.integers(device.columns_per_row))
            if j % 4 != 3:
                data = rng.integers(0, 2, scheme.line_shape).astype(np.uint8)
                scheme.write_line(chips, bank, row, col, data)
            bursts = None
            if j % 5 == 2:
                start = int(rng.integers(device.burst_length - 4))
                bursts = {int(rng.integers(scheme.rank.chips)): TransferBurst(
                    pin=int(rng.integers(device.pins)), beat_start=start, length=4)}
            reads.append((chips, bank, row, col, bursts))
    return reads


class TestReadLinesContract:
    def test_read_lines_equals_read_line_loop(self, schemes):
        # Each scheme's one reader must agree with its scalar oracle reader
        # on every read, not just in aggregate.
        from repro.reliability.batch import _sample_iid_coords

        rates = DEFAULT_RATES.with_ber(2e-4)
        config = ExactRunConfig(trials=20, seed=8)
        for scheme in schemes:
            coords = _sample_iid_coords(scheme, config)
            reads = []
            for trial, (bank, row, col) in enumerate(coords):
                chips = oracle.make_chips(scheme, rates, seed=config.seed + trial)
                reads.append((chips, bank, row, col, None))
            batched = scheme.read_lines(reads)
            assert len(batched) == len(reads)
            for i, (chips, bank, row, col, _) in enumerate(reads):
                a = oracle.read_line(scheme, chips, bank, row, col)
                b = batched.row(i)
                assert a.believed_good == b.believed_good, scheme.name
                assert a.corrections == b.corrections, scheme.name
                assert np.array_equal(a.data, b.data), scheme.name

    @pytest.mark.parametrize("name", list(PARITY_SCHEMES))
    def test_written_lines_bursts_and_mixed_chip_sets(self, name):
        scheme = PARITY_SCHEMES[name]()
        reads = written_reads(scheme, seed=len(name))
        batched = scheme.read_lines(reads)
        assert batched.data.shape == (len(reads), *scheme.line_shape)
        assert batched.data.dtype == np.uint8
        assert batched.believed_good.shape == batched.corrections.shape == (len(reads),)
        for i, read in enumerate(reads):
            a = oracle.read_line(scheme, *read)
            for b in (batched.row(i), scheme.read_line(*read)):
                assert a.believed_good == b.believed_good, (name, i)
                assert a.corrections == b.corrections, (name, i)
                assert np.array_equal(a.data, b.data), (name, i)
        # the reads exercise the decoders: corrections and detections both occur
        if name != "no-ecc":
            assert batched.corrections.any(), name
        if name not in ("no-ecc", "iecc-sec"):
            assert not batched.believed_good.all(), name

    def test_empty_batch(self, schemes):
        for scheme in schemes:
            batched = scheme.read_lines([])
            assert len(batched) == 0
            assert batched.data.shape == (0, *scheme.line_shape)


def _exit_hard(*args):
    """Module-level so the pool can pickle it; kills the worker process."""
    import os

    os._exit(17)


class TestBrokenPoolHardening:
    def test_dead_worker_surfaces_as_chunk_failure(self):
        from repro.errors import ChunkFailure
        from repro.reliability.batch import _dispatch

        with pytest.raises(ChunkFailure) as excinfo:
            _dispatch(
                _exit_hard,
                [(0,), (1,)],
                workers=2,
                labels=["iid chunk 0 (chip_seed=7)", "iid chunk 1 (chip_seed=8)"],
            )
        message = str(excinfo.value)
        assert "chunk 0" in message and "chip_seed=7" in message
        assert excinfo.value.chunk_id == 0

    def test_dead_worker_in_a_burst_run_names_the_length_and_seed(self, monkeypatch):
        # the burst engine fans its lengths out through the same dispatcher
        from repro.errors import ChunkFailure
        from repro.reliability import batch

        monkeypatch.setattr(batch, "_burst_length_tally", _exit_hard)
        with pytest.raises(ChunkFailure) as excinfo:
            run_burst_lengths_batched(PairScheme(), [4, 8], ExactRunConfig(trials=2, seed=13),
                                      workers=2)
        message = str(excinfo.value)
        assert "burst length 4" in message and "seed=13" in message
        assert excinfo.value.chunk_id == 0

    def test_sequential_path_fallback_matches_batched(self, schemes):
        # The campaign's chunk executor, fed every epoch of a run, must be
        # bit-identical to the scalar oracle's sequential loop.
        from repro.reliability.batch import iid_chunk_tally, iid_epochs

        rates = DEFAULT_RATES.with_ber(2e-4)
        config = ExactRunConfig(trials=24, seed=11, resample_faults_every=4)
        for scheme in schemes:
            a = iid_chunk_tally(scheme, rates, iid_epochs(scheme, config))
            b = oracle.run_iid(scheme, rates, config)
            assert counts(a) == counts(b), scheme.name



class TestChunkUniverse:
    """A chunk builds its fault universe in one array pass and gives only
    the chips that read dirty an overlay and a device of their own."""

    def test_coords_equal_the_scalar_loop(self):
        from repro.reliability.batch import _sample_iid_coords

        scheme = PairScheme()
        for seed in (0, 3, 1009, 12345):
            config = ExactRunConfig(trials=3000, seed=seed)
            assert _sample_iid_coords(scheme, config) == oracle.iid_coords(scheme, config)

    def test_only_chips_that_read_dirty_get_objects(self, monkeypatch):
        from repro.dram.device import DramDevice
        from repro.reliability.batch import iid_chunk_tally, iid_epochs

        scheme = PairScheme()
        device = scheme.rank.device
        shape = (device.pins, device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row)
        rates = DEFAULT_RATES.with_ber(1e-5)
        epochs = iid_epochs(scheme, ExactRunConfig(trials=256, seed=1009))  # one chunk
        dirty = []  # the chips with a non-empty mask for one of their reads
        for chip_seed, coords in epochs:
            for chip in oracle.make_chips(scheme, rates, chip_seed):
                overlay = chip.fault_overlay
                if any(
                    overlay.mask_for_row(bank, row, shape, scheme.read_footprint(col))
                    is not None
                    for bank, row, col in coords
                ):
                    dirty.append(overlay.seed)
        overlays, devices = [], []
        overlay_init, device_init = FaultOverlay.__init__, DramDevice.__init__

        def spy_overlay(self, *args, **kwargs):
            overlay_init(self, *args, **kwargs)
            overlays.append(self.seed)

        def spy_device(self, *args, **kwargs):
            device_init(self, *args, **kwargs)
            devices.append(self)

        monkeypatch.setattr(FaultOverlay, "__init__", spy_overlay)
        monkeypatch.setattr(DramDevice, "__init__", spy_device)
        tally = iid_chunk_tally(scheme, rates, epochs)
        assert sorted(overlays) == sorted(dirty)
        assert len(devices) == len(dirty) + 1  # the dirty chips and one clean chip
        # a PAIR read spans 16,384 cells of each chip: about 15% read dirty
        assert 0 < len(dirty) < len(epochs) * scheme.rank.chips // 4
        assert sum(counts(tally)) == 256

    @pytest.mark.parametrize("name", list(PARITY_SCHEMES))
    def test_every_scheme_equals_the_oracle_at_dense_rates(self, name):
        scheme = PARITY_SCHEMES[name]()
        config = ExactRunConfig(trials=24, seed=31, resample_faults_every=2)
        a = oracle.run_iid(scheme, DENSE_RATES, config)
        b = run_iid_batched(scheme, DENSE_RATES, config, chunk_trials=10)
        assert counts(a) == counts(b)
        assert a.ok < config.trials  # the faults were seen

    def test_chip_dirty_for_one_read_and_clean_for_another(self, monkeypatch):
        # an epoch's chip gets a device once any of its reads sees a fault;
        # its other reads must still read it clean
        from repro.reliability import batch

        real, seen = batch.dirty_overlays, []

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(batch, "dirty_overlays", spy)
        scheme = NoEcc()
        rates = DEFAULT_RATES.with_ber(1e-3)
        config = ExactRunConfig(trials=60, seed=2, resample_faults_every=3)
        assert counts(run_iid_batched(scheme, rates, config)) == counts(
            oracle.run_iid(scheme, rates, config)
        )
        mixed = 0
        for found in seen:
            for overlay in found.values():
                masks = [mask for row in overlay._cache.values() for mask in row.values()]
                empty = [mask is None for mask in masks]
                mixed += any(empty) and not all(empty)
        assert mixed

    @pytest.mark.parametrize("min_runs", [0, 10**9])
    def test_chunk_masks_equal_lazy_masks(self, min_runs, monkeypatch):
        """Every mask of the chunk pass equals ``mask_for_row`` of a fresh
        overlay, with every short run jumped and with every run drawn in C;
        a chip left without an overlay has no non-empty mask."""
        from repro.faults import rng
        from repro.faults.sampler import dirty_overlays, sample_fault_lists
        from repro.schemes import default_schemes

        monkeypatch.setattr(rng, "_JUMP_MIN_RUNS", min_runs)
        device = PairScheme().rank.device
        shape = (device.pins, device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row)
        seeds = [5, 6, 2**40 + 1, 2**64 + 3, 11, 12, 13, 14, 15, 16]  # 2**64 + 3: one key at a time
        faults = sample_fault_lists(device, DENSE_RATES, seeds)
        faults[4] = [  # a pin under every bank-0 read, cancelling itself on row 7
            FaultInstance(FaultType.PIN_LINE, 0, 0, device.rows_per_bank, 4, 0, 8192, 0.05),
            FaultInstance(FaultType.MAT, 0, 7, 1, 2, 0, 8192, 1.0),
            FaultInstance(FaultType.MAT, 0, 7, 1, 2, 0, 8192, 1.0),
        ]
        # narrow footprints (one access window or word) first, then PAIR's and a whole row
        footprints = [
            scheme.read_footprint(col)
            for scheme in sorted(default_schemes(), key=lambda scheme: scheme.name == "pair")
            for col in (0, 64, 127)
        ] + [((0, shape[1]),)]
        gen = np.random.default_rng(8)
        # chips 0-5 read often and everywhere, chips 6-9 twice through narrow footprints
        chip = np.concatenate([gen.integers(6, size=90), np.repeat(np.arange(6, 10), 2)])
        count = len(chip)
        bank = np.where(gen.random(count) < 0.5, 0, gen.integers(device.banks, size=count))
        row = gen.integers(8, size=count)
        footprint = np.where(
            chip < 6, gen.integers(len(footprints), size=count), gen.integers(6, size=count)
        )
        got = dirty_overlays(device, DENSE_RATES, seeds, faults, (chip, bank, row, footprint),
                             footprints, rng.scratch_generator())
        assert got and len(got) < len(seeds)
        nonempty = 0
        for k, b, r, f in zip(chip.tolist(), bank.tolist(), row.tolist(), footprint.tolist()):
            fresh = FaultOverlay(device, DENSE_RATES, seed=seeds[k], faults=faults[k])
            want = fresh.mask_for_row(b, r, shape, footprints[f])
            if k not in got:
                assert want is None
                continue
            mask = got[k]._cache[(b, r)][footprints[f]]
            assert (mask is None) == (want is None)
            if want is not None:
                assert np.array_equal(mask, want)
                nonempty += 1
        assert nonempty
