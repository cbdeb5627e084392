"""Batched Monte-Carlo engines: bit-identical to the scalar oracle, worker-invariant."""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults import DEFAULT_RATES, FaultType
from repro.reliability import (
    ExactRunConfig,
    run_burst_lengths_batched,
    run_iid_batched,
    run_single_fault_batched,
)
from repro.schemes import Duo, PairScheme
from repro.schemes.iecc_sec import ConventionalIecc

from .. import oracle


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


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
        # The dispatch across processes must not change the merged tally.
        rates = DEFAULT_RATES.with_ber(1e-4)
        config = ExactRunConfig(trials=24, seed=5)
        scheme = schemes[0]
        one = run_iid_batched(scheme, rates, config, workers=1, chunk_trials=8)
        many = run_iid_batched(scheme, rates, config, workers=2, chunk_trials=8)
        assert counts(one) == counts(many)


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
        from repro.faults.rng import scratch_generator
        from repro.reliability.exact import _make_chips, _sample_overlays

        rates = replace(DEFAULT_RATES, row_faults_per_device=3.0, mat_faults_per_device=3.0)
        seeds = [0, 17, 5_000_000]
        scheme = schemes[0]
        sets = _sample_overlays(scheme, rates, seeds, scratch_generator())
        for seed, overlays in zip(seeds, sets):
            lazy = _make_chips(scheme, rates, seed)
            assert [o.faults for o in overlays] == [c.fault_overlay.faults for c in lazy]
            assert any(o.faults for o in overlays)


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


class TestReadLinesContract:
    def test_read_lines_equals_read_line_loop(self, schemes):
        # The schemes' batched read path must agree with the scalar path on
        # every read, not just in aggregate.
        from repro.reliability.batch import _sample_iid_coords
        from repro.reliability.exact import _make_chips

        rates = DEFAULT_RATES.with_ber(2e-4)
        config = ExactRunConfig(trials=20, seed=8)
        for scheme in schemes:
            coords = _sample_iid_coords(scheme, config)
            reads = []
            for trial, (bank, row, col) in enumerate(coords):
                chips = _make_chips(scheme, rates, seed=config.seed + trial)
                reads.append((chips, bank, row, col, None))
            batched = scheme.read_lines(reads)
            for (chips, bank, row, col, _), b in zip(reads, batched):
                a = scheme.read_line(chips, bank, row, col)
                assert a.believed_good == b.believed_good, scheme.name
                assert a.corrections == b.corrections, scheme.name
                assert np.array_equal(a.data, b.data), scheme.name


def _exit_hard(*args):
    """Module-level so the pool can pickle it; kills the worker process."""
    import os

    os._exit(17)


class TestBrokenPoolHardening:
    def test_dead_worker_surfaces_as_chunk_failure(self):
        from repro.errors import ChunkFailure
        from repro.reliability.batch import _merge_dispatch

        with pytest.raises(ChunkFailure) as excinfo:
            _merge_dispatch(
                _exit_hard,
                [(0,), (1,)],
                workers=2,
                labels=["iid chunk 0 (chip_seed=7)", "iid chunk 1 (chip_seed=8)"],
            )
        message = str(excinfo.value)
        assert "chunk 0" in message and "chip_seed=7" in message
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
