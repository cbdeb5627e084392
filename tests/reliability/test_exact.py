"""Behaviour of the decoder-in-the-loop Monte-Carlo engines.

These run the batched engines :mod:`repro.reliability` ships; their
bit-identity to the scalar oracle is ``test_batch_engine.py``'s job.
"""

import pytest

from repro.faults import FaultRates, FaultType
from repro.reliability import (
    ExactRunConfig,
    run_burst_lengths_batched,
    run_iid_batched,
    run_single_fault_batched,
)
from repro.schemes import ConventionalIecc, NoEcc, PairScheme


def clean_rates(**overrides):
    base = dict(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )
    base.update(overrides)
    return FaultRates(**base)


class TestRunIid:
    def test_clean_universe_all_ok(self):
        tally = run_iid_batched(NoEcc(), clean_rates(), ExactRunConfig(trials=50, seed=1))
        assert tally.ok == 50
        assert tally.failure_rate == 0.0

    def test_no_ecc_sdc_rate_tracks_ber(self):
        ber = 2e-3  # expected line failure ~ 1-(1-p)^512 ~ 0.64
        tally = run_iid_batched(NoEcc(), clean_rates(single_cell_ber=ber), ExactRunConfig(trials=200, seed=2))
        assert 0.45 < tally.sdc / tally.total < 0.8

    def test_iecc_corrects_singles(self):
        ber = 2e-4  # ~2.7% of words have an error, overwhelmingly single
        tally = run_iid_batched(
            ConventionalIecc(), clean_rates(single_cell_ber=ber),
            ExactRunConfig(trials=200, seed=3),
        )
        assert tally.ce > 0
        assert tally.sdc <= 2

    def test_deterministic_given_seed(self):
        cfg = ExactRunConfig(trials=40, seed=7)
        rates = clean_rates(single_cell_ber=1e-3)
        a = run_iid_batched(ConventionalIecc(), rates, cfg)
        b = run_iid_batched(ConventionalIecc(), rates, cfg)
        assert a.as_dict() == b.as_dict()


class TestRunSingleFault:
    @pytest.mark.parametrize("kind", [FaultType.COLUMN, FaultType.MAT])
    def test_pair_handles_small_structured_faults(self, kind):
        rates = FaultRates(mat_bits=16, mat_rows=4)
        tally = run_single_fault_batched(
            PairScheme(), kind, rates, ExactRunConfig(trials=20, seed=4)
        )
        assert tally.total == 20
        # a single column/mat touches few symbols of a pin codeword
        assert (tally.ok + tally.ce) >= 18

    def test_row_fault_overwhelms_everyone_detectably(self):
        tally = run_single_fault_batched(
            PairScheme(), FaultType.ROW, FaultRates(), ExactRunConfig(trials=10, seed=5)
        )
        # half-density whole-row corruption: must not be silently consumed
        assert tally.sdc == 0
        assert tally.due == 10

    def test_transfer_burst_fault_kind(self):
        rates = FaultRates(transfer_burst_length=8)
        tally = run_single_fault_batched(
            PairScheme(), FaultType.TRANSFER_BURST, rates, ExactRunConfig(trials=10, seed=6)
        )
        assert tally.ce == 10  # PAIR corrects 8-beat bursts


class TestRunBurstLengths:
    def test_pair_burst_coverage_boundary(self):
        out = run_burst_lengths_batched(PairScheme(), [4, 16], ExactRunConfig(trials=15, seed=7))
        assert out[4].ce == 15
        assert out[16].ce == 15  # full-burst still only 2 symbols per pin
