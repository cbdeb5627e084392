"""Tests for the per-access energy model (T3)."""

import pytest

from repro.perf import (
    EnergyParams,
    energy_row,
    read_energy_pj,
    write_energy_pj,
)
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, Xed, default_schemes


class TestReadEnergy:
    def test_positive_for_all_schemes(self):
        for scheme in default_schemes():
            assert read_energy_pj(scheme) > 0

    def test_duo_pays_transfer_and_pair_pays_decode(self):
        duo = read_energy_pj(Duo())
        pair = read_energy_pj(PairScheme())
        no_ecc = read_energy_pj(NoEcc())
        assert duo > no_ecc  # extra chips + extended burst
        assert pair > no_ecc  # GF decode work
        # but PAIR moves no extra bits: its bus term equals no-ecc's
        params = EnergyParams(gf_mult_pj=0.0, xor_tree_pj_per_bit=0.0)
        assert read_energy_pj(PairScheme(), params) == pytest.approx(
            read_energy_pj(NoEcc(), params)
        )

    def test_scales_with_bus_cost(self):
        cheap = EnergyParams(bus_pj_per_bit=1.0)
        pricey = EnergyParams(bus_pj_per_bit=10.0)
        assert read_energy_pj(Xed(), pricey) > read_energy_pj(Xed(), cheap)


class TestWriteEnergy:
    def test_masked_write_rmw_amplification(self):
        """XED's all-write RMW doubles array energy; masked adds nothing new."""
        xed_full = write_energy_pj(Xed(), masked=False)
        xed_masked = write_energy_pj(Xed(), masked=True)
        assert xed_masked == pytest.approx(xed_full)  # already RMW on all
        iecc_full = write_energy_pj(ConventionalIecc(), masked=False)
        iecc_masked = write_energy_pj(ConventionalIecc(), masked=True)
        assert iecc_masked > iecc_full  # RMW only when masked

    def test_duo_masked_write_pays_a_read(self):
        full = write_energy_pj(Duo(), masked=False)
        masked = write_energy_pj(Duo(), masked=True)
        assert masked >= full + read_energy_pj(Duo()) * 0.99

    def test_pair_writes_never_amplify(self):
        full = write_energy_pj(PairScheme(), masked=False)
        masked = write_energy_pj(PairScheme(), masked=True)
        assert masked == pytest.approx(full)


class TestRows:
    def test_energy_row_units(self):
        row = energy_row(PairScheme())
        assert row["scheme"] == "pair"
        assert 0 < row["read_nj"] < 100
        assert row["write_nj"] > 0

    def test_ordering_masked_writes(self):
        """On masked writes PAIR undercuts the RMW-paying alternatives.

        (Its GF encode work lands within ~10% of conventional IECC's array
        recycle - the schemes trade logic energy for array energy.)"""
        values = {
            s.name: energy_row(s)["masked_write_nj"]
            for s in (ConventionalIecc(), Xed(), Duo(), PairScheme())
        }
        assert values["pair"] < values["xed"]
        assert values["pair"] < values["duo"]
        assert values["pair"] == pytest.approx(values["iecc-sec"], rel=0.10)
