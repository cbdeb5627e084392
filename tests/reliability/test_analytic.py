"""Tests for the semi-analytic reliability models."""

import pytest

from repro.analysis.sweep import log_space
from repro.dram.config import DDR5_X8, RankConfig
from repro.reliability import build_model
from repro.reliability.analytic import rs_decodable_fraction
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, RankSecDed, Xed
from tests import oracle

SAMPLES = 250  # enough for table structure; floors come from closed forms


@pytest.fixture(scope="module")
def models():
    schemes = [NoEcc(), ConventionalIecc(), Xed(), Duo(), PairScheme()]
    return {s.name: build_model(s, samples=SAMPLES, seed=1) for s in schemes}


class TestFactory:
    def test_every_default_scheme_has_model(self, models):
        assert set(models) == {"no-ecc", "iecc-sec", "xed", "duo", "pair"}

    def test_rank_secded_supported(self):
        model = build_model(RankSecDed(), samples=SAMPLES)
        probs = model.line_probs(1e-5)
        assert probs["due"] > 0

    def test_unknown_scheme_rejected(self):
        class Fake:
            name = "fake"

        with pytest.raises(TypeError):
            build_model(Fake())


class TestClosedForms:
    def test_no_ecc_exact(self, models):
        p = 1e-6
        expect = 1 - (1 - p) ** 512
        assert models["no-ecc"].line_probs(p)["sdc"] == pytest.approx(expect, rel=1e-6)

    def test_rs_decodable_fraction_values(self):
        # DUO RS(76,64) t=6: known to be ~1e-6 regime
        duo_frac = rs_decodable_fraction(76, 12, 6)
        assert 1e-8 < duo_frac < 1e-5
        # PAIR case A: n=255, r_eff=16, t=8
        pair_frac = rs_decodable_fraction(255, 16, 8)
        assert 1e-6 < pair_frac < 1e-4

    def test_fraction_monotone_in_t(self):
        assert rs_decodable_fraction(76, 12, 6) > rs_decodable_fraction(76, 12, 5)


class TestScaling:
    def test_xed_sdc_scales_quadratically(self, models):
        xed = models["xed"]
        s1 = xed.line_probs(1e-6)["sdc"]
        s2 = xed.line_probs(1e-5)["sdc"]
        assert s2 / s1 == pytest.approx(100, rel=0.05)

    def test_pair_failure_scales_ninth_power(self, models):
        pair = models["pair"]
        f1 = pair.line_probs(1e-5)
        f2 = pair.line_probs(1e-4)
        ratio = (f2["sdc"] + f2["due"]) / (f1["sdc"] + f1["due"])
        # ~p^9 scaling, softened by binomial higher-order terms at 1e-4
        assert 3e8 < ratio < 1.2e9

    def test_probabilities_monotone_in_ber(self, models):
        for model in models.values():
            prev = -1.0
            for p in (1e-7, 1e-6, 1e-5, 1e-4):
                probs = model.line_probs(p)
                fail = probs["sdc"] + probs["due"]
                assert fail >= prev
                prev = fail


class TestPaperOrdering:
    """The qualitative shape of figure F2."""

    def test_everything_beats_no_ecc(self, models):
        p = 1e-5
        base = models["no-ecc"].line_probs(p)["sdc"]
        for name in ("iecc-sec", "xed", "duo", "pair"):
            probs = models[name].line_probs(p)
            assert probs["sdc"] + probs["due"] < base

    def test_pair_crushes_xed(self, models):
        """>= 10^5x at the 1e-5 operating point, ~10^6-10^7 at 1e-4."""
        for p, floor in ((1e-5, 1e5), (1e-4, 1e6)):
            xed = models["xed"].line_probs(p)
            pair = models["pair"].line_probs(p)
            ratio = (xed["sdc"] + xed["due"]) / (pair["sdc"] + pair["due"])
            assert ratio > floor, f"p={p}"

    def test_pair_beats_duo_at_low_ber(self, models):
        p = 3e-6
        duo = models["duo"].line_probs(p)
        pair = models["pair"].line_probs(p)
        ratio = (duo["sdc"] + duo["due"]) / (pair["sdc"] + pair["due"])
        assert ratio > 5  # the paper's "~10x on average" regime

    def test_conventional_never_flags(self, models):
        assert models["iecc-sec"].line_probs(1e-4)["due"] == 0.0


def hexes(probs):
    return {key: value.hex() for key, value in probs.items()}


class TestXedStates:
    """Tabulated XED states equal the state-by-state loop float for float."""

    F2_BERS = [float(b) for b in log_space(1e-7, 1e-3, 9)]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_f2_ber_and_the_edges(self, seed):
        model = build_model(Xed(), samples=400, seed=seed)
        for ber in [*self.F2_BERS, 0.0, 1e-12, 0.5]:
            probs = model.line_probs(ber)
            assert all(type(value) is float for value in probs.values())
            assert hexes(probs) == hexes(oracle.xed_line_probs(model, ber)), ber

    @pytest.mark.parametrize("data_chips", [2, 6])
    def test_other_chip_counts(self, data_chips):
        rank = RankConfig(device=DDR5_X8, data_chips=data_chips, ecc_chips=1)
        model = build_model(Xed(rank), samples=40, seed=1)
        for ber in (1e-5, 1e-3):
            assert hexes(model.line_probs(ber)) == hexes(oracle.xed_line_probs(model, ber))
