"""Tests for the sweep drivers."""

import math

import numpy as np

from repro.analysis import apply_grid, reliability_sweep
from repro.analysis.sweep import format_tolerable_ber, log_space, max_tolerable_ber
from repro.reliability import build_model
from repro.schemes import Duo, NoEcc, PairScheme, Xed


class TestApplyGrid:
    def test_cartesian_coverage(self):
        results = apply_grid(lambda a, b: a * b, a=[1, 2, 3], b=[10, 20])
        assert len(results) == 6
        assert {(r["a"], r["b"]) for r in results} == {
            (a, b) for a in (1, 2, 3) for b in (10, 20)
        }
        assert all(r["value"] == r["a"] * r["b"] for r in results)

    def test_single_axis(self):
        results = apply_grid(lambda x: x + 1, x=[0, 1])
        assert [r["value"] for r in results] == [1, 2]

    def test_empty_axis_yields_nothing(self):
        assert apply_grid(lambda x: x, x=[]) == []


class TestReliabilitySweep:
    def test_adds_combined_fail_column(self):
        bers = [1e-5, 1e-4]
        out = reliability_sweep([NoEcc()], bers, samples=50)
        data = out["no-ecc"]
        assert np.allclose(data["fail"], data["sdc"] + data["due"])
        assert data["ber"].tolist() == bers

    def test_multiple_schemes_keyed_by_name(self):
        out = reliability_sweep([NoEcc(), PairScheme()], [1e-4], samples=100)
        assert set(out) == {"no-ecc", "pair"}


class TestHeadlineFigures:
    """EXPERIMENTS.md's F2 headline figures, from the sweep's 400-sample tables."""

    def test_pair_over_xed_at_1e4(self):
        # EXPERIMENTS.md measures 7.8e6 (the abstract's "up to 10^6 x");
        # the band is +-10% around it
        out = reliability_sweep([PairScheme(), Xed()], [1e-4], samples=400, seed=0)
        ratio = out["xed"]["fail"][0] / out["pair"]["fail"][0]
        assert 7.0e6 <= ratio <= 8.6e6, ratio

    def test_pair_duo_crossover_between_3e6_and_3e5(self):
        # below the crossover PAIR fails less than DUO, above it more; the
        # ratio rises monotonically, so it crosses 1 exactly once in between
        bers = log_space(3e-6, 3e-5, 11)
        out = reliability_sweep([PairScheme(), Duo()], bers, samples=400, seed=0)
        ratio = out["pair"]["fail"] / out["duo"]["fail"]
        assert ratio[0] < 1.0 < ratio[-1], ratio
        assert np.all(np.diff(ratio) > 0), ratio


class TestMaxTolerableBer:
    def test_below_the_floor_is_none(self):
        model = build_model(Xed(), samples=100, seed=0)
        assert max_tolerable_ber(model, 1e-18) is None
        assert max_tolerable_ber(model, 0.0) is None
        assert format_tolerable_ber(None) == "< 1e-10"

    def test_above_the_ceiling_is_inf(self):
        # a budget of 1 is met at every BER: the answer lies above the
        # search range, not at its ceiling
        model = build_model(Xed(), samples=100, seed=0)
        assert max_tolerable_ber(model, 1.0) == math.inf
        assert format_tolerable_ber(math.inf) == "> 1e-02"
        assert format_tolerable_ber(1e-2) == "1.00e-02"

    def test_answer_meets_the_target(self):
        model = build_model(PairScheme(), samples=100, seed=0)
        ber = max_tolerable_ber(model, 1e-15)
        probs = model.line_probs(ber)
        assert 1e-10 < ber < 1e-2
        assert probs["sdc"] + probs["due"] <= 1e-15
        assert format_tolerable_ber(ber) == f"{ber:.2e}"
