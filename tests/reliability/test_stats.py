"""Tests for the statistics helpers."""

import math

import numpy as np
import pytest

from repro.reliability import (
    at_least_one,
    binom_logpmf,
    binom_pmf,
    binom_tail,
    merge_weighted,
    stats,
    unit_weighted_tally,
    weighted_summary,
    weighted_tally,
    wilson_interval,
    wilson_interval_weighted,
)
from tests import oracle


class TestBinomPmf:
    def test_sums_to_one(self):
        js = np.arange(0, 137)
        assert binom_pmf(136, js, 0.01).sum() == pytest.approx(1.0)

    def test_matches_closed_form_small(self):
        assert binom_pmf(4, 2, 0.5) == pytest.approx(6 / 16)

    def test_tiny_p_stable(self):
        val = binom_pmf(2048, 2, 1e-9)
        expect = math.comb(2048, 2) * 1e-18
        assert val == pytest.approx(expect, rel=1e-3)

    def test_degenerate_p(self):
        assert binom_pmf(10, 0, 0.0) == 1.0
        assert binom_pmf(10, 3, 0.0) == 0.0
        assert binom_pmf(10, 10, 1.0) == 1.0

    def test_out_of_range_j(self):
        assert binom_pmf(10, 11, 0.3) == 0.0

    def test_scalar_and_array_forms(self):
        scalar = binom_pmf(10, 3, 0.2)
        array = binom_pmf(10, np.array([3]), 0.2)
        assert scalar == pytest.approx(float(array[0]))


class TestBinomTail:
    def test_tail_complements_head(self):
        n, p = 136, 1e-3
        head = binom_pmf(n, np.arange(0, 2), p).sum()
        assert binom_tail(n, 2, p) == pytest.approx(1 - head, rel=1e-9)

    def test_trivial_cases(self):
        assert binom_tail(10, 0, 0.5) == 1.0
        assert binom_tail(10, 11, 0.5) == 0.0


def hex_list(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


class TestLgammaTable:
    """Tabulated log-gamma gives the per-value ``math.lgamma`` floats."""

    NS = [12, 76, 136, 256]
    PS = [0.0, 1e-9, 1e-4, 0.5, 1.0]

    def per_value(self, monkeypatch, fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(stats, "_lgamma_arr", oracle.lgamma_arr)
            return fn(*args)

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("p", PS)
    def test_pmf_and_tail_equal_the_per_value_form(self, monkeypatch, n, p):
        js = np.arange(-2, n + 3)
        for fn in (binom_logpmf, binom_pmf):
            assert hex_list(fn(n, js, p)) == hex_list(self.per_value(monkeypatch, fn, n, js, p))
            for j in (0, 1, n // 2, n):  # scalar j
                got = fn(n, j, p)
                assert isinstance(got, float)
                assert got.hex() == self.per_value(monkeypatch, fn, n, j, p).hex()
        for j_min in range(n + 3):
            got = binom_tail(n, j_min, p)
            assert got.hex() == self.per_value(monkeypatch, binom_tail, n, j_min, p).hex()
        assert binom_tail(n, n + 1, p) == 0.0  # empty range


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi < 0.05

    def test_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestBinomLogPmf:
    def test_exp_matches_pmf(self):
        js = np.arange(0, 33)
        assert np.exp(binom_logpmf(32, js, 0.01)) == pytest.approx(
            binom_pmf(32, js, 0.01)
        )

    def test_out_of_support_is_minus_inf(self):
        assert binom_logpmf(10, 11, 0.3) == -math.inf
        assert binom_logpmf(10, -1, 0.3) == -math.inf

    def test_degenerate_p(self):
        assert binom_logpmf(10, 0, 0.0) == 0.0
        assert binom_logpmf(10, 1, 0.0) == -math.inf
        assert binom_logpmf(10, 10, 1.0) == 0.0

    def test_deep_tail_no_underflow(self):
        # pmf itself underflows double precision; the log form must not
        val = binom_logpmf(512, 40, 1e-9)
        expect = math.log(math.comb(512, 40)) + 40 * math.log(1e-9)
        assert val == pytest.approx(expect, rel=1e-9)


class TestWilsonWeighted:
    def test_reduces_to_unweighted_on_integers(self):
        for successes, trials in [(0, 100), (10, 100), (100, 100), (3, 7)]:
            ref = wilson_interval(successes, trials)
            got = wilson_interval_weighted(float(successes), float(trials))
            assert got[0] == pytest.approx(ref[0], abs=1e-15)
            assert got[1] == pytest.approx(ref[1], abs=1e-15)

    def test_widens_as_ess_drops(self):
        # same proportion, less effective information => wider band
        wide = wilson_interval_weighted(0.1 * 50.0, 50.0)
        narrow = wilson_interval_weighted(0.1 * 5000.0, 5000.0)
        assert wide[1] - wide[0] > narrow[1] - narrow[0]

    def test_no_effective_trials(self):
        assert wilson_interval_weighted(0.0, 0.0) == (0.0, 1.0)


def make_weighted(counts, log_weights, tilt=1.5, defensive=0.05):
    return weighted_tally(
        counts, {k: np.asarray(v, dtype=float) for k, v in log_weights.items()},
        estimator="is", tilt=tilt, defensive=defensive,
    )


class TestWeightedTally:
    def test_unit_weights_recover_plain_proportions(self):
        tally = unit_weighted_tally({"ok": 90, "ce": 6, "due": 3, "sdc": 1})
        est = weighted_summary(tally)
        assert est["ess"] == pytest.approx(100.0)
        assert est["weight_cv2"] == pytest.approx(0.0)
        for name, count in [("ok", 90), ("ce", 6), ("due", 3), ("sdc", 1)]:
            row = est["outcomes"][name]
            assert row["p_ht"] == pytest.approx(count / 100)
            assert row["p_sn"] == pytest.approx(count / 100)
        assert est["outcomes"]["fail"]["p_ht"] == pytest.approx(0.04)

    def test_ht_estimate_is_mean_weight(self):
        lw = [math.log(0.5), math.log(0.25)]
        tally = make_weighted(
            {"ok": 2, "sdc": 2}, {"ok": [0.0, 0.0], "sdc": lw}
        )
        est = weighted_summary(tally)
        assert est["outcomes"]["sdc"]["p_ht"] == pytest.approx(0.75 / 4)
        # self-normalized divides by the total weight instead of n
        assert est["outcomes"]["sdc"]["p_sn"] == pytest.approx(0.75 / 2.75)

    def test_kish_ess_formula(self):
        # ESS = (sum w)^2 / sum w^2 for weights [1, 1, 0.5]
        tally = make_weighted(
            {"ok": 3}, {"ok": [0.0, 0.0, math.log(0.5)]}
        )
        est = weighted_summary(tally)
        assert est["ess"] == pytest.approx(2.5**2 / 2.25)

    def test_empty_outcome_encoded_as_none(self):
        tally = make_weighted({"ok": 1}, {"ok": [0.0]})
        assert tally["outcomes"]["due"]["log_w"] is None
        assert weighted_summary(tally)["outcomes"]["due"]["p_ht"] == 0.0


class TestMergeWeighted:
    def test_merge_matches_single_pass(self):
        a = make_weighted({"ok": 2, "due": 1}, {"ok": [0.0, -1.0], "due": [-2.0]})
        b = make_weighted({"ok": 1, "sdc": 2}, {"ok": [-0.5], "sdc": [-3.0, -4.0]})
        whole = make_weighted(
            {"ok": 3, "due": 1, "sdc": 2},
            {"ok": [0.0, -1.0, -0.5], "due": [-2.0], "sdc": [-3.0, -4.0]},
        )
        merged = merge_weighted(a, b)
        assert merged["n"] == whole["n"]
        for name in ("ok", "ce", "due", "sdc"):
            got, ref = merged["outcomes"][name], whole["outcomes"][name]
            assert got["count"] == ref["count"]
            for key in ("log_w", "log_w2"):
                if ref[key] is None:
                    assert got[key] is None
                else:
                    assert got[key] == pytest.approx(ref[key], rel=1e-12)

    def test_commutative(self):
        a = make_weighted({"ok": 1, "due": 1}, {"ok": [0.0], "due": [-2.0]})
        b = make_weighted({"ok": 2}, {"ok": [-1.0, -0.5]})
        ab, ba = merge_weighted(a, b), merge_weighted(b, a)
        for name in ("ok", "due"):
            assert ab["outcomes"][name]["log_w"] == pytest.approx(
                ba["outcomes"][name]["log_w"]
            )

    def test_none_passthrough(self):
        a = make_weighted({"ok": 1}, {"ok": [0.0]})
        assert merge_weighted(None, None) is None
        assert merge_weighted(a, None) == a
        assert merge_weighted(None, a) == a

    def test_mismatched_proposals_refused(self):
        a = make_weighted({"ok": 1}, {"ok": [0.0]}, tilt=1.0)
        b = make_weighted({"ok": 1}, {"ok": [0.0]}, tilt=2.0)
        with pytest.raises(ValueError, match="tilt"):
            merge_weighted(a, b)
        c = make_weighted({"ok": 1}, {"ok": [0.0]}, tilt=1.0, defensive=0.1)
        with pytest.raises(ValueError, match="defensive"):
            merge_weighted(a, c)


class TestAtLeastOne:
    def test_matches_direct_formula(self):
        p, n = 1e-3, 32
        assert at_least_one(p, n) == pytest.approx(1 - (1 - p) ** n)

    def test_tiny_probabilities_no_underflow(self):
        val = at_least_one(1e-18, 32)
        assert val == pytest.approx(32e-18, rel=1e-6)

    def test_zero(self):
        assert at_least_one(0.0, 100) == 0.0
