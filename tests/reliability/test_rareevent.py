"""Statistical correctness of the rare-event tier.

The importance-sampling and splitting estimators are only useful if their
unbiasedness is *proven*, not trusted: a subtly wrong likelihood ratio
produces confident garbage exactly in the tails this tier exists to
resolve.  Three lines of defense:

* agreement with the independently-validated analytic closed forms,
  within the estimator's own confidence bands, across a
  (scheme, ber, tilt) grid driven by hypothesis;
* exact finite-sample checks: the degenerate tilt reproduces the decode
  engine bit for bit, and a fixed-seed ensemble of tilted runs brackets
  the exact ``binom_tail`` answer on a scheme simple enough to have one;
* numerical guard rails: log-weights stay finite at absurd tilts, and a
  collapsed-weight run raises ``NumericalGuard`` instead of returning a
  silently meaningless tally.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericalGuard
from repro.faults import FaultRates
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    at_least_one,
    binom_tail,
    line_law,
    run_iid_batched,
    run_rareevent_iid,
    run_splitting_iid,
    weighted_summary,
)
from repro.reliability import rareevent
from repro.reliability.rareevent import (
    auto_tilt,
    rareevent_chunk_tally,
    require_pure_ber,
    resolve_tilt,
    tilted_rate,
)
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, RankSecDed, Xed
from tests import oracle

SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, cell_cluster_per_bit=0.0,
        row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def run_is(scheme, ber, trials, seed, tilt="auto", defensive=0.05):
    return run_rareevent_iid(
        scheme, iid_rates(ber), ExactRunConfig(trials=trials, seed=seed),
        RareEventParams(tilt=tilt, defensive=defensive, samples=300),
    )


class TestTiltMath:
    def test_zero_tilt_is_identity(self):
        assert tilted_rate(1e-4, 0.0) == pytest.approx(1e-4, rel=1e-12)

    def test_tilt_shifts_log_odds(self):
        q = 1e-3
        got = tilted_rate(q, 2.0)
        odds = (q / (1 - q)) * math.exp(2.0)
        assert got == pytest.approx(odds / (1 + odds), rel=1e-12)

    def test_auto_tilt_targets_failure_radius(self, get_scheme):
        law = line_law(get_scheme(PairScheme), 1e-4, samples=50)
        q_star = tilted_rate(law.q, auto_tilt(law))
        assert q_star == pytest.approx(law.k_fail / law.n, rel=1e-9)

    def test_resolve_rejects_unknown_string(self, get_scheme):
        law = line_law(get_scheme(NoEcc), 1e-4)
        with pytest.raises(ValueError, match="'auto'"):
            resolve_tilt("steep", law)

    def test_auto_that_resolves_to_zero_is_refused(self, get_scheme):
        # DUO's symbol rate at BER 0.02 is past its failure radius already
        law = line_law(get_scheme(Duo), 0.02, samples=50)
        assert auto_tilt(law) == 0.0
        with pytest.raises(ValueError, match="resolved tilt is 0"):
            resolve_tilt("auto", law)
        assert resolve_tilt(0.0, law) == 0.0

    @pytest.mark.parametrize("tilt, match", [
        (math.inf, "tilt must be finite"), (-math.inf, "tilt must be finite"),
        (math.nan, "tilt must be finite"), ("steep", "'auto'"),
    ])
    def test_params_refuse_a_bad_tilt(self, tilt, match):
        # refused when the run is stated, before any law is built
        with pytest.raises(ValueError, match=match):
            RareEventParams(tilt=tilt)

    def test_require_pure_ber_names_offending_rates(self):
        with pytest.raises(ValueError, match="row_faults_per_device"):
            require_pure_ber(FaultRates(single_cell_ber=1e-5))
        assert require_pure_ber(iid_rates(1e-5)) == 1e-5


class TestAgreementWithClosedForms:
    """Tilted estimates sit inside their own bands around the analytic value."""

    @SETTINGS
    @given(
        scheme_ber=st.sampled_from(
            [(PairScheme, 1e-4), (PairScheme, 3e-4), (Duo, 1e-4),
             (Xed, 1e-4), (Xed, 3e-5), (NoEcc, 1e-5)]
        ),
        seed=st.integers(min_value=0, max_value=3),
        tilt_scale=st.sampled_from([0.75, 1.0, 1.25]),
    )
    def test_fail_estimate_within_band(self, scheme_ber, seed, tilt_scale,
                                       get_scheme, get_model):
        factory, ber = scheme_ber
        scheme = get_scheme(factory)
        law = line_law(scheme, ber, samples=300)
        result = run_is(scheme, ber, trials=150_000, seed=seed,
                        tilt=auto_tilt(law) * tilt_scale)
        ref = get_model(scheme, 300).line_probs(ber)
        ref_fail = ref["sdc"] + ref["due"]
        fail = result.estimates()["outcomes"]["fail"]
        # the asymptotic HT interval must cover the closed form (with a 2x
        # slack factor on the margin: the CI itself is an estimate)
        margin = 2.0 * max(fail["ci_hi"] - fail["p_ht"],
                           fail["p_ht"] - fail["ci_lo"])
        assert abs(fail["p_ht"] - ref_fail) <= margin + 1e-300
        # and the conservative Wilson-over-ESS band covers it too
        assert fail["wilson_lo"] - 1e-12 <= ref_fail <= fail["wilson_hi"] + 1e-12

    def test_deep_tail_relative_accuracy(self, get_scheme, get_model):
        # the acceptance-criterion regime: a ~4e-11 tail resolved to a few
        # percent from 2e5 count-level proposals
        scheme = get_scheme(PairScheme)
        result = run_is(scheme, 1e-4, trials=200_000, seed=0)
        ref = get_model(scheme, 300).line_probs(1e-4)
        fail = result.estimates()["outcomes"]["fail"]
        assert fail["ci_lo"] > 0.0  # CI excludes zero
        assert fail["p_ht"] == pytest.approx(ref["sdc"] + ref["due"], rel=0.1)


class TestDegenerateTilt:
    def test_tilt_zero_bit_identical_to_batched(self, get_scheme):
        scheme = get_scheme(Xed)
        config = ExactRunConfig(trials=64, seed=5)
        rates = iid_rates(2e-3)
        reference = run_iid_batched(scheme, rates, config)
        result = run_rareevent_iid(scheme, rates, config,
                                   RareEventParams(tilt=0.0))
        got = result.tally
        assert (got.ok, got.ce, got.due, got.sdc) == (
            reference.ok, reference.ce, reference.due, reference.sdc
        )
        assert result.estimator == "exact"
        # unit weights: ESS equals the trial count, SN equals HT equals
        # the plain proportion
        est = result.estimates()
        assert est["ess"] == pytest.approx(64)
        due = est["outcomes"]["due"]
        assert due["p_ht"] == pytest.approx(reference.due / 64)
        assert due["p_sn"] == pytest.approx(reference.due / 64)

    @pytest.mark.parametrize("tilt", [2.0, 0.0])
    def test_zero_trials_refused_before_the_law(self, monkeypatch, get_scheme, tilt):
        def no_law(*args, **kwargs):
            raise AssertionError("the law was built")

        monkeypatch.setattr(rareevent, "line_law", no_law)
        with pytest.raises(ValueError, match="trials must be positive"):
            run_rareevent_iid(
                get_scheme(PairScheme), iid_rates(1e-4), ExactRunConfig(trials=0),
                RareEventParams(tilt=tilt),
            )

    def test_structured_rates_refused_for_tilted_runs(self, get_scheme):
        with pytest.raises(ValueError, match="weak-cell"):
            run_rareevent_iid(
                get_scheme(PairScheme), FaultRates(single_cell_ber=1e-4),
                ExactRunConfig(trials=100, seed=0),
                RareEventParams(tilt=2.0),
            )


class TestLogWeightStability:
    @SETTINGS
    @given(tilt=st.sampled_from([6.0, 9.0, 12.0, -4.0]))
    def test_extreme_tilts_keep_finite_log_weights(self, tilt, get_scheme):
        # absurd tilts must degrade ESS, never overflow: every log-sum in
        # the accumulator stays finite (None only for empty outcomes)
        scheme = get_scheme(Xed)
        tally = rareevent_chunk_tally(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=2_000, seed=1),
            {"start": 0, "trials": 2_000, "tilt": tilt, "defensive": 0.05,
             "law": line_law(scheme, 1e-4, samples=100)},
        )
        weighted = tally.extra["weighted"]
        for name, row in weighted["outcomes"].items():
            if row["count"]:
                assert math.isfinite(row["log_w"]), name
                assert math.isfinite(row["log_w2"]), name
        est = weighted_summary(weighted)
        assert math.isfinite(est["ess"]) and est["ess"] > 0

    def test_defensive_mass_bounds_weights(self, get_scheme):
        # with defensive mass lambda, no weight exceeds 1/lambda: the log-sum
        # of n weights is at most log(n/lambda)
        scheme = get_scheme(Xed)
        trials, defensive = 5_000, 0.1
        tally = rareevent_chunk_tally(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=trials, seed=2),
            {"start": 0, "trials": trials, "tilt": 8.0, "defensive": defensive,
             "law": line_law(scheme, 1e-4, samples=100)},
        )
        total = None
        for row in tally.extra["weighted"]["outcomes"].values():
            if row["log_w"] is not None:
                total = row["log_w"] if total is None else float(
                    np.logaddexp(total, row["log_w"])
                )
        assert total <= math.log(trials / defensive) + 1e-9


class TestUnbiasedness:
    def test_ensemble_mean_brackets_exact_binom_tail(self, get_scheme):
        # no-ecc is exactly solvable: p_fail = P(Bin(512, ber) >= 1).  The
        # HT estimator is unbiased, so a fixed-seed ensemble mean must land
        # within its own ensemble standard error of the truth.
        scheme = get_scheme(NoEcc)
        ber = 1e-6
        exact = binom_tail(512, 1, ber)
        estimates = [
            run_is(scheme, ber, trials=4_000, seed=seed, tilt=6.0)
            .estimates()["outcomes"]["fail"]["p_ht"]
            for seed in range(24)
        ]
        mean = float(np.mean(estimates))
        stderr = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - exact) <= 4.0 * stderr
        assert exact == pytest.approx(at_least_one(ber, 512), rel=1e-9)

    def test_ess_floor_raises_numerical_guard(self, get_scheme):
        # a tilt far past the failure radius collapses the weights; the
        # engine must refuse, not return a silently biased tally
        with pytest.raises(NumericalGuard, match="ESS"):
            run_rareevent_iid(
                get_scheme(NoEcc), iid_rates(1e-6),
                ExactRunConfig(trials=300, seed=0),
                RareEventParams(tilt=14.0, defensive=0.0,
                                min_ess=8.0),
            )

    def test_workers_do_not_change_the_result(self, get_scheme):
        # chunk RNG streams are keyed by chunk start, so for a fixed
        # chunking the worker count is pure throughput: tallies and the
        # weighted accumulators come out bit-identical
        scheme = get_scheme(Xed)
        one = run_rareevent_iid(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=40_000, seed=3),
            RareEventParams(tilt="auto", samples=300),
            workers=1, chunk_trials=10_000,
        )
        two = run_rareevent_iid(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=40_000, seed=3),
            RareEventParams(tilt="auto", samples=300),
            workers=2, chunk_trials=10_000,
        )
        assert one.tally.extra["weighted"] == two.tally.extra["weighted"]
        assert (one.tally.ok, one.tally.ce, one.tally.due, one.tally.sdc) == (
            two.tally.ok, two.tally.ce, two.tally.due, two.tally.sdc
        )


class TestSplitting:
    def test_tail_matches_closed_form_ladder(self, get_scheme):
        # P(max word count >= k) has an exact closed form; the estimated
        # level-ratio product must agree within the delta-method CI
        scheme = get_scheme(PairScheme)
        result = run_splitting_iid(scheme, iid_rates(1e-4), effort=2_048,
                                   seed=3, samples=300)
        assert result.k == 9
        spread = math.exp(3.0 * result.rel_se)
        assert result.tail_closed_form / spread <= result.p_tail \
            <= result.tail_closed_form * spread

    def test_fail_matches_analytic(self, get_scheme, get_model):
        scheme = get_scheme(PairScheme)
        result = run_splitting_iid(scheme, iid_rates(1e-4), effort=2_048,
                                   seed=1, samples=300)
        ref = get_model(scheme, 300).line_probs(1e-4)
        lo, hi = result.interval(result.p_fail, z=3.0)
        assert lo <= ref["sdc"] + ref["due"] <= hi
        assert lo > 0.0

    def test_deterministic_in_seed(self, get_scheme):
        scheme = get_scheme(Duo)
        a = run_splitting_iid(scheme, iid_rates(1e-4), effort=512, seed=9,
                              samples=100)
        b = run_splitting_iid(scheme, iid_rates(1e-4), effort=512, seed=9,
                              samples=100)
        assert a.as_dict() == b.as_dict()

    def test_zero_survivors_raises_guard(self, get_scheme):
        # effort=1 cannot climb an 9-level ladder; the run must refuse
        with pytest.raises(NumericalGuard, match="survivors"):
            run_splitting_iid(get_scheme(PairScheme), iid_rates(1e-5),
                              effort=1, seed=0, samples=50)

    def test_zero_ber_short_circuits(self, get_scheme):
        result = run_splitting_iid(get_scheme(Duo), iid_rates(0.0),
                                   effort=64, seed=0, samples=50)
        assert result.p_tail == 0.0
        assert result.p_fail == 0.0


class TestSplittingSamplerParity:
    """The per-class sampler equals the dense oracle, cell for cell."""

    @pytest.mark.parametrize("ber", [1e-4, 1e-5])
    @pytest.mark.parametrize("factory", [PairScheme, Duo, Xed, ConventionalIecc])
    def test_every_level_equals_the_dense_oracle(self, get_scheme, factory, ber):
        law = line_law(get_scheme(factory), ber, samples=50)
        if factory is Duo:
            assert law.words == 1  # every cell is the first word's cell
        count_law = rareevent._count_law(law)
        for seed in (0, 3, 1009):
            for effort in (1, 7, 4096):
                for level in range(1, law.k_fail + 1):
                    key = [seed, effort, level]
                    got = rareevent._conditional_counts_given_max(
                        np.random.default_rng(key), law, level, effort, *count_law
                    )
                    want = oracle.conditional_counts_given_max(
                        np.random.default_rng(key), law, level, effort
                    )
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("factory", [PairScheme, Duo])
    def test_run_equals_the_run_with_the_oracle(self, monkeypatch, get_scheme, factory):
        scheme = get_scheme(factory)
        got = run_splitting_iid(scheme, iid_rates(1e-4), effort=4096, seed=3,
                                samples=50)
        monkeypatch.setattr(
            rareevent, "_conditional_counts_given_max",
            lambda rng, law, level, trials, *_: oracle.conditional_counts_given_max(
                rng, law, level, trials
            ),
        )
        want = run_splitting_iid(scheme, iid_rates(1e-4), effort=4096, seed=3,
                                 samples=50)
        assert got.as_dict() == want.as_dict()


def _hex_weighted(weighted):
    """A weighted accumulator with every log-sum spelled as ``float.hex``."""
    return {
        name: (row["count"],
               *(None if row[key] is None else row[key].hex()
                 for key in ("log_w", "log_w2")))
        for name, row in weighted["outcomes"].items()
    }


class TestChunkKernelParity:
    """Per-count tables give the per-cell answer bit for bit."""

    FACTORIES = [NoEcc, ConventionalIecc, Xed, Duo, PairScheme, RankSecDed]

    @pytest.mark.parametrize("ber", [1e-4, 1e-3])
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_chunk_equals_the_per_cell_oracle(self, get_scheme, factory, ber):
        # tilt -3 makes ell fall with the count, so the row peak is not at
        # the largest count; tilt 40 pushes q~ to nearly 1
        scheme = get_scheme(factory)
        rates = iid_rates(ber)
        law = line_law(scheme, ber, samples=50)
        for tilt in ("auto", -3.0, 40.0):
            for defensive in (0.0, 0.05):
                for seed in (0, 3, 1009):
                    payload = {"start": 2048, "trials": 2048,
                               "tilt": resolve_tilt(tilt, law),
                               "defensive": defensive, "law": law}
                    config = ExactRunConfig(trials=8192, seed=seed)
                    got = rareevent_chunk_tally(scheme, rates, config, payload)
                    want = oracle.rareevent_chunk_tally(scheme, rates, config, payload)
                    case = (tilt, defensive, seed)
                    assert got.as_dict() == want.as_dict(), case
                    assert (_hex_weighted(got.extra["weighted"])
                            == _hex_weighted(want.extra["weighted"])), case
                    assert got.extra == want.extra, case

    def test_empty_chunk(self, get_scheme):
        scheme = get_scheme(PairScheme)
        payload = {"start": 0, "trials": 0, "tilt": 3.0, "defensive": 0.05,
                   "law": line_law(scheme, 1e-4, samples=50)}
        config = ExactRunConfig(trials=1, seed=0)
        got = rareevent_chunk_tally(scheme, iid_rates(1e-4), config, payload)
        want = oracle.rareevent_chunk_tally(scheme, iid_rates(1e-4), config, payload)
        assert got.as_dict()["trials"] == 0
        assert got.extra == want.extra

    @pytest.mark.parametrize("ber", [1e-4, 1e-3])
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_rao_blackwell_step_equals_the_per_cell_oracle(self, get_scheme,
                                                           factory, ber):
        law = line_law(get_scheme(factory), ber, samples=50)
        count_law = rareevent._count_law(law)
        for seed in (0, 3, 1009):
            for level in range(1, law.k_fail + 2):
                counts = rareevent._conditional_counts_given_max(
                    np.random.default_rng([seed, level]), law, level, 512,
                    *count_law,
                )
                got = rareevent._conditional_outcome_probs(law, counts)
                want = oracle.conditional_outcome_probs(law, counts)
                for g, w in zip(got, want):
                    assert [v.hex() for v in g] == [v.hex() for v in w], (seed, level)
