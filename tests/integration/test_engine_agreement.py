"""Engine agreement: decoder-in-the-loop MC vs analytic vs rare-event tiers.

The reliability story rests on several implementations of the same
question ("what fraction of reads fail?") with very different mechanics:
the scalar oracle and the batched engine decode every read, the analytic
model closes the form over measured tables, importance sampling and
splitting sample counts.  At a BER where all of them have statistics, they
must agree.
"""

import pytest

from repro.faults import FaultRates
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    run_iid_batched,
    run_rareevent_iid,
    run_splitting_iid,
    wilson_interval,
)
from repro.schemes import Duo, PairScheme

from .. import oracle

EXACT_TRIALS = 300


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


@pytest.fixture(scope="module")
def exact_run():
    """The scalar oracle's tally per (scheme, ber), shared across tests."""
    cache = {}

    def run(scheme, ber):
        key = (scheme.name, ber)
        if key not in cache:
            cache[key] = oracle.run_iid(
                scheme, iid_rates(ber), ExactRunConfig(trials=EXACT_TRIALS, seed=21)
            )
        return cache[key]

    return run


@pytest.mark.parametrize(
    "scheme_factory,ber",
    [(PairScheme, 3e-3), (Duo, 1e-2)],
    ids=["pair", "duo"],
)
def test_three_engines_agree_on_due(scheme_factory, ber, get_scheme, get_model,
                                    exact_run):
    scheme = get_scheme(scheme_factory)
    exact = exact_run(scheme, ber)
    batched = run_iid_batched(
        scheme, iid_rates(ber), ExactRunConfig(trials=EXACT_TRIALS, seed=21)
    )
    analytic = get_model(scheme, 300, seed=21).line_probs(ber)["due"]

    # the batched engine is the scalar oracle, bit for bit
    assert batched.as_dict() == exact.as_dict()
    # and the analytic model sits inside the (slightly widened) exact band
    lo, hi = wilson_interval(exact.due, EXACT_TRIALS)
    slack = 0.03
    assert lo - slack <= analytic <= hi + slack


@pytest.mark.parametrize(
    "scheme_factory,ber",
    [(PairScheme, 3e-3), (Duo, 1e-2)],
    ids=["pair", "duo"],
)
def test_rareevent_engine_joins_the_agreement(
    scheme_factory, ber, get_scheme, get_model, exact_run
):
    """The tilted estimator must agree with the other engines where they
    all have statistics - not only in the deep tail it was built for."""
    scheme = get_scheme(scheme_factory)
    exact = exact_run(scheme, ber)
    analytic = get_model(scheme, 300, seed=21).line_probs(ber)
    rare = run_rareevent_iid(
        scheme, iid_rates(ber), ExactRunConfig(trials=60_000, seed=21),
        RareEventParams(tilt="auto", samples=300, table_seed=21),
    )
    fail_est = rare.estimates()["outcomes"]["fail"]

    # inside the (slightly widened) exact engine's confidence band
    lo, hi = wilson_interval(exact.due + exact.sdc, EXACT_TRIALS)
    slack = 0.03
    assert lo - slack <= fail_est["p_ht"] <= hi + slack
    # and tightly on the analytic closed form (same conditional tables)
    assert fail_est["p_ht"] == pytest.approx(
        analytic["due"] + analytic["sdc"], rel=0.15
    )


def test_splitting_engine_joins_the_agreement(get_scheme, get_model):
    scheme = get_scheme(PairScheme)
    ber = 3e-3
    analytic = get_model(scheme, 300, seed=21).line_probs(ber)
    split = run_splitting_iid(scheme, iid_rates(ber), effort=4_096, seed=21,
                              samples=300, table_seed=21)
    lo, hi = split.interval(split.p_fail, z=3.0)
    assert lo <= analytic["due"] + analytic["sdc"] <= hi
