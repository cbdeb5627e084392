"""F12 - deep-tail failure rates by importance sampling, as FIT numbers.

The F2 sweep evaluates the closed-form models; this bench *measures* the
same tail with the tilted importance sampler and converts it to the
deployment unit (FIT: failures per 10^9 device-hours), with confidence
intervals that plain Monte Carlo could never resolve: PAIR's per-read
failure probability at BER 1e-4 is ~4e-11, i.e. ~10^10 plain trials for
a single expected hit, versus ~10^5 tilted count-level trials here.

Headline: the PAIR-vs-XED reliability ratio at BER 1e-4 (the paper's
"up to 10^6 x" regime) with both endpoints carrying CIs, plus the
splitting engine cross-checking the importance sampler on PAIR.
"""

import pytest

from repro.analysis import format_table
from repro.faults import DEFAULT_RATES
from repro.reliability import (
    AccessProfile,
    ExactRunConfig,
    RareEventParams,
    build_model,
    fit_interval,
    fit_rate,
    relative_reliability,
    run_rareevent_iid,
    run_splitting_iid,
)
from repro.schemes import default_schemes

BER = 1e-4
TRIALS = 200_000
SCHEMES = ("pair", "duo", "xed", "iecc-sec")


@pytest.fixture(scope="module")
def schemes():
    wanted = {s.name: s for s in default_schemes()}
    return [wanted[name] for name in SCHEMES]


def test_f12_tail_fit_rates(benchmark, schemes, report):
    rates = DEFAULT_RATES.pure_ber(BER)

    def sample():
        # the timed part: one tilted importance-sampling run per scheme
        return {
            scheme.name: run_rareevent_iid(
                scheme, rates, ExactRunConfig(trials=TRIALS, seed=0),
                RareEventParams(tilt="auto", samples=400),
            ).estimates()["outcomes"]["fail"]
            for scheme in schemes
        }

    tails = benchmark.pedantic(sample, rounds=1, iterations=1)
    profile = AccessProfile()
    rows = []
    for name, est in tails.items():
        analytic = build_model(
            next(s for s in schemes if s.name == name), samples=400,
        ).line_probs(BER)
        ci = (est["ci_lo"], est["ci_hi"])
        fit_lo, fit_hi = fit_interval(ci, profile)
        rows.append({
            "scheme": name,
            "p_fail": f"{est['p_ht']:.3e}",
            "ci": f"[{ci[0]:.2e}, {ci[1]:.2e}]",
            "analytic": f"{analytic['due'] + analytic['sdc']:.3e}",
            "fit": f"{fit_rate(est['p_ht'], profile):.3e}",
            "fit_ci": f"[{fit_lo:.2e}, {fit_hi:.2e}]",
        })
    body = format_table(rows)
    ratio = relative_reliability(
        tails["xed"]["p_ht"], tails["pair"]["p_ht"]
    )
    body += (
        f"\n\npaper: PAIR up to 1e6 x XED at high BER -> measured "
        f"{ratio:.2e} at BER {BER:.0e} ({TRIALS} tilted trials per scheme)"
    )
    report("F12: deep-tail FIT rates via importance sampling", body)

    # the acceptance regime: a ~1e-10-scale tail with a CI excluding zero
    assert tails["pair"]["p_ht"] < 1e-9
    assert tails["pair"]["ci_lo"] > 0.0
    assert ratio > 1e6


def test_f12_splitting_cross_check(benchmark, schemes, report):
    pair = next(s for s in schemes if s.name == "pair")
    rates = DEFAULT_RATES.pure_ber(BER)

    def run():
        return run_splitting_iid(pair, rates, effort=4_096, seed=0,
                                 samples=400)

    split = benchmark.pedantic(run, rounds=1, iterations=1)
    lo, hi = split.interval(split.p_fail)
    body = format_table([{
        "engine": "splitting",
        "p_fail": f"{split.p_fail:.3e}",
        "ci": f"[{lo:.2e}, {hi:.2e}]",
        "p_tail": f"{split.p_tail:.3e}",
        "tail_closed_form": f"{split.tail_closed_form:.3e}",
        "levels": len(split.levels),
    }])
    report("F12b: multilevel-splitting cross-check (PAIR)", body)
    # the estimated level-ratio product must agree with the exact ladder
    wide_lo, wide_hi = split.interval(split.p_tail, z=3.0)
    assert wide_lo <= split.tail_closed_form <= wide_hi
