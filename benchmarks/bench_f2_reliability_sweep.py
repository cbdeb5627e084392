"""F2 - reliability vs inherent single-cell BER (the headline figure).

Sweeps the weak-cell bit-error rate and reports per-64B-read SDC, DUE and
combined failure probabilities for every scheme, then the paper's two
headline ratios:

* PAIR vs XED - abstract claims "up to 10^6 times higher reliability";
* PAIR vs DUO - abstract claims "10 times higher reliability ... on
  average" (the average sits in the low-BER regime; DUO's stronger
  per-line code overtakes PAIR above ~1e-5, which is the crossover this
  figure exposes).
"""

import pytest

from repro.analysis import format_series, format_table, log_space, reliability_sweep
from repro.reliability import conditional, relative_reliability
from repro.schemes import default_schemes

BERS = log_space(1e-7, 1e-3, 9)


@pytest.fixture(scope="module")
def sweep():
    return reliability_sweep(default_schemes(), BERS, samples=400, seed=0)


def test_f2_failure_probability_series(benchmark, report):
    # the timed part: one sweep that measures its tables from an empty cache
    swept = benchmark.pedantic(
        reliability_sweep, args=(default_schemes(), BERS),
        kwargs={"samples": 400, "seed": 0},
        setup=conditional.clear_cache, rounds=1, iterations=1,
    )
    names = list(swept)
    series = {name: swept[name]["fail"] for name in names}
    body = format_series(
        "ber",
        [f"{b:.0e}" for b in BERS],
        {name: [f"{v:.2e}" for v in series[name]] for name in names},
    )
    ratios = []
    for i, ber in enumerate(BERS):
        ratios.append(
            {
                "ber": f"{ber:.0e}",
                "pair_vs_xed": relative_reliability(
                    series["xed"][i], series["pair"][i]
                ),
                "pair_vs_duo": relative_reliability(
                    series["duo"][i], series["pair"][i]
                ),
            }
        )
    body += "\n\nheadline ratios (failure probability ratios):\n"
    body += format_table(ratios)
    pair_vs_xed_max = max(r["pair_vs_xed"] for r in ratios)
    low_ber = [r["pair_vs_duo"] for r in ratios if float(r["ber"]) <= 1e-5]
    body += (
        f"\npaper: PAIR up to 1e6 x XED -> measured max ratio "
        f"{pair_vs_xed_max:.1e} (at the upper end of the sweep: "
        f"{ratios[-1]['pair_vs_xed']:.1e})"
    )
    body += (
        f"\npaper: PAIR ~10 x DUO on average -> measured low-BER ratios "
        + ", ".join(f"{v:.1f}" for v in low_ber)
    )
    report("F2: failure probability per 64B read vs weak-cell BER", body)

    # the shape assertions the reproduction must hold
    idx = list(BERS).index(BERS[6])  # 1e-4-ish point
    assert relative_reliability(series["xed"][6], series["pair"][6]) > 1e6
    assert series["no-ecc"][0] > series["iecc-sec"][0] > series["pair"][0]


def test_f2_sdc_vs_due_split(benchmark, sweep, report):
    def build():
        rows = []
        for ber_idx in (4, 6):  # 1e-5 and 1e-4
            for name in sweep:
                rows.append(
                    {
                        "ber": f"{BERS[ber_idx]:.0e}",
                        "scheme": name,
                        "sdc": f"{sweep[name]['sdc'][ber_idx]:.2e}",
                        "due": f"{sweep[name]['due'][ber_idx]:.2e}",
                    }
                )
        return rows

    rows = benchmark(build)
    report("F2 (detail): SDC vs DUE split at 1e-5 and 1e-4", format_table(rows))
    assert rows
