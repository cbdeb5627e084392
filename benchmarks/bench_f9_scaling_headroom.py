"""F9 - scaling headroom: the tolerable weak-cell BER per scheme.

The paper's motivation inverted into a single number: process scaling keeps
raising the inherent weak-cell rate, so the question a vendor asks is *what
BER can each IECC scheme absorb while staying under a failure budget?*
This bench solves (by bisection on the analytic models) for the maximum
BER at which each scheme's per-64B-read failure probability stays below a
target, and reports every scheme's headroom relative to conventional IECC.
A scheme that fails the target even at the search floor reads ``< 1e-10``,
one that meets it even at the search ceiling reads ``> 1e-02``, and no
ratio is formed from either.
"""

import math

import pytest

from repro.analysis import format_table
from repro.analysis.sweep import HEADROOM_FLOOR, format_tolerable_ber, max_tolerable_ber
from repro.reliability import build_model
from repro.schemes import default_schemes

TARGETS = (1e-12, 1e-15, 1e-18)


@pytest.fixture(scope="module")
def headroom():
    schemes = [s for s in default_schemes() if s.name != "no-ecc"]
    models = {s.name: build_model(s, samples=300, seed=0) for s in schemes}
    table = {}
    for target in TARGETS:
        table[target] = {
            name: max_tolerable_ber(model, target) for name, model in models.items()
        }
    return table


def test_f9_tolerable_ber(benchmark, headroom, report):
    def build():
        rows = []
        for target, per_scheme in headroom.items():
            row = {"failure_target": f"{target:.0e}"}
            for name, ber in per_scheme.items():
                row[name] = format_tolerable_ber(ber)
            pair, iecc = per_scheme["pair"], per_scheme["iecc-sec"]
            in_range = all(ber is not None and math.isfinite(ber) for ber in (pair, iecc))
            row["pair_vs_iecc"] = f"{pair / iecc:.0f}x" if in_range else "-"
            rows.append(row)
        return rows

    rows = benchmark(build)
    report(
        "F9: maximum tolerable weak-cell BER per failure budget "
        "(scaling headroom)",
        format_table(rows),
    )
    for target in TARGETS:
        per_scheme = headroom[target]
        # PAIR extends the tolerable fault rate by orders of magnitude over
        # the p^2-limited schemes - the 'enables further scaling' story; a
        # weak scheme below the search floor is beaten by more than PAIR's
        # margin over the floor itself
        for weak in ("iecc-sec", "xed"):
            ber = per_scheme[weak]
            assert per_scheme["pair"] > 50 * (HEADROOM_FLOOR if ber is None else ber), (
                target, weak)
        # and the strong schemes land within ~10x of each other
        ratio = per_scheme["pair"] / per_scheme["duo"]
        assert 0.1 < ratio < 10, target
