"""F8 - alignment ablation: pin-aligned vs beat-aligned at equal overhead.

Isolates the paper's core idea from everything else: the identical extended
RS(256,240) code laid out along DQ pin lines (PAIR) vs across beats (the
conventional orientation).  Weak-cell reliability is identical by symmetry;
per-pin bursts and column defects separate the two.
"""

import pytest

from repro.analysis import format_series, format_table
from repro.reliability import ExactRunConfig, build_model, run_burst_lengths_batched
from repro.schemes import PairScheme

LENGTHS = [2, 4, 8, 12, 16]
TRIALS = 16


@pytest.fixture(scope="module")
def orientations():
    return {
        "pin-aligned": PairScheme(orientation="pin"),
        "beat-aligned": PairScheme(orientation="beat"),
    }


def test_f8_burst_survival(benchmark, orientations, report):
    def run():
        out = {}
        for name, scheme in orientations.items():
            tallies = run_burst_lengths_batched(
                scheme, LENGTHS, ExactRunConfig(trials=TRIALS, seed=0)
            )
            out[name] = [
                f"{(tallies[b].ok + tallies[b].ce) / tallies[b].total:.2f}"
                for b in LENGTHS
            ]
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "F8: burst survival, identical code, two orientations",
        format_series("burst_beats", LENGTHS, data),
    )
    assert all(v == "1.00" for v in data["pin-aligned"])
    assert data["beat-aligned"][-1] == "0.00"  # 16 beats = 16 symbols > t


def test_f8_weak_cell_equivalence(benchmark, orientations, report):
    """Weak-cell *SDC* is orientation-blind (same code, same data volume).

    DUE differs by construction: the pin-aligned read checks eight pin
    codewords per chip access (8x the cell volume), so it *flags* more.
    """

    def evaluate():
        rows = []
        probs = {}
        for name, scheme in orientations.items():
            model = build_model(scheme, samples=200, seed=0)
            p = model.line_probs(1e-4)
            probs[name] = p
            rows.append(
                {
                    "orientation": name,
                    "sdc@1e-4": f"{p['sdc']:.3e}",
                    "due@1e-4": f"{p['due']:.3e}",
                }
            )
        return rows, probs

    rows, probs = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    report("F8 (detail): weak-cell SDC is orientation-blind", format_table(rows))
    ratio = probs["pin-aligned"]["sdc"] / probs["beat-aligned"]["sdc"]
    assert 0.5 < ratio < 2.0
