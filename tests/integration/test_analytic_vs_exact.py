"""Cross-validation: the semi-analytic models against decoder-in-the-loop MC.

These are the tests that justify trusting the F2 sweep down to 1e-20: at an
elevated BER where direct Monte Carlo has enough statistics, both engines
must agree on the failure probabilities of every scheme.
"""

from repro.faults import FaultRates
from repro.reliability import ExactRunConfig, wilson_interval
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, Xed

from ..oracle import run_iid

TRIALS = 400


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def agreement(get_model, scheme, ber, metric, seed=11):
    tally = run_iid(scheme, iid_rates(ber), ExactRunConfig(trials=TRIALS, seed=seed))
    model = get_model(scheme, 300, seed=seed)
    predicted = model.line_probs(ber)[metric]
    observed = getattr(tally, metric)
    lo, hi = wilson_interval(observed, TRIALS)
    return predicted, observed / TRIALS, lo, hi


class TestAgreement:
    def test_no_ecc_sdc(self, get_scheme, get_model):
        predicted, _, lo, hi = agreement(get_model, get_scheme(NoEcc), 1.5e-3, "sdc")
        assert lo <= predicted <= hi

    def test_conventional_sdc(self, get_scheme, get_model):
        predicted, _, lo, hi = agreement(
            get_model, get_scheme(ConventionalIecc), 4e-3, "sdc")
        assert lo <= predicted <= hi

    def test_xed_sdc(self, get_scheme, get_model):
        predicted, _, lo, hi = agreement(get_model, get_scheme(Xed), 6e-3, "sdc")
        assert lo <= predicted <= hi

    def test_duo_due(self, get_scheme, get_model):
        # Slightly widened band: at BER this high a few percent of symbol
        # errors are multi-bit, outside the tables' single-bit regime.
        predicted, observed, lo, hi = agreement(
            get_model, get_scheme(Duo), 1e-2, "due")
        assert lo - 0.02 <= predicted <= hi + 0.02

    def test_pair_due(self, get_scheme, get_model):
        predicted, _, lo, hi = agreement(get_model, get_scheme(PairScheme), 4e-3, "due")
        assert lo <= predicted <= hi

    def test_pair_correction_region_has_no_failures(self):
        """At moderate BER every weak-cell pattern stays within t = 8."""
        tally = run_iid(
            PairScheme(), iid_rates(2e-4), ExactRunConfig(trials=150, seed=12)
        )
        assert tally.failure_rate == 0.0
        assert tally.ce > 0  # but corrections did happen
