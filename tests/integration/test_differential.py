"""Differential sweep: every scheme, three independent answers, one truth.

For each of the seven schemes in the lineup (the five defaults plus the
rank-level SECDED baseline and PAIR with erasure decoding), the same
question - "what fraction of reads fail at this BER?" - is answered by
three unrelated mechanisms:

1. the semi-analytic model (:func:`repro.reliability.build_model`);
2. the batched Monte-Carlo engine (:func:`repro.reliability.run_iid_batched`)
   and the campaign chunk executors built on it;
3. the scalar oracle (``tests/oracle.py``), one scalar reader call per
   trial.

(1) must sit inside a Wilson confidence band of (2) at an elevated BER
chosen per scheme so failures are observable, and (2) must be bit-identical
to (3) - not statistically close, *identical*.  A regression in any layer
(codes, galois kernels, scheme datapaths, engines) breaks at least one leg.

The ``pair`` and ``xed`` cases double as the fast CI smoke subset; the
remaining schemes are marked ``slow``.  PAIR-erasure runs twice through the
bit-identity leg: with an empty defect map, and with a profiled one whose
hints change the outcome.
"""

import pytest

from repro.faults import FaultInstance, FaultOverlay, FaultRates, FaultType
from repro.reliability import (
    ExactRunConfig,
    run_iid_batched,
    wilson_interval,
)
from repro.reliability.batch import (
    iid_chunk_tally,
    iid_epochs,
    single_fault_chunk_tally,
    single_fault_specs,
)
from repro.schemes import (
    ConventionalIecc,
    DefectMap,
    Duo,
    NoEcc,
    PairErasureScheme,
    PairScheme,
    RankSecDed,
    Xed,
)

from .. import oracle

TRIALS = 300
SEED = 33


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


def pair_erasure():
    # An empty defect map: erasure decoding degenerates to plain PAIR, the
    # regime the analytic model describes.
    return PairErasureScheme(defect_map=DefectMap())


def profiled_pair_erasure():
    """PAIR-erasure profiled on chips with a 10-symbol mat defect at the
    start of every segment of every bank: each read decodes hinted words."""
    scheme = PairErasureScheme()
    device = scheme.rank.device
    overlays = [
        FaultOverlay(device, iid_rates(0.0), seed=chip, faults=[
            FaultInstance(FaultType.MAT, bank=bank, row_start=0,
                          row_count=device.rows_per_bank, pin=chip % device.pins,
                          bit_start=segment * scheme.layout.segment_data_bits, bit_count=80, density=1.0)
            for bank in range(device.banks)
            for segment in range(scheme.layout.num_codewords // device.pins)
        ])
        for chip in range(scheme.rank.chips)
    ]
    scheme.profile(scheme.make_devices(overlays), banks=tuple(range(device.banks)),
                   sample_rows=2)
    return scheme


# (factory, elevated BER, wilson-band slack).  BERs are chosen so the
# dominant failure mode of each scheme is observable in TRIALS trials
# without saturating at probability 1; slack absorbs the analytic models'
# known single-bit-regime approximation at these BERs.
CASES = {
    "no-ecc": (NoEcc, 1.5e-3, 0.02),
    "iecc-sec": (ConventionalIecc, 4e-3, 0.03),
    "rank-secded": (RankSecDed, 2.5e-3, 0.03),
    "xed": (Xed, 6e-3, 0.03),
    "duo": (Duo, 1e-2, 0.04),
    "pair": (PairScheme, 2.5e-3, 0.03),
    "pair-erasure": (pair_erasure, 2.5e-3, 0.03),
}

#: fast CI subset; everything else carries the ``slow`` marker.
SMOKE = {"pair", "xed"}


def scheme_params():
    return [
        pytest.param(name, id=name,
                     marks=() if name in SMOKE else pytest.mark.slow)
        for name in CASES
    ]


@pytest.mark.parametrize("name", scheme_params())
def test_analytic_within_wilson_of_batched_mc(name, get_scheme, get_model):
    factory, ber, slack = CASES[name]
    scheme = get_scheme(factory)
    tally = run_iid_batched(
        scheme, iid_rates(ber), ExactRunConfig(trials=TRIALS, seed=SEED)
    )
    probs = get_model(scheme, 300, seed=SEED).line_probs(ber)
    for metric in ("sdc", "due"):
        lo, hi = wilson_interval(getattr(tally, metric), TRIALS)
        assert lo - slack <= probs[metric] <= hi + slack, (
            f"{name}: analytic {metric}={probs[metric]:.4f} outside "
            f"[{lo:.4f}, {hi:.4f}] +/- {slack} "
            f"(MC observed {getattr(tally, metric)}/{TRIALS})"
        )


@pytest.mark.parametrize("name", scheme_params())
def test_mc_failures_are_observable(name, get_scheme):
    """The elevated BER must actually exercise the decoder: a differential
    test against an all-OK tally proves nothing."""
    factory, ber, _ = CASES[name]
    tally = run_iid_batched(
        get_scheme(factory), iid_rates(ber), ExactRunConfig(trials=TRIALS, seed=SEED)
    )
    assert tally.due + tally.sdc > 0, f"{name}: no failures at ber={ber:g}"


@pytest.mark.parametrize("name", [pytest.param(n, id=n) for n in CASES])
def test_batched_bit_identical_to_scalar_fallback(name, get_scheme):
    factory, ber, _ = CASES[name]
    scheme = get_scheme(factory)
    rates = iid_rates(ber)
    config = ExactRunConfig(trials=48, seed=7, resample_faults_every=8)
    a = iid_chunk_tally(scheme, rates, iid_epochs(scheme, config))
    b = oracle.run_iid(scheme, rates, config)
    assert counts(a) == counts(b), name


def test_profiled_pair_erasure_batched_bit_identical_to_scalar():
    scheme = profiled_pair_erasure()
    rates = iid_rates(1e-3)
    config = ExactRunConfig(trials=32, seed=7, resample_faults_every=8)
    a = iid_chunk_tally(scheme, rates, iid_epochs(scheme, config))
    b = oracle.run_iid(scheme, rates, config)
    assert counts(a) == counts(b)
    # the hints matter: blind PAIR corrects what the spent budget flags
    blind = run_iid_batched(PairScheme(), rates, config)
    assert counts(a) != counts(blind)


@pytest.mark.parametrize("kind", [FaultType.PIN_LINE, FaultType.TRANSFER_BURST])
def test_single_fault_batched_bit_identical_to_scalar(kind):
    from repro.faults import DEFAULT_RATES

    scheme = PairScheme()
    config = ExactRunConfig(trials=16, seed=3)
    specs = single_fault_specs(scheme, kind, DEFAULT_RATES, config)
    clean = DEFAULT_RATES.with_ber(0.0)
    a = single_fault_chunk_tally(scheme, clean, config.seed, specs)
    b = oracle.run_single_fault(scheme, kind, DEFAULT_RATES, config)
    assert counts(a) == counts(b), kind
