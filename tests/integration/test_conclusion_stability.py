"""Seed-stability: the paper-level conclusions must not depend on one seed.

The F5 performance ordering (PAIR ~ baseline > DUO > XED) and the F2
reliability ordering are the reproduction's conclusions; this test re-draws
the workload traces with different seeds and checks the ordering survives.
"""

import pytest

from repro.dram import AddressMapper, RANK_X8_5CHIP
from repro.perf import TraceConfig, generate_trace, simulate
from repro.schemes import Duo, NoEcc, PairScheme, Xed


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_f5_ordering_stable_across_seeds(seed):
    mapper = AddressMapper(RANK_X8_5CHIP)
    cfg = TraceConfig(
        name="stability", requests=8000, arrival_rate=0.065,
        write_fraction=0.45, masked_write_fraction=0.15, row_locality=0.6,
        seed=seed,
    )
    trace = generate_trace(cfg, mapper)
    throughput = {
        s.name: simulate(trace, s.timing_overlay, s.name, cfg.name).throughput
        for s in (NoEcc(), Xed(), Duo(), PairScheme())
    }
    assert throughput["pair"] > throughput["duo"] > throughput["xed"], (seed, throughput)
    assert throughput["pair"] > 0.95 * throughput["no-ecc"], (seed, throughput)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_f2_ordering_stable_across_conditional_seeds(seed):
    """The reliability ordering survives re-measuring the decoder tables."""
    from repro.reliability import build_model

    p = 3e-6
    fails = {}
    for scheme in (Xed(), Duo(), PairScheme()):
        model = build_model(scheme, samples=200, seed=seed)
        probs = model.line_probs(p)
        fails[scheme.name] = probs["sdc"] + probs["due"]
    assert fails["pair"] < fails["duo"] < fails["xed"], (seed, fails)
