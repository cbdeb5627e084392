"""The obs contract that matters most: results never change.

Every instrumentation site sits outside the engines' random streams, so a
seeded run must produce bit-identical tallies whether observability is off,
on, or toggled mid-suite.  These tests run the real engines both ways and
compare exact counts - any guard placed on the wrong side of an RNG draw
breaks them.
"""

from repro import obs
from repro.dram import AddressMapper, RANK_X8_5CHIP
from repro.faults import DEFAULT_RATES, FaultRates, FaultSampler, FaultType
from repro.perf import WORKLOADS, generate_trace, simulate
from repro.reliability import ExactRunConfig, run_iid_batched, run_single_fault_batched
from repro.reliability.exact import _chip_seeds
from repro.schemes import PairScheme


def rates(ber):
    return FaultRates(
        single_cell_ber=ber, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def run_tally():
    tally = run_iid_batched(
        PairScheme(), rates(3e-4), ExactRunConfig(trials=40, seed=9)
    )
    return (tally.ok, tally.ce, tally.due, tally.sdc)


def single_fault_tally(trials=24):
    """Mat faults over two single-fault chunks."""
    tally = run_single_fault_batched(
        PairScheme(), FaultType.MAT, DEFAULT_RATES, ExactRunConfig(trials=trials, seed=4),
        chunk_trials=12,
    )
    return (tally.ok, tally.ce, tally.due, tally.sdc)


class TestEnginesBitIdentical:
    def test_batched_mc_ignores_obs_state(self):
        with obs.enabled_scope(False):
            off = run_tally()
        with obs.enabled_scope(True):
            on = run_tally()
        assert off == on
        # and the instrumented run actually recorded something
        assert obs.snapshot()["counters"].get("reliability.chunks", 0) > 0

    def test_timing_sim_ignores_obs_state(self):
        trace = generate_trace(WORKLOADS["balanced"], AddressMapper(RANK_X8_5CHIP))

        def run():
            res = simulate(trace, PairScheme().timing_overlay, "pair", "balanced")
            return (res.total_cycles, res.read_latency_mean, res.row_hit_rate)

        with obs.enabled_scope(False):
            off = run()
        with obs.enabled_scope(True):
            on = run()
        assert off == on


class TestDisabledIsSilent:
    def test_disabled_run_records_nothing(self):
        run_tally()
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        assert obs.finished_spans() == []


class TestFaultStreamCounters:
    def test_chunk_seeds_and_primes_in_one_pass(self):
        """Each trial seeds one sampler and one weak-cell stream per chip,
        and primes the one mask per chip its read needs."""
        scheme = PairScheme()
        trials, chips = 40, scheme.rank.chips
        with obs.enabled_scope(True):
            run_iid_batched(scheme, rates(3e-4), ExactRunConfig(trials=trials, seed=9))
        counters = obs.snapshot()["counters"]
        assert counters["faults.masks.primed"] == trials * chips
        assert counters["faults.streams.seeded"] == 2 * trials * chips

    def test_single_fault_chunk_primes_every_chip(self):
        """A single-fault trial is a universe of its own: its one read's
        mask is built ahead of the read on every chip, and counting them
        changes no result."""
        trials, chips = 24, PairScheme().rank.chips
        with obs.enabled_scope(False):
            off = single_fault_tally(trials)
        assert obs.snapshot()["counters"] == {}
        with obs.enabled_scope(True):
            on = single_fault_tally(trials)
        assert off == on
        assert obs.snapshot()["counters"]["faults.masks.primed"] == trials * chips

    def test_only_samplers_failing_the_zero_screen_draw(self):
        """At sparse structured rates most fault samplers are screened empty;
        ``faults.samplers.drawn`` counts the rest, and counting changes no
        result."""
        scheme = PairScheme()
        rates = DEFAULT_RATES.with_ber(1e-5)
        config = ExactRunConfig(trials=300, seed=3)

        def run():
            tally = run_iid_batched(scheme, rates, config)
            return (tally.ok, tally.ce, tally.due, tally.sdc)

        with obs.enabled_scope(False):
            off = run()
        assert obs.snapshot()["counters"] == {}
        with obs.enabled_scope(True):
            on = run()
        assert off == on
        seeds = [
            chip_seed
            for trial in range(config.trials)
            for chip_seed in _chip_seeds(scheme, config.seed + trial)
        ]
        # below the PTRS route a sampler that fails the screen draws a fault
        with_faults = sum(
            1 for seed in seeds
            if FaultSampler(scheme.rank.device, rates, seed).sample_faults()
        )
        drawn = obs.snapshot()["counters"]["faults.samplers.drawn"]
        assert drawn == with_faults
        assert 0 < drawn < len(seeds) // 20


class TestChunkSpans:
    def test_universe_and_mask_spans_nest_in_the_chunk(self):
        """An i.i.d. chunk times its fault-universe sampling and its mask
        pass as the ``faults.overlay`` and ``faults.mask`` layers, inside the
        chunk's span; timing them changes no count."""
        scheme = PairScheme()
        config = ExactRunConfig(trials=24, seed=4, resample_faults_every=3)

        def run():
            tally = run_iid_batched(scheme, DEFAULT_RATES.with_ber(1e-4), config, chunk_trials=12)
            return (tally.ok, tally.ce, tally.due, tally.sdc)

        with obs.enabled_scope(False):
            off = run()
        assert obs.finished_spans() == []
        with obs.enabled_scope(True):
            on = run()
        assert off == on
        spans = obs.finished_spans()
        chunks = [span for span in spans if span.name == "reliability.iid_chunk"]
        assert len(chunks) == 2
        for name in ("faults.overlay", "faults.mask"):
            layer = [span for span in spans if span.name == name]
            assert len(layer) == len(chunks)
            assert all(span.parent == "reliability.iid_chunk" for span in layer)
            assert all(span.depth == chunks[0].depth + 1 for span in layer)

    def test_mask_span_nests_in_the_single_fault_chunk(self):
        """A single-fault chunk times its mask pass as ``faults.mask``
        inside the chunk's span."""
        with obs.enabled_scope(True):
            single_fault_tally()
        spans = obs.finished_spans()
        chunks = [span for span in spans if span.name == "reliability.single_fault_chunk"]
        masks = [span for span in spans if span.name == "faults.mask"]
        assert len(chunks) == len(masks) == 2
        assert all(span.parent == "reliability.single_fault_chunk" for span in masks)
        assert all(span.depth == chunks[0].depth + 1 for span in masks)
