"""Tests for trace generation and workload presets."""

import pytest

from repro.dram import AddressMapper, RANK_X8_5CHIP
from repro.perf import TraceConfig, WORKLOADS, generate_trace, workload


@pytest.fixture
def mapper():
    return AddressMapper(RANK_X8_5CHIP)


class TestGenerator:
    def test_request_count(self, mapper):
        trace = generate_trace(TraceConfig(requests=500), mapper)
        assert len(trace) == 500

    def test_arrivals_monotonic(self, mapper):
        trace = generate_trace(TraceConfig(requests=500), mapper)
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)

    def test_arrival_rate_respected(self, mapper):
        cfg = TraceConfig(requests=4000, arrival_rate=0.05)
        trace = generate_trace(cfg, mapper)
        measured = len(trace) / trace[-1].arrival
        assert measured == pytest.approx(0.05, rel=0.1)

    def test_write_fraction(self, mapper):
        cfg = TraceConfig(requests=4000, write_fraction=0.4)
        trace = generate_trace(cfg, mapper)
        frac = sum(r.is_write for r in trace) / len(trace)
        assert frac == pytest.approx(0.4, abs=0.03)

    def test_masked_only_on_writes(self, mapper):
        cfg = TraceConfig(requests=2000, write_fraction=0.5, masked_write_fraction=0.5)
        trace = generate_trace(cfg, mapper)
        assert all(r.is_write for r in trace if r.is_masked)
        masked = sum(r.is_masked for r in trace)
        writes = sum(r.is_write for r in trace)
        assert masked / writes == pytest.approx(0.5, abs=0.06)

    def test_row_locality_produces_hits(self, mapper):
        hot = generate_trace(TraceConfig(requests=2000, row_locality=0.9), mapper)
        cold = generate_trace(TraceConfig(requests=2000, row_locality=0.0), mapper)

        def same_row_fraction(trace):
            hits = sum(
                trace[i].address.same_row(trace[i - 1].address)
                for i in range(1, len(trace))
            )
            return hits / (len(trace) - 1)

        assert same_row_fraction(hot) > 0.75
        assert same_row_fraction(cold) < 0.05

    def test_deterministic_per_seed(self, mapper):
        a = generate_trace(TraceConfig(requests=100, seed=5), mapper)
        b = generate_trace(TraceConfig(requests=100, seed=5), mapper)
        assert all(
            x.arrival == y.arrival and x.address == y.address for x, y in zip(a, b)
        )

    def test_addresses_within_capacity(self, mapper):
        trace = generate_trace(TraceConfig(requests=1000), mapper)
        for r in trace:
            assert 0 <= r.address.bank < mapper.banks
            assert 0 <= r.address.col < mapper.cols


class TestWorkloads:
    def test_suite_has_six_families(self):
        assert len(WORKLOADS) == 6

    def test_lookup(self):
        assert workload("balanced").name == "balanced"
        with pytest.raises(KeyError):
            workload("does-not-exist")

    def test_spans_the_differentiating_dimensions(self):
        writes = [w.write_fraction for w in WORKLOADS.values()]
        localities = [w.row_locality for w in WORKLOADS.values()]
        assert min(writes) < 0.1 and max(writes) >= 0.5
        assert min(localities) <= 0.1 and max(localities) >= 0.9
