"""Error taxonomy and the tally numerical guard."""

import pytest

from repro.errors import (
    CampaignAborted,
    CampaignError,
    ChunkFailure,
    ChunkTimeout,
    EngineMismatch,
    NumericalGuard,
    guard_tally,
    guard_weighted,
)
from repro.reliability.stats import unit_weighted_tally


class TestTaxonomy:
    def test_all_subtypes_are_campaign_errors(self):
        for exc_type in (ChunkFailure, ChunkTimeout, EngineMismatch,
                         NumericalGuard, CampaignAborted):
            assert issubclass(exc_type, CampaignError)
        assert issubclass(CampaignError, RuntimeError)

    def test_chunk_failure_carries_id_and_seed(self):
        exc = ChunkFailure("chunk 3 died", chunk_id=3, seed=1009)
        assert exc.chunk_id == 3
        assert exc.seed == 1009

    def test_chunk_timeout_carries_budget(self):
        exc = ChunkTimeout("too slow", chunk_id=1, seconds=2.5)
        assert exc.chunk_id == 1
        assert exc.seconds == 2.5

    def test_engine_mismatch_carries_fingerprints(self):
        exc = EngineMismatch("nope", expected="aaa", got="bbb")
        assert exc.expected == "aaa" and exc.got == "bbb"


class TestGuardTally:
    def test_valid_counts_pass(self):
        guard_tally((10, 2, 1, 0), expected_total=13)

    def test_negative_count_rejected(self):
        with pytest.raises(NumericalGuard, match="negative"):
            guard_tally((10, 2, 1, -1))

    def test_nan_rejected(self):
        with pytest.raises(NumericalGuard, match="NaN"):
            guard_tally((float("nan"), 0, 0, 0))

    def test_non_integral_rejected(self):
        with pytest.raises(NumericalGuard, match="not integral"):
            guard_tally((1.5, 0, 0, 0))

    def test_integral_float_accepted(self):
        guard_tally((10.0, 0, 0, 0), expected_total=10)

    def test_total_mismatch_rejected(self):
        with pytest.raises(NumericalGuard, match="expected 20 trials"):
            guard_tally((10, 2, 1, 0), expected_total=20)

    def test_wrong_arity_rejected(self):
        with pytest.raises(NumericalGuard, match="expected 4"):
            guard_tally((1, 2, 3))

    def test_context_in_message(self):
        with pytest.raises(NumericalGuard, match="chunk 7"):
            guard_tally((0, 0, 0, -2), context="chunk 7")


class TestGuardWeighted:
    def accumulator(self):
        return unit_weighted_tally({"ok": 6, "ce": 1, "due": 1, "sdc": 0})

    def test_valid_accumulator_passes(self):
        guard_weighted(self.accumulator(), expected_total=8)

    @pytest.mark.parametrize("key,value", [
        ("tilt", "1.5"), ("defensive", None), ("n", "8"), ("outcomes", [1, 2]),
    ])
    def test_wrong_typed_field_is_a_numerical_guard(self, key, value):
        # accumulators arrive from result frames and manifests: untrusted
        weighted = dict(self.accumulator(), **{key: value})
        with pytest.raises(NumericalGuard):
            guard_weighted(weighted, context="chunk 2")
