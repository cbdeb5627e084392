"""Chaos schedule parsing and worker-side hooks (the harness itself)."""

import pytest

from repro.campaign.chaos import ChaosInjected, ChaosSchedule
from repro.reliability import Tally


class TestParse:
    def test_default_attempt_zero(self):
        schedule = ChaosSchedule.parse("crash:1,hang:2")
        assert schedule.crash == {1: frozenset({0})}
        assert schedule.hang == {2: frozenset({0})}
        assert schedule.abort_after is None

    def test_explicit_attempts(self):
        schedule = ChaosSchedule.parse("crash:3@0|2,corrupt:1@1")
        assert schedule.crash == {3: frozenset({0, 2})}
        assert schedule.corrupt == {1: frozenset({1})}

    def test_abort(self):
        assert ChaosSchedule.parse("abort:5").abort_after == 5

    def test_empty_items_ignored(self):
        schedule = ChaosSchedule.parse("crash:0, ,")
        assert schedule.crash == {0: frozenset({0})}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosSchedule.parse("explode:1")

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="bad chaos item"):
            ChaosSchedule.parse("crash")


class TestHooks:
    def test_raise_keys_on_attempts(self):
        schedule = ChaosSchedule.parse("raise:4,raise:5@1|2")
        assert schedule.raises == {4: frozenset({0}), 5: frozenset({1, 2})}
        with pytest.raises(ChaosInjected):
            schedule.fire_pre_execute(4, 0)
        schedule.fire_pre_execute(4, 1)  # the retry is clean
        schedule.fire_pre_execute(5, 0)
        for attempt in (1, 2):
            with pytest.raises(ChaosInjected):
                schedule.fire_pre_execute(5, attempt)

    def test_unscheduled_chunk_untouched(self):
        schedule = ChaosSchedule.parse("raise:4,corrupt:2")
        schedule.fire_pre_execute(0, 0)
        tally = Tally(ok=8)
        assert schedule.corrupt_tally(0, 0, tally) is tally

    def test_corrupt_makes_tally_invalid(self):
        schedule = ChaosSchedule.parse("corrupt:2")
        bad = schedule.corrupt_tally(2, 0, Tally(ok=8))
        assert bad.sdc == -1
        assert schedule.corrupt_tally(2, 1, Tally(ok=8)).sdc == 0  # attempt 1 clean

    def test_should_abort_threshold(self):
        schedule = ChaosSchedule.parse("abort:2")
        assert not schedule.should_abort(1)
        assert schedule.should_abort(2)
        assert schedule.should_abort(3)
        assert not ChaosSchedule().should_abort(10)

    def test_deterministic_by_construction(self):
        # Two parses of the same spec behave identically on every key.
        a = ChaosSchedule.parse("crash:1,hang:2@1,raise:3,corrupt:0,abort:9")
        b = ChaosSchedule.parse("crash:1,hang:2@1,raise:3,corrupt:0,abort:9")
        assert a == b
