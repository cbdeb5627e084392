"""The campaign's one retry core: queue, backoff, quarantine, result guard."""

import time

import pytest

from repro.campaign.plan import ChunkSpec
from repro.campaign.retry import (
    FAIL_CRASH,
    RetryQueue,
    accept_result,
    check_policy,
)
from repro.campaign.supervisor import SupervisorPolicy
from repro.errors import NumericalGuard


def queue(indices=(0, 1, 2), seed=0, **policy):
    base = dict(retries=2, backoff=1.0, backoff_cap=30.0)
    base.update(policy)
    return RetryQueue(indices, SupervisorPolicy(**base), seed)


def drain(q):
    """Pop every ready chunk, far in the future: [(chunk, attempt), ...]."""
    out = []
    while (ready := q.pop_ready(float("inf"))) is not None:
        out.append(ready)
    return out


class TestBackoff:
    def test_doubles_per_attempt_then_caps(self):
        # one generator per queue: the same seed gives the same jitter draw,
        # so the ratio to attempt 0 isolates the min(cap, backoff * 2**a) term
        first = queue(seed=5).backoff_delay(0)
        for attempt, factor in [(1, 2), (2, 4), (3, 8), (4, 8), (10, 8)]:
            delay = queue(seed=5, backoff_cap=8.0).backoff_delay(attempt)
            assert delay == pytest.approx(first * factor)

    def test_jitter_in_half_open_range(self):
        q = queue(seed=3, backoff=2.0)
        jitters = [q.backoff_delay(0) / 2.0 for _ in range(2000)]
        assert all(0.5 <= j < 1.5 for j in jitters)
        assert min(jitters) < 0.6 and max(jitters) > 1.4  # spread, not constant

    def test_jitter_reproducible_per_seed(self):
        a, b, c = queue(seed=11), queue(seed=11), queue(seed=12)
        draws = [[q.backoff_delay(attempt) for attempt in range(6)] for q in (a, b, c)]
        assert draws[0] == draws[1]
        assert draws[0] != draws[2]

    def test_zero_backoff_is_ready_at_once(self):
        q = queue(backoff=0.0)
        drain(q)
        assert q.fail(1, 0, FAIL_CRASH, "boom")
        assert q.pop_ready(time.monotonic()) == (1, 1)


class TestQueue:
    def test_fresh_chunks_ready_in_index_order(self):
        q = queue(indices=(2, 0, 1))
        assert len(q) == 3 and 1 in q
        assert drain(q) == [(0, 0), (1, 0), (2, 0)]
        assert not q and q.next_ready() is None

    def test_retry_waits_for_its_backoff(self):
        q = queue(backoff=1.0)
        drain(q)
        assert q.fail(1, 0, FAIL_CRASH, "died")
        assert 1 in q
        ready_at = q.next_ready()
        assert q.pop_ready(ready_at - 1e-3) is None
        assert q.pop_ready(ready_at) == (1, 1)

    def test_quarantined_after_exactly_retries_plus_one_attempts(self):
        for retries in (0, 1, 3):
            q = queue(indices=(0,), retries=retries, backoff=0.0)
            attempts = 0
            while (ready := q.pop_ready(float("inf"))) is not None:
                chunk, attempt = ready
                assert attempt == attempts
                attempts += 1
                requeued = q.fail(chunk, attempt, FAIL_CRASH, "again")
                assert requeued == (attempts <= retries)
            assert attempts == retries + 1
            assert 0 not in q
            log = q.chunk(0).failures
            assert log == [f"attempt {a} crash: again" for a in range(retries + 1)]

    def test_committed_chunk_stale_entry_skipped(self):
        q = queue(indices=(0, 1, 2))
        q.discard(0)  # committed (say by a late result) while still queued
        assert 0 not in q and len(q) == 2
        assert drain(q) == [(1, 0), (2, 0)]

    def test_discarded_retry_entry_skipped(self):
        q = queue(indices=(0, 1), backoff=0.0)
        drain(q)
        assert q.fail(0, 0, FAIL_CRASH, "lost")
        q.discard(0)
        assert q.next_ready() is None
        assert q.pop_ready(float("inf")) is None


class TestAcceptResult:
    SPEC = ChunkSpec(index=3, seed=42, trials=8, payload=None)

    def test_builds_tally(self):
        tally = accept_result(self.SPEC, [5, 2, 1, 0], None, "chunk 3")
        assert (tally.ok, tally.ce, tally.due, tally.sdc) == (5, 2, 1, 0)
        assert tally.extra == {}

    @pytest.mark.parametrize("counts", [(8, 0, 0, -1), (7, 0, 0, 0), (8, 0, 0)])
    def test_bad_counts_raise_numerical_guard(self, counts):
        with pytest.raises(NumericalGuard, match="chunk 3"):
            accept_result(self.SPEC, counts, None, "chunk 3")


class TestCheckPolicy:
    def test_names_policy_field_and_value(self):
        with pytest.raises(ValueError, match=r"SupervisorPolicy\.retries must be >= 0, got -1"):
            SupervisorPolicy(retries=-1)

    def test_rules(self):
        class Knobs:
            slots, count, wait, grace = 1, 0, 0.5, 0.0

        check_policy(Knobs(), at_least_one=("slots",), counts=("count",),
                     positive=("wait",), non_negative=("grace",))
        for rule, name, want in [("at_least_one", "count", ">= 1"),
                                 ("positive", "grace", "finite and > 0"),
                                 ("non_negative", "inf", "finite and >= 0")]:
            knobs = Knobs()
            knobs.inf = float("inf")
            with pytest.raises(ValueError, match=rf"Knobs\.{name} must be {want}, got"):
                check_policy(knobs, **{rule: (name,)})
