"""Tests for outcome classification and tallying."""

import numpy as np

from repro.reliability import Outcome, Tally, classify
from repro.reliability.outcomes import tally_batch
from repro.schemes import BatchRead, LineReadResult


def result(data, believed_good=True, corrections=0):
    return LineReadResult(
        data=np.asarray(data), believed_good=believed_good, corrections=corrections
    )


class TestClassify:
    def test_ok(self):
        expected = np.zeros(4, dtype=np.uint8)
        assert classify(result(expected), expected) is Outcome.OK

    def test_ce(self):
        expected = np.zeros(4, dtype=np.uint8)
        assert classify(result(expected, corrections=2), expected) is Outcome.CE

    def test_sdc(self):
        expected = np.zeros(4, dtype=np.uint8)
        wrong = expected.copy()
        wrong[1] = 1
        assert classify(result(wrong), expected) is Outcome.SDC

    def test_due_trumps_data_comparison(self):
        expected = np.zeros(4, dtype=np.uint8)
        assert classify(result(expected, believed_good=False), expected) is Outcome.DUE


class TestTally:
    def test_counts_and_rates(self):
        t = Tally()
        for outcome in [Outcome.OK] * 7 + [Outcome.CE] * 2 + [Outcome.SDC]:
            t.add(outcome)
        assert t.total == 10
        assert t.rate(Outcome.SDC) == 0.1
        assert t.failure_rate == 0.1

    def test_merge(self):
        a = Tally(ok=1, sdc=2)
        b = Tally(ok=3, due=1)
        merged = a.merge(b)
        assert merged.ok == 4
        assert merged.sdc == 2
        assert merged.due == 1

    def test_as_dict(self):
        t = Tally(ok=8, due=2)
        d = t.as_dict()
        assert d["due_rate"] == 0.2
        assert d["trials"] == 10

    def test_empty_rates(self):
        assert Tally().failure_rate == 0.0


class TestTallyBatch:
    def test_equals_a_classify_loop(self):
        rng = np.random.default_rng(11)
        expected = rng.integers(0, 2, (2, 3, 4)).astype(np.uint8)
        data = np.repeat(expected[None], 40, axis=0)
        flip = rng.random(40) < 0.4
        data[flip, 1, 2, 3] ^= 1
        batch = BatchRead(data, rng.random(40) < 0.7, rng.integers(0, 3, 40))
        loop = Tally()
        for line in batch:
            loop.add(classify(line, expected))
        got = tally_batch(batch, expected)
        assert got.as_dict() == loop.as_dict()
        assert min(got.ok, got.ce, got.due, got.sdc) > 0  # every outcome occurs

    def test_empty(self):
        assert tally_batch(BatchRead.clean(0, (1, 2, 2)), np.zeros((1, 2, 2))).total == 0
