"""Outcome taxonomy and tallying for reliability experiments.

Every simulated line read is classified against the known-written data:

* ``OK``       - correct data, nothing had to be corrected;
* ``CE``       - correct data after correction (corrected error);
* ``DUE``      - the scheme flagged the read uncorrectable (detected
  uncorrectable error); the data may or may not be wrong, but the system
  can machine-check-stop instead of consuming it;
* ``SDC``      - the scheme *believed* the data good but it is wrong
  (silent data corruption - the failure mode the paper's reliability
  comparison is about).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..schemes.base import BatchRead, LineReadResult


class Outcome(Enum):
    OK = "ok"
    CE = "ce"
    DUE = "due"
    SDC = "sdc"


def classify(result: LineReadResult, expected: np.ndarray) -> Outcome:
    """Judge one read against the data that was written."""
    if not result.believed_good:
        return Outcome.DUE
    if not np.array_equal(result.data, expected):
        return Outcome.SDC
    return Outcome.CE if result.corrections else Outcome.OK


def tally_batch(batch: BatchRead, expected: np.ndarray) -> "Tally":
    """:func:`classify` every line of a batch read against ``expected``; count the outcomes."""
    good = batch.believed_good
    wrong = (batch.data != expected).any(axis=tuple(range(1, batch.data.ndim)))
    fixed = batch.corrections > 0
    return Tally(
        ok=int(np.count_nonzero(good & ~wrong & ~fixed)),
        ce=int(np.count_nonzero(good & ~wrong & fixed)),
        due=int(np.count_nonzero(~good)),
        sdc=int(np.count_nonzero(good & wrong)),
    )


@dataclass
class Tally:
    """Counts of classified reads, with convenience rates."""

    ok: int = 0
    ce: int = 0
    due: int = 0
    sdc: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, outcome: Outcome) -> None:
        setattr(self, outcome.value, getattr(self, outcome.value) + 1)

    @property
    def total(self) -> int:
        return self.ok + self.ce + self.due + self.sdc

    def rate(self, outcome: Outcome) -> float:
        return getattr(self, outcome.value) / self.total if self.total else 0.0

    @property
    def failure_rate(self) -> float:
        """DUE + SDC rate (anything the system could not transparently fix)."""
        return (self.due + self.sdc) / self.total if self.total else 0.0

    def merge(self, other: "Tally") -> "Tally":
        extra: dict = {}
        if "weighted" in self.extra or "weighted" in other.extra:
            # importance-sampled accumulators (see reliability.stats) ride
            # along with the counts; merging in fixed outcome order keeps
            # the float log-sums deterministic across resume/workers.
            from .stats import merge_weighted

            merged = merge_weighted(
                self.extra.get("weighted"), other.extra.get("weighted")
            )
            if merged is not None:
                extra["weighted"] = merged
        return Tally(
            ok=self.ok + other.ok,
            ce=self.ce + other.ce,
            due=self.due + other.due,
            sdc=self.sdc + other.sdc,
            extra=extra,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "trials": self.total,
            "ok": self.ok,
            "ce": self.ce,
            "due": self.due,
            "sdc": self.sdc,
            "sdc_rate": self.rate(Outcome.SDC),
            "due_rate": self.rate(Outcome.DUE),
        }
