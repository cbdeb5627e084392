"""A3 (extension) - PAIR's burst correction vs DDR5 write-CRC detect+retry.

The incumbent mechanism for write-path bursts is the DDR5 link CRC: detect
the corrupted transfer, replay it.  PAIR instead stores the burst and
corrects it on read.  This bench measures both sides:

* coverage: probability the mechanism neutralises a b-beat burst (CRC:
  detection probability, guaranteed <= 8 bits then ~1 - 2^-8; PAIR:
  correction, always, by pin alignment);
* cost per event: a CRC retry replays the burst on the bus (~2x tBURST plus
  turnaround); PAIR pays nothing extra (the decode runs anyway).
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.codes.crc import CRC8_DDR5
from repro.dram import DDR5_4800
from repro.reliability import ExactRunConfig, run_burst_lengths_batched
from repro.schemes import PairScheme

LENGTHS = [2, 4, 8, 12, 16]
TRIALS = 400


def crc_detection_rate(burst_beats: int, trials: int, seed: int = 0) -> float:
    """Measured detection probability of a b-bit burst by the write CRC."""
    rng = np.random.default_rng([seed, burst_beats])
    bits = np.zeros(128, dtype=np.uint8)  # one chip's transfer slice
    frame = CRC8_DDR5.append(bits)
    detected = 0
    effective = 0
    for _ in range(trials):
        corrupted = frame.copy()
        start = int(rng.integers(0, 128 - burst_beats + 1))
        pattern = rng.integers(0, 2, burst_beats).astype(np.uint8)
        if burst_beats <= CRC8_DDR5.width:
            pattern[:] = 1  # contiguous full flip: the guaranteed case
        corrupted[start : start + burst_beats] ^= pattern
        if np.array_equal(corrupted, frame):
            continue
        effective += 1
        if not CRC8_DDR5.check(corrupted):
            detected += 1
    return detected / effective if effective else 1.0


@pytest.fixture(scope="module")
def comparison():
    pair = PairScheme()
    pair_tallies = run_burst_lengths_batched(pair, LENGTHS, ExactRunConfig(trials=20, seed=0))
    rows = []
    for b in LENGTHS:
        tally = pair_tallies[b]
        rows.append(
            {
                "burst_beats": b,
                "crc_detects": f"{crc_detection_rate(b, TRIALS):.4f}",
                "crc_retry_cost_cycles": 2 * DDR5_4800.tBURST + DDR5_4800.tWTR,
                "pair_corrects": f"{(tally.ok + tally.ce) / tally.total:.2f}",
                "pair_extra_cost_cycles": 0,
            }
        )
    return rows


def test_a3_crc_vs_pair(benchmark, comparison, report):
    rows = benchmark(lambda: comparison)
    report(
        "A3: write-path burst handling - DDR5 CRC detect+retry vs PAIR correct",
        format_table(rows),
    )
    by_len = {r["burst_beats"]: r for r in rows}
    # CRC guarantees detection up to its width...
    assert float(by_len[8]["crc_detects"]) == 1.0
    # ...but aliases ~2^-8 of longer bursts into *undetected* corruption
    assert float(by_len[16]["crc_detects"]) < 1.0
    # PAIR corrects everything, without the retry round trip
    assert all(r["pair_corrects"] == "1.00" for r in rows)
