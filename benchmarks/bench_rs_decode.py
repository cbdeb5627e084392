"""Decode-throughput micro-benchmarks for the Reed-Solomon hot path.

Tracks the numbers the batched Monte-Carlo engine lives on, from this PR
onward (CI uploads the ``--benchmark-json`` output as ``BENCH_rs_decode.json``):

* scalar decode of a clean word (the syndrome screen),
* scalar decode of a dirty word (key equation + Chien + Forney),
* ``decode_batch`` throughput on a Monte-Carlo-shaped batch (mostly clean
  rows, a dirty minority),
* ``decode_batch`` on a dense beyond-bound batch (every word carries
  t+1..t+8 single-bit symbol errors: the F2 conditional-table regime, where
  the vectorised key-equation solve runs),
* the dense syndrome screen (every row of a 4096-row batch dirty),
* the F2 reliability sweep itself - the tentpole's headline wall-clock.

Run with ``pytest benchmarks/bench_rs_decode.py --benchmark-only
--benchmark-json=BENCH_rs_decode.json``.  CI gates these numbers against
the committed baseline via ``benchmarks/check_regression.py``.
"""

import numpy as np
import pytest

from repro.codes import DecodeStatus, SinglyExtendedRS
from repro.galois import GF256
from repro.galois.backends import KERNEL

BATCH = 1024
DIRTY_PER_BATCH = 32  # ~3% dirty rows, the Monte-Carlo regime
SCREEN_BATCH = 4096  # dense regime: every row dirty (burst/beyond-bound studies)
BEYOND_BATCH = 400  # one F2 table cell: samples=400 words at one error count


@pytest.fixture(scope="module")
def code():
    return SinglyExtendedRS(GF256, 256, 240)


@pytest.fixture(scope="module")
def dirty_word(code):
    rng = np.random.default_rng(0xD1)
    word = np.zeros(code.n, dtype=np.int64)
    pos = rng.choice(code.n, code.t, replace=False)
    word[pos] = rng.integers(1, 256, size=code.t)
    return word


@pytest.fixture(scope="module")
def mc_batch(code):
    rng = np.random.default_rng(0xBA7C)
    words = np.zeros((BATCH, code.n), dtype=np.int64)
    for i in rng.choice(BATCH, DIRTY_PER_BATCH, replace=False):
        n_err = int(rng.integers(1, code.t + 3))
        pos = rng.choice(code.n, n_err, replace=False)
        words[i, pos] = rng.integers(1, 256, size=n_err)
    return words


def test_decode_clean_word(benchmark, code):
    clean = np.zeros(code.n, dtype=np.int64)
    result = benchmark(code.decode, clean)
    assert result.corrections == 0


def test_decode_dirty_word(benchmark, code, dirty_word):
    result = benchmark(code.decode, dirty_word)
    assert result.corrections == code.t


def test_decode_batch_throughput(benchmark, code, mc_batch):
    results = benchmark(code.decode_batch, mc_batch)
    assert len(results) == BATCH
    benchmark.extra_info["batch"] = BATCH
    benchmark.extra_info["dirty_rows"] = DIRTY_PER_BATCH
    benchmark.extra_info["words_per_second"] = BATCH / benchmark.stats["mean"]


@pytest.fixture(scope="module")
def beyond_bound_batch(code):
    rng = np.random.default_rng(0xBE70)
    words = np.zeros((BEYOND_BATCH, code.n), dtype=np.int64)
    for i in range(BEYOND_BATCH):
        n_err = int(rng.integers(code.t + 1, code.t + 9))
        pos = rng.choice(code.n, n_err, replace=False)
        words[i, pos] = 1 << rng.integers(0, 8, size=n_err)
    return words


def test_decode_beyond_bound_batch(benchmark, code, beyond_bound_batch):
    results = benchmark(code.decode_batch, beyond_bound_batch)
    assert len(results) == BEYOND_BATCH
    assert all(r.status is not DecodeStatus.OK for r in results)
    benchmark.extra_info["batch"] = BEYOND_BATCH
    benchmark.extra_info["words_per_second"] = BEYOND_BATCH / benchmark.stats["mean"]


@pytest.fixture(scope="module")
def screen_batch(code):
    rng = np.random.default_rng(0x5C4EE)
    return rng.integers(0, 256, size=(SCREEN_BATCH, code.inner.n), dtype=np.int64)


def test_syndrome_screen_dense(benchmark, code, screen_batch):
    """Dense-batch syndrome screen: every row dirty, so the kernel's dense
    branch runs over all of them; the recorded mean feeds the CI gate."""
    inner = code.inner
    KERNEL.syndromes(GF256, screen_batch, inner.r, inner.fcr)  # builds tables
    benchmark(KERNEL.syndromes, GF256, screen_batch, inner.r, inner.fcr)
    benchmark.extra_info["batch"] = SCREEN_BATCH
    benchmark.extra_info["rows_per_second"] = SCREEN_BATCH / benchmark.stats["mean"]


def test_f2_sweep_wall_clock(benchmark, report):
    """End-to-end wall-clock of the F2 reliability sweep (the ≥10x target).

    One round, cold caches each time: clears the measured-conditional and
    kernel caches so the benchmark times the full pipeline the way
    ``bench_f2_reliability_sweep.py`` pays it, not a cache replay.
    """
    from repro.analysis.sweep import log_space, reliability_sweep
    from repro.galois import batch as galois_batch
    from repro.reliability import conditional
    from repro.schemes import default_schemes

    bers = log_space(1e-7, 1e-3, 9)

    def sweep():
        conditional.clear_cache()
        galois_batch.clear_cache()
        return reliability_sweep(default_schemes(), bers, samples=400, seed=0)

    result = benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=1)
    assert set(result) == {s.name for s in default_schemes()}
    report(
        "RS decode micro-bench: F2 sweep wall-clock (batched engine)",
        f"samples=400, 9 BER points: {benchmark.stats['mean']:.2f}s mean "
        f"(seed engine measured at ~15.0s on this host; see EXPERIMENTS.md)",
    )
