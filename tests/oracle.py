"""Scalar reference engines: the bit-identity oracle of the batched engines.

One plain loop per Monte-Carlo engine of :mod:`repro.reliability.batch`:
every trial draws its coordinates from the engine's generator in the
documented order, builds its chips, and decodes one line through
:meth:`~repro.schemes.base.EccScheme.read_line` - never through a batched
``read_lines`` override.  The batched engines, the campaign chunk
executors and every worker count must reproduce these tallies bit for bit
(``test_batch_engine.py``, ``test_differential.py``, the campaign and
agreement suites).  Likewise one ``choice()`` loop per conditional table of
:mod:`repro.reliability.conditional`, which draws every trial word in one
array pass (``test_conditional.py``).  The oracle lives in ``tests/``
because nothing in the library needs a second, slower copy of the same
answer.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import BlockCode, DecodeStatus
from repro.faults.rates import FaultRates
from repro.faults.types import FaultInstance, FaultType, TransferBurst
from repro.reliability.conditional import WordConditionals
from repro.reliability.exact import ExactRunConfig, _make_chips, _plant_fault, _zero_line
from repro.reliability.outcomes import Tally, classify
from repro.schemes.base import EccScheme


def run_iid(scheme: EccScheme, rates: FaultRates, config: ExactRunConfig) -> Tally:
    """Random accesses under the full fault process (reference of ``run_iid_batched``).

    Each trial reads one random line; the fault universe is rebuilt every
    ``resample_faults_every`` trials with chip seed ``config.seed + trial``.
    """
    rng = np.random.default_rng([config.seed, 0xE4AC7])
    device = scheme.rank.device
    tally = Tally()
    expected = _zero_line(scheme)
    chips = None
    for trial in range(config.trials):
        if chips is None or trial % config.resample_faults_every == 0:
            chips = _make_chips(scheme, rates, seed=config.seed + trial)
        bank = int(rng.integers(device.banks))
        row = int(rng.integers(device.rows_per_bank))
        col = int(rng.integers(device.columns_per_row))
        tally.add(classify(scheme.read_line(chips, bank, row, col), expected))
    return tally


def run_single_fault(
    scheme: EccScheme, kind: FaultType, rates: FaultRates, config: ExactRunConfig
) -> Tally:
    """One planted fault of ``kind`` under each read (reference of ``run_single_fault_batched``)."""
    rng = np.random.default_rng([config.seed, 0xFA3])
    device = scheme.rank.device
    tally = Tally()
    expected = _zero_line(scheme)
    clean = rates.with_ber(0.0)
    total_bits = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
    length = min(rates.transfer_burst_length, device.burst_length)
    for trial in range(config.trials):
        bank, row, col = 0, 64, int(rng.integers(device.columns_per_row))
        fault = _plant_fault(kind, rates, device, row, col, total_bits, rng)
        faults_per_chip: list[list[FaultInstance]] = [[] for _ in range(scheme.rank.chips)]
        faults_per_chip[0] = [fault]
        chips = _make_chips(
            scheme, clean, seed=config.seed * 7919 + trial, faults_per_chip=faults_per_chip
        )
        bursts = None
        if kind is FaultType.TRANSFER_BURST:
            bursts = {0: TransferBurst(
                pin=int(rng.integers(device.pins)),
                beat_start=int(rng.integers(device.burst_length - length + 1)),
                length=length,
            )}
        tally.add(classify(scheme.read_line(chips, bank, row, col, bursts), expected))
    return tally


def run_burst_lengths(
    scheme: EccScheme, lengths: list[int], config: ExactRunConfig
) -> dict[int, Tally]:
    """A transfer burst on a random pin of chip 0 per read (reference of ``run_burst_lengths_batched``)."""
    device = scheme.rank.device
    out: dict[int, Tally] = {}
    expected = _zero_line(scheme)
    clean = FaultRates(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )
    for length in lengths:
        rng = np.random.default_rng([config.seed, 0xB0057, length])
        tally = Tally()
        length_eff = min(length, device.burst_length)
        chips = _make_chips(scheme, clean, seed=config.seed)
        for _ in range(config.trials):
            row = int(rng.integers(device.rows_per_bank))
            col = int(rng.integers(device.columns_per_row))
            burst = TransferBurst(
                pin=int(rng.integers(device.pins)),
                beat_start=int(rng.integers(device.burst_length - length_eff + 1)),
                length=length_eff,
            )
            tally.add(classify(scheme.read_line(chips, 0, row, col, {0: burst}), expected))
        out[length] = tally
    return out


def measure_bit_code(
    code: BlockCode,
    j_max: int,
    samples: int = 2000,
    seed: int = 0,
    silent_on_detect: bool = False,
) -> WordConditionals:
    """``conditional.measure_bit_code`` with one ``choice()`` and one scalar
    ``decode`` per trial word."""
    rng = np.random.default_rng([seed, 0xC0DE])
    j_values = np.arange(j_max + 1)
    p_flag = np.zeros(j_max + 1)
    p_bad = np.zeros(j_max + 1)
    for j in range(1, j_max + 1):
        words = np.zeros((samples, code.n), dtype=np.uint8)
        for s in range(samples):
            words[s, rng.choice(code.n, j, replace=False)] = 1
        flags = bads = 0
        for word in words:
            result = code.decode(word)
            if result.status is DecodeStatus.DETECTED and not silent_on_detect:
                flags += 1
            elif np.any(result.data):
                bads += 1
        p_flag[j] = flags / samples
        p_bad[j] = bads / samples
    return WordConditionals(j_values, p_flag, p_bad, p_bad.copy())


def measure_symbol_code(
    code: BlockCode,
    j_max: int,
    samples: int = 1500,
    seed: int = 0,
    symbol_bits: int = 8,
    window_symbols: int | None = None,
) -> WordConditionals:
    """``conditional.measure_symbol_code`` with one ``choice()``, one
    ``integers()`` and one scalar ``decode`` per trial word."""
    rng = np.random.default_rng([seed, 0x5C0DE])
    j_values = np.arange(j_max + 1)
    p_flag = np.zeros(j_max + 1)
    p_bad = np.zeros(j_max + 1)
    p_bad_window = np.zeros(j_max + 1)
    windows = (code.k // window_symbols) if window_symbols else 1
    for j in range(1, j_max + 1):
        words = np.zeros((samples, code.n), dtype=np.int64)
        for s in range(samples):
            positions = rng.choice(code.n, j, replace=False)
            words[s, positions] = 1 << rng.integers(0, symbol_bits, size=j)
        flags = bads = 0
        bad_windows = 0.0
        for word in words:
            result = code.decode(word)
            if result.status is DecodeStatus.DETECTED:
                flags += 1
                continue
            wrong = np.nonzero(result.data)[0]
            if wrong.size:
                bads += 1
                if window_symbols:
                    bad_windows += np.unique(wrong // window_symbols).size / windows
        p_flag[j] = flags / samples
        p_bad[j] = bads / samples
        p_bad_window[j] = (bad_windows / samples) if window_symbols else p_bad[j]
    return WordConditionals(j_values, p_flag, p_bad, p_bad_window)
