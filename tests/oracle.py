"""Scalar references: the bit-identity oracle of the batched read paths.

* One scalar reader per scheme (:func:`read_line`): a line read the way the
  datapath was first written - every chip row read, every codeword decoded
  with its own ``decode`` call, nothing skipped.  Each scheme's one reader,
  :meth:`~repro.schemes.base.EccScheme.read_lines`, must return the same
  data, belief and correction count for every read
  (``test_batch_engine.py::TestReadLinesContract``).
* One plain loop per Monte-Carlo engine of :mod:`repro.reliability.batch`:
  every trial draws its coordinates from the engine's generator in the
  documented order, builds its chips, and reads one line through the
  scalar reader - never through the scheme's ``read_lines``, so that the
  comparison is not the batched path checked against itself.  The batched
  engines, the campaign chunk executors and every worker count must
  reproduce these tallies bit for bit (``test_batch_engine.py``,
  ``test_differential.py``, the campaign and agreement suites).
* One ``choice()`` loop per conditional table of
  :mod:`repro.reliability.conditional`, which draws every trial word in one
  array pass and decodes several rows per call (``test_conditional.py``).
* The dense conditional-count sampler of multilevel splitting
  (:func:`conditional_counts_given_max`): every cell inverts all three word
  classes' CDFs and keeps its own, where
  :mod:`repro.reliability.rareevent` inverts only the one it needs
  (``test_rareevent.py``).
* The importance-sampling chunk computed cell by cell
  (:func:`rareevent_chunk_tally`) and splitting's per-cell Rao-Blackwell
  step (:func:`conditional_outcome_probs`): every word's log-ratio, flag and
  bad thresholds evaluated at its own cell, where
  :mod:`repro.reliability.rareevent` evaluates them once per error count
  and gathers (``test_rareevent.py::TestChunkKernelParity``).
* The closed forms' arithmetic the slow way: XED's line probabilities
  enumerated state by state (:func:`xed_line_probs`), log-gamma per value
  (:func:`lgamma_arr`) and the Hamming syndrome as a multiply-and-XOR over
  every bit (:func:`syndrome_values`); :mod:`repro.reliability.analytic`,
  :mod:`repro.reliability.stats` and :mod:`repro.codes.hamming` tabulate
  them and must agree float for float (``test_analytic.py``,
  ``test_stats.py``, ``test_hamming.py``).

The oracle lives in ``tests/`` because nothing in the library needs a
second, slower copy of the same answer.
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np

from repro.codes.base import BlockCode, DecodeStatus
from repro.dram.device import DramDevice
from repro.faults.rates import FaultRates
from repro.faults.sampler import FaultOverlay
from repro.faults.types import FaultInstance, FaultType, TransferBurst
from repro.reliability.analytic import XedModel, _mix
from repro.reliability.conditional import WordConditionals
from repro.reliability.exact import ExactRunConfig, _chip_seeds, _plant_fault, _zero_line
from repro.reliability.outcomes import Tally, classify
from repro.reliability import rareevent
from repro.reliability.rareevent import COMBINE_FLAG_DUE, COMBINE_XED, LineLaw
from repro.reliability.stats import (
    at_least_one,
    binom_logpmf,
    binom_tail,
    logsumexp,
    weighted_tally,
)
from repro.schemes import (
    ConventionalIecc,
    Duo,
    NoEcc,
    PairErasureScheme,
    PairScheme,
    RankSecDed,
    Xed,
)
from repro.schemes._common import access_window
from repro.schemes.base import EccScheme, LineReadResult

# -- scalar line readers -------------------------------------------------------


def faulty_row_with_burst(
    device: DramDevice, bank: int, row: int, col: int,
    burst: TransferBurst | None, footprint=None,
) -> np.ndarray:
    """A whole row as the ECC engine sees it for one access: the faults
    inside ``footprint`` (the whole row when None), and a write-path
    transfer burst's beats flipped inside the accessed column window."""
    bits = device.row_with_faults(bank, row, footprint)
    if burst is not None:
        bl = device.config.burst_length
        base = col * bl + burst.beat_start
        end = min(base + burst.length, (col + 1) * bl)
        bits[burst.pin, base:end] ^= 1
    return bits


def _duo_spare_symbol(scheme: Duo, row_bits: np.ndarray, col: int) -> int:
    pins, offs = scheme._spare_symbol_slots(col)
    bits = row_bits[pins, offs].astype(np.int64)
    return int((bits << np.arange(8)).sum())


def _pair(scheme: PairScheme, chips, bank, row, col, bursts) -> LineReadResult:
    bl = scheme.rank.device.burst_length
    footprint = scheme.read_footprint(col)
    out = np.zeros(scheme.line_shape, dtype=np.uint8)
    believed_good = True
    corrections = 0
    for chip_idx in range(scheme.rank.data_chips):
        row_bits = faulty_row_with_burst(
            chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
        )
        corrected_row = row_bits
        for cw in scheme.layout.codewords_of_access(col):
            symbols = scheme.layout.gather(row_bits, cw)
            result = scheme.code.decode(symbols)
            corrections += result.corrections
            if result.status is DecodeStatus.DETECTED:
                believed_good = False
            elif result.corrections:
                if corrected_row is row_bits:
                    corrected_row = row_bits.copy()
                scheme.layout.scatter(corrected_row, cw, result.codeword)
        out[chip_idx] = access_window(corrected_row, col, bl)
    return LineReadResult(data=out, believed_good=believed_good, corrections=corrections)


def _pair_erasure(scheme: PairErasureScheme, chips, bank, row, col, bursts) -> LineReadResult:
    # whole-row reads (no footprint), every codeword with its erasure hints
    bl = scheme.rank.device.burst_length
    out = np.zeros(scheme.line_shape, dtype=np.uint8)
    believed_good = True
    corrections = 0
    for chip_idx in range(scheme.rank.data_chips):
        row_bits = faulty_row_with_burst(chips[chip_idx], bank, row, col, bursts.get(chip_idx))
        for cw in scheme.layout.codewords_of_access(col):
            symbols = scheme.layout.gather(row_bits, cw)
            erasures = scheme._erasures_for_codeword(chip_idx, bank, cw)
            result = scheme.code.decode(symbols, erasures=erasures)
            corrections += result.corrections
            if result.believed_good:
                if result.corrections:
                    scheme.layout.scatter(row_bits, cw, result.codeword)
            else:
                believed_good = False
        out[chip_idx] = access_window(row_bits, col, bl)
    return LineReadResult(data=out, believed_good=believed_good, corrections=corrections)


def _duo(scheme: Duo, chips, bank, row, col, bursts) -> LineReadResult:
    bl = scheme.rank.device.burst_length
    footprint = scheme.read_footprint(col)
    data_syms = []
    chip_spares = []
    for chip_idx in range(scheme.rank.data_chips):
        row_bits = faulty_row_with_burst(
            chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
        )
        data_syms.append(scheme._chip_symbols(access_window(row_bits, col, bl)))
        chip_spares.append(_duo_spare_symbol(scheme, row_bits, col))
    ecc_idx = scheme.rank.data_chips
    ecc_bits = faulty_row_with_burst(
        chips[ecc_idx], bank, row, col, bursts.get(ecc_idx), footprint
    )
    ecc_main = scheme._chip_symbols(access_window(ecc_bits, col, bl))
    received = np.concatenate(
        [np.concatenate(data_syms), chip_spares, ecc_main[: scheme.ecc_chip_symbols]]
    )
    result = scheme.code.decode(received)
    decoded = result.data if result.believed_good else received[: scheme.data_symbols]
    return LineReadResult(
        data=scheme._symbols_to_lines(decoded[None, :])[0],
        believed_good=result.status is not DecodeStatus.DETECTED,
        corrections=result.corrections,
    )


def _beat_major_to_line(scheme: EccScheme, words: np.ndarray) -> np.ndarray:
    """``(data_chips, BL * pins)`` beat-major words -> a ``(data_chips, pins, BL)`` line."""
    device = scheme.rank.device
    return words.reshape(scheme.rank.data_chips, device.burst_length, device.pins).transpose(
        0, 2, 1
    )


def _xed(scheme: Xed, chips, bank, row, col, bursts) -> LineReadResult:
    data_chips = scheme.rank.data_chips
    n_chips = data_chips + 1  # data chips plus the parity chip
    chip_words = np.zeros((n_chips, scheme.layout.k), dtype=np.uint8)
    flagged: list[int] = []
    corrections = 0
    footprint = scheme.read_footprint(col)
    for chip_idx in range(n_chips):
        row_bits = faulty_row_with_burst(
            chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
        )
        result = scheme.code.decode(scheme.layout.gather(row_bits, col))
        corrections += result.corrections
        if result.status is DecodeStatus.DETECTED:
            flagged.append(chip_idx)
        chip_words[chip_idx] = result.data
    if len(flagged) > 1:
        # Multiple catch-words: RAID-3 cannot rebuild two lanes.
        return LineReadResult(
            data=_beat_major_to_line(scheme, chip_words[:data_chips]),
            believed_good=False,
            corrections=corrections,
        )
    if len(flagged) == 1 and flagged[0] < data_chips:
        lane = flagged[0]
        lanes = chip_words[:data_chips].copy()
        lanes[lane] = scheme.parity.reconstruct(lanes, chip_words[data_chips], lane)
        return LineReadResult(
            data=_beat_major_to_line(scheme, lanes), believed_good=True,
            corrections=corrections + 1,
        )
    # No catch-word, or the parity chip itself flagged: data chips are fine.
    return LineReadResult(
        data=_beat_major_to_line(scheme, chip_words[:data_chips]),
        believed_good=True,
        corrections=corrections,
    )


def _iecc(scheme: ConventionalIecc, chips, bank, row, col, bursts) -> LineReadResult:
    footprint = scheme.read_footprint(col)
    words = np.zeros((scheme.rank.data_chips, scheme.layout.k), dtype=np.uint8)
    corrections = 0
    for chip_idx in range(scheme.rank.data_chips):
        row_bits = faulty_row_with_burst(
            chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
        )
        result = scheme.code.decode(scheme.layout.gather(row_bits, col))
        corrections += result.corrections
        # silent: on detection the raw data is forwarded all the same
        words[chip_idx] = result.data
    return LineReadResult(
        data=_beat_major_to_line(scheme, words), believed_good=True, corrections=corrections
    )


def _no_ecc(scheme: NoEcc, chips, bank, row, col, bursts) -> LineReadResult:
    bl = scheme.rank.device.burst_length
    footprint = scheme.read_footprint(col)
    out = np.zeros(scheme.line_shape, dtype=np.uint8)
    for chip_idx in range(scheme.rank.data_chips):
        row_bits = faulty_row_with_burst(
            chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
        )
        out[chip_idx] = access_window(row_bits, col, bl)
    return LineReadResult(data=out, believed_good=True)


def _rank(scheme: RankSecDed, chips, bank, row, col, bursts) -> LineReadResult:
    bl = scheme.rank.device.burst_length
    footprint = scheme.read_footprint(col)
    raw = np.zeros(scheme.line_shape, dtype=np.uint8)
    for chip_idx in range(scheme.rank.data_chips):
        row_bits = faulty_row_with_burst(
            chips[chip_idx], bank, row, col, bursts.get(chip_idx), footprint
        )
        raw[chip_idx] = access_window(row_bits, col, bl)
    ecc_idx = scheme.rank.data_chips
    ecc_bits = faulty_row_with_burst(
        chips[ecc_idx], bank, row, col, bursts.get(ecc_idx), footprint
    )
    checks = access_window(ecc_bits, col, bl).T.reshape(-1)
    flat = scheme._line_flat(raw)
    believed_good = True
    corrections = 0
    out = flat.copy()
    for s in range(scheme.slices):
        word = np.concatenate([flat[s * 64 : (s + 1) * 64], checks[s * 8 : (s + 1) * 8]])
        result = scheme.code.decode(word)
        corrections += result.corrections
        if result.status is DecodeStatus.DETECTED:
            believed_good = False
        else:
            out[s * 64 : (s + 1) * 64] = result.data
    return LineReadResult(
        data=_beat_major_to_line(scheme, out),
        believed_good=believed_good,
        corrections=corrections,
    )


#: scalar reader per scheme class; subclasses resolve through their MRO
_READERS = {
    PairErasureScheme: _pair_erasure,
    PairScheme: _pair,
    Duo: _duo,
    Xed: _xed,
    ConventionalIecc: _iecc,
    NoEcc: _no_ecc,
    RankSecDed: _rank,
}


def read_line(
    scheme: EccScheme,
    chips: list[DramDevice],
    bank: int,
    row: int,
    col: int,
    bursts: dict[int, TransferBurst] | None = None,
) -> LineReadResult:
    """Scalar reference of ``scheme.read_line``: one ``decode`` per codeword."""
    reader = next(_READERS[cls] for cls in type(scheme).__mro__ if cls in _READERS)
    return reader(scheme, chips, bank, row, col, bursts or {})


# -- Monte-Carlo engines -------------------------------------------------------


def make_chips(
    scheme: EccScheme,
    rates: FaultRates,
    seed: int,
    faults_per_chip: list[list[FaultInstance]] | None = None,
) -> list[DramDevice]:
    """One fault universe, a lazy overlay per chip: each chip samples its
    own faults (or takes ``faults_per_chip``) and builds each mask when a
    read first asks for it."""
    overlays = []
    for chip_idx, chip_seed in enumerate(_chip_seeds(scheme, seed)):
        forced = None if faults_per_chip is None else faults_per_chip[chip_idx]
        overlays.append(FaultOverlay(scheme.rank.device, rates, seed=chip_seed, faults=forced))
    return scheme.make_devices(overlays)


def iid_coords(scheme: EccScheme, config: ExactRunConfig) -> list[tuple[int, int, int]]:
    """(bank, row, col) per trial, one scalar draw at a time (reference of
    ``batch._sample_iid_coords``)."""
    rng = np.random.default_rng([config.seed, 0xE4AC7])
    device = scheme.rank.device
    coords = []
    for _ in range(config.trials):
        bank = int(rng.integers(device.banks))
        row = int(rng.integers(device.rows_per_bank))
        col = int(rng.integers(device.columns_per_row))
        coords.append((bank, row, col))
    return coords


def run_iid(scheme: EccScheme, rates: FaultRates, config: ExactRunConfig) -> Tally:
    """Random accesses under the full fault process (reference of ``run_iid_batched``).

    Each trial reads one random line; the fault universe is rebuilt every
    ``resample_faults_every`` trials with chip seed ``config.seed + trial``.
    """
    tally = Tally()
    expected = _zero_line(scheme)
    chips = None
    for trial, (bank, row, col) in enumerate(iid_coords(scheme, config)):
        if chips is None or trial % config.resample_faults_every == 0:
            chips = make_chips(scheme, rates, seed=config.seed + trial)
        tally.add(classify(read_line(scheme, chips, bank, row, col), expected))
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
        chips = make_chips(
            scheme, clean, seed=config.seed * 7919 + trial, faults_per_chip=faults_per_chip
        )
        bursts = None
        if kind is FaultType.TRANSFER_BURST:
            bursts = {0: TransferBurst(
                pin=int(rng.integers(device.pins)),
                beat_start=int(rng.integers(device.burst_length - length + 1)),
                length=length,
            )}
        tally.add(classify(read_line(scheme, chips, bank, row, col, bursts), expected))
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
        chips = make_chips(scheme, clean, seed=config.seed)
        for _ in range(config.trials):
            row = int(rng.integers(device.rows_per_bank))
            col = int(rng.integers(device.columns_per_row))
            burst = TransferBurst(
                pin=int(rng.integers(device.pins)),
                beat_start=int(rng.integers(device.burst_length - length_eff + 1)),
                length=length_eff,
            )
            tally.add(classify(read_line(scheme, chips, 0, row, col, {0: burst}), expected))
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
    return WordConditionals(j_values, p_flag, p_bad)


def measure_symbol_code(
    code: BlockCode,
    j_max: int,
    samples: int = 1500,
    seed: int = 0,
) -> WordConditionals:
    """``conditional.measure_symbol_code`` with one ``choice()``, one
    ``integers()`` and one scalar ``decode`` per trial word."""
    rng = np.random.default_rng([seed, 0x5C0DE])
    j_values = np.arange(j_max + 1)
    p_flag = np.zeros(j_max + 1)
    p_bad = np.zeros(j_max + 1)
    for j in range(1, j_max + 1):
        words = np.zeros((samples, code.n), dtype=np.int64)
        for s in range(samples):
            positions = rng.choice(code.n, j, replace=False)
            words[s, positions] = 1 << rng.integers(0, code.field.m, size=j)
        flags = bads = 0
        for word in words:
            result = code.decode(word)
            if result.status is DecodeStatus.DETECTED:
                flags += 1
            elif np.any(result.data):
                bads += 1
        p_flag[j] = flags / samples
        p_bad[j] = bads / samples
    return WordConditionals(j_values, p_flag, p_bad)


def conditional_counts_given_max(
    rng: np.random.Generator, law: LineLaw, level: int, trials: int
) -> np.ndarray:
    """``rareevent._conditional_counts_given_max`` with every CDF inverted at
    every cell: the same draws, three ``searchsorted`` passes over all cells,
    and a nested ``where`` keeping each cell's own class."""
    n, q, m = law.n, law.q, law.words
    logpmf = np.asarray(binom_logpmf(n, np.arange(n + 1), q))
    cdf = np.cumsum(np.exp(logpmf))
    tail_mass = binom_tail(n, level, q)
    below_mass = 1.0 - tail_mass
    f_pmf = below_mass ** np.arange(m) * tail_mass
    f_cdf = np.cumsum(f_pmf / at_least_one(tail_mass, m))
    first = np.minimum(np.searchsorted(f_cdf, rng.random(trials)), m - 1)
    below_cdf = cdf[:level] / max(below_mass, np.finfo(float).tiny)
    tail_log = logpmf[level:]
    tail_cdf = np.cumsum(np.exp(tail_log - logsumexp(tail_log)))
    u = rng.random((trials, m))
    c_below = np.minimum(np.searchsorted(below_cdf, u), level - 1)
    c_tail = level + np.minimum(np.searchsorted(tail_cdf, u), n - level)
    c_free = np.minimum(np.searchsorted(cdf, u), n)
    cols = np.arange(m)[None, :]
    first_col = first[:, None]
    return np.where(
        cols < first_col, c_below, np.where(cols == first_col, c_tail, c_free)
    )


# -- rare-event chunk and Rao-Blackwell step, per cell ------------------------


def _log_weights(
    law: LineLaw, counts: np.ndarray, q_tilt: float, defensive: float
) -> np.ndarray:
    """Per-trial log-likelihood ratio, ``ell`` computed at every cell."""
    a = math.log(q_tilt) - math.log(law.q)
    b = math.log1p(-q_tilt) - math.log1p(-law.q)
    ell = counts * a + (law.n - counts) * b  # (trials, words)
    peak = ell.max(axis=1)
    log_mix = (
        peak
        + np.log(np.exp(ell - peak[:, None]).sum(axis=1))
        - math.log(law.words)
    )
    if defensive > 0.0:
        log_ratio = np.logaddexp(
            math.log(defensive), math.log1p(-defensive) + log_mix
        )
    else:
        log_ratio = log_mix
    return -log_ratio


def _sample_word_states(
    rng: np.random.Generator, law: LineLaw, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(flagged, bad) per word given counts, by one uniform per word."""
    clipped = np.minimum(counts, len(law.p_flag) - 1)
    u = rng.random(counts.shape)
    flagged = u < law.p_flag[clipped]
    bad = (~flagged) & (u < law.p_flag[clipped] + law.p_bad[clipped])
    return flagged, bad


def _combine_outcomes(
    law: LineLaw, counts: np.ndarray, flagged: np.ndarray, bad: np.ndarray
) -> dict[str, np.ndarray]:
    """Line outcome masks from per-word states, per the scheme's rule."""
    touched = counts.sum(axis=1) > 0
    if law.combine == COMBINE_FLAG_DUE:
        due = flagged.any(axis=1)
        sdc = ~due & bad.any(axis=1)
    elif law.combine == COMBINE_XED:
        data = law.words - 1  # last word is the parity chip
        n_flags = flagged.sum(axis=1)
        due = n_flags >= 2
        one = n_flags == 1
        lane = flagged.argmax(axis=1)
        any_bad = bad.any(axis=1)
        any_data_bad = bad[:, :data].any(axis=1)
        sdc = ~due & (
            (one & (lane < data) & any_bad)
            | (one & (lane == data) & any_data_bad)
            | ((n_flags == 0) & any_data_bad)
        )
    else:
        raise ValueError(f"unknown combine rule {law.combine!r}")
    ce = touched & ~due & ~sdc
    ok = ~touched & ~due & ~sdc
    return {"ok": ok, "ce": ce, "due": due, "sdc": sdc}


def rareevent_chunk_tally(
    scheme: EccScheme,
    rates: FaultRates,
    config: ExactRunConfig,
    payload: dict[str, Any],
) -> Tally:
    """``rareevent.rareevent_chunk_tally`` evaluated cell by cell: the same
    draws in the same order from the payload's law, then each word's
    log-ratio and flag/bad thresholds computed from its own count."""
    law = payload["law"]
    tilt = float(payload["tilt"])
    defensive = float(payload["defensive"])
    trials = int(payload["trials"])
    q_tilt = rareevent.tilted_rate(law.q, tilt)
    rng = np.random.default_rng(
        [config.seed, rareevent._RNG_TAG_IS, int(payload["start"])]
    )
    arm = rng.random(trials)
    word = rng.integers(law.words, size=trials)
    counts = rng.binomial(law.n, law.q, size=(trials, law.words))
    tilted = rng.binomial(law.n, q_tilt, size=trials)
    take_tilt = arm >= defensive
    counts[take_tilt, word[take_tilt]] = tilted[take_tilt]

    log_w = _log_weights(law, counts, q_tilt, defensive)
    flagged, bad = _sample_word_states(rng, law, counts)
    masks = _combine_outcomes(law, counts, flagged, bad)
    weighted = weighted_tally(
        {name: int(mask.sum()) for name, mask in masks.items()},
        {name: log_w[mask] for name, mask in masks.items()},
        estimator="is", tilt=tilt, defensive=defensive,
    )
    return Tally(
        ok=int(masks["ok"].sum()), ce=int(masks["ce"].sum()),
        due=int(masks["due"].sum()), sdc=int(masks["sdc"].sum()),
        extra={"weighted": weighted},
    )


def conditional_outcome_probs(
    law: LineLaw, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``rareevent._conditional_outcome_probs`` with each word's flag and bad
    probabilities looked up and combined at its own cell."""
    clipped = np.minimum(counts, len(law.p_flag) - 1)
    pf = law.p_flag[clipped]  # (trials, words)
    pb = law.p_bad[clipped]
    no_flag = np.clip(1.0 - pf, 0.0, 1.0)
    good = np.clip(1.0 - pf - pb, 0.0, 1.0)
    if law.combine == COMBINE_FLAG_DUE:
        p_no_flag = no_flag.prod(axis=1)
        p_all_good = good.prod(axis=1)
        return 1.0 - p_no_flag, p_no_flag - p_all_good
    data = law.words - 1
    p_zero_flags = no_flag.prod(axis=1)
    p_one_flag = np.zeros(counts.shape[0])
    p_sdc = np.zeros(counts.shape[0])
    for lane in range(law.words):
        others = [j for j in range(law.words) if j != lane]
        rest_no_flag = no_flag[:, others].prod(axis=1)
        single = pf[:, lane] * rest_no_flag
        p_one_flag += single
        if lane < data:
            rest_good = good[:, others].prod(axis=1)
            p_any_bad_rest = np.clip(
                1.0 - np.divide(
                    rest_good, rest_no_flag,
                    out=np.ones_like(rest_good), where=rest_no_flag > 0,
                ),
                0.0, 1.0,
            )
            p_sdc += single * p_any_bad_rest
        else:
            data_good = good[:, :data].prod(axis=1)
            data_no_flag = no_flag[:, :data].prod(axis=1)
            p_any_data_bad = np.clip(
                1.0 - np.divide(
                    data_good, data_no_flag,
                    out=np.ones_like(data_good), where=data_no_flag > 0,
                ),
                0.0, 1.0,
            )
            p_sdc += single * p_any_data_bad
    p_due = np.clip(1.0 - p_zero_flags - p_one_flag, 0.0, 1.0)
    p_sdc += p_zero_flags - good[:, :data].prod(axis=1) * no_flag[:, data]
    return p_due, np.clip(p_sdc, 0.0, 1.0)


def xed_line_probs(model: XedModel, ber: float) -> dict[str, float]:
    """``XedModel.line_probs`` as a loop over every per-word outcome state."""
    n = model.scheme.code.n
    p_flag, p_bad = _mix(n, ber, model.p_flag, model.p_bad)
    p_good = max(0.0, 1.0 - p_flag - p_bad)
    data_chips = model.scheme.rank.data_chips
    words = data_chips + 1  # + parity chip
    sdc = due = 0.0
    for states in itertools.product((0, 1, 2), repeat=words):  # f/b/g
        prob = 1.0
        for s in states:
            prob *= (p_flag, p_bad, p_good)[s]
        if prob == 0.0:
            continue
        flags = [i for i, s in enumerate(states) if s == 0]
        bads = [i for i, s in enumerate(states) if s == 1]
        if len(flags) >= 2:
            due += prob
        elif len(flags) == 1:
            lane = flags[0]
            if lane < data_chips:
                # reconstruction XORs every other word; any silent
                # corruption there poisons the rebuilt lane
                if bads:
                    sdc += prob
            else:  # parity chip flagged; data words stand as decoded
                if any(b < data_chips for b in bads):
                    sdc += prob
        else:
            if any(b < data_chips for b in bads):
                sdc += prob
    return {"sdc": sdc, "due": due}


#: ``stats._lgamma_arr`` computed value by value.
lgamma_arr = np.vectorize(math.lgamma, otypes=[float])


def syndrome_values(words: np.ndarray, columns: list[int]) -> np.ndarray:
    """``hamming._batch_syndrome_values`` as the XOR of every set bit's column."""
    column_values = np.asarray(columns, dtype=np.int64)
    return np.bitwise_xor.reduce(words.astype(np.int64) * column_values[None, :], axis=1)
